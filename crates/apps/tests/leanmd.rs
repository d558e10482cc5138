//! LeanMD correctness: conservation laws, determinism, dispatch-mode
//! equivalence, particle migration, across backends.

use charm_apps::leanmd::{charm::run_charm, MdParams};
use charm_core::{Backend, DispatchMode, Runtime};
use charm_sim::MachineModel;

fn sim_rt(npes: usize) -> Runtime {
    Runtime::new(npes).backend(Backend::Sim(MachineModel::local(npes)))
}

#[test]
fn particles_conserved_with_migration() {
    let params = MdParams {
        steps: 24,
        migrate_every: 4,
        dt: 0.02, // large enough that particles actually change cells
        ..MdParams::small()
    };
    let n0 = params.num_particles() as u64;
    let r = run_charm(params, sim_rt(4));
    assert_eq!(r.particles, n0, "no particle may be lost or duplicated");
}

#[test]
fn momentum_conserved() {
    let params = MdParams {
        steps: 30,
        dt: 0.005,
        ..MdParams::small()
    };
    let r = run_charm(params, sim_rt(3));
    for k in 0..3 {
        assert!(
            r.momentum[k].abs() < 1e-9,
            "momentum must stay ~0 (pairwise forces): {:?}",
            r.momentum
        );
    }
}

#[test]
fn energy_is_finite_and_motion_happens() {
    let r = run_charm(MdParams::small(), sim_rt(2));
    assert!(r.kinetic.is_finite() && r.kinetic > 0.0);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let r = run_charm(MdParams::small(), sim_rt(4));
        (
            r.particles,
            r.kinetic.to_bits(),
            [
                r.momentum[0].to_bits(),
                r.momentum[1].to_bits(),
                r.momentum[2].to_bits(),
            ],
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn pe_count_does_not_change_physics() {
    let k1 = run_charm(MdParams::small(), sim_rt(1)).kinetic;
    let k4 = run_charm(MdParams::small(), sim_rt(4)).kinetic;
    // Same reduction tree ordering is not guaranteed across PE counts, so
    // allow FP-roundoff-level differences only.
    assert!((k1 - k4).abs() < 1e-9 * (1.0 + k1.abs()), "{k1} vs {k4}");
}

#[test]
fn dynamic_dispatch_same_physics() {
    let native = run_charm(MdParams::small(), sim_rt(2));
    let dynamic = run_charm(MdParams::small(), sim_rt(2).dispatch(DispatchMode::Dynamic));
    assert_eq!(native.particles, dynamic.particles);
    assert!((native.kinetic - dynamic.kinetic).abs() < 1e-12);
}

#[test]
fn threads_backend_agrees_with_sim() {
    let sim = run_charm(MdParams::small(), sim_rt(3));
    let thr = run_charm(MdParams::small(), Runtime::new(3));
    assert_eq!(sim.particles, thr.particles);
    assert!((sim.kinetic - thr.kinetic).abs() < 1e-9 * (1.0 + sim.kinetic.abs()));
}

#[test]
fn degenerate_two_cell_grid() {
    let params = MdParams {
        cells: [2, 1, 1],
        per_cell: 6,
        steps: 10,
        ..MdParams::small()
    };
    let n0 = params.num_particles() as u64;
    let r = run_charm(params, sim_rt(2));
    assert_eq!(r.particles, n0);
}

#[test]
fn fine_grained_many_chares_per_pe() {
    // 4^3 cells + ~hundreds of computes on 2 PEs: the fine-grained regime.
    let params = MdParams {
        cells: [4, 4, 4],
        per_cell: 4,
        steps: 6,
        ..MdParams::small()
    };
    let r = run_charm(params.clone(), sim_rt(2));
    assert_eq!(r.particles, params.num_particles() as u64);
    // Cells + computes comfortably exceed 100 chares per PE.
    let computes = params.all_computes().len();
    assert!(computes > 200, "expected fine-grained: {computes} computes");
}

#[test]
fn example_config_is_bit_identical_across_runs_and_dispatch_modes() {
    // `examples/leanmd.rs`'s machine and particles, for a few steps (one
    // migration): the sim's clock reads no host time, so delivery order,
    // and with it every floating-point sum, repeats exactly.
    let params = MdParams {
        cells: [4, 4, 4],
        per_cell: 32,
        cell_size: 4.0,
        cutoff: 4.0,
        dt: 0.002,
        steps: 6,
        migrate_every: 5,
        seed: 2018,
    };
    let run = |mode: DispatchMode| {
        let rt = Runtime::new(4)
            .backend(Backend::Sim(MachineModel::bluewaters(8)))
            .dispatch(mode);
        let r = run_charm(params.clone(), rt);
        assert_eq!(r.particles as usize, params.num_particles());
        (r.kinetic, r.momentum)
    };
    let bits = |(k, m): (f64, [f64; 3])| (k.to_bits(), m.map(f64::to_bits));
    let native = run(DispatchMode::Native);
    let dynamic = run(DispatchMode::Dynamic);
    assert_eq!(bits(native), bits(run(DispatchMode::Native)), "native");
    assert_eq!(bits(dynamic), bits(run(DispatchMode::Dynamic)), "dynamic");
    // Across modes the physics is the same, but the interpreter charge
    // moves arrival times, so the cells' `Sum` partials combine in another
    // order: momentum, a sum that cancels to ~1e-15, keeps only its
    // magnitude, while the kinetic energy (what the example asserts) keeps
    // every bit.
    assert_eq!(native.0.to_bits(), dynamic.0.to_bits(), "kinetic energy");
    for k in 0..3 {
        assert!(
            (native.1[k] - dynamic.1[k]).abs() < 1e-12,
            "momentum {:?} against {:?}",
            native.1,
            dynamic.1
        );
    }
}
