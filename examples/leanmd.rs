//! The LeanMD mini-app (paper §V-C), runnable end to end: a Lennard-Jones
//! simulation over a 3D cell array plus a sparse 6D pair-compute array,
//! with periodic particle migration between cells.
//!
//! Prints conservation diagnostics (particle count, momentum) and the
//! native-vs-dynamic dispatch comparison on the simulated backend. The
//! sim's clock reads no host time and LeanMD charges no kernel compute
//! (yet), so both times per step are network and runtime time only, and
//! the printed gap is the dynamic mode's runtime overhead (interpreter
//! charge and pickle bytes), not a share of a compute-bound step. Two runs
//! print the same bytes.
//!
//! Run with: `cargo run --release --example leanmd`
//! Knobs: CHARMRS_PES (default 4), CHARMRS_STEPS (default 20)

use charm_rs::apps::leanmd::{charm::run_charm, MdParams};
use charm_rs::core::{Backend, DispatchMode, Runtime};
use charm_rs::sim::MachineModel;

fn env(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let pes = env("CHARMRS_PES", 4);
    let steps = env("CHARMRS_STEPS", 20) as u32;
    let params = MdParams {
        cells: [4, 4, 4],
        per_cell: 32,
        cell_size: 4.0,
        cutoff: 4.0,
        dt: 0.002,
        steps,
        migrate_every: 5,
        seed: 2018,
    };
    println!(
        "leanmd: {} cells x {} particles = {} total, {} pair computes, {steps} steps, {pes} simulated PEs",
        params.num_cells(),
        params.per_cell,
        params.num_particles(),
        params.all_computes().len(),
    );

    let native = run_charm(
        params.clone(),
        Runtime::new(pes).backend(Backend::Sim(MachineModel::bluewaters(8))),
    );
    println!(
        "  native  : {:8.3} ms/step | particles {} | momentum [{:+.2e} {:+.2e} {:+.2e}] | kinetic {:.4}",
        native.time_per_step_ms,
        native.particles,
        native.momentum[0],
        native.momentum[1],
        native.momentum[2],
        native.kinetic,
    );
    assert_eq!(
        native.particles as usize,
        params.num_particles(),
        "conservation"
    );

    let dynamic = run_charm(
        params.clone(),
        Runtime::new(pes)
            .backend(Backend::Sim(MachineModel::bluewaters(8)))
            .dispatch(DispatchMode::Dynamic),
    );
    println!(
        "  dynamic : {:8.3} ms/step (CharmPy-analog runtime overhead {:+.1}%)",
        dynamic.time_per_step_ms,
        (dynamic.time_per_step_ms / native.time_per_step_ms - 1.0) * 100.0,
    );
    assert_eq!(
        native.kinetic.to_bits(),
        dynamic.kinetic.to_bits(),
        "same physics"
    );
    println!("  physics identical across dispatch modes");
}
