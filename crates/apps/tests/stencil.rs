//! stencil3d correctness: the charm and minimpi implementations must agree
//! with each other and with the naive single-grid reference, across
//! backends, decompositions, dispatch modes and load balancing.

use std::sync::Arc;

use charm_apps::stencil3d::{charm::run_charm, kernel, mpi::run_mpi, StencilParams};
use charm_core::{Backend, DispatchMode, Runtime};
use charm_lb::GreedyLb;
use charm_sim::MachineModel;

fn sim_rt(npes: usize) -> Runtime {
    Runtime::new(npes).backend(Backend::Sim(MachineModel::local(npes)))
}

fn reference_checksum(params: &StencilParams) -> (f64, f64) {
    // Build the global grid, run the naive solver, checksum per-block in
    // the same order the distributed versions do.
    let [gx, gy, gz] = params.grid;
    let mut grid = vec![0.0; gx * gy * gz];
    for x in 0..gx {
        for y in 0..gy {
            for z in 0..gz {
                grid[(x * gy + y) * gz + z] = charm_apps::stencil3d::init_value(x, y, z);
            }
        }
    }
    let out = kernel::naive_jacobi(&grid, params.grid, params.iters as usize);
    // Per-block checksums summed, exactly like the distributed reduction.
    let [bx, by, bz] = params.block_dims();
    let mut s_total = 0.0;
    let mut w_total = 0.0;
    for cx in 0..params.chares[0] {
        for cy in 0..params.chares[1] {
            for cz in 0..params.chares[2] {
                let mut b = kernel::Block::zeros(bx, by, bz);
                b.fill(|x, y, z| {
                    let g = [cx * bx + x, cy * by + y, cz * bz + z];
                    out[(g[0] * gy + g[1]) * gz + g[2]]
                });
                let (s, w) = b.checksum();
                s_total += s;
                w_total += w;
            }
        }
    }
    (s_total, w_total)
}

fn close(a: (f64, f64), b: (f64, f64)) -> bool {
    let rel = |x: f64, y: f64| (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()));
    rel(a.0, b.0) && rel(a.1, b.1)
}

#[test]
fn charm_matches_naive_reference() {
    let params = StencilParams::new([8, 8, 8], [2, 2, 2], 6);
    let want = reference_checksum(&params);
    let got = run_charm(params, sim_rt(4));
    assert!(
        close(got.checksum, want),
        "charm {:?} vs reference {want:?}",
        got.checksum
    );
}

#[test]
fn mpi_matches_naive_reference() {
    let params = StencilParams::new([8, 8, 8], [2, 2, 2], 6);
    let want = reference_checksum(&params);
    let got = run_mpi(params, sim_rt(8));
    assert!(
        close(got.checksum, want),
        "mpi {:?} vs reference {want:?}",
        got.checksum
    );
}

#[test]
fn charm_and_mpi_agree_threads_backend() {
    let params = StencilParams::new([12, 6, 6], [2, 1, 3], 8);
    let a = run_charm(params.clone(), Runtime::new(3));
    let b = run_mpi(params, Runtime::new(6));
    assert!(
        close(a.checksum, b.checksum),
        "{:?} vs {:?}",
        a.checksum,
        b.checksum
    );
}

#[test]
fn finer_decomposition_than_pes_is_fine() {
    // The tunable-decomposition claim: 27 chares on 2 PEs, same physics.
    let params = StencilParams::new([9, 9, 9], [3, 3, 3], 5);
    let want = reference_checksum(&params);
    let got = run_charm(params, sim_rt(2));
    assert!(close(got.checksum, want));
}

#[test]
fn single_chare_degenerate_case() {
    let params = StencilParams::new([6, 6, 6], [1, 1, 1], 4);
    let want = reference_checksum(&params);
    let got = run_charm(params, sim_rt(2));
    assert!(close(got.checksum, want));
}

#[test]
fn dynamic_dispatch_same_physics() {
    let params = StencilParams::new([8, 8, 8], [2, 2, 2], 5);
    let native = run_charm(params.clone(), sim_rt(4));
    let dynamic = run_charm(params, sim_rt(4).dispatch(DispatchMode::Dynamic));
    assert!(
        close(native.checksum, dynamic.checksum),
        "dispatch mode must not change results"
    );
}

#[test]
fn load_balancing_preserves_results() {
    let mut params = StencilParams::new([8, 8, 8], [2, 2, 2], 12);
    params.lb_every = Some(4);
    params.imbalance = Some(4);
    // The 4^3-cell block's kernel at the ledger's 100 us per 4,096 cells.
    params.nominal_kernel_s = Some(64.0 * 100e-6 / 4096.0);
    let want = {
        let mut p = params.clone();
        p.lb_every = None;
        p.imbalance = None;
        reference_checksum(&p)
    };
    let got = run_charm(params, sim_rt(4).lb_strategy(Arc::new(GreedyLb)));
    assert!(
        close(got.checksum, want),
        "LB run {:?} vs reference {want:?}",
        got.checksum
    );
    assert!(
        got.report.lb_epochs >= 2,
        "expected LB epochs, got {}",
        got.report.lb_epochs
    );
    assert!(got.report.migrations > 0);
}

#[test]
fn imbalanced_run_slower_than_balanced_and_lb_recovers() {
    // The §V-B shape on a small scale, in deterministic virtual time: the
    // kernel cost is charged, not measured (as in the LB figure — measured
    // noise x alpha would otherwise decide the outcome), and sized so the
    // (alpha-scaled) kernel dominates messaging.
    let rt = || sim_rt(4);
    let modeled = |grid, chares, iters| {
        let mut p = StencilParams::new(grid, chares, iters);
        p.nominal_kernel_s = Some(200e-6);
        p
    };
    let base = modeled([32, 32, 32], [2, 2, 1], 12);
    let balanced = run_charm(base.clone(), rt());
    let mut imb = base.clone();
    imb.imbalance = Some(4); // one coarse block per PE, alpha in {10, 45}
    let imbalanced = run_charm(imb.clone(), rt());
    assert!(
        imbalanced.total_time_s > 3.0 * balanced.total_time_s,
        "synthetic imbalance must dominate: {} vs {}",
        imbalanced.total_time_s,
        balanced.total_time_s
    );
    // With a 4-blocks-per-PE decomposition + greedy LB tracking the moving
    // hotspot, time drops substantially (paper: 1.9x-2.27x at scale; this
    // 4-PE miniature reaches ~1.4x — assert a conservative 1.25x).
    let mut fine = modeled([32, 32, 32], [4, 2, 2], 16);
    fine.imbalance = Some(16);
    let fine_nolb = run_charm(fine.clone(), rt());
    fine.lb_every = Some(4);
    let lb = run_charm(fine, rt().lb_strategy(Arc::new(GreedyLb)));
    let speedup = fine_nolb.total_time_s / lb.total_time_s;
    assert!(
        speedup > 1.25,
        "LB should speed up the imbalanced run substantially: {speedup:.2}x \
         ({} vs {})",
        fine_nolb.total_time_s,
        lb.total_time_s
    );
}

#[test]
fn weak_scaling_time_roughly_flat_in_virtual_time() {
    // Fixed block per PE; more PEs → similar time per step (Fig 1's shape).
    // The 8^3-cell block's kernel is charged at the ledger's rate (Fig 3's
    // 100 µs per 4,096 cells); the sim's clock reads no host time.
    let t = |npes: usize, chares: [usize; 3]| {
        let mut params =
            StencilParams::new([8 * chares[0], 8 * chares[1], 8 * chares[2]], chares, 10);
        params.nominal_kernel_s = Some(512.0 * 100e-6 / 4096.0);
        run_charm(params, sim_rt(npes)).time_per_step_ms
    };
    let t1 = t(1, [1, 1, 1]);
    let t8 = t(8, [2, 2, 2]);
    assert!(
        t8 < t1 * 4.0,
        "weak scaling should be roughly flat: 1 PE {t1} ms vs 8 PEs {t8} ms"
    );
}

/// A sim run is a function of its config: the imbalance charge is alpha x
/// kernel time, and on the sim a kernel time must be modeled, never
/// measured, so both drivers refuse an imbalanced sim run without one.
#[test]
fn an_imbalanced_sim_run_needs_a_modeled_kernel() {
    let mut params = StencilParams::new([8, 8, 8], [2, 2, 2], 2);
    params.imbalance = Some(4);
    for run in [run_charm as fn(_, _) -> _, run_mpi] {
        let p = params.clone();
        let Err(refused) = std::panic::catch_unwind(|| run(p, sim_rt(8))) else {
            panic!("an imbalanced sim run without a modeled kernel ran");
        };
        let why = refused.downcast_ref::<&str>().copied();
        assert!(
            why.is_some_and(|w| w.contains("needs nominal_kernel_s")),
            "{why:?}"
        );
    }
}
