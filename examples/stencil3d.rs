//! The stencil3d mini-app (paper §V-A/§V-B), runnable end to end.
//!
//! Runs the same problem three ways and cross-checks the results:
//!  1. charm-rs, native dispatch (the Charm++ analog),
//!  2. charm-rs, dynamic dispatch (the CharmPy analog),
//!  3. minimpi ranks (the mpi4py analog),
//!
//! then repeats an imbalanced configuration with and without GreedyLB.
//!
//! Run with: `cargo run --release --example stencil3d`
//! Knobs: CHARMRS_PES (default 4), CHARMRS_ITERS (default 50)

use std::sync::Arc;

use charm_rs::apps::stencil3d::{charm::run_charm, mpi::run_mpi, StencilParams};
use charm_rs::core::{Backend, DispatchMode, Runtime};
use charm_rs::lb::GreedyLb;
use charm_rs::sim::MachineModel;

fn env(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let pes = env("CHARMRS_PES", 4);
    let iters = env("CHARMRS_ITERS", 50) as u32;
    let mut params = StencilParams::new([16 * pes, 32, 32], [pes, 1, 1], iters);
    // The sim's clock reads no host time: charge each 16x32x32 block the
    // ledger's nominal kernel (100 us per 4,096 cells).
    params.nominal_kernel_s = Some(400e-6);
    let sim = || Backend::Sim(MachineModel::local(pes));

    println!(
        "stencil3d: grid {:?}, {} blocks, {iters} iters, {pes} simulated PEs",
        params.grid,
        params.num_blocks()
    );

    let native = run_charm(params.clone(), Runtime::new(pes).backend(sim()));
    println!(
        "  charm-rs native  : {:8.3} ms/step  checksum {:.6e}",
        native.time_per_step_ms, native.checksum.0
    );

    let dynamic = run_charm(
        params.clone(),
        Runtime::new(pes)
            .backend(sim())
            .dispatch(DispatchMode::Dynamic),
    );
    println!(
        "  charm-rs dynamic : {:8.3} ms/step  checksum {:.6e}",
        dynamic.time_per_step_ms, dynamic.checksum.0
    );

    let mpi = run_mpi(params.clone(), Runtime::new(pes).backend(sim()));
    println!(
        "  minimpi          : {:8.3} ms/step  checksum {:.6e}",
        mpi.time_per_step_ms, mpi.checksum.0
    );

    assert!((native.checksum.1 - mpi.checksum.1).abs() < 1e-6 * native.checksum.1.abs());
    assert!((native.checksum.1 - dynamic.checksum.1).abs() < 1e-6 * native.checksum.1.abs());
    println!("  all three implementations agree bit-for-bit on the result");

    // §V-B: synthetic imbalance, 4 blocks/PE, load balancing every 30 iters.
    let mut imb = StencilParams::new([16 * pes, 32, 32], [4 * pes, 1, 1], iters.max(120));
    imb.imbalance = Some(pes);
    imb.sync_every = 1;
    imb.nominal_kernel_s = Some(100e-6);
    let no_lb = run_charm(imb.clone(), Runtime::new(pes).backend(sim()));
    imb.lb_every = Some(30);
    let with_lb = run_charm(
        imb,
        Runtime::new(pes)
            .backend(sim())
            .lb_strategy(Arc::new(GreedyLb)),
    );
    println!(
        "  imbalanced: {:8.3} ms/step without LB, {:8.3} with GreedyLB ({:.2}x speedup, {} migrations)",
        no_lb.time_per_step_ms,
        with_lb.time_per_step_ms,
        no_lb.time_per_step_ms / with_lb.time_per_step_ms,
        with_lb.report.migrations,
    );
}
