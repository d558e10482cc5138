//! Task Bench in a dozen lines: run one dependency pattern over a
//! `width × steps` task grid, print the checksum, the per-message overhead
//! counters, and the efficiency at the chosen grain.
//!
//! Run with: `cargo run --release --example taskbench -- [pattern]`
//! where pattern is one of `trivial`, `stencil`, `fft`, `random`, `tree`
//! (default `stencil`). Knobs mirror the METG bench: width/steps/grain are
//! edited here rather than flagged — it is an example, not the harness.

use charm_rs::apps::taskbench::{expected, run_taskbench, Pattern, TaskBenchParams};
use charm_rs::core::{Backend, Runtime};
use charm_rs::sim::MachineModel;

const NPES: usize = 4;

fn main() {
    let pattern = std::env::args()
        .nth(1)
        .and_then(|s| Pattern::parse(&s))
        .unwrap_or(Pattern::Stencil);
    let params = TaskBenchParams {
        pattern,
        width: 32,
        steps: 16,
        grain_ns: 10_000,
        fanout: 3,
        seed: 7,
    };
    let (oracle, tasks) = expected(&params);
    let ideal_ns = params.total_tasks() * params.grain_ns / NPES as u64;

    let rt = Runtime::new(NPES).backend(Backend::Sim(MachineModel::local(NPES)));
    let r = run_taskbench(params.clone(), rt);
    assert_eq!((r.checksum, r.tasks), (oracle, tasks), "result mismatch");

    let actual_ns = r.report.time.as_nanos() as u64;
    println!("pattern   : {}", pattern.name());
    println!(
        "grid      : {} columns x {} steps on {NPES} PEs",
        params.width, params.steps
    );
    println!("checksum  : {} ({} tasks)", r.checksum, r.tasks);
    println!(
        "messages  : {} ({} bytes crossed PEs)",
        r.report.msgs, r.report.bytes
    );
    println!(
        "efficiency: {:.1}% at {} ns grain (ideal {ideal_ns} ns, actual {actual_ns} ns)",
        100.0 * ideal_ns as f64 / actual_ns.max(1) as f64,
        params.grain_ns
    );
    let inline: u64 = r.report.pe_stats.iter().map(|p| p.inline_payloads).sum();
    println!("fast path : {inline} payloads inlined");
}
