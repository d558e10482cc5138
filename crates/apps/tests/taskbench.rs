//! Task Bench end-to-end: every dependency pattern against the sequential
//! oracle, on both backends, both dispatch modes.

use charm_apps::taskbench::{expected, run_taskbench, Pattern, TaskBenchParams};
use charm_core::{Backend, DispatchMode, Runtime};
use charm_sim::MachineModel;

fn sim(npes: usize) -> Runtime {
    Runtime::new(npes).backend(Backend::Sim(MachineModel::local(npes)))
}

#[test]
fn every_pattern_matches_the_oracle_on_sim() {
    for pattern in Pattern::ALL {
        let params = TaskBenchParams::small_with(pattern);
        let (sum, tasks) = expected(&params);
        let r = run_taskbench(params, sim(4));
        assert_eq!((r.checksum, r.tasks), (sum, tasks), "{pattern:?}");
    }
}

#[test]
fn every_pattern_matches_the_oracle_on_threads() {
    for pattern in Pattern::ALL {
        let mut params = TaskBenchParams::small_with(pattern);
        params.grain_ns = 0; // threads charge real time; keep the test quick
        let (sum, tasks) = expected(&params);
        let r = run_taskbench(params, Runtime::new(3));
        assert_eq!((r.checksum, r.tasks), (sum, tasks), "{pattern:?}");
    }
}

#[test]
fn dynamic_dispatch_matches_the_oracle() {
    let params = TaskBenchParams::small_with(Pattern::Fft);
    let (sum, tasks) = expected(&params);
    let r = run_taskbench(params, sim(2).dispatch(DispatchMode::Dynamic));
    assert_eq!((r.checksum, r.tasks), (sum, tasks));
}

#[test]
fn wider_random_grid_executes_every_task() {
    let params = TaskBenchParams {
        pattern: Pattern::Random,
        width: 32,
        steps: 10,
        grain_ns: 500,
        fanout: 4,
        seed: 11,
    };
    let (sum, tasks) = expected(&params);
    let r = run_taskbench(params, sim(4));
    assert_eq!((r.checksum, r.tasks), (sum, tasks));
    assert_eq!(tasks, 320);
}

#[test]
fn fast_path_counters_show_up_in_pe_stats() {
    let params = TaskBenchParams {
        pattern: Pattern::Stencil,
        width: 16,
        steps: 8,
        ..TaskBenchParams::small()
    };
    let r = run_taskbench(params, sim(4));
    let inline: u64 = r.report.pe_stats.iter().map(|p| p.inline_payloads).sum();
    // Dep payloads are tiny (two ints) and cross PEs: they must inline.
    assert!(inline > 0, "no payload inlined: {:?}", r.report.pe_stats);
}
