//! Task Bench identity pins (DESIGN.md §10), detector-armed under
//! `--features analyze`: every dependency pattern, under ≥16 permuted sim
//! schedules and aggregation `{off, count(64)}`, must read the row recorded
//! below. The rows were generated while a switch still turned inline
//! publish, a dispatch cache and a receive ring off, and held on both
//! sides of it (off zeroed the inline column and the cache's, nothing
//! else), so they keep checking identity with that deleted path.

use charm_apps::taskbench::{expected, run_taskbench, Pattern, TaskBenchParams, TaskBenchResult};
#[cfg(feature = "analyze")]
use charm_apps::taskbench::{TaskCol, TaskMsg};
use charm_core::{AggCfg, Backend, PePerf, Runtime};
#[cfg(feature = "analyze")]
use charm_core::{CheckCfg, RedData};
use charm_sim::MachineModel;

const NPES: usize = 4;

fn sim() -> Runtime {
    Runtime::new(NPES).backend(Backend::Sim(MachineModel::local(NPES)))
}

/// What `TaskBenchParams::small_with(pattern)` reads on `sim()`, the same
/// under every schedule and with aggregation off or `count(64)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pin {
    pattern: Pattern,
    checksum: i64,
    /// `RunReport::{msgs, entries, bytes}`.
    logical: (u64, u64, u64),
    /// `PePerf::{slab_hits, slab_misses, inline_payloads}` summed over PEs.
    per_msg: [u64; 3],
    /// `PePerf::batches_sent` summed over PEs under `count(64)`; 0 with
    /// aggregation off.
    batches: u64,
}

#[rustfmt::skip]
const PINS: [Pin; 5] = [
    Pin { pattern: Pattern::Trivial, checksum: 20_429_945_918, logical: (48, 48, 681),    per_msg: [0, 0, 0],   batches: 0 },
    Pin { pattern: Pattern::Stencil, checksum: 14_279_904_689, logical: (118, 118, 1850), per_msg: [26, 4, 30], batches: 30 },
    Pin { pattern: Pattern::Fft,     checksum: 18_370_449_121, logical: (88, 88, 1616),   per_msg: [20, 4, 24], batches: 12 },
    Pin { pattern: Pattern::Random,  checksum: 19_053_988_155, logical: (128, 128, 3097), per_msg: [58, 4, 62], batches: 40 },
    Pin { pattern: Pattern::Tree,    checksum: 20_746_308_862, logical: (48, 48, 1851),   per_msg: [28, 2, 30], batches: 6 },
];

/// The row a finished run reads.
fn read(pattern: Pattern, r: &TaskBenchResult) -> Pin {
    let sum = |f: fn(&PePerf) -> u64| r.report.pe_stats.iter().map(f).sum::<u64>();
    Pin {
        pattern,
        checksum: r.checksum,
        logical: (r.report.msgs, r.report.entries, r.report.bytes),
        per_msg: [
            sum(|p| p.slab_hits),
            sum(|p| p.slab_misses),
            sum(|p| p.inline_payloads),
        ],
        batches: sum(|p| p.batches_sent),
    }
}

#[test]
fn taskbench_matches_its_pins_across_patterns_schedules_aggregation() {
    for pin in &PINS {
        let pattern = pin.pattern;
        let params = TaskBenchParams::small_with(pattern);
        assert_eq!(
            expected(&params),
            (pin.checksum, params.total_tasks()),
            "{pattern:?}: the oracle moved"
        );
        for agg in [None, Some(AggCfg::count(64))] {
            for seed in [None].into_iter().chain((1..=16).map(Some)) {
                let what = format!("{pattern:?} agg={agg:?} seed={seed:?}");
                let mut rt = sim();
                if let Some(cfg) = agg {
                    rt = rt.aggregation(cfg);
                }
                if let Some(s) = seed {
                    rt = rt.permute_schedule(s);
                }
                // The race detector is armed where the build has it.
                #[cfg(feature = "analyze")]
                let (rt, probe) = rt.analyze_probe();
                let r = run_taskbench(params.clone(), rt);
                #[cfg(feature = "analyze")]
                assert!(
                    probe.findings().is_empty(),
                    "{what}: {:?}",
                    probe.findings()
                );
                assert_eq!(r.tasks, params.total_tasks(), "{what}");
                let want = Pin {
                    batches: if agg.is_some() { pin.batches } else { 0 },
                    ..*pin
                };
                assert_eq!(read(pattern, &r), want, "{what}");
            }
        }
    }
}

/// Schedule coverage, upgraded from sampling to proof for one
/// configuration: where the identity test above samples ≥16 permuted
/// schedules per pattern, `Runtime::check` explores *every* delivery
/// interleaving of a tiny trivial-pattern grid on 2 PEs up to
/// happens-before equivalence (DESIGN.md §11), detector armed. The entry
/// asserts the reduction result against the sequential oracle, so any
/// schedule-dependent checksum is a counterexample; `truncated == false`
/// means the whole space was covered.
#[cfg(feature = "analyze")]
#[test]
fn taskbench_trivial_is_clean_under_exhaustive_exploration() {
    const CHECK_NPES: usize = 2;
    let params = TaskBenchParams {
        pattern: Pattern::Trivial,
        width: CHECK_NPES as u32,
        steps: 2,
        grain_ns: 0,
        fanout: 1,
        seed: 3,
    };
    let (oracle_sum, oracle_tasks) = expected(&params);

    let rt = Runtime::new(CHECK_NPES)
        .backend(Backend::Sim(MachineModel::local(CHECK_NPES)))
        .register::<TaskCol>();
    let report = rt.check(
        CheckCfg {
            max_executions: 200_000,
            ..CheckCfg::default()
        },
        move |co| {
            let arr = co
                .ctx()
                .create_array::<TaskCol>(&[params.width as i32], params.clone());
            let done = co.ctx().create_future::<RedData>();
            arr.send(co.ctx(), TaskMsg::Start { done });
            assert_eq!(
                co.get(&done),
                RedData::VecI64(vec![oracle_sum, oracle_tasks as i64]),
                "taskbench result is schedule-dependent"
            );
            co.ctx().exit();
        },
    );
    assert!(
        !report.truncated,
        "taskbench exploration did not exhaust the space in {} executions",
        report.executions
    );
    assert!(
        report.counterexample.is_none(),
        "taskbench produced a counterexample: {:?}",
        report.counterexample
    );
    println!(
        "taskbench trivial: {} executions over {} equivalence classes",
        report.executions, report.equivalence_classes
    );
}
