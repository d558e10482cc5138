//! # charm-bench — the ledger
//!
//! Every number the reproduction's evaluation rests on, recorded as a
//! committed file at the repository root and recomputed by the workspace
//! suite (`tests/ledger.rs`), which demands equality:
//!
//! | file | rows |
//! |---|---|
//! | `BENCH_e2e.json` | Figs 1-4, the same-PE by-reference ablation, the LB-strategy ablation |
//! | `BENCH_coll.json` | barriers by tree shape, the fan-in by completion, QD, buddy checkpoint and telemetry, an LB epoch one-level and 4-ary, aggregation batches |
//! | `BENCH_tb.json` | Task Bench: five patterns down the grain ladder, METG, allocations per task |
//! | `BENCH_sim.json` | the ring pulse at 1,024 / 16,384 / 65,536 PEs: entries, envelopes, heap per PE |
//!
//! Every row runs on the simulated backend with analytic charging
//! (`meter_compute(false)`; the stencil charges a nominal kernel), so it is
//! a pure function of the code: virtual nanoseconds, envelopes, bytes and
//! allocations, with no noise model. `cargo run -p charm-bench --bin ledger`
//! rewrites the files; a change that moves a row regenerates them and says
//! why. Host-timed layers live in the `host` bench target.

#![forbid(unsafe_code)]

pub mod ledger;
pub mod workloads;

use std::sync::Arc;

use charm_apps::histo::{run_histo, HistoParams};
use charm_apps::leanmd::{charm::run_charm as run_md, MdParams};
use charm_apps::stencil3d::{charm::run_charm, mpi::run_mpi, StencilParams};
use charm_apps::taskbench::{expected, run_taskbench, Pattern, TaskBenchParams};
use charm_core::prelude::*;
use charm_core::{LbStrategy, PePerf, RunReport};
use charm_lb::{GreedyLb, RandLb, RefineLb, RotateLb};
use charm_sim::MachineModel;
pub use ledger::Row;

/// What a closure did to the calling thread's heap, as the counting
/// allocator the caller installed reports it.
#[derive(Debug, Clone, Copy)]
pub struct Heap {
    /// Allocation requests (fresh blocks and regrowths).
    pub allocs: u64,
    /// The most it held at once.
    pub peak: u64,
}

/// The caller's counting allocator, which this crate does not install:
/// only the ledger's test and binary do.
#[derive(Clone, Copy)]
pub struct Counter {
    /// Run a closure and report what it did to this thread's heap.
    pub measure: fn(&mut dyn FnMut()) -> Heap,
    /// Freeze this thread's counts until the next `measure` begins.
    pub hold: fn(),
}

/// Computes the rows of one ledger file.
pub type Rows = fn(Counter) -> Vec<Row>;

/// The ledger files, by name, and the function that computes each.
pub const FILES: [(&str, Rows); 4] = [
    ("BENCH_e2e.json", |_| e2e()),
    ("BENCH_coll.json", |_| coll()),
    ("BENCH_tb.json", tb),
    ("BENCH_sim.json", |m| sim(m, &SIM_PES)),
];

/// PE counts of the ring-pulse rows; the last sits behind `#[ignore]`.
pub const SIM_PES: [usize; 3] = [1024, 16_384, 65_536];

/// Where the ledger files live: the repository root.
pub fn path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

/// Compute row groups on threads of their own, keeping their order.
fn gather(groups: &[&(dyn Fn() -> Vec<Row> + Sync)]) -> Vec<Row> {
    std::thread::scope(|s| {
        let handles: Vec<_> = groups.iter().map(|&g| s.spawn(g)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// A sim runtime with analytic charging.
fn sim_rt(npes: usize, model: MachineModel) -> Runtime {
    Runtime::new(npes)
        .backend(Backend::Sim(model))
        .meter_compute(false)
}

/// Virtual makespan, envelopes handled and cross-PE bytes: the fields
/// every run row starts with.
fn run_row(name: impl Into<String>, r: &RunReport, more: &[(&str, u64)]) -> Row {
    let base = [
        ("virtual_ns", r.time.as_nanos() as u64),
        ("envelopes", r.msgs),
        ("bytes", r.bytes),
    ];
    Row::new(name, &[&base[..], more].concat())
}

/// Sum of one per-PE counter.
fn pe_sum(r: &RunReport, f: impl Fn(&PePerf) -> u64) -> u64 {
    r.pe_stats.iter().map(f).sum()
}

/// `start, 2·start, …, last`.
fn doubling(start: usize, last: usize) -> Vec<usize> {
    std::iter::successors(Some(start), |p| Some(p * 2))
        .take_while(|&p| p <= last)
        .collect()
}

// ---------------------------------------------------------------------------
// BENCH_e2e.json
// ---------------------------------------------------------------------------

/// Charged kernel time per cell update, for every stencil row: Fig 3's
/// 100 µs per 4,096-cell block.
const KERNEL_S_PER_CELL: f64 = 100e-6 / 4096.0;

/// Stencil parameters with the nominal kernel charge of their block.
fn stencil(grid: [usize; 3], chares: [usize; 3], iters: u32) -> StencilParams {
    let mut s = StencilParams::new(grid, chares, iters);
    let cells: usize = (0..3).map(|d| grid[d] / chares[d]).product();
    s.nominal_kernel_s = Some(cells as f64 * KERNEL_S_PER_CELL);
    s
}

/// The paper's three series: charm-rs native (`charm++`), minimpi ranks
/// (`mpi4py`), charm-rs dynamic (`charmpy`).
const SERIES: [&str; 3] = ["charm++", "mpi4py", "charmpy"];

fn run_series(series: &str, s: StencilParams, rt: Runtime) -> RunReport {
    match series {
        "charm++" => run_charm(s, rt.dispatch(DispatchMode::Native)).report,
        "mpi4py" => run_mpi(s, rt.dispatch(DispatchMode::Native)).report,
        _ => run_charm(s, rt.dispatch(DispatchMode::Dynamic)).report,
    }
}

/// Fig 1: weak scaling, one 8³ block a PE, 4 iterations, 1 -> 1,024 PEs
/// on the Blue Waters torus.
fn fig1(series: &str) -> Vec<Row> {
    let b = 8;
    doubling(1, 1024)
        .into_iter()
        .map(|p| {
            let rt = sim_rt(p, MachineModel::bluewaters(p.div_ceil(32).max(8)));
            let r = run_series(series, stencil([b * p, b, b], [p, 1, 1], 4), rt);
            run_row(format!("fig1/{series}/pes={p}"), &r, &[])
        })
        .collect()
}

/// Fig 2: strong scaling of a fixed 256×16×16 grid, 4 iterations,
/// 8 -> 128 PEs on the Cori KNL dragonfly.
fn fig2(series: &str) -> Vec<Row> {
    doubling(8, 128)
        .into_iter()
        .map(|p| {
            let s = stencil([256, 16, 16], [p, 1, 1], 4);
            let r = run_series(series, s, sim_rt(p, MachineModel::cori_knl()));
            run_row(format!("fig2/{series}/pes={p}"), &r, &[])
        })
        .collect()
}

/// Iterations and LB period of the imbalanced stencil (Fig 3, the
/// LB-strategy ablation).
const LB_ITERS: u32 = 240;
const LB_EVERY: u32 = 30;

/// Fig 3's imbalanced stencil on `p` PEs: 4 blocks a PE for the charm
/// series, one block a rank for minimpi; LB every [`LB_EVERY`] iterations
/// when `lb` is set.
fn imbalanced(p: usize, blocks_per_pe: usize, lb: Option<u32>) -> StencilParams {
    let mut s = stencil([16 * p, 8, 8], [blocks_per_pe * p, 1, 1], LB_ITERS);
    s.imbalance = Some(p);
    s.sync_every = 1;
    s.lb_every = lb;
    s
}

/// Fig 3: the five series on `p` PEs, Cori KNL, GreedyLB.
fn fig3(p: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, dispatch, lb) in [
        ("charm++ (no lb)", DispatchMode::Native, false),
        ("charmpy (no lb)", DispatchMode::Dynamic, false),
        ("charm++ (lb)", DispatchMode::Native, true),
        ("charmpy (lb)", DispatchMode::Dynamic, true),
    ] {
        let mut rt = sim_rt(p, MachineModel::cori_knl()).dispatch(dispatch);
        if lb {
            rt = rt.lb_strategy(Arc::new(GreedyLb));
        }
        let r = run_charm(imbalanced(p, 4, lb.then_some(LB_EVERY)), rt).report;
        rows.push(run_row(format!("fig3/{name}/pes={p}"), &r, &[]));
    }
    let r = run_mpi(imbalanced(p, 1, None), sim_rt(p, MachineModel::cori_knl())).report;
    rows.push(run_row(format!("fig3/mpi4py/pes={p}"), &r, &[]));
    rows
}

/// Fig 4: LeanMD strong scaling, 4³ cells × 8 particles, 2 steps,
/// 4 -> 32 PEs on Blue Waters. LeanMD charges no compute, so these rows
/// are runtime and network time only.
fn fig4() -> Vec<Row> {
    let params = MdParams {
        cells: [4, 4, 4],
        per_cell: 8,
        cell_size: 4.0,
        cutoff: 4.0,
        dt: 0.002,
        steps: 2,
        migrate_every: 2,
        seed: 7,
    };
    let mut rows = Vec::new();
    for p in doubling(4, 32) {
        for (series, dispatch) in [
            ("charm++", DispatchMode::Native),
            ("charmpy", DispatchMode::Dynamic),
        ] {
            let rt = sim_rt(p, MachineModel::bluewaters(8)).dispatch(dispatch);
            let r = run_md(params.clone(), rt).report;
            rows.push(run_row(format!("fig4/{series}/pes={p}"), &r, &[]));
        }
    }
    rows
}

/// Same-PE by-reference delivery (paper §II-D) on and off: 16 thin slabs
/// with 32 KiB faces on 2 PEs, so most ghost traffic is PE-local.
fn same_pe_byref() -> Vec<Row> {
    let mut rows = Vec::new();
    for (series, dispatch) in [
        ("native", DispatchMode::Native),
        ("dynamic", DispatchMode::Dynamic),
    ] {
        for byref in [true, false] {
            let rt = sim_rt(2, MachineModel::local(2))
                .dispatch(dispatch)
                .same_pe_byref(byref);
            let r = run_charm(stencil([32, 64, 64], [16, 1, 1], 4), rt).report;
            let encoded = pe_sum(&r, |s| s.bytes_encoded);
            let name = format!("byref/{series}/{}", if byref { "on" } else { "off" });
            rows.push(run_row(name, &r, &[("bytes_encoded", encoded)]));
        }
    }
    rows
}

/// LB strategies on Fig 3's workload at 8 PEs (no LB and GreedyLB are
/// Fig 3's `charm++` rows).
fn lb_strategies() -> Vec<Row> {
    let strategies: [(&str, Arc<dyn LbStrategy>); 3] = [
        ("RefineLB", Arc::new(RefineLb::default())),
        ("RotateLB", Arc::new(RotateLb)),
        ("RandLB", Arc::new(RandLb::default())),
    ];
    strategies
        .into_iter()
        .map(|(name, strategy)| {
            let rt = sim_rt(8, MachineModel::cori_knl()).lb_strategy(strategy);
            let r = run_charm(imbalanced(8, 4, Some(LB_EVERY)), rt).report;
            let more = [("migrations", r.migrations)];
            run_row(format!("lb_strategy/{name}/pes=8"), &r, &more)
        })
        .collect()
}

/// `BENCH_e2e.json`.
pub fn e2e() -> Vec<Row> {
    gather(&[
        &|| fig1(SERIES[0]),
        &|| fig1(SERIES[1]),
        &|| fig1(SERIES[2]),
        &|| SERIES.iter().flat_map(|s| fig2(s)).collect(),
        &|| fig3(8),
        &|| fig3(16),
        &fig4,
        &same_pe_byref,
        &lb_strategies,
    ])
}

// ---------------------------------------------------------------------------
// BENCH_coll.json
// ---------------------------------------------------------------------------

/// Group barriers over 128 PEs on Blue Waters by spanning-tree arity, flat
/// and node-aware (paper §IV-D): 50 in a row, the run ending with the last.
fn barrier_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for arity in [2, 4, 8] {
        for (kind, cores_per_node) in [("flat", None), ("node_aware", Some(32))] {
            let tree = TreeShape {
                arity,
                cores_per_node,
            };
            let rt = sim_rt(128, MachineModel::bluewaters(8)).tree(tree);
            let name = format!("barrier/arity={arity}/{kind}/pes=128");
            rows.push(run_row(name, &workloads::barriers(rt, 50), &[]));
        }
    }
    rows
}

/// The 8-PE fan-in, each round ended by the sink's count or by QD, then by
/// QD with a buddy checkpoint or a telemetry sweep at every quiescence.
fn fan_in_rows() -> Vec<Row> {
    let rt = || sim_rt(8, MachineModel::local(8));
    let runs = [
        ("by_count", rt(), false),
        ("by_qd", rt(), true),
        (
            "by_qd+buddy_ckpt",
            rt().auto_checkpoint(1, Store::Memory),
            true,
        ),
        (
            "by_qd+telemetry",
            rt().telemetry(TelemetryCfg::every(1)),
            true,
        ),
    ];
    runs.into_iter()
        .map(|(name, rt, by_qd)| {
            let r = workloads::fan_in(rt, by_qd);
            let more = [
                ("ckpt_bytes", pe_sum(&r, |s| s.ckpt_bytes)),
                ("telemetry_frames", r.telemetry.len() as u64),
            ];
            run_row(format!("fan_in/{name}"), &r, &more)
        })
        .collect()
}

/// LB epochs on the imbalanced stencil at 64 PEs (8 iterations, LB every
/// 4) with a one-level tree and a 4-ary one: `peak_stats` is the most
/// chare records one PE held at once.
fn lb_epoch_rows() -> Vec<Row> {
    [("one_level", 64), ("tree4", 4)]
        .into_iter()
        .map(|(name, group)| {
            let rt = sim_rt(64, MachineModel::cori_knl())
                .lb_strategy(Arc::new(GreedyLb))
                .lb_group_size(group);
            let mut s = imbalanced(64, 4, Some(4));
            s.iters = 8;
            let r = run_charm(s, rt).report;
            let peak = r.pe_stats.iter().map(|s| s.lb_peak_stats).max();
            let more = [
                ("lb_epochs", r.lb_epochs),
                ("migrations", r.migrations),
                ("peak_stats", peak.unwrap_or(0)),
            ];
            run_row(format!("lb_epoch/{name}/pes=64"), &r, &more)
        })
        .collect()
}

/// Aggregation (DESIGN.md §9) off and at three batch sizes on 4 PEs, for
/// the token ring and the histogram sort's all-to-all: `batches` are the
/// physical envelopes that carried `batch_msgs` logical ones.
fn aggregation_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, agg) in [
        ("off", None),
        ("batch8", Some(8)),
        ("batch64", Some(64)),
        ("batch512", Some(512)),
    ] {
        let rt = || {
            let rt = sim_rt(4, MachineModel::local(4));
            match agg {
                Some(n) => rt.aggregation(AggCfg::count(n)),
                None => rt,
            }
        };
        let ring = workloads::token_ring(rt());
        let histo = run_histo(HistoParams::small(), rt());
        assert!(histo.sorted);
        for (app, r) in [("token_ring", &ring), ("histo", &histo.report)] {
            let more = [
                ("batches", pe_sum(r, |s| s.batches_sent)),
                ("batch_msgs", pe_sum(r, |s| s.batch_msgs)),
            ];
            rows.push(run_row(format!("agg/{app}/{name}"), r, &more));
        }
    }
    rows
}

/// `BENCH_coll.json`.
pub fn coll() -> Vec<Row> {
    gather(&[
        &barrier_rows,
        &fan_in_rows,
        &lb_epoch_rows,
        &aggregation_rows,
    ])
}

// ---------------------------------------------------------------------------
// BENCH_tb.json
// ---------------------------------------------------------------------------

/// The grain ladder, 65,536 ns halving to 256 ns.
const GRAINS: [u64; 9] = [65_536, 32_768, 16_384, 8_192, 4_096, 2_048, 1_024, 512, 256];

/// One pattern: the 64×32 grid on 4 PEs down [`GRAINS`], its METG (the
/// smallest grain still at ≥ 50 % of ideal `width·steps·grain/npes`; 0 if
/// none is), and allocations over a 64×50 grid on one PE.
fn tb_pattern(pattern: Pattern, counter: Counter) -> Vec<Row> {
    let (npes, width, steps) = (4, 64, 32);
    let mut rows = Vec::new();
    let mut metg = 0;
    for grain_ns in GRAINS {
        let params = TaskBenchParams {
            pattern,
            width,
            steps,
            grain_ns,
            fanout: 3,
            seed: 7,
        };
        let r = run_taskbench(params, sim_rt(npes, MachineModel::local(npes)));
        let ideal = u64::from(width * steps) * grain_ns / npes as u64;
        if 2 * ideal >= r.report.time.as_nanos() as u64 {
            metg = grain_ns;
        }
        rows.push(run_row(
            format!("tb/{}/grain={grain_ns}", pattern.name()),
            &r.report,
            &[],
        ));
    }
    rows.push(Row::new(
        format!("tb/{}/metg", pattern.name()),
        &[("metg_ns", metg)],
    ));
    // Per 100 tasks net of set-up: a 64×200 grid on one PE less a 64×100
    // one, each counted on a thread warmed by an earlier run (channel
    // contexts, lazily built statics). A run's count is exact but for one
    // allocation: std's channel allocates its waiter list the first time the
    // scheduler thread blocks on the main coroutine, and whether it ever
    // blocks is timing. Over 6,400 tasks that is ±0.016 per 100 tasks,
    // which rounding absorbs unless a value sits that close to a half.
    let counted = |steps| {
        let params = TaskBenchParams {
            width: 64,
            steps,
            grain_ns: 0,
            ..TaskBenchParams::small_with(pattern)
        };
        let mut out = None;
        let heap = (counter.measure)(&mut || {
            out = Some(run_taskbench(
                params.clone(),
                sim_rt(1, MachineModel::local(1)),
            ));
        });
        let r = out.expect("measure runs its closure");
        assert_eq!((r.checksum, r.tasks), expected(&params));
        (params.total_tasks(), heap.allocs)
    };
    counted(4);
    let ((tasks, allocs), (setup_tasks, setup_allocs)) = (counted(200), counted(100));
    let (tasks, allocs) = (tasks - setup_tasks, allocs - setup_allocs);
    let per_100 = (100 * allocs + tasks / 2) / tasks;
    let name = format!("tb/{}/allocs", pattern.name());
    rows.push(Row::new(name, &[("allocs_per_100_tasks", per_100)]));
    rows
}

/// `BENCH_tb.json`.
pub fn tb(counter: Counter) -> Vec<Row> {
    let [a, b, c, d, e] = Pattern::ALL;
    gather(&[
        &|| tb_pattern(a, counter),
        &|| tb_pattern(b, counter),
        &|| tb_pattern(c, counter),
        &|| tb_pattern(d, counter),
        &|| tb_pattern(e, counter),
    ])
}

// ---------------------------------------------------------------------------
// BENCH_sim.json
// ---------------------------------------------------------------------------

/// The ring pulse at each of `pes` on Blue Waters: entries, envelopes and
/// the peak heap a PE held until the last token was handled (the report
/// and the teardown after it are not counted: the teardown's frees race
/// with the main coroutine's thread).
pub fn sim(counter: Counter, pes: &[usize]) -> Vec<Row> {
    let rt = |p: usize| sim_rt(p, MachineModel::bluewaters(p.div_ceil(32).max(8)));
    // Warm this thread on a small machine first (see `tb_pattern`).
    workloads::ring_pulse(rt(8), || {});
    pes.iter()
        .map(|&p| {
            let mut out = None;
            let heap = (counter.measure)(&mut || {
                out = Some(workloads::ring_pulse(rt(p), counter.hold));
            });
            let r = out.expect("measure runs its closure");
            let more = [
                ("entries", r.entries),
                ("peak_heap_per_pe", heap.peak / p as u64),
            ];
            run_row(format!("sim/ring_pulse/pes={p}"), &r, &more)
        })
        .collect()
}
