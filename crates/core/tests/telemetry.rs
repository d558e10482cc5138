//! Cluster-scale telemetry integration tests (DESIGN.md §12).
//!
//! Covers the three tentpole pieces end to end on real runs: summary-mode
//! tracing stays O(bin budget) no matter how many events fire and its bins
//! sum exactly to the per-PE counters; the `charm-perf` analyzer re-derives
//! those totals from the text artifact byte-for-byte; and in-band telemetry
//! sweeps reduce per-PE metric frames to PE 0 at a quiescence cadence —
//! with the armed detector and permuted schedules proving the frames'
//! logical content is a function of the program, not the delivery order.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use charm_core::prelude::*;
use charm_sim::MachineModel;

// ---------------------------------------------------------------------------
// Workload: a Pusher group floods a Fan chare on PE 0; every push charges
// deterministic virtual compute, so the hot-chare sketch and busy totals
// are exact functions of the message counts.
// ---------------------------------------------------------------------------

struct Fan {
    sum: i64,
    got: usize,
    expect: usize,
    notify: Option<Future<i64>>,
}
// Migratable, so the auto-checkpoint composition test can snapshot it.
wire_struct! { Fan { sum, got, expect, notify } }

enum FanMsg {
    Push(i64),
    WhenDone { expect: usize, notify: Future<i64> },
}
wire_enum! { FanMsg { Push(a), WhenDone { expect, notify } } }

impl Chare for Fan {
    type Msg = FanMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Fan {
            sum: 0,
            got: 0,
            expect: usize::MAX,
            notify: None,
        }
    }
    fn receive(&mut self, msg: FanMsg, ctx: &mut Ctx) {
        match msg {
            FanMsg::Push(v) => {
                // 3µs of virtual compute per push: the fan dominates the
                // hot-chare sketch deterministically.
                ctx.charge(Duration::from_micros(3));
                self.sum += v;
                self.got += 1;
            }
            FanMsg::WhenDone { expect, notify } => {
                self.expect = expect;
                self.notify = Some(notify);
            }
        }
        if self.got == self.expect {
            if let Some(f) = self.notify.take() {
                ctx.send_future(&f, self.sum);
            }
        }
    }
}

struct Pusher;
wire_struct! { Pusher {} }

enum PusherMsg {
    Go { fan: Proxy<Fan>, per_pe: i64 },
}
wire_enum! { PusherMsg { Go { fan, per_pe } } }

impl Chare for Pusher {
    type Msg = PusherMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Pusher
    }
    fn receive(&mut self, msg: PusherMsg, ctx: &mut Ctx) {
        let PusherMsg::Go { fan, per_pe } = msg;
        // 1µs per send on the pushing side.
        ctx.charge(Duration::from_micros(per_pe as u64));
        for k in 0..per_pe {
            fan.send(ctx, FanMsg::Push(ctx.my_pe() as i64 * 1000 + k));
        }
    }
}

const NPES: usize = 4;

fn expected_sum(per_pe: i64) -> i64 {
    (0..NPES as i64)
        .map(|pe| (0..per_pe).map(|k| pe * 1000 + k).sum::<i64>())
        .sum()
}

fn flood_then_quiesce(
    per_pe: i64,
    rounds: usize,
    sink: Arc<AtomicI64>,
) -> impl FnOnce(&mut Co<Main>) + Send + 'static {
    move |co| {
        let fan = co.ctx().create_chare::<Fan>((), Some(0));
        let group = co.ctx().create_group::<Pusher>(());
        let done = co.ctx().create_future::<i64>();
        group.send(co.ctx(), PusherMsg::Go { fan, per_pe });
        fan.send(
            co.ctx(),
            FanMsg::WhenDone {
                expect: NPES * per_pe as usize,
                notify: done,
            },
        );
        sink.store(co.get(&done), Ordering::SeqCst);
        for _ in 0..rounds {
            let q = co.ctx().create_future::<()>();
            co.ctx().start_quiescence(&q);
            co.get(&q);
        }
        co.ctx().exit();
    }
}

// ---------------------------------------------------------------------------
// Summary mode
// ---------------------------------------------------------------------------

/// 100× more charged events than the bin budget must end with at most
/// `max_bins` bins (pairwise merges, not growth) whose per-class sums equal
/// the PE's counters exactly — the O(bin budget) memory claim.
#[test]
fn summary_memory_stays_bounded_under_event_flood() {
    const MAX_BINS: usize = 8;
    const PER_PE: i64 = 200; // 800 pushes ⇒ 800 charged events ≥ 100 × 8
    let out = Arc::new(AtomicI64::new(0));
    let r = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .trace(TraceConfig::summary().quantum_ns(1_000).max_bins(MAX_BINS))
        .register::<Fan>()
        .register::<Pusher>()
        .run(flood_then_quiesce(PER_PE, 0, Arc::clone(&out)));
    assert!(r.clean_exit);
    assert_eq!(out.load(Ordering::SeqCst), expected_sum(PER_PE));
    let trace = r.trace.expect("summary level carries a trace");
    let mut merges = 0;
    for (t, p) in trace.pes.iter().zip(&r.pe_stats) {
        let s = t.summary.as_ref().expect("summary record per PE");
        assert!(
            s.bins.len() <= MAX_BINS,
            "PE {}: {} bins exceed the budget of {MAX_BINS}",
            p.pe,
            s.bins.len()
        );
        merges += s.merges;
        let busy: u64 = s.bins.iter().map(|b| b.busy_ns).sum();
        let idle: u64 = s.bins.iter().map(|b| b.idle_ns).sum();
        let overhead: u64 = s.bins.iter().map(|b| b.overhead_ns).sum();
        assert_eq!(
            (busy, idle, overhead),
            (p.busy_ns, p.idle_ns, p.overhead_ns),
            "PE {}: bins must sum exactly to the counters",
            p.pe
        );
        assert_eq!(
            p.busy_ns + p.idle_ns + p.overhead_ns,
            p.wall_ns,
            "PE {}: quanta must account for the whole wall clock",
            p.pe
        );
    }
    assert!(merges > 0, "the flood must overflow an 8-bin budget");
    assert!(
        r.pe_stats.iter().all(|p| p.busy_ns > 0),
        "every PE charged compute"
    );
}

/// The threads backend's summary quanta must also sum exactly to the
/// per-PE counters and wall clock: pre-idle aggregation flushes charge to
/// overhead, not idle, so nothing falls between the bins.
#[test]
fn summary_quanta_sum_to_wall_on_threads_backend() {
    let out = Arc::new(AtomicI64::new(0));
    let r = Runtime::new(2)
        .aggregation(AggCfg::count(4))
        .trace(TraceConfig::summary())
        .register::<Fan>()
        .register::<Pusher>()
        .run({
            let out = Arc::clone(&out);
            move |co| {
                let fan = co.ctx().create_chare::<Fan>((), Some(1));
                let done = co.ctx().create_future::<i64>();
                for k in 0..24 {
                    fan.send(co.ctx(), FanMsg::Push(k));
                }
                fan.send(
                    co.ctx(),
                    FanMsg::WhenDone {
                        expect: 24,
                        notify: done,
                    },
                );
                out.store(co.get(&done), Ordering::SeqCst);
                co.ctx().exit();
            }
        });
    assert!(r.clean_exit);
    assert_eq!(out.load(Ordering::SeqCst), (0..24).sum::<i64>());
    let trace = r.trace.expect("summary level carries a trace");
    for (t, p) in trace.pes.iter().zip(&r.pe_stats) {
        let s = t.summary.as_ref().expect("summary record per PE");
        let busy: u64 = s.bins.iter().map(|b| b.busy_ns).sum();
        let idle: u64 = s.bins.iter().map(|b| b.idle_ns).sum();
        let overhead: u64 = s.bins.iter().map(|b| b.overhead_ns).sum();
        assert_eq!(
            (busy, idle, overhead),
            (p.busy_ns, p.idle_ns, p.overhead_ns),
            "PE {}: threads bins must sum exactly to the counters",
            p.pe
        );
        assert_eq!(p.busy_ns + p.idle_ns + p.overhead_ns, p.wall_ns);
    }
}

/// Acceptance: `charm-perf` ingests the summary artifact and re-derives
/// per-PE busy/idle/overhead totals that match `RunReport::pe_stats`
/// exactly.
#[test]
fn charm_perf_reproduces_pe_stats_from_the_artifact() {
    let out = Arc::new(AtomicI64::new(0));
    let r = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .trace(TraceConfig::summary())
        .register::<Fan>()
        .register::<Pusher>()
        .run(flood_then_quiesce(24, 0, Arc::clone(&out)));
    assert!(r.clean_exit);
    let trace = r.trace.expect("summary level carries a trace");
    let parsed = charm_perf::parse_summary(&trace.summary_artifact()).expect("artifact parses");
    assert_eq!(parsed.len(), NPES);
    for (pp, p) in parsed.iter().zip(&r.pe_stats) {
        assert_eq!(pp.pe, p.pe);
        assert_eq!(
            (pp.busy_ns, pp.idle_ns, pp.overhead_ns, pp.wall_ns),
            (p.busy_ns, p.idle_ns, p.overhead_ns, p.wall_ns),
            "PE {}: artifact header diverged from RunReport::pe_stats",
            p.pe
        );
        assert_eq!(
            pp.bin_totals(),
            (p.busy_ns, p.idle_ns, p.overhead_ns),
            "PE {}: analyzer bin totals diverged from RunReport::pe_stats",
            p.pe
        );
    }
    let report = charm_perf::summary_report(&parsed);
    assert!(
        report.contains("exact") && !report.contains("MISMATCH"),
        "{report}"
    );
}

// ---------------------------------------------------------------------------
// In-band telemetry
// ---------------------------------------------------------------------------

/// Sweeps at every quiescence round land merged frames in
/// `RunReport::telemetry` (sequential seqs, all PEs merged) and stream the
/// same frames through the configured sink; quantile histograms carry the
/// entry and latency samples.
#[test]
fn telemetry_frames_reach_report_and_sink() {
    let out = Arc::new(AtomicI64::new(0));
    let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let r = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .telemetry(
            TelemetryCfg::every(1).sink(move |f| sink.lock().unwrap().push(f.logical_digest())),
        )
        .register::<Fan>()
        .register::<Pusher>()
        .run(flood_then_quiesce(8, 2, Arc::clone(&out)));
    assert!(r.clean_exit);
    assert_eq!(out.load(Ordering::SeqCst), expected_sum(8));
    assert!(
        r.telemetry.len() >= 2,
        "two quiescence rounds at every=1 must yield two frames, got {}",
        r.telemetry.len()
    );
    for (i, f) in r.telemetry.iter().enumerate() {
        assert_eq!(f.seq, i as u64, "sweep seqs are sequential");
        assert_eq!(f.pes, NPES as u64, "every PE merged into the frame");
        assert!(f.busy_ns > 0, "charged compute shows up as busy time");
        assert!(f.entries > 0);
        assert!(
            f.exec.count() > 0,
            "entry executions feed the exec histogram"
        );
        assert!(
            f.latency.count() > 0,
            "remote sends feed the latency histogram"
        );
        assert!((0.0..=1.0).contains(&f.util_min));
        assert!(f.util_min <= f.util_max && f.util_max <= 1.0);
        assert!(!f.top.is_empty(), "hot-chare sketch surfaces the fan");
    }
    // Counters are cumulative: later frames never report less.
    for w in r.telemetry.windows(2) {
        assert!(w[1].msgs_processed >= w[0].msgs_processed);
        assert!(w[1].entries >= w[0].entries);
    }
    let fan_is_hot = r
        .telemetry
        .last()
        .unwrap()
        .top
        .iter()
        .any(|t| t.label.contains("Fan"));
    assert!(
        fan_is_hot,
        "Fan dominates charged work: {:?}",
        r.telemetry.last().unwrap().top
    );
    let streamed = seen.lock().unwrap().clone();
    let retained: Vec<u64> = r.telemetry.iter().map(|f| f.logical_digest()).collect();
    assert_eq!(streamed, retained, "sink saw exactly the retained series");
}

/// Telemetry artifact → `charm-perf` round trip on a real run.
#[test]
fn charm_perf_parses_the_telemetry_artifact() {
    let out = Arc::new(AtomicI64::new(0));
    let r = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .telemetry(TelemetryCfg::every(1))
        .register::<Fan>()
        .register::<Pusher>()
        .run(flood_then_quiesce(8, 1, Arc::clone(&out)));
    assert!(r.clean_exit && !r.telemetry.is_empty());
    let text = charm_trace::frames_artifact(&r.telemetry);
    let frames = charm_perf::parse_telemetry(&text).expect("artifact parses");
    assert_eq!(frames.len(), r.telemetry.len());
    for (parsed, orig) in frames.iter().zip(&r.telemetry) {
        assert_eq!(parsed.seq, orig.seq);
        assert_eq!(parsed.busy_ns, orig.busy_ns);
        assert_eq!(parsed.exec.count(), orig.exec.count());
        assert_eq!(parsed.top.len(), orig.top.len());
    }
    let report = charm_perf::telemetry_report(&frames, 4);
    assert!(report.contains("Fan"), "{report}");
}

/// Telemetry must compose with auto-checkpointing: when both fall due at
/// the same quiescence round the sweep runs after the checkpoint commits,
/// and both still complete the held waiters.
#[test]
fn telemetry_composes_with_auto_checkpoint() {
    let out = Arc::new(AtomicI64::new(0));
    let r = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .auto_checkpoint(1, Store::Memory)
        .telemetry(TelemetryCfg::every(1))
        .register_migratable::<Fan>()
        .register_migratable::<Pusher>()
        .run(flood_then_quiesce(4, 2, Arc::clone(&out)));
    assert!(r.clean_exit);
    assert!(
        r.telemetry.len() >= 2,
        "sweeps must still fire on checkpointing rounds, got {}",
        r.telemetry.len()
    );
    for f in &r.telemetry {
        assert_eq!(f.pes, NPES as u64);
    }
}

// ---------------------------------------------------------------------------
// Determinism (detector armed; analyze feature)
// ---------------------------------------------------------------------------

/// The telemetry series' logical digests must be bit-identical across the
/// natural schedule and 16 permuted ones, with aggregation off AND on —
/// the frames describe the program, not the delivery order. Detector armed
/// throughout: any FIFO/duplicate/lost-envelope slip fails the run.
#[cfg(feature = "analyze")]
#[test]
fn telemetry_digests_are_schedule_and_aggregation_independent() {
    fn digests(agg: Option<AggCfg>, seed: Option<u64>) -> Vec<u64> {
        let (mut rt, probe) = Runtime::new(NPES)
            .simulated(MachineModel::local(NPES))
            .telemetry(TelemetryCfg::every(1))
            .register::<Fan>()
            .register::<Pusher>()
            .analyze_probe();
        if let Some(cfg) = agg {
            rt = rt.aggregation(cfg);
        }
        if let Some(s) = seed {
            rt = rt.permute_schedule(s);
        }
        let out = Arc::new(AtomicI64::new(0));
        let r = rt.run(flood_then_quiesce(6, 2, Arc::clone(&out)));
        assert!(r.clean_exit, "agg={agg:?} seed={seed:?}: no clean exit");
        assert_eq!(out.load(Ordering::SeqCst), expected_sum(6));
        let findings = probe.findings();
        assert!(
            findings.is_empty(),
            "agg={agg:?} seed={seed:?}: detector findings: {findings:?}"
        );
        assert!(!r.telemetry.is_empty());
        r.telemetry.iter().map(|f| f.logical_digest()).collect()
    }

    let baseline = digests(None, None);
    for seed in 1..=16u64 {
        assert_eq!(
            digests(None, Some(seed)),
            baseline,
            "seed {seed}: permuted schedule changed the telemetry digests"
        );
        assert_eq!(
            digests(Some(AggCfg::count(8)), Some(seed)),
            baseline,
            "seed {seed}: aggregation + permutation changed the telemetry digests"
        );
    }
    assert_eq!(
        digests(Some(AggCfg::count(8)), None),
        baseline,
        "aggregation alone changed the telemetry digests"
    );
}

/// Exhaustive 2-PE exploration with telemetry armed: every delivery
/// interleaving (up to happens-before equivalence) must complete cleanly,
/// produce the same telemetry digests, and exhaust the space
/// (`!truncated`) — the sweep protocol introduces no new races.
#[cfg(feature = "analyze")]
#[test]
fn telemetry_is_clean_under_exhaustive_exploration() {
    use charm_core::CheckCfg;

    let expected: i64 = (0..2i64)
        .map(|pe| (0..2i64).map(|k| pe * 1000 + k).sum::<i64>())
        .sum();
    let reference: Arc<Mutex<Option<Vec<u64>>>> = Arc::new(Mutex::new(None));
    let oracle_ref = Arc::clone(&reference);

    let rt = Runtime::new(2)
        .simulated(MachineModel::local(2))
        .telemetry(TelemetryCfg::every(1))
        .register::<Fan>()
        .register::<Pusher>();
    let report = rt.check(
        CheckCfg {
            max_executions: 200_000,
            oracle: Some(Arc::new(move |r: &RunReport| {
                if !r.clean_exit {
                    return Some("no clean exit".to_string());
                }
                if r.telemetry.is_empty() {
                    return Some("no telemetry frames".to_string());
                }
                let digests: Vec<u64> = r.telemetry.iter().map(|f| f.logical_digest()).collect();
                let mut slot = oracle_ref.lock().unwrap();
                match slot.as_ref() {
                    None => {
                        *slot = Some(digests);
                        None
                    }
                    Some(first) if *first == digests => None,
                    Some(first) => Some(format!(
                        "telemetry digests diverged across interleavings: {first:?} vs {digests:?}"
                    )),
                }
            })),
            ..CheckCfg::default()
        },
        move |co| {
            let fan = co.ctx().create_chare::<Fan>((), Some(0));
            let group = co.ctx().create_group::<Pusher>(());
            let done = co.ctx().create_future::<i64>();
            group.send(co.ctx(), PusherMsg::Go { fan, per_pe: 2 });
            fan.send(
                co.ctx(),
                FanMsg::WhenDone {
                    expect: 4,
                    notify: done,
                },
            );
            assert_eq!(co.get(&done), expected);
            let q = co.ctx().create_future::<()>();
            co.ctx().start_quiescence(&q);
            co.get(&q);
            co.ctx().exit();
        },
    );
    assert!(
        !report.truncated,
        "telemetry exploration did not exhaust the space in {} executions",
        report.executions
    );
    assert!(
        report.counterexample.is_none(),
        "telemetry produced a counterexample: {:?}",
        report.counterexample
    );
    println!(
        "telemetry check: {} executions over {} equivalence classes",
        report.executions, report.equivalence_classes
    );
}
