//! TRAM-style aggregation tests (`--features analyze`, DESIGN.md §9).
//!
//! The contract under test: turning `Runtime::aggregation` on changes the
//! *physical* envelope stream (fewer, larger frames) but no *logical*
//! observable — final application state, entry counts, message counts,
//! quiescence detection and fault recovery must all be bit-identical to an
//! aggregation-off run, under arbitrary permuted delivery schedules, with
//! the dynamic detector armed throughout.

#![cfg(feature = "analyze")]

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

use charm_core::analyze::InjectFault;
use charm_core::prelude::*;
use charm_core::{CollectionId, RunReport};
use charm_sim::MachineModel;

// ---------------------------------------------------------------------------
// Fan-in workload: every PE floods one chare with fine-grained messages —
// exactly the traffic aggregation exists for.
// ---------------------------------------------------------------------------

struct Fan {
    sum: i64,
    got: usize,
    expect: usize,
    notify: Option<Future<i64>>,
}

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
        for k in 0..per_pe {
            fan.send(ctx, FanMsg::Push(ctx.my_pe() as i64 * 1000 + k));
        }
    }
}

const NPES: usize = 4;
const PER_PE: i64 = 24;

fn fan_expected() -> i64 {
    (0..NPES as i64)
        .map(|pe| (0..PER_PE).map(|k| pe * 1000 + k).sum::<i64>())
        .sum()
}

/// One sim fan-in run; returns (sum, entries, msgs, bytes, total batches,
/// total batched msgs). Detector armed; any finding fails the test.
fn fan_run(agg: Option<AggCfg>, seed: Option<u64>) -> (i64, u64, u64, u64, u64, u64) {
    let (mut rt, probe) = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
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
    let sink = Arc::clone(&out);
    let report = rt.run(move |co| {
        let fan = co.ctx().create_chare::<Fan>((), Some(0));
        let group = co.ctx().create_group::<Pusher>(());
        let done = co.ctx().create_future::<i64>();
        group.send(
            co.ctx(),
            PusherMsg::Go {
                fan,
                per_pe: PER_PE,
            },
        );
        fan.send(
            co.ctx(),
            FanMsg::WhenDone {
                expect: NPES * PER_PE as usize,
                notify: done,
            },
        );
        sink.store(co.get(&done), Ordering::SeqCst);
        co.ctx().exit();
    });
    assert!(
        report.clean_exit,
        "agg={agg:?} seed={seed:?}: no clean exit"
    );
    let findings = probe.findings();
    assert!(
        findings.is_empty(),
        "agg={agg:?} seed={seed:?}: detector findings: {findings:?}"
    );
    let batches: u64 = report.pe_stats.iter().map(|p| p.batches_sent).sum();
    let batched: u64 = report.pe_stats.iter().map(|p| p.batch_msgs).sum();
    (
        out.load(Ordering::SeqCst),
        report.entries,
        report.msgs,
        report.bytes,
        batches,
        batched,
    )
}

/// Aggregation-on must be bit-identical to aggregation-off on every logical
/// counter — final sum, entry executions, messages handled, bytes moved —
/// under the unpermuted schedule, with the detector armed (any FIFO
/// violation, double delivery or lost envelope fails). Batches must
/// actually form, and each batch must coalesce more than one message on
/// average for this flood. Schedule coverage lives in the exhaustive
/// `charm-check` test below.
#[test]
fn aggregation_is_bit_identical_to_aggregation_off() {
    let baseline = fan_run(None, None);
    assert_eq!(baseline.0, fan_expected(), "agg-off baseline sum wrong");
    assert_eq!(baseline.4, 0, "aggregation off must send zero batches");

    let on = fan_run(Some(AggCfg::count(8)), None);
    assert_eq!(
        (on.0, on.1, on.2, on.3),
        (baseline.0, baseline.1, baseline.2, baseline.3),
        "logical observables diverged with aggregation on"
    );
    assert!(on.4 > 0, "no batches were formed");
    assert!(
        on.5 > on.4,
        "batches averaged <= 1 message ({} msgs / {} batches)",
        on.5,
        on.4
    );
}

/// Schedule coverage, upgraded from sampling to proof: where this suite
/// once replayed the aggregated fan-in under 16 jittered schedules,
/// `Runtime::check` now explores *every* delivery interleaving of a 2-PE
/// instance up to happens-before equivalence (DESIGN.md §11) with
/// aggregation on. The entry asserts the fan-in sum, the per-execution
/// oracle asserts a clean exit and that batches really formed, and the
/// armed detector turns any FIFO/duplicate/lost-envelope slip into a
/// counterexample. `truncated == false` means the space was exhausted.
#[test]
fn aggregated_fan_in_is_clean_under_exhaustive_exploration() {
    use charm_core::CheckCfg;

    const CHECK_NPES: usize = 2;
    const CHECK_PER_PE: i64 = 2;
    let expected: i64 = (0..CHECK_NPES as i64)
        .map(|pe| (0..CHECK_PER_PE).map(|k| pe * 1000 + k).sum::<i64>())
        .sum();

    let rt = Runtime::new(CHECK_NPES)
        .simulated(MachineModel::local(CHECK_NPES))
        .register::<Fan>()
        .register::<Pusher>()
        // PE 1's pusher emits exactly two cross-PE pushes from one handler,
        // so a count-2 buffer coalesces them into one batch on every
        // schedule — the oracle below can demand it unconditionally.
        .aggregation(AggCfg::count(2));
    let report = rt.check(
        CheckCfg {
            max_executions: 200_000,
            oracle: Some(Arc::new(|r: &RunReport| {
                let batches: u64 = r.pe_stats.iter().map(|p| p.batches_sent).sum();
                if !r.clean_exit {
                    Some("no clean exit".to_string())
                } else if batches == 0 {
                    Some("no batches were formed".to_string())
                } else {
                    None
                }
            })),
            ..CheckCfg::default()
        },
        move |co| {
            let fan = co.ctx().create_chare::<Fan>((), Some(0));
            let group = co.ctx().create_group::<Pusher>(());
            let done = co.ctx().create_future::<i64>();
            group.send(
                co.ctx(),
                PusherMsg::Go {
                    fan,
                    per_pe: CHECK_PER_PE,
                },
            );
            fan.send(
                co.ctx(),
                FanMsg::WhenDone {
                    expect: CHECK_NPES * CHECK_PER_PE as usize,
                    notify: done,
                },
            );
            assert_eq!(co.get(&done), expected, "fan-in sum is schedule-dependent");
            co.ctx().exit();
        },
    );
    assert!(
        !report.truncated,
        "aggregated fan-in exploration did not exhaust the space in {} executions",
        report.executions
    );
    assert!(
        report.counterexample.is_none(),
        "aggregated fan-in produced a counterexample: {:?}",
        report.counterexample
    );
    println!(
        "aggregated fan-in: {} executions over {} equivalence classes",
        report.executions, report.equivalence_classes
    );
}

/// The threads backend takes the same code path through `push_out` but
/// flushes from the scheduler's idle transition (the threads transport's
/// `poll` coming up empty): the flood must still fan in completely and batches must
/// form.
#[test]
fn threads_backend_aggregates_and_completes() {
    let (rt, probe) = Runtime::new(NPES)
        .register::<Fan>()
        .register::<Pusher>()
        .analyze_probe();
    let rt = rt.aggregation(AggCfg::count(8));
    let out = Arc::new(AtomicI64::new(0));
    let sink = Arc::clone(&out);
    let report = rt.run(move |co| {
        let fan = co.ctx().create_chare::<Fan>((), Some(0));
        let group = co.ctx().create_group::<Pusher>(());
        let done = co.ctx().create_future::<i64>();
        group.send(
            co.ctx(),
            PusherMsg::Go {
                fan,
                per_pe: PER_PE,
            },
        );
        fan.send(
            co.ctx(),
            FanMsg::WhenDone {
                expect: NPES * PER_PE as usize,
                notify: done,
            },
        );
        sink.store(co.get(&done), Ordering::SeqCst);
        co.ctx().exit();
    });
    assert!(report.clean_exit);
    assert_eq!(out.load(Ordering::SeqCst), fan_expected());
    let findings = probe.findings();
    assert!(findings.is_empty(), "detector findings: {findings:?}");
    let batches: u64 = report.pe_stats.iter().map(|p| p.batches_sent).sum();
    assert!(batches > 0, "threads backend formed no batches");
}

// ---------------------------------------------------------------------------
// Quiescence with parked messages.
// ---------------------------------------------------------------------------

struct Counter {
    total: i64,
}

enum CounterMsg {
    Bump(i64),
    Total,
}
wire_enum! { CounterMsg { Bump(a), Total } }

impl Chare for Counter {
    type Msg = CounterMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Counter { total: 0 }
    }
    fn receive(&mut self, msg: CounterMsg, ctx: &mut Ctx) {
        match msg {
            CounterMsg::Bump(v) => self.total += v,
            CounterMsg::Total => ctx.reply(self.total),
        }
    }
}

/// Thresholds so large that nothing ever flushes on its own: every bump
/// parks in PE 0's aggregation buffer, counted as *sent* but undeliverable.
/// Quiescence detection must still terminate — the probe flushes the
/// buffers (`PeState::qd_probe`) — and the flushed bumps must all have
/// landed by the time the QD future completes.
#[test]
fn quiescence_flushes_parked_messages() {
    let (rt, probe) = Runtime::new(2)
        .simulated(MachineModel::local(2))
        .register::<Counter>()
        .analyze_probe();
    let rt = rt.aggregation(AggCfg {
        max_count: 1 << 20,
        max_bytes: 1 << 30,
    });
    let out = Arc::new(AtomicI64::new(-1));
    let sink = Arc::clone(&out);
    let report = rt.run(move |co| {
        let c = co.ctx().create_chare::<Counter>((), Some(1));
        for i in 1..=5 {
            c.send(co.ctx(), CounterMsg::Bump(i));
        }
        let q = co.ctx().create_future::<()>();
        co.ctx().start_quiescence(&q);
        co.get(&q); // hangs forever if QD cannot see the parked bumps
        let f = c.call::<i64>(co.ctx(), CounterMsg::Total);
        sink.store(co.get(&f), Ordering::SeqCst);
        co.ctx().exit();
    });
    assert!(report.clean_exit);
    assert_eq!(out.load(Ordering::SeqCst), 15, "a parked bump was lost");
    let findings = probe.findings();
    assert!(findings.is_empty(), "detector findings: {findings:?}");
    let batches: u64 = report.pe_stats.iter().map(|p| p.batches_sent).sum();
    assert!(batches >= 1, "the parked bumps never left via a batch");
}

// ---------------------------------------------------------------------------
// Fault recovery with aggregation on (the ring stencil from the ft suite).
// ---------------------------------------------------------------------------

const RING_N: i32 = 8;
const ROUNDS: i64 = 6;

struct Ring {
    cur: i64,
    rounds_done: i64,
    hist: Vec<i64>,
    sent: bool,
    recv: Option<i64>,
}
wire_struct! { Ring { cur, rounds_done, hist, sent, recv } }

enum RingMsg {
    DoRound,
    Shift(i64),
    RoundsDone,
    Hist,
}
wire_enum! { RingMsg { DoRound, Shift(a), RoundsDone, Hist } }

impl Chare for Ring {
    type Msg = RingMsg;
    type Init = ();
    fn create(_: (), ctx: &mut Ctx) -> Self {
        Ring {
            cur: ctx.my_index().first() as i64 + 1,
            rounds_done: 0,
            hist: Vec::new(),
            sent: false,
            recv: None,
        }
    }
    fn receive(&mut self, msg: RingMsg, ctx: &mut Ctx) {
        match msg {
            RingMsg::DoRound => {
                let right = ((ctx.my_index().first() + 1) % RING_N) as usize;
                let arr = ctx.this_proxy::<Ring>();
                arr.elem(right).send(ctx, RingMsg::Shift(self.cur));
                self.sent = true;
            }
            RingMsg::Shift(v) => self.recv = Some(v),
            RingMsg::RoundsDone => ctx.reply(self.rounds_done),
            RingMsg::Hist => {
                let h = self.hist.clone();
                ctx.reply(h);
            }
        }
        if self.sent {
            if let Some(v) = self.recv.take() {
                self.sent = false;
                self.cur = self.cur * 3 + v;
                self.rounds_done += 1;
                self.hist.push(self.cur);
            }
        }
    }
}

fn expected_hists(rounds: i64) -> Vec<Vec<i64>> {
    let n = RING_N as usize;
    let mut cur: Vec<i64> = (0..n).map(|i| i as i64 + 1).collect();
    let mut hists = vec![Vec::new(); n];
    for _ in 0..rounds {
        let prev = cur.clone();
        for (i, h) in hists.iter_mut().enumerate() {
            cur[i] = prev[i] * 3 + prev[(i + n - 1) % n];
            h.push(cur[i]);
        }
    }
    hists
}

fn drive(co: &mut Co<Main>, arr: &Proxy<Ring>, from: i64, out: &Arc<Mutex<Vec<Vec<i64>>>>) {
    for _ in from..ROUNDS {
        arr.send(co.ctx(), RingMsg::DoRound);
        let q = co.ctx().create_future::<()>();
        co.ctx().start_quiescence(&q);
        co.get(&q);
    }
    let mut hists = Vec::new();
    for i in 0..RING_N as usize {
        let f = arr.elem(i).call::<Vec<i64>>(co.ctx(), RingMsg::Hist);
        hists.push(co.get(&f));
    }
    *out.lock().unwrap() = hists;
    co.ctx().exit();
}

fn stencil_run(kill: bool, seed: Option<u64>) -> (Vec<Vec<i64>>, RunReport, u64, Vec<String>) {
    let rt = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .register_migratable::<Ring>()
        .auto_checkpoint(1, Store::Memory)
        .aggregation(AggCfg::default());
    let (mut rt, probe) = if kill {
        rt.analyze_inject(InjectFault::KillPe {
            pe: 1,
            after_nth: 10,
        })
    } else {
        rt.analyze_probe()
    };
    if let Some(s) = seed {
        rt = rt.permute_schedule(s);
    }
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    let rt = rt.recover_with(move |co| {
        let arr = Proxy::<Ring>::restored(CollectionId { creator: 0, seq: 0 });
        let f = arr.elem(0usize).call::<i64>(co.ctx(), RingMsg::RoundsDone);
        let from = co.get(&f);
        drive(co, &arr, from, &sink);
    });
    let sink = Arc::clone(&out);
    let report = rt.run(move |co| {
        let arr = co.ctx().create_array::<Ring>(&[RING_N], ());
        drive(co, &arr, 0, &sink);
    });
    let stale: u64 = report.pe_stats.iter().map(|p| p.stale_discarded).sum();
    let hists = out.lock().unwrap().clone();
    (hists, report, stale, probe.findings())
}

/// Killing a PE mid-stencil with aggregation on: the pre-failure
/// checkpoint was flushed before packing (`PeState::ckpt_save`), in-flight
/// and parked pre-kill traffic is stranded in the dead epoch (stale
/// batches discard *all* their constituents), and the recovered run must
/// match the fault-free result bit for bit under permuted schedules.
#[test]
fn killed_pe_recovers_bit_identical_with_aggregation() {
    let expected = expected_hists(ROUNDS);
    let (hists, report, stale, findings) = stencil_run(false, None);
    assert!(findings.is_empty(), "fault-free findings: {findings:?}");
    assert_eq!(report.recoveries, 0);
    assert_eq!(stale, 0, "no recovery, so nothing to discard");
    assert_eq!(hists, expected, "fault-free aggregated baseline diverged");

    for seed in [None, Some(3), Some(7), Some(11), Some(16)] {
        let (hists, report, stale, findings) = stencil_run(true, seed);
        assert!(
            findings.is_empty(),
            "seed {seed:?}: detector findings after recovery: {findings:?}"
        );
        assert_eq!(report.recoveries, 1, "seed {seed:?}: expected one restart");
        assert!(report.clean_exit, "seed {seed:?}: no clean exit");
        assert!(
            stale > 0,
            "seed {seed:?}: the kill must strand pre-recovery traffic"
        );
        assert_eq!(
            hists, expected,
            "seed {seed:?}: recovered aggregated run diverged"
        );
    }
}
