//! Model-checker tests (`--features analyze`, DESIGN.md §11): exhaustive
//! schedule exploration with DPOR, counterexample shrinking and
//! deterministic replay, driven through `Runtime::check`.
//!
//! The acceptance workload is a 2-PE histogram: one bin chare collects
//! samples flooded from a per-PE source group, and the completion future
//! asserts the exact bin counts inside the entry — any schedule that
//! breaks the histogram panics and becomes a counterexample. Exploration
//! must exhaust the space (`truncated == false`), DPOR must visit
//! strictly fewer executions than naive enumeration, and a seeded
//! detector violation must shrink to a replayable schedule artifact.

#![cfg(feature = "analyze")]

use std::sync::Arc;

use charm_core::analyze::InjectFault;
use charm_core::prelude::*;
use charm_core::{CheckCfg, Store};
use charm_sim::MachineModel;

const NPES: usize = 2;

// Golden constants, generated at the commit before the scheduler loops were
// folded into one driver: a refactor of the drive/supervise path must
// reproduce them untouched.
const GOLD_HIST_EXECUTIONS: u64 = 20;
const GOLD_HIST_CLASSES: usize = 20;
/// `(dpor executions, dpor classes, naive executions, naive classes, naive truncated)`.
const GOLD_TWO_COUNTER: (u64, usize, u64, usize, bool) = (42, 6, 510, 6, false);
/// `(injector position, decisions, steps, digest)` of the shrunk artifact.
const GOLD_SHRUNK_REPLAY: (u64, usize, usize, u64) = (0, 0, 15, 0x658a_cc4c_ca44_9178);

// ---------------------------------------------------------------------------
// Histogram workload: per-PE sources flood one bin chare.
// ---------------------------------------------------------------------------

const BINS: usize = 2;
const PER_SRC: i64 = 2;

struct Hist {
    counts: Vec<i64>,
    got: usize,
    expect: usize,
    notify: Option<Future<Vec<i64>>>,
}

enum HistMsg {
    Sample(i64),
    WhenDone {
        expect: usize,
        notify: Future<Vec<i64>>,
    },
}
wire_enum! { HistMsg { Sample(a), WhenDone { expect, notify } } }

impl Chare for Hist {
    type Msg = HistMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Hist {
            counts: vec![0; BINS],
            got: 0,
            expect: usize::MAX,
            notify: None,
        }
    }
    fn receive(&mut self, msg: HistMsg, ctx: &mut Ctx) {
        match msg {
            HistMsg::Sample(v) => {
                self.counts[(v as usize) % BINS] += 1;
                self.got += 1;
            }
            HistMsg::WhenDone { expect, notify } => {
                self.expect = expect;
                self.notify = Some(notify);
            }
        }
        if self.got == self.expect {
            if let Some(f) = self.notify.take() {
                let counts = self.counts.clone();
                ctx.send_future(&f, counts);
            }
        }
    }
}

struct Src;

enum SrcMsg {
    Go { hist: Proxy<Hist>, per_src: i64 },
}
wire_enum! { SrcMsg { Go { hist, per_src } } }

impl Chare for Src {
    type Msg = SrcMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Src
    }
    fn receive(&mut self, msg: SrcMsg, ctx: &mut Ctx) {
        let SrcMsg::Go { hist, per_src } = msg;
        for k in 0..per_src {
            hist.send(ctx, HistMsg::Sample(ctx.my_pe() as i64 * per_src + k));
        }
    }
}

/// Every schedule must produce the same bin counts; the assert inside the
/// entry turns any divergence into a panic, i.e. a counterexample.
fn histogram_program(co: &mut Co<Main>) {
    let hist = co.ctx().create_chare::<Hist>((), Some(1));
    let srcs = co.ctx().create_group::<Src>(());
    let done = co.ctx().create_future::<Vec<i64>>();
    srcs.send(
        co.ctx(),
        SrcMsg::Go {
            hist,
            per_src: PER_SRC,
        },
    );
    hist.send(
        co.ctx(),
        HistMsg::WhenDone {
            expect: NPES * PER_SRC as usize,
            notify: done,
        },
    );
    // With PER_SRC samples per PE and values pe*PER_SRC + k, the samples
    // are 0..NPES*PER_SRC and land round-robin: NPES per bin, exactly.
    let counts = co.get(&done);
    assert_eq!(counts, vec![NPES as i64; BINS], "histogram diverged");
    co.ctx().exit();
}

fn hist_runtime() -> Runtime {
    Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .register::<Hist>()
        .register::<Src>()
}

/// The headline acceptance test: `Runtime::check` exhausts the 2-PE
/// histogram's schedule space — `truncated == false` with no
/// counterexample — and reports its happens-before equivalence classes.
#[test]
fn exhaustive_histogram_exploration_is_clean() {
    let report = hist_runtime().check(
        CheckCfg {
            max_executions: 200_000,
            ..CheckCfg::default()
        },
        histogram_program,
    );
    assert!(
        !report.truncated,
        "histogram exploration did not exhaust the space in {} executions",
        report.executions
    );
    assert!(
        report.counterexample.is_none(),
        "clean histogram produced a counterexample: {:?}",
        report.counterexample
    );
    println!(
        "histogram: {} executions over {} equivalence classes",
        report.executions, report.equivalence_classes
    );
    // Golden: the explored space is a function of the runtime's protocol
    // and the controlled transport's enabled sets; neither may move silently.
    assert_eq!(
        (report.executions, report.equivalence_classes),
        (GOLD_HIST_EXECUTIONS, GOLD_HIST_CLASSES),
        "the histogram's explored schedule space moved"
    );
}

// ---------------------------------------------------------------------------
// DPOR vs. naive enumeration.
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

/// Two counters on different PEs: deliveries to PE 0 and PE 1 commute, so
/// DPOR collapses their interleavings while naive enumeration pays for
/// every shuffle.
fn two_counter_program(co: &mut Co<Main>) {
    let a = co.ctx().create_chare::<Counter>((), Some(1));
    let b = co.ctx().create_chare::<Counter>((), Some(0));
    a.send(co.ctx(), CounterMsg::Bump(1));
    b.send(co.ctx(), CounterMsg::Bump(2));
    let fa = a.call::<i64>(co.ctx(), CounterMsg::Total);
    let fb = b.call::<i64>(co.ctx(), CounterMsg::Total);
    assert_eq!(co.get(&fa), 1);
    assert_eq!(co.get(&fb), 2);
    co.ctx().exit();
}

fn counter_runtime() -> Runtime {
    Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .register::<Counter>()
}

/// DPOR visits strictly fewer executions than naive enumeration of the
/// same program, without losing coverage: when both exhaust, they agree
/// on the number of happens-before equivalence classes.
#[test]
fn dpor_visits_fewer_executions_than_naive() {
    let dpor = counter_runtime().check(
        CheckCfg {
            max_executions: 100_000,
            dpor: true,
            ..CheckCfg::default()
        },
        two_counter_program,
    );
    assert!(!dpor.truncated, "DPOR run truncated at {}", dpor.executions);
    assert!(
        dpor.counterexample.is_none(),
        "clean program produced a counterexample: {:?}",
        dpor.counterexample
    );

    let naive = counter_runtime().check(
        CheckCfg {
            max_executions: 100_000,
            dpor: false,
            ..CheckCfg::default()
        },
        two_counter_program,
    );
    println!(
        "dpor: {} executions / {} classes; naive: {} executions / {} classes (truncated: {})",
        dpor.executions,
        dpor.equivalence_classes,
        naive.executions,
        naive.equivalence_classes,
        naive.truncated
    );
    assert!(
        dpor.executions < naive.executions,
        "DPOR ({}) must beat naive enumeration ({})",
        dpor.executions,
        naive.executions
    );
    if !naive.truncated {
        assert_eq!(
            dpor.equivalence_classes, naive.equivalence_classes,
            "DPOR missed equivalence classes naive enumeration found"
        );
    }
    assert_eq!(
        (
            dpor.executions,
            dpor.equivalence_classes,
            naive.executions,
            naive.equivalence_classes,
            naive.truncated
        ),
        GOLD_TWO_COUNTER,
        "the two-counter program's explored schedule space moved"
    );
}

// ---------------------------------------------------------------------------
// Seeded violation → shrunk, replayable artifact.
// ---------------------------------------------------------------------------

/// No asserts on the total here: the target failure is the armed
/// detector's double-delivery finding, not an application panic.
fn bump_program(co: &mut Co<Main>) {
    let c = co.ctx().create_chare::<Counter>((), Some(1));
    for i in 0..3 {
        c.send(co.ctx(), CounterMsg::Bump(i));
    }
    let f = c.call::<i64>(co.ctx(), CounterMsg::Total);
    co.get(&f);
    co.ctx().exit();
}

fn injected_runtime(n: u64) -> Runtime {
    let (rt, _probe) = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .register::<Counter>()
        .analyze_inject(InjectFault::DuplicateNth(n));
    rt
}

/// A duplicated envelope is a detector violation; `check` must catch it,
/// shrink the schedule, write the artifact, and two replays of that
/// artifact must agree bit-for-bit (same failure, same delivery/clock
/// digest). The duplicable position is an implementation detail — scan.
#[test]
fn seeded_violation_shrinks_to_a_replayable_artifact() {
    let dir = std::env::temp_dir().join(format!("charmrs-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let artifact = dir.join("double-delivery.schedule");

    let mut caught = None;
    for n in 0..12 {
        let report = injected_runtime(n).check(
            CheckCfg {
                max_executions: 40,
                artifact: Some(artifact.clone()),
                ..CheckCfg::default()
            },
            bump_program,
        );
        if let Some(cx) = report.counterexample {
            if cx.failure.contains("double-delivered") {
                caught = Some((n, cx));
                break;
            }
        }
    }
    let (n, cx) =
        caught.expect("no injected duplicate was caught as a violation in the first 12 positions");
    assert!(
        cx.decisions <= cx.original_len,
        "shrinking grew the schedule: {} from {}",
        cx.decisions,
        cx.original_len
    );
    let path = cx.artifact.clone().expect("no artifact was written");

    let r1 = injected_runtime(n)
        .replay_schedule(&path, bump_program)
        .expect("artifact unreadable");
    let r2 = injected_runtime(n)
        .replay_schedule(&path, bump_program)
        .expect("artifact unreadable");
    assert!(
        r1.failure
            .as_deref()
            .unwrap_or("")
            .contains("double-delivered"),
        "replay lost the violation: {:?}",
        r1.failure
    );
    assert_eq!(
        (r1.digest, r1.steps, &r1.failure),
        (r2.digest, r2.steps, &r2.failure),
        "two replays of one artifact diverged"
    );
    println!(
        "shrunk artifact: position {n}, {} decisions, {} steps, digest {:#018x}",
        r1.decisions, r1.steps, r1.digest
    );
    assert_eq!(
        (n, r1.decisions, r1.steps, r1.digest),
        GOLD_SHRUNK_REPLAY,
        "the shrunk artifact's replay (delivery sequence, clocks, outcome) moved"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Oracle plumbing and the delay-bound knob.
// ---------------------------------------------------------------------------

/// A user oracle failure is a counterexample like any other, and a
/// schedule-independent one shrinks all the way to the empty schedule.
#[test]
fn oracle_mismatch_is_a_counterexample() {
    let report = counter_runtime().check(
        CheckCfg {
            max_executions: 50,
            oracle: Some(Arc::new(|_: &RunReport| Some("forced".to_string()))),
            ..CheckCfg::default()
        },
        two_counter_program,
    );
    let cx = report
        .counterexample
        .expect("the oracle mismatch was not reported");
    assert!(
        cx.failure.starts_with("oracle:") && cx.failure.contains("forced"),
        "wrong failure class: {}",
        cx.failure
    );
    assert_eq!(
        cx.decisions, 0,
        "a schedule-independent failure must shrink to the empty schedule"
    );
}

/// A delay bound below the space's requirement truncates instead of
/// silently claiming exhaustion.
#[test]
fn delay_bound_truncates_honestly() {
    let bounded = counter_runtime().check(
        CheckCfg {
            max_executions: 100_000,
            delay_bound: Some(0),
            ..CheckCfg::default()
        },
        two_counter_program,
    );
    assert!(
        bounded.counterexample.is_none(),
        "delay-bounded run found a spurious counterexample: {:?}",
        bounded.counterexample
    );
    // Delay bound 0 admits only the default schedule; the two-counter
    // program has real concurrency, so the space cannot be exhausted.
    assert!(bounded.executions >= 1);
    assert!(
        bounded.truncated,
        "a zero delay bound cannot exhaust a concurrent program's space"
    );
}

// ---------------------------------------------------------------------------
// The default extension is the sim transport's order.
// ---------------------------------------------------------------------------

/// The first execution `check` runs is the empty schedule; its report is
/// what the controlled transport delivers with no explorer decision at all.
fn empty_schedule_report(rt: Runtime, program: fn(&mut Co<Main>)) -> RunReport {
    let seen = Arc::new(std::sync::Mutex::new(None));
    let sink = Arc::clone(&seen);
    let report = rt.check(
        CheckCfg {
            max_executions: 1,
            oracle: Some(Arc::new(move |r: &RunReport| {
                sink.lock().unwrap().get_or_insert_with(|| r.clone());
                None
            })),
            ..CheckCfg::default()
        },
        program,
    );
    assert!(
        report.counterexample.is_none(),
        "the empty schedule failed: {:?}",
        report.counterexample
    );
    let report = seen.lock().unwrap().take();
    report.expect("the oracle never saw the first execution")
}

/// The aggregation-on workload: enough small sends to one remote chare to
/// fill count-threshold batches and leave a remainder for the idle flush.
fn aggregated_bump_program(co: &mut Co<Main>) {
    let c = co.ctx().create_chare::<Counter>((), Some(1));
    for i in 0..7 {
        c.send(co.ctx(), CounterMsg::Bump(i));
    }
    let f = c.call::<i64>(co.ctx(), CounterMsg::Total);
    assert_eq!(co.get(&f), 21, "aggregated bumps diverged");
    co.ctx().exit();
}

/// The module docs claim "an empty schedule replays a plain `run()`"; pin
/// it. Per-PE handled messages and entries, the virtual makespan and the
/// application result (asserted inside each program) must be equal between
/// a plain `Backend::Sim` run and the controlled transport's default
/// extension, with and without aggregation, and replaying an empty
/// schedule artifact must be clean.
#[test]
fn empty_schedule_delivers_what_a_plain_sim_run_delivers() {
    let dir = std::env::temp_dir().join(format!("charmrs-check-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("empty.schedule");
    let empty = charm_core::Schedule {
        npes: NPES,
        note: "empty".into(),
        choices: Vec::new(),
    };
    empty.save(&artifact).unwrap();

    /// `(name, runtime, program, whether batches must form)`.
    type Case = (&'static str, fn() -> Runtime, fn(&mut Co<Main>), bool);
    let cases: [Case; 2] = [
        ("histogram", hist_runtime, histogram_program, false),
        (
            "aggregated bumps",
            || counter_runtime().aggregation(AggCfg::count(3)),
            aggregated_bump_program,
            true,
        ),
    ];
    for (name, runtime, program, batched) in cases {
        let plain = runtime().run(program);
        let controlled = empty_schedule_report(runtime(), program);
        let per_pe = |r: &RunReport| -> Vec<(u64, u64)> {
            r.pe_stats
                .iter()
                .map(|p| (p.msgs_processed, p.entries))
                .collect()
        };
        assert!(plain.clean_exit && controlled.clean_exit, "{name}: no exit");
        let batches = |r: &RunReport| r.pe_stats.iter().map(|p| p.batches_sent).sum::<u64>();
        assert_eq!(batches(&controlled), batches(&plain), "{name}: batching");
        assert_eq!(batches(&plain) > 0, batched, "{name}: batching");
        assert_eq!(
            per_pe(&controlled),
            per_pe(&plain),
            "{name}: per-PE (msgs_processed, entries) diverged"
        );
        assert_eq!(controlled.time, plain.time, "{name}: makespan diverged");
        let replay = runtime()
            .replay_schedule(&artifact, program)
            .expect("artifact unreadable");
        assert_eq!(replay.failure, None, "{name}: empty replay failed");
        assert_eq!(replay.decisions, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// One run across every protocol that lives outside the dispatch switch.
// ---------------------------------------------------------------------------

/// AtSync worker on a dense array: skewed load, then (after the LB epoch)
/// a reduction broadcast back to the array, whose result every member
/// reports to one future.
struct Cross {
    seen: i64,
    ready: Option<Future<RedData>>,
}
wire_struct! { Cross { seen, ready } }

enum CrossMsg {
    Work { ready: Future<RedData> },
}
wire_enum! { CrossMsg { Work { ready } } }

const CROSS_TAG: u32 = 7;
const CROSS_MEMBERS: i64 = 8;

impl Chare for Cross {
    type Msg = CrossMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Cross {
            seen: 0,
            ready: None,
        }
    }
    fn receive(&mut self, msg: CrossMsg, ctx: &mut Ctx) {
        let CrossMsg::Work { ready } = msg;
        self.ready = Some(ready);
        // Block placement puts all the load on PEs 0 and 1 (two loaded
        // members each), so both levels of the refine tree move one.
        if ctx.my_index().first() < 4 {
            ctx.charge(std::time::Duration::from_millis(8));
        }
        ctx.at_sync();
    }
    fn resume_from_sync(&mut self, ctx: &mut Ctx) {
        let target = ctx.this_proxy::<Cross>().reduction_target(CROSS_TAG);
        ctx.contribute(RedData::I64(1), Reducer::Sum, target);
    }
    fn reduced(&mut self, tag: u32, data: RedData, ctx: &mut Ctx) {
        assert_eq!(tag, CROSS_TAG);
        self.seen = data.as_i64();
        let ready = self.ready.take().expect("reduced before Work");
        ctx.contribute(
            RedData::I64(self.seen),
            Reducer::Sum,
            RedTarget::Future(ready.id()),
        );
    }
}

/// Dense array, a 2-ary LB tree epoch with migrations, a broadcast
/// reduction, then a quiescence round that takes the automatic checkpoint
/// and the telemetry sweep.
fn cross_program(co: &mut Co<Main>) {
    let arr = co.ctx().create_array_with::<Cross>(
        &[CROSS_MEMBERS as i32],
        (),
        ArrayOpts {
            placement: Placement::Block,
            use_lb: true,
        },
    );
    let ready = co.ctx().create_future::<RedData>();
    arr.send(co.ctx(), CrossMsg::Work { ready });
    assert_eq!(co.get(&ready).as_i64(), CROSS_MEMBERS * CROSS_MEMBERS);
    let q = co.ctx().create_future::<()>();
    co.ctx().start_quiescence(&q);
    co.get(&q);
    co.ctx().exit();
}

fn cross_runtime() -> Runtime {
    Runtime::new(4)
        .simulated(MachineModel::local(4))
        .register_migratable::<Cross>()
        .lb_group_size(2)
        .auto_checkpoint(1, Store::Memory)
        .telemetry(TelemetryCfg::every(1))
}

/// `(msgs, entries, bytes, migrations, lb_epochs, fwd_hops, lb_peak_stats,
/// ckpt_bytes, telemetry frames, PEs in the frame, entries in the frame)`.
type CrossCounters = (u64, u64, u64, u64, u64, u64, u64, u64, usize, u64, u64);
const GOLD_CROSS_COUNTERS: CrossCounters = (18, 16, 4358, 2, 1, 0, 12, 164, 1, 4, 16);
/// `(steps, digest)` of the empty-schedule replay.
const GOLD_CROSS_REPLAY: (usize, u64) = (79, 0x27b1_cbe4_e6e8_94f7);

/// Everything `pe.rs` hands to a protocol module runs here at once; the
/// logical counters and the replay digest (delivery sequence + vector
/// clocks) were generated before the protocols moved out of `pe.rs` and
/// held through the move. One thing moved them since, on purpose: with
/// versioned location records an arriving migrant no longer repeats to its
/// home what its departure already said, so each of the two migrations
/// here costs one 32-byte `LocationUpdate` less (`bytes` 4,422 -> 4,358,
/// 81 -> 79 deliveries). And the digest moved when the channel clamp
/// stopped spacing a channel's arrivals 1 ns apart: equal arrivals keep
/// ship order instead, so the clocks it folds in read the model's own
/// times.
#[test]
fn every_protocol_at_once_golden() {
    let report = cross_runtime().run(cross_program);
    assert!(report.clean_exit);
    let sum = |f: fn(&charm_core::PePerf) -> u64| report.pe_stats.iter().map(f).sum::<u64>();
    let frame = report.telemetry.first().expect("no telemetry sweep ran");
    let counters: CrossCounters = (
        report.msgs,
        report.entries,
        report.bytes,
        report.migrations,
        report.lb_epochs,
        sum(|p| p.fwd_hops),
        sum(|p| p.lb_peak_stats),
        sum(|p| p.ckpt_bytes),
        report.telemetry.len(),
        frame.pes,
        frame.entries,
    );
    assert!(report.migrations > 0, "the LB epoch moved nothing");
    assert!(sum(|p| p.ckpt_bytes) > 0, "no automatic checkpoint ran");

    let dir = std::env::temp_dir().join(format!("charmrs-check-cross-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("empty.schedule");
    charm_core::Schedule {
        npes: 4,
        note: "empty".into(),
        choices: Vec::new(),
    }
    .save(&artifact)
    .unwrap();
    let replay = cross_runtime()
        .replay_schedule(&artifact, cross_program)
        .expect("artifact unreadable");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(replay.failure, None);
    println!(
        "cross: {counters:?}, {} steps, digest {:#018x}",
        replay.steps, replay.digest
    );
    assert_eq!(counters, GOLD_CROSS_COUNTERS, "logical counters moved");
    assert_eq!(
        (replay.steps, replay.digest),
        GOLD_CROSS_REPLAY,
        "the replay (delivery sequence, clocks, outcome) moved"
    );
}

// ---------------------------------------------------------------------------
// Migrate-while-sending: location records under every delivery order.
// ---------------------------------------------------------------------------

#[path = "common/chase.rs"]
mod chase;

/// `(executions, equivalence classes)` of the chase program's whole space.
const GOLD_CHASE: (u64, usize) = (13410, 152);

/// With versioned location records the chase program's schedule space is
/// finite — no delivery order lets an envelope bounce — and every schedule
/// in it lands every increment: exploration exhausts it with no finding
/// from the detector's forwarding bound, no panic and no stalled run.
#[test]
fn migrate_while_sending_is_clean_under_exhaustive_exploration() {
    let report = chase::runtime().check(
        CheckCfg {
            max_executions: 200_000,
            oracle: Some(Arc::new(chase::stalled)),
            ..CheckCfg::default()
        },
        chase::program,
    );
    assert!(
        report.counterexample.is_none(),
        "a delivery order breaks the chase: {:?}",
        report.counterexample
    );
    assert!(
        !report.truncated,
        "the chase space did not exhaust in {} executions",
        report.executions
    );
    println!(
        "chase: {} executions over {} equivalence classes",
        report.executions, report.equivalence_classes
    );
    assert_eq!(
        (report.executions, report.equivalence_classes),
        GOLD_CHASE,
        "the chase program's explored schedule space moved"
    );
}
