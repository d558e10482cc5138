//! Detector tests (`--features analyze`, DESIGN.md §6).
//!
//! Negative tests inject network-layer faults on the sim backend — a
//! duplicated envelope, a silently dropped envelope — and assert the
//! dynamic detector reports them through the probe. The positive test
//! explores *every* delivery schedule of one fan-in program with
//! `Runtime::check` and asserts the final state is schedule-independent
//! and the detector stays silent.
//!
//! This target only builds with `--features analyze` (see Cargo.toml
//! `required-features`); `cargo test -p charm-core --features analyze`
//! additionally runs the whole ordinary suite with detectors armed, where
//! any violation panics.

use charm_core::analyze::InjectFault;
use charm_core::prelude::*;
use charm_sim::MachineModel;

// ---------------------------------------------------------------------------
// A counter chare: fire-and-forget bumps, then a called total.
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

fn counter_program(co: &mut Co<Main>) {
    let c = co.ctx().create_chare::<Counter>((), Some(1));
    for i in 0..6 {
        c.send(co.ctx(), CounterMsg::Bump(i));
    }
    let f = c.call::<i64>(co.ctx(), CounterMsg::Total);
    co.get(&f);
    co.ctx().exit();
}

/// Duplicating any cross-PE application envelope at the network layer must
/// show up as a double delivery: the duplicate carries the original's trace
/// id, and the receiving PE's delivered-set flags the repeat. The exact
/// QD-envelope numbering is an implementation detail, so scan the first few
/// positions until the injector hits a duplicable (wire-payload) envelope.
#[test]
fn injected_duplicate_is_detected() {
    let mut found = false;
    for n in 0..12 {
        let (rt, probe) = Runtime::new(2)
            .simulated(MachineModel::local(2))
            .register::<Counter>()
            .analyze_inject(InjectFault::DuplicateNth(n));
        rt.run(counter_program);
        if probe.contains("double-delivered") {
            found = true;
            break;
        }
    }
    assert!(
        found,
        "no injected duplicate was reported in the first 12 positions"
    );
}

/// Dropping an envelope the program depends on (the future ack, the create,
/// a bump the total waits on — any stalling position) must surface as a
/// lost envelope: the queue drains without exit(), and the send/deliver
/// accounting finds a sent id that never reached a delivered-set.
#[test]
fn injected_drop_is_reported_lost() {
    let mut found = false;
    for n in 0..12 {
        let (rt, probe) = Runtime::new(2)
            .simulated(MachineModel::local(2))
            .register::<Counter>()
            .analyze_inject(InjectFault::DropNth(n));
        let report = rt.run(counter_program);
        if probe.contains("lost envelope") {
            assert!(
                !report.clean_exit,
                "lost envelope must only be reported at true quiescence (drained queue)"
            );
            found = true;
            break;
        }
    }
    assert!(
        found,
        "no injected drop was reported as a lost envelope in the first 12 positions"
    );
}

// ---------------------------------------------------------------------------
// Permutation determinism: a fan-in program whose result must not depend on
// the delivery schedule.
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
        // Every group member floods the fan-in chare concurrently: the
        // arrival interleaving across (pe → 0) channels is exactly what the
        // schedule permuter shuffles.
        for k in 0..per_pe {
            fan.send(ctx, FanMsg::Push(ctx.my_pe() as i64 * 1000 + k));
        }
    }
}

/// Schedule determinism, upgraded from sampling to proof: where this test
/// once replayed 16 jittered schedules, `Runtime::check` now explores
/// *every* delivery interleaving of a 2-PE instance up to happens-before
/// equivalence (DESIGN.md §11). The entry asserts the fan-in sum, so any
/// schedule-dependent result is a counterexample; `truncated == false`
/// means the whole space was covered, detector armed throughout.
#[test]
fn fan_in_is_deterministic_under_exhaustive_exploration() {
    use charm_core::CheckCfg;

    const NPES: usize = 2;
    const PER_PE: i64 = 2;
    // Σ over pe of Σ over k of (pe*1000 + k), independent of arrival order.
    let expected: i64 = (0..NPES as i64)
        .map(|pe| (0..PER_PE).map(|k| pe * 1000 + k).sum::<i64>())
        .sum();

    let rt = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .register::<Fan>()
        .register::<Pusher>();
    let report = rt.check(
        CheckCfg {
            max_executions: 200_000,
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
            assert_eq!(co.get(&done), expected, "fan-in sum is schedule-dependent");
            co.ctx().exit();
        },
    );
    assert!(
        !report.truncated,
        "fan-in exploration did not exhaust the space in {} executions",
        report.executions
    );
    assert!(
        report.counterexample.is_none(),
        "fan-in produced a counterexample: {:?}",
        report.counterexample
    );
    println!(
        "fan-in: {} executions over {} equivalence classes",
        report.executions, report.equivalence_classes
    );
}
