//! Mutation smoke tests (DESIGN.md §11): each `mutation-*` feature puts one
//! known bug back into the runtime, and `charm-check` must rediscover it
//! and shrink the counterexample. Every item below is gated on the feature
//! whose half it belongs to, so either feature alone builds and runs.
//!
//! `mutation-stale-locupdate` makes `Locations::learn` write
//! unconditionally, so a stale `LocationUpdate` can replace the fresher
//! record a departure or a look-ahead update just wrote: the forwarding bug
//! versioned location records removed. The chase program `check.rs`
//! exhausts cleanly must then lose its increment under some delivery order.
//!
//! `mutation-ckptack` reintroduces the seed's stray-CkptAck panic (fixed in the
//! static-analysis PR by demoting it to a drop) and restores its
//! reachability: the pre-fix network layer drew no app/control distinction,
//! so the fault injector could duplicate a checkpoint ack. One duplicated
//! ack closes the initiator's checkpoint window one ack early; the final
//! real ack then arrives with no checkpoint in progress and the mutated
//! runtime panics. `charm-check` must rediscover this bug, shrink the
//! counterexample to a handful of scheduling decisions, and produce a
//! replay artifact that reproduces the failure bit-identically.

#![cfg(any(feature = "mutation-ckptack", feature = "mutation-stale-locupdate"))]

use charm_core::CheckCfg;
#[cfg(feature = "mutation-ckptack")]
use charm_core::{analyze::InjectFault, prelude::*, Store};
#[cfg(feature = "mutation-ckptack")]
use charm_sim::MachineModel;

#[cfg(feature = "mutation-stale-locupdate")]
#[path = "common/chase.rs"]
mod chase;

#[cfg(feature = "mutation-ckptack")]
const NPES: usize = 2;

#[cfg(feature = "mutation-ckptack")]
struct Bump {
    total: i64,
}
#[cfg(feature = "mutation-ckptack")]
wire_struct! { Bump { total } }

#[cfg(feature = "mutation-ckptack")]
enum BumpMsg {
    Add(i64),
    Total,
}
#[cfg(feature = "mutation-ckptack")]
wire_enum! { BumpMsg { Add(a), Total } }

#[cfg(feature = "mutation-ckptack")]
impl Chare for Bump {
    type Msg = BumpMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Bump { total: 0 }
    }
    fn receive(&mut self, msg: BumpMsg, ctx: &mut Ctx) {
        match msg {
            BumpMsg::Add(v) => self.total += v,
            BumpMsg::Total => ctx.reply(self.total),
        }
    }
}

/// One bump on PE 1, a quiescence round (whose completion takes the
/// automatic checkpoint — the protocol under attack), then a verified
/// total and exit.
#[cfg(feature = "mutation-ckptack")]
fn program(co: &mut Co<Main>) {
    let c = co.ctx().create_chare::<Bump>((), Some(1));
    c.send(co.ctx(), BumpMsg::Add(7));
    let q = co.ctx().create_future::<()>();
    co.ctx().start_quiescence(&q);
    co.get(&q);
    let f = c.call::<i64>(co.ctx(), BumpMsg::Total);
    assert_eq!(co.get(&f), 7);
    co.ctx().exit();
}

#[cfg(feature = "mutation-ckptack")]
fn mutated_runtime(n: u64) -> Runtime {
    let (rt, _probe) = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .register_migratable::<Bump>()
        .auto_checkpoint(1, Store::Memory)
        .analyze_inject(InjectFault::DuplicateNth(n));
    rt
}

/// The exact injector position of the checkpoint ack is an implementation
/// detail, so scan the first few positions until the duplicate lands on
/// one — the mutated panic, not the detector's double-delivery finding,
/// is the failure that proves the reintroduced bug was reached.
#[cfg(feature = "mutation-ckptack")]
#[test]
fn check_rediscovers_and_shrinks_the_stray_ckptack_bug() {
    let dir = std::env::temp_dir().join(format!("charmrs-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let artifact = dir.join("stray-ckptack.schedule");

    let mut caught = None;
    for n in 0..10 {
        let report = mutated_runtime(n).check(
            CheckCfg {
                max_executions: 40,
                artifact: Some(artifact.clone()),
                ..CheckCfg::default()
            },
            program,
        );
        if let Some(cx) = report.counterexample {
            if cx.failure.contains("stray CkptAck") {
                caught = Some((n, cx));
                break;
            }
        }
    }
    let (n, cx) = caught.expect(
        "no duplicated-ack position reproduced the stray-CkptAck panic in the first 10 slots",
    );

    assert!(
        cx.decisions <= 8,
        "counterexample shrank to {} decisions (> 8) from {}",
        cx.decisions,
        cx.original_len
    );
    assert!(
        cx.decisions <= cx.original_len,
        "shrinking must never grow the schedule"
    );
    let path = cx.artifact.expect("no replay artifact was written");

    // The artifact replays the failure bit-identically: same failure text,
    // same delivery/clock digest, twice over.
    let r1 = mutated_runtime(n)
        .replay_schedule(&path, program)
        .expect("replay artifact unreadable");
    let r2 = mutated_runtime(n)
        .replay_schedule(&path, program)
        .expect("replay artifact unreadable");
    assert!(
        r1.failure
            .as_deref()
            .unwrap_or("")
            .contains("stray CkptAck"),
        "replay did not reproduce the mutated panic: {:?}",
        r1.failure
    );
    assert_eq!(
        (r1.digest, &r1.failure),
        (r2.digest, &r2.failure),
        "two replays of one artifact diverged"
    );
    println!(
        "mutation replay: position {n}, {} decisions, {} steps, digest {:#018x}",
        r1.decisions, r1.steps, r1.digest
    );
    // Golden, generated at the commit before the scheduler loops were
    // folded into one driver: `(injector position, decisions, steps, digest)`.
    // The digest moved once since, when the channel clamp stopped spacing a
    // channel's arrivals 1 ns apart (the clocks it folds in changed).
    assert_eq!(
        (n, r1.decisions, r1.steps, r1.digest),
        (2, 0, 19, 0xe7d5_6331_3cd8_f98a),
        "the mutation artifact's replay (delivery sequence, clocks, outcome) moved"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without the injected duplicate the mutated runtime is indistinguishable
/// from the fixed one on this program: every ack finds its window, so a
/// bounded exploration reports no counterexample.
#[cfg(feature = "mutation-ckptack")]
#[test]
fn mutated_runtime_is_clean_without_the_injected_duplicate() {
    let rt = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .register_migratable::<Bump>()
        .auto_checkpoint(1, Store::Memory);
    let report = rt.check(
        CheckCfg {
            max_executions: 60,
            ..CheckCfg::default()
        },
        program,
    );
    assert!(
        report.counterexample.is_none(),
        "clean program produced a counterexample: {:?}",
        report.counterexample
    );
}

/// With location records written unconditionally, some delivery order of
/// the chase program lets a stale update replace a fresher record, and the
/// increment then waits forever for a runner that already left (or chases
/// it in circles, which the detector's forwarding bound cuts): `check` must
/// find such an order without being told where to look, and shrink it.
#[cfg(feature = "mutation-stale-locupdate")]
#[test]
fn check_rediscovers_and_shrinks_the_stale_location_update_bug() {
    let report = chase::runtime().check(
        CheckCfg {
            max_executions: 20_000,
            oracle: Some(std::sync::Arc::new(chase::stalled)),
            ..CheckCfg::default()
        },
        chase::program,
    );
    let cx = report.counterexample.unwrap_or_else(|| {
        panic!(
            "{} executions of the mutated runtime lost nothing",
            report.executions
        )
    });
    println!(
        "stale-locupdate: caught after {} executions: {} ({} decisions, {} before shrinking)",
        report.executions, cx.failure, cx.decisions, cx.original_len
    );
    assert!(
        cx.failure.contains("never landed") || cx.failure.contains("forwarding chain"),
        "caught something else: {}",
        cx.failure
    );
    // Golden `(executions, decisions found, decisions after shrinking)`:
    // the 49th schedule explored loses the increment, and its 18 decisions
    // shrink to 5.
    assert_eq!(
        (report.executions, cx.original_len, cx.decisions),
        (49, 18, 5),
        "how the stale-update mutant is caught moved"
    );
}
