//! The one scheduler driver and the one restart supervisor (DESIGN.md §5,
//! §8).
//!
//! A backend is a [`Transport`]: somewhere outbox entries go, somewhere
//! the next envelope comes from, something to do when neither side has
//! work. [`drive`] runs `PeState`s against a transport until the
//! incarnation ends; [`supervise`] runs incarnations until the run ends.
//! Everything that is not moving envelopes — epochs, the bootstrap
//! envelope, the recovery verdicts, the run report — is written once,
//! here.

// Decides message order (DESIGN.md §6): the nondeterminism rule.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

use std::ops::Range;
use std::time::Duration;

use charm_trace::PeTrace;

use crate::checkpoint::CkptStore;
use crate::ids::Pe;
use crate::msg::{EnvKind, Envelope};
use crate::pe::{CoroLauncher, PeState};
use crate::runtime::{finish_report, Launch, RunError, RunReport};

/// What a transport has for the driver.
pub(crate) enum Poll {
    /// An envelope for `pe`, available from `arrival` on that PE's virtual
    /// clock. Wall-clock transports report 0: their PEs never idle in
    /// virtual time (they account the real wait in `idle_wait`).
    Ready { pe: Pe, arrival: u64, env: Envelope },
    /// Nothing deliverable right now.
    Empty,
    /// The incarnation is over.
    End(End),
}

/// How one incarnation's drive loop ended.
pub(crate) enum End {
    /// A PE processed `Exit` (or the supervisor's `Halt`).
    Exited,
    /// Nothing is in flight and nothing can arrive any more.
    Drained,
    /// No envelope arrived within the idle timeout.
    Hung(Duration),
    /// The injected PE kill fired on the delivery arriving for this PE at
    /// this (virtual) time.
    Killed(Pe, u64),
    /// Net root: a worker is gone (transport verdict or child death).
    PeerFailed {
        pe: Pe,
        incarnation: u64,
        reason: String,
    },
    /// Net worker: the root announced a recovery restart.
    Restart { epoch: u64, generation: u64 },
    /// Net worker: the connection to the root is gone for good.
    RootLost { incarnation: u64 },
}

/// The machine layer under the scheduler: moves envelopes between PEs and
/// says when an incarnation is over. One instance serves the PEs one
/// `drive` call owns — every PE of a virtual-time machine, or the single PE
/// a thread or process hosts.
pub(crate) trait Transport {
    /// Begin an incarnation: queue `boot` for PE 0, arriving at `at_ns`.
    fn start(&mut self, at_ns: u64, boot: Envelope);

    /// Ship one outbox entry `src` emitted (at `src.clock_ns`, for
    /// transports that model time).
    fn send(&mut self, src: &PeState, dst: Pe, env: Envelope);

    /// The next delivery, without committing to a long wait.
    fn poll(&mut self) -> Poll;

    /// The delivery `poll` last returned ran to completion on `state`; its
    /// outbox ships next.
    fn handled(&mut self, _state: &PeState) {}

    /// `poll` came up empty and parked aggregation traffic is flushed:
    /// wait for the machine (wall-clock transports) or decide it is done
    /// (virtual-time ones).
    fn idle_wait(&mut self, pes: &mut [PeState]) -> Poll;
}

/// Move `state`'s outbox onto the transport, in emission order.
fn ship<T: Transport>(state: &mut PeState, t: &mut T) {
    // Taken, drained and put back: `send` reads the sender's state, and the
    // Vec keeps its capacity for the next event.
    let mut outbox = std::mem::take(&mut state.outbox);
    for (dst, env) in outbox.drain(..) {
        t.send(state, dst, env);
    }
    state.outbox = outbox;
}

/// Run `pes` — a contiguous PE range — against `t` until the incarnation
/// ends. `kill` is the injected PE failure `(victim, after_nth)`: the
/// victim dies just as it would handle its `after_nth`-th (0-based)
/// QD-counted delivery of this incarnation.
pub(crate) fn drive<T: Transport>(pes: &mut [PeState], t: &mut T, kill: Option<(Pe, u64)>) -> End {
    let base = pes[0].pe;
    let mut victim_seen = 0u64;
    loop {
        let mut next = t.poll();
        if let Poll::Empty = next {
            // Going idle: release anything parked in the aggregation
            // buffers — nothing else in flight will flush traffic a PE is
            // sitting on — in PE order, each at its own clock.
            for state in pes.iter_mut() {
                if state.flush_aggregation() {
                    ship(state, t);
                }
            }
            next = t.idle_wait(pes);
        }
        let (pe, arrival, env) = match next {
            Poll::Ready { pe, arrival, env } => (pe, arrival, env),
            Poll::Empty => continue,
            Poll::End(end) => return end,
        };
        let state = &mut pes[pe - base];
        if let Some((victim, after_nth)) = kill {
            // Weighted by constituent count so a batch advances the
            // delivery clock like the messages it carries would have
            // unbatched; stale-epoch traffic does not advance it at all.
            let w = env.kind.qd_weight();
            if victim == pe && w > 0 && env.epoch == state.cfg.epoch {
                let n = victim_seen;
                victim_seen += w;
                if n <= after_nth && after_nth < n + w {
                    return End::Killed(pe, arrival);
                }
            }
        }
        // An arrival past this PE's clock means the PE sat idle for the gap.
        if arrival > state.clock_ns {
            state.tracer.idle(state.clock_ns, arrival);
            state.clock_ns = arrival;
        }
        state.handle(env);
        state.clock_ns += std::mem::take(&mut state.event_work_ns);
        t.handled(state);
        ship(state, t);
        if state.exited {
            return End::Exited;
        }
    }
}

/// How one incarnation ended, as its backend observed it.
pub(crate) enum Ended {
    /// The run is over; this is what the report is folded from.
    Finished {
        traces: Vec<PeTrace>,
        /// Application time when it is not the wall time (virtual makespan).
        time: Option<Duration>,
        clean_exit: bool,
    },
    /// A PE is gone; the supervisor decides whether the machine restarts.
    Failed(Failed),
}

/// A failed incarnation, in the terms the supervisor's verdicts need.
pub(crate) struct Failed {
    /// The error the run ends with when recovery is not armed.
    pub unarmed: RunError,
    /// The failure, as later verdicts quote it.
    pub describe: String,
    /// Salvaged in-memory checkpoint stores by PE; `None` where the store
    /// died with its PE (or lives in another process).
    pub stores: Vec<Option<CkptStore>>,
    /// Where on the timeline the replacement incarnation resumes.
    pub at_ns: u64,
}

impl Failed {
    /// The injected PE kill: `victim`'s memory is gone, so its own store
    /// must already be missing from `stores`.
    pub(crate) fn killed(victim: Pe, stores: Vec<Option<CkptStore>>, at_ns: u64) -> Failed {
        let describe = format!("injected failure of PE {victim}");
        Failed {
            unarmed: RunError::RecoveryImpossible {
                reason: "automatic checkpointing or the recovery entry is not armed".into(),
                failure: describe.clone(),
            },
            describe,
            stores,
            at_ns,
        }
    }
}

/// The restart supervisor: run incarnations of PEs `hosted` (the ones this
/// process schedules) through `run` until one finishes or a failure cannot
/// be recovered. A failed incarnation bumps the recovery epoch, restores
/// every chare from the newest complete checkpoint generation and re-runs
/// the recovery entry; envelopes still in flight from the old epoch are
/// discarded by `PeState::handle`.
pub(crate) fn supervise(
    launch: &Launch,
    entry: CoroLauncher,
    hosted: Range<Pe>,
    mut run: impl FnMut(Vec<PeState>, Envelope, Option<(Pe, u64)>) -> Result<Ended, RunError>,
) -> Result<RunReport, RunError> {
    let mut entry = Some(entry);
    let mut restore = launch.cfg.restore.clone();
    let mut seq_start = launch.cfg.ckpt_seq_start;
    let mut at_ns = 0;
    // One restart per epoch bump, so the epoch doubles as the restart count.
    for recoveries in 0u64.. {
        let epoch = recoveries;
        let cfg = launch.cfg(epoch, restore.take(), seq_start);
        // The first incarnation runs the user's entry; restarts run the
        // recovery entry (`recovery_armed` vouched for it).
        let mut main = entry.take().or_else(|| launch.recovery_entry());
        let pes: Vec<PeState> = hosted
            .clone()
            .map(|pe| {
                let mut state = launch.mk_pe(pe, if pe == 0 { main.take() } else { None }, &cfg);
                // A new incarnation continues on the same timeline.
                state.clock_ns = at_ns;
                if pe == 0 && epoch > 0 && state.tracer.full() {
                    let now = state.now_ns();
                    state
                        .tracer
                        .push(now, charm_trace::EventKind::Recovery { epoch });
                }
                state
            })
            .collect();
        let mut boot = Envelope::new(0, EnvKind::Bootstrap);
        boot.epoch = epoch;
        // An injected PE kill fires only in the first incarnation, so the
        // recovery attempt is not re-killed.
        let kill = launch.kill().filter(|_| epoch == 0);

        let failed = match run(pes, boot, kill)? {
            Ended::Finished {
                traces,
                time,
                clean_exit,
            } => {
                let wall = launch.start.elapsed();
                return Ok(finish_report(
                    wall,
                    time.unwrap_or(wall),
                    recoveries,
                    clean_exit,
                    traces,
                ));
            }
            Ended::Failed(failed) => failed,
        };
        if !launch.recovery_armed() {
            return Err(failed.unarmed);
        }
        if recoveries >= launch.max_restarts {
            return Err(RunError::RestartsExhausted {
                attempts: recoveries,
                last: failed.describe,
            });
        }
        let (generation, source) = match launch.recovery_source(&failed.stores) {
            Ok(found) => found,
            Err(reason) => {
                return Err(RunError::RecoveryImpossible {
                    reason,
                    failure: failed.describe,
                });
            }
        };
        restore = Some(source);
        seq_start = generation + 1;
        at_ns = failed.at_ns;
    }
    unreachable!("restart loop returns from within");
}
