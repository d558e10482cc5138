//! # Systematic schedule exploration (`Runtime::check`, `--features analyze`)
//!
//! The controlled transport behind [`Runtime::check`] and
//! [`Runtime::replay_schedule`] (DESIGN.md §11): the sim transport's
//! modeled network, but the *explorer* — `charm-check`'s stateless DPOR
//! engine — picks which channel's head message is delivered next, instead
//! of the `(arrival time, ship seq)` heap order. Per-channel FIFO is
//! preserved (the ordering the threads backend and real networks
//! guarantee); every cross-channel interleaving is schedulable. The
//! driver, the supervisor and the network model are the ones every run
//! uses (`driver.rs`, `runtime.rs`).
//!
//! The transition system:
//!
//! * one **transition** = delivering the head of channel `(src, dst)` and
//!   running its handler to completion (handlers are atomic);
//! * the **default extension** picks the channel whose head has the
//!   smallest modeled `(arrival, ship seq)` — exactly the sim transport's
//!   event-heap order, so an empty schedule replays a plain `run()`;
//! * the **independence relation** comes from the analyze Detector's vector
//!   clocks, snapshotted after each handler: the post-handler clock is both
//!   the delivery event's clock and the send clock of everything the
//!   handler emitted. Clocks are tagged with the recovery epoch so a
//!   restart acts as a happens-before barrier.
//!
//! Metering is forced off (`meter_compute(false)`) so an execution is a
//! pure function of its delivery order — the property that makes replay
//! bit-identical. Everything else a run can arm (fault injection,
//! aggregation, fast paths, checkpointing and restart recovery) runs armed
//! under exploration, because it is the same code.
//!
//! The schedule-permutation harness (`Runtime::permute_schedule`,
//! `charm_sim::PermuteSchedule`) is the sampling mode of this same
//! scheduling hook: it jitters the default priorities instead of
//! enumerating them. Use permutation for cheap smoke coverage at scale,
//! `check` for exhaustive coverage at small configs.

// Decides message order (DESIGN.md §6): the nondeterminism rule.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use charm_check::{Chan, Execution, ExploreCfg, Schedule, StepInfo};

use crate::analyze::FaultProbe;
use crate::driver::{supervise, End, Poll, Transport};
use crate::ids::Pe;
use crate::msg::Envelope;
use crate::pe::PeState;
use crate::runtime::{main_launcher, virtual_epoch, Launch, MainFn, ModelNet, RunReport};

/// Recovery epochs are folded into every reported vector-clock component
/// (`epoch << SHIFT | clock`), making a restart a happens-before barrier:
/// a pre-recovery delivery always happens-before a post-recovery send, so
/// DPOR never tries to commute across the restart.
const EPOCH_TAG_SHIFT: u32 = 48;

/// Verdict oracle evaluated after each non-failing execution: return
/// `Some(description)` to flag the run as a counterexample (e.g. a result
/// that differs from the expected value regardless of schedule).
pub type CheckOracle = Arc<dyn Fn(&RunReport) -> Option<String> + Send + Sync>;

/// Configuration for [`Runtime::check`].
///
/// [`Runtime::check`]: crate::runtime::Runtime::check
#[derive(Clone)]
pub struct CheckCfg {
    /// Stop (and report `truncated`) after this many executions; 0 = no cap.
    pub max_executions: usize,
    /// Maximum total deviation from the default schedule (sum of chosen
    /// enabled-list indices); `None` = unbounded. The graceful-degradation
    /// knob for configs too large to exhaust.
    pub delay_bound: Option<u64>,
    /// DPOR with sleep sets (default) vs naive full enumeration. Naive
    /// exists so state-space-size tables can quote both numbers.
    pub dpor: bool,
    /// Delta-debug a failing schedule down to a minimal decision sequence.
    pub shrink: bool,
    /// Write the (shrunk) counterexample schedule to this path.
    pub artifact: Option<PathBuf>,
    /// Per-execution verdict oracle (see [`CheckOracle`]).
    pub oracle: Option<CheckOracle>,
}

impl Default for CheckCfg {
    fn default() -> CheckCfg {
        CheckCfg {
            max_executions: 10_000,
            delay_bound: None,
            dpor: true,
            shrink: true,
            artifact: None,
            oracle: None,
        }
    }
}

impl std::fmt::Debug for CheckCfg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckCfg")
            .field("max_executions", &self.max_executions)
            .field("delay_bound", &self.delay_bound)
            .field("dpor", &self.dpor)
            .field("shrink", &self.shrink)
            .field("artifact", &self.artifact)
            .field("oracle", &self.oracle.is_some())
            .finish()
    }
}

/// A failing schedule found by [`Runtime::check`], minimized when
/// shrinking is enabled.
///
/// [`Runtime::check`]: crate::runtime::Runtime::check
#[derive(Debug, Clone)]
pub struct CheckCounterexample {
    /// What went wrong (detector finding, panic, run error, or oracle).
    pub failure: String,
    /// Scheduling decisions in the minimized reproducing schedule.
    pub decisions: usize,
    /// Decision count of the schedule as first discovered.
    pub original_len: usize,
    /// The reproducing schedule (replay via `Runtime::replay_schedule`).
    pub schedule: Schedule,
    /// Where the replay artifact was written, when `CheckCfg::artifact`
    /// was set and the write succeeded.
    pub artifact: Option<PathBuf>,
}

/// Result of a [`Runtime::check`] exploration.
///
/// [`Runtime::check`]: crate::runtime::Runtime::check
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Executions visited (the shrinker's extra runs not included).
    pub executions: u64,
    /// Distinct happens-before (Mazurkiewicz) classes among them.
    pub equivalence_classes: usize,
    /// True iff `max_executions` or `delay_bound` cut exploration short.
    /// `false` means the schedule space was exhausted.
    pub truncated: bool,
    /// First failure found; exploration stops at the first one.
    pub counterexample: Option<CheckCounterexample>,
}

/// Result of replaying one schedule artifact.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The failure the schedule reproduces, if any.
    pub failure: Option<String>,
    /// Prescribed decisions in the artifact.
    pub decisions: usize,
    /// Deliveries actually executed (prescribed prefix + default extension).
    pub steps: usize,
    /// Order-sensitive digest of the full delivery sequence and outcome.
    /// Two replays of one artifact must produce identical digests — the
    /// bit-identity contract of deterministic replay.
    pub digest: u64,
}

/// One in-flight message on a channel queue.
struct Pending {
    env: Envelope,
    /// Modeled arrival time (ns) — the *default priority*, not a constraint:
    /// the explorer may deliver in any cross-channel order.
    arrive: u64,
    /// Ship order tie-break, mirroring the `EventQueue` sequence number.
    ship_seq: u64,
    /// Sender's epoch-tagged vector clock at ship time.
    send_clock: Vec<u64>,
}

/// Tag each clock component with the recovery epoch (see
/// [`EPOCH_TAG_SHIFT`]).
fn tag_clock(epoch: u64, clock: &[u64]) -> Vec<u64> {
    clock
        .iter()
        .map(|c| (epoch << EPOCH_TAG_SHIFT) | c)
        .collect()
}

/// Run the explorer over the program `entry` on `launch`'s machine. `launch`
/// is the one a plain run is built from (metering off, sim model pinned);
/// `entry` is re-runnable — each execution restarts the program from scratch.
pub(crate) fn run_check(mut launch: Launch, entry: MainFn, cfg: CheckCfg) -> CheckReport {
    let explore_cfg = ExploreCfg {
        max_executions: cfg.max_executions,
        delay_bound: cfg.delay_bound,
        dpor: cfg.dpor,
        shrink: cfg.shrink,
    };
    let oracle = cfg.oracle.clone();
    let report = charm_check::explore(&explore_cfg, |prefix| {
        run_once(&mut launch, &entry, prefix, oracle.as_ref())
    });
    let counterexample = report.counterexample.map(|cx| {
        let schedule = Schedule {
            npes: launch.npes,
            note: cx.failure.clone(),
            choices: cx.schedule,
        };
        let artifact = cfg.artifact.as_ref().and_then(|path| {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            schedule.save(path).ok().map(|_| path.clone())
        });
        CheckCounterexample {
            failure: cx.failure,
            decisions: schedule.choices.len(),
            original_len: cx.original_len,
            schedule,
            artifact,
        }
    });
    CheckReport {
        executions: report.executions,
        equivalence_classes: report.equivalence_classes,
        truncated: report.truncated,
        counterexample,
    }
}

/// Replay one schedule artifact, deterministically.
pub(crate) fn run_replay(mut launch: Launch, entry: MainFn, schedule: &Schedule) -> ReplayOutcome {
    let npes = launch.npes;
    let exec = if schedule.npes != npes {
        Execution {
            steps: Vec::new(),
            exit: None,
            failure: Some(format!(
                "schedule was recorded for {} PEs but the runtime has {}",
                schedule.npes, npes
            )),
        }
    } else {
        run_once(&mut launch, &entry, &schedule.choices, None)
    };
    // FNV-1a over the delivery sequence and the outcome text: the
    // bit-identity digest two replays of one artifact must agree on.
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut digest = FNV_OFFSET;
    let mut eat = |byte: u8| digest = (digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    for s in &exec.steps {
        for b in s
            .chan
            .0
            .to_le_bytes()
            .into_iter()
            .chain(s.chan.1.to_le_bytes())
        {
            eat(b);
        }
        for b in &s.clock_after {
            for byte in b.to_le_bytes() {
                eat(byte);
            }
        }
    }
    for b in exec.failure.as_deref().unwrap_or("ok").bytes() {
        eat(b);
    }
    ReplayOutcome {
        failure: exec.failure,
        decisions: schedule.choices.len(),
        steps: exec.steps.len(),
        digest,
    }
}

/// Execute the program once under a prescribed schedule prefix, catching
/// panics (a panic *is* a counterexample) and classifying the outcome.
#[expect(clippy::disallowed_methods, reason = "nondeterminism: the wall field")]
fn run_once(
    launch: &mut Launch,
    entry: &MainFn,
    prefix: &[Chan],
    oracle: Option<&CheckOracle>,
) -> Execution {
    // Every execution gets a fresh findings probe and wall-clock origin.
    let probe = FaultProbe::new();
    launch.cfg.analyze_probe = Some(probe.clone());
    launch.start = Instant::now();
    let launch = &*launch;
    let mut t = Controlled::new(ModelNet::new(None, launch), prefix, launch.npes);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        supervise(
            launch,
            main_launcher(entry),
            0..launch.npes,
            |pes, boot, kill| virtual_epoch(&mut t, pes, boot, kill),
        )
    }));
    let mut exit = None;
    let failure = match outcome {
        Ok(Ok(report)) => {
            if report.clean_exit {
                exit = Some(t.stranded());
            }
            // Quiescence imbalances land in the probe as findings
            // (= counterexamples) instead of panicking.
            if let Some(f) = probe.findings().first() {
                Some(format!("detector: {f}"))
            } else {
                oracle
                    .and_then(|o| o(&report))
                    .map(|msg| format!("oracle: {msg}"))
            }
        }
        Ok(Err(e)) => Some(format!("run error: {e}")),
        Err(p) => Some(format!("panic: {}", crate::runtime::panic_msg(p))),
    };
    Execution {
        steps: t.steps,
        exit,
        failure,
    }
}

/// The controlled transport: the sim transport's modeled network, but
/// per-channel FIFO queues instead of one event heap, and an explorer (or
/// a replay artifact) instead of arrival order picking which channel's
/// head is delivered next. Every delivery is recorded as a [`StepInfo`]
/// with the vector clocks the explorer's independence relation needs.
struct Controlled<'a> {
    net: ModelNet,
    pending: BTreeMap<Chan, VecDeque<Pending>>,
    ship_seq: u64,
    /// Prescribed decisions not yet consumed.
    prefix: std::iter::Copied<std::slice::Iter<'a, Chan>>,
    npes: usize,
    epoch: u64,
    /// The latest delivery, until its handler completes (`clock_after`
    /// still empty).
    in_flight: Option<StepInfo>,
    steps: Vec<StepInfo>,
}

impl<'a> Controlled<'a> {
    fn new(net: ModelNet, prefix: &'a [Chan], npes: usize) -> Controlled<'a> {
        Controlled {
            net,
            pending: BTreeMap::new(),
            ship_seq: 0,
            prefix: prefix.iter().copied(),
            npes,
            epoch: 0,
            in_flight: None,
            steps: Vec::new(),
        }
    }

    /// After a clean exit, whatever is still in flight is never delivered;
    /// the explorer needs the heads to see the schedules where it would
    /// have been.
    fn stranded(&self) -> Vec<(Chan, Vec<u64>)> {
        self.pending
            .iter()
            .filter_map(|(c, q)| {
                #[expect(clippy::disallowed_methods, reason = "payload-copy: a vector clock")]
                q.front().map(|m| (*c, m.send_clock.to_vec()))
            })
            .collect()
    }
}

impl Transport for Controlled<'_> {
    fn start(&mut self, at_ns: u64, boot: Envelope) {
        self.epoch = boot.epoch;
        if let Some(step) = self.in_flight.take() {
            // A delivery that never completed killed its PE, and this is
            // the restart. It is a global barrier: its clock is the new
            // epoch's zero on every component, which every post-recovery
            // send dominates and no pre-recovery delivery reaches.
            self.steps.push(StepInfo {
                clock_after: vec![self.epoch << EPOCH_TAG_SHIFT; self.npes],
                ..step
            });
            // The one place this transport deliberately departs from the
            // sim one: pre-failure traffic would only be epoch-discarded
            // on delivery; dropping it here is observationally equivalent
            // (bar the `stale_discarded` count) and keeps the explored
            // state space to live transitions.
            self.pending.clear();
        }
        self.pending.entry((0, 0)).or_default().push_back(Pending {
            env: boot,
            arrive: at_ns,
            ship_seq: self.ship_seq,
            send_clock: vec![self.epoch << EPOCH_TAG_SHIFT; self.npes],
        });
        self.ship_seq += 1;
    }

    fn send(&mut self, src: &PeState, dst: Pe, env: Envelope) {
        // The sender's clock after its handler is the send clock of
        // everything the handler emitted: the handler is atomic, so any
        // finer granularity would claim concurrency no schedule realizes.
        let (epoch, clock) = (self.epoch, src.det.clock());
        let queue = self.pending.entry((src.pe, dst)).or_default();
        let ship_seq = &mut self.ship_seq;
        self.net
            .ship(src.pe, src.clock_ns, dst, env, |arrive, env| {
                queue.push_back(Pending {
                    env,
                    arrive,
                    ship_seq: *ship_seq,
                    send_clock: tag_clock(epoch, clock),
                });
                *ship_seq += 1;
            });
    }

    fn poll(&mut self) -> Poll {
        // The enabled set: channels with a deliverable head, default
        // priority = smallest (modeled arrival, ship seq) — the exact order
        // the sim transport's event heap would pop, so the default
        // extension reproduces a plain sim run.
        let mut heads: Vec<(u64, u64, Chan)> = self
            .pending
            .iter()
            .filter_map(|(c, q)| q.front().map(|f| (f.arrive, f.ship_seq, *c)))
            .collect();
        if heads.is_empty() {
            return Poll::Empty;
        }
        heads.sort_unstable();
        let enabled: Vec<Chan> = heads.iter().map(|h| h.2).collect();
        // Prescribed decisions replay with skip-if-disabled semantics (a
        // channel with nothing pending is skipped), which makes every
        // subsequence of a failing schedule well-defined — the closure
        // property the ddmin shrinker needs.
        let chosen = loop {
            match self.prefix.next() {
                Some(c) if enabled.contains(&c) => break c,
                Some(_) => continue,
                None => break enabled[0],
            }
        };
        // invariant: chosen comes from the enabled set, whose channels have
        // pending messages
        let msg = self.pending.get_mut(&chosen).unwrap().pop_front().unwrap();
        self.in_flight = Some(StepInfo {
            chan: chosen,
            enabled,
            send_clock: msg.send_clock,
            clock_after: Vec::new(),
        });
        Poll::Ready {
            pe: chosen.1,
            arrival: msg.arrive,
            env: msg.env,
        }
    }

    fn handled(&mut self, state: &PeState) {
        if let Some(step) = self.in_flight.take() {
            self.steps.push(StepInfo {
                clock_after: tag_clock(self.epoch, state.det.clock()),
                ..step
            });
        }
    }

    fn idle_wait(&mut self, _pes: &mut [PeState]) -> Poll {
        // The idle flush may have put parked traffic back in flight; with
        // every channel still empty the machine is done.
        match self.poll() {
            Poll::Empty => Poll::End(End::Drained),
            ready => ready,
        }
    }
}
