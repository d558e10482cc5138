//! # Systematic schedule exploration (`Runtime::check`, `--features analyze`)
//!
//! The controlled-scheduling driver behind [`Runtime::check`] and
//! [`Runtime::replay_schedule`] (DESIGN.md §11): a variant of the sim event
//! loop where the *explorer* — `charm-check`'s stateless DPOR engine — picks
//! which channel's head message is delivered next, instead of the
//! `(arrival time, ship seq)` heap order. Per-channel FIFO is preserved
//! (the ordering the threads backend and real networks guarantee); every
//! cross-channel interleaving is schedulable.
//!
//! The transition system:
//!
//! * one **transition** = delivering the head of channel `(src, dst)` and
//!   running its handler to completion (handlers are atomic);
//! * the **default extension** picks the channel whose head has the
//!   smallest modeled `(arrival, ship seq)` — exactly the uncontrolled sim
//!   `EventQueue` order, so an empty schedule replays a plain `run()`;
//! * the **independence relation** comes from the analyze Detector's vector
//!   clocks, snapshotted after each handler: the post-handler clock is both
//!   the delivery event's clock and the send clock of everything the
//!   handler emitted. Clocks are tagged with the recovery epoch so a
//!   restart acts as a happens-before barrier.
//!
//! Composition: fault injection (`InjectFault::{DuplicateNth, DropNth}`
//! at ship time, `KillPe` + restart recovery at delivery time), TRAM
//! aggregation (scheduler-idle flush when every channel drains), fast
//! paths and FT checkpointing all run armed under exploration. Metering is
//! forced off (`meter_compute(false)`) so an execution is a pure function
//! of its delivery order — the property that makes replay bit-identical.
//!
//! The schedule-permutation harness (`Runtime::permute_schedule`,
//! `charm_sim::PermuteSchedule`) is the sampling mode of this same
//! scheduling hook: it jitters the default priorities instead of
//! enumerating them. Use permutation for cheap smoke coverage at scale,
//! `check` for exhaustive coverage at small configs.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use charm_check::{Chan, Execution, ExploreCfg, Schedule, StepInfo};
use charm_sim::{MachineModel, VTime};
use charm_trace::PeTrace;

use crate::analyze::{FaultProbe, InjectFault};
use crate::chare::Registry;
use crate::checkpoint::{self, Store};
use crate::collections::Placements;
use crate::coro::{run_coroutine, Co};
use crate::ids::Pe;
use crate::msg::{EnvKind, Envelope};
use crate::pe::{CkptStore, CoroLauncher, PeState, RestoreFrom, SchedCfg};
use crate::reduction::CustomReducers;
use crate::runtime::{Main, RunReport};

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

/// Everything [`Runtime`] hands the controlled driver: the same pieces the
/// restart supervisor's `Launch` carries, plus a *re-runnable* entry (each
/// execution restarts the program from scratch) and a per-execution
/// `SchedCfg` factory so every run gets a fresh findings probe.
///
/// [`Runtime`]: crate::runtime::Runtime
pub(crate) struct Driver {
    pub(crate) npes: usize,
    pub(crate) model: MachineModel,
    pub(crate) registry: Arc<Registry>,
    pub(crate) placements: Arc<Placements>,
    pub(crate) reducers: Arc<CustomReducers>,
    pub(crate) mk_cfg: MkCfg,
    pub(crate) auto: Option<(u64, Store)>,
    pub(crate) recover: Option<Arc<dyn Fn(&mut Co<Main>) + Send + Sync>>,
    pub(crate) max_restarts: u64,
    pub(crate) inject: Option<InjectFault>,
    pub(crate) entry: Arc<dyn Fn(&mut Co<Main>) + Send + Sync>,
}

/// `(epoch, restore, ckpt_seq_start, probe) -> SchedCfg` — built by
/// `Runtime::into_check_driver`, which owns the private builder fields.
pub(crate) type MkCfg =
    Box<dyn Fn(u64, Option<RestoreFrom>, u64, FaultProbe) -> Arc<SchedCfg> + Send + Sync>;

impl Driver {
    fn mk_entry(&self) -> CoroLauncher {
        let f = Arc::clone(&self.entry);
        Box::new(move |side| run_coroutine::<Main>(side, move |co: &mut Co<Main>| f(co)))
    }

    fn recovery_entry(&self) -> Option<CoroLauncher> {
        let f = Arc::clone(self.recover.as_ref()?);
        Some(Box::new(move |side| {
            run_coroutine::<Main>(side, move |co: &mut Co<Main>| f(co))
        }))
    }

    fn recovery_armed(&self) -> bool {
        self.auto.is_some() && self.recover.is_some()
    }

    /// Newest complete checkpoint generation after a failure — the
    /// controlled-loop mirror of the restart supervisor's source lookup.
    fn recovery_source(&self, stores: &[Option<CkptStore>]) -> Result<(u64, RestoreFrom), String> {
        let store = match &self.auto {
            Some((_, s)) => s,
            None => return Err("automatic checkpointing is not armed".into()),
        };
        match store {
            Store::Disk(root) => checkpoint::latest_complete_dir(root)
                .map(|(epoch, dir)| (epoch, RestoreFrom::Dir(dir)))
                .map_err(|e| e.to_string()),
            Store::Memory => {
                let mut epochs: Vec<u64> =
                    stores.iter().flatten().flat_map(|s| s.epochs()).collect();
                epochs.sort_unstable();
                epochs.dedup();
                for &epoch in epochs.iter().rev() {
                    if let Some(files) = crate::runtime::assemble_images(stores, self.npes, epoch) {
                        return Ok((epoch, RestoreFrom::Images(files)));
                    }
                }
                Err("no complete in-memory checkpoint generation survives the failure".into())
            }
        }
    }
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

/// Run the explorer over the program behind `driver`.
pub(crate) fn run_check(driver: Driver, cfg: CheckCfg) -> CheckReport {
    let explore_cfg = ExploreCfg {
        max_executions: cfg.max_executions,
        delay_bound: cfg.delay_bound,
        dpor: cfg.dpor,
        shrink: cfg.shrink,
    };
    let oracle = cfg.oracle.clone();
    let report = charm_check::explore(&explore_cfg, |prefix| {
        run_once(&driver, prefix, oracle.as_ref())
    });
    let counterexample = report.counterexample.map(|cx| {
        let schedule = Schedule {
            npes: driver.npes,
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
pub(crate) fn run_replay(driver: Driver, schedule: &Schedule) -> ReplayOutcome {
    let exec = if schedule.npes != driver.npes {
        Execution {
            steps: Vec::new(),
            exit: None,
            failure: Some(format!(
                "schedule was recorded for {} PEs but the runtime has {}",
                schedule.npes, driver.npes
            )),
        }
    } else {
        run_once(&driver, &schedule.choices, None)
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
fn run_once(driver: &Driver, prefix: &[Chan], oracle: Option<&CheckOracle>) -> Execution {
    let mut steps: Vec<StepInfo> = Vec::new();
    let mut exit = None;
    let probe = FaultProbe::new();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        controlled_run(driver, prefix, &mut steps, &mut exit, &probe)
    }));
    let failure = match outcome {
        Ok(Ok(report)) => {
            let findings = probe.findings();
            if let Some(f) = findings.first() {
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
        steps,
        exit,
        failure,
    }
}

/// Ship one drained outbox into the channel queues: fault injection, delay
/// model, per-channel arrival clamp — the controlled-loop port of the sim
/// driver's `ship_outbox`.
#[allow(clippy::too_many_arguments)]
fn ship(
    src: Pe,
    now_ns: u64,
    outbox: Vec<(Pe, Envelope)>,
    send_clock: &[u64],
    model: &MachineModel,
    pending: &mut BTreeMap<Chan, VecDeque<Pending>>,
    ship_seq: &mut u64,
    last_arrival: &mut HashMap<(Pe, Pe), u64>,
    inject_state: &mut Option<(InjectFault, u64)>,
) {
    for (dst, env) in outbox {
        let mut duplicate: Option<Envelope> = None;
        if let Some((fault, count)) = inject_state {
            // The mutation build widens the injector to checkpoint acks
            // (see `EnvKind::try_clone`), restoring the pre-fix reachability
            // of the stray-CkptAck panic for the mutation smoke test.
            let injectable = env.kind.counts_for_qd()
                || (cfg!(feature = "mutation-ckptack")
                    && matches!(env.kind, EnvKind::CkptAck { .. }));
            if injectable {
                let n = *count;
                *count += 1;
                match *fault {
                    InjectFault::DropNth(k) if k == n => continue,
                    InjectFault::DuplicateNth(k) if k == n => {
                        duplicate = env.try_clone();
                    }
                    _ => {}
                }
            }
        }
        let delay = model.msg_delay(src, dst, env.kind.size_hint());
        let mut at = (VTime::from_nanos(now_ns) + delay).as_nanos();
        let last = last_arrival.entry((src, dst)).or_insert(0);
        if at <= *last {
            at = *last + 1;
        }
        *last = at;
        let q = pending.entry((src, dst)).or_default();
        q.push_back(Pending {
            env,
            arrive: at,
            ship_seq: *ship_seq,
            // analyze: allow(payload-copy, "vector-clock u64 snapshot, not a wire payload")
            send_clock: send_clock.to_vec(),
        });
        *ship_seq += 1;
        if let Some(dup) = duplicate {
            let at2 = at + 1;
            last_arrival.insert((src, dst), at2);
            // Same channel, right behind the original — a network-level
            // retransmission, FIFO like everything else on the channel.
            // invariant: the original was just pushed; the channel queue exists
            pending.get_mut(&(src, dst)).unwrap().push_back(Pending {
                env: dup,
                arrive: at2,
                ship_seq: *ship_seq,
                // analyze: allow(payload-copy, "vector-clock u64 snapshot, not a wire payload")
                send_clock: send_clock.to_vec(),
            });
            *ship_seq += 1;
        }
    }
}

/// The controlled event loop: the sim driver re-plumbed so an explorer (or
/// a replay artifact) picks which channel delivers next. Returns the run
/// report, or a run-error description (which the caller treats as a
/// counterexample).
fn controlled_run(
    driver: &Driver,
    prefix: &[Chan],
    steps: &mut Vec<StepInfo>,
    exit: &mut Option<Vec<(Chan, Vec<u64>)>>,
    probe: &FaultProbe,
) -> Result<RunReport, String> {
    let npes = driver.npes;
    // analyze: allow(nondeterminism, "wall-clock origin for the report's wall field only; scheduling runs on virtual channel time")
    let start = Instant::now();
    let mut epoch = 0u64;
    let mut cfg = (driver.mk_cfg)(0, None, 1, probe.clone());
    let mut entry_slot = Some(driver.mk_entry());
    let mut pes: Vec<PeState> = (0..npes)
        .map(|pe| {
            PeState::new(
                pe,
                npes,
                Arc::clone(&cfg),
                Arc::clone(&driver.registry),
                Arc::clone(&driver.placements),
                Arc::clone(&driver.reducers),
                start,
                if pe == 0 { entry_slot.take() } else { None },
            )
        })
        .collect();

    let mut pending: BTreeMap<Chan, VecDeque<Pending>> = BTreeMap::new();
    let mut ship_seq = 0u64;
    let mut last_arrival: HashMap<(Pe, Pe), u64> = HashMap::new();
    pending.entry((0, 0)).or_default().push_back(Pending {
        env: Envelope::new(0, EnvKind::Bootstrap),
        arrive: 0,
        ship_seq,
        send_clock: tag_clock(0, &vec![0; npes]),
    });
    ship_seq += 1;

    let mut inject_state = match driver.inject {
        Some(InjectFault::KillPe { .. }) | None => None,
        Some(f) => Some((f, 0u64)),
    };
    let mut kill = match driver.inject {
        Some(InjectFault::KillPe { pe, after_nth }) => Some((pe, after_nth, 0u64)),
        _ => None,
    };
    let mut recoveries = 0u64;
    let mut clean_exit = false;
    let mut prefix_iter = prefix.iter().copied();

    loop {
        // The enabled set: channels with a deliverable head, default
        // priority = smallest (modeled arrival, ship seq) — the exact order
        // the uncontrolled EventQueue would pop, so the default extension
        // reproduces a plain sim run.
        let mut heads: Vec<(u64, u64, Chan)> = pending
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(c, q)| {
                // invariant: non-empty queues only, per the filter above
                let f = q.front().unwrap();
                (f.arrive, f.ship_seq, *c)
            })
            .collect();
        if heads.is_empty() {
            // Scheduler-idle aggregation flush, as in the sim driver: parked
            // sender-side traffic is released in PE order, then the loop
            // re-examines the channels.
            let mut flushed = false;
            for src in 0..npes {
                if pes[src].flush_aggregation() {
                    flushed = true;
                    let now = pes[src].clock_ns;
                    let clock = tag_clock(epoch, pes[src].det.clock());
                    let outbox: Vec<(Pe, Envelope)> = pes[src].outbox.drain(..).collect();
                    ship(
                        src,
                        now,
                        outbox,
                        &clock,
                        &driver.model,
                        &mut pending,
                        &mut ship_seq,
                        &mut last_arrival,
                        &mut inject_state,
                    );
                }
            }
            if flushed {
                continue;
            }
            break;
        }
        heads.sort_unstable();
        let enabled: Vec<Chan> = heads.iter().map(|h| h.2).collect();
        // Prescribed decisions replay with skip-if-disabled semantics (a
        // channel with nothing pending is skipped), which makes every
        // subsequence of a failing schedule well-defined — the closure
        // property the ddmin shrinker needs.
        let chosen = loop {
            match prefix_iter.next() {
                Some(c) if enabled.contains(&c) => break c,
                Some(_) => continue,
                None => break enabled[0],
            }
        };
        // invariant: chosen comes from the enabled set, whose channels have
        // pending messages
        let msg = pending.get_mut(&chosen).unwrap().pop_front().unwrap();
        let (t, env) = (msg.arrive, msg.env);
        let pe = chosen.1;

        // Injected PE kill: fires at the delivery that would be the
        // victim's Nth QD-counted envelope, exactly as in the sim driver.
        let mut fire = false;
        if let Some((victim, after_nth, count)) = &mut kill {
            let w = env.kind.qd_weight();
            if *victim == pe && w > 0 && env.epoch == epoch {
                let n = *count;
                *count += w;
                fire = n <= *after_nth && *after_nth < n + w;
            }
        }
        if fire {
            kill = None;
            let failure = format!("injected failure of PE {pe}");
            if !driver.recovery_armed() {
                return Err(format!(
                    "cannot recover from \"{failure}\": automatic checkpointing or the recovery \
                     entry is not armed"
                ));
            }
            if recoveries >= driver.max_restarts {
                return Err(format!(
                    "gave up after {recoveries} restart(s); last failure: {failure}"
                ));
            }
            let stores: Vec<Option<CkptStore>> = pes
                .iter_mut()
                .enumerate()
                .map(|(i, p)| (i != pe).then(|| std::mem::take(&mut p.ckpt_store)))
                .collect();
            let (generation, src) = driver
                .recovery_source(&stores)
                .map_err(|reason| format!("cannot recover from \"{failure}\": {reason}"))?;
            recoveries += 1;
            epoch += 1;
            cfg = (driver.mk_cfg)(epoch, Some(src), generation + 1, probe.clone());
            let mut entry = driver.recovery_entry();
            pes = (0..npes)
                .map(|p| {
                    let mut st = PeState::new(
                        p,
                        npes,
                        Arc::clone(&cfg),
                        Arc::clone(&driver.registry),
                        Arc::clone(&driver.placements),
                        Arc::clone(&driver.reducers),
                        start,
                        if p == 0 { entry.take() } else { None },
                    );
                    st.clock_ns = t;
                    st
                })
                .collect();
            // Pre-failure traffic would only be epoch-discarded on delivery;
            // dropping it here is observationally equivalent and keeps the
            // explored state space to live transitions.
            pending.clear();
            let mut boot = Envelope::new(0, EnvKind::Bootstrap);
            boot.epoch = epoch;
            pending.entry((0, 0)).or_default().push_back(Pending {
                env: boot,
                arrive: t,
                ship_seq,
                send_clock: tag_clock(epoch, &vec![0; npes]),
            });
            ship_seq += 1;
            // The restart is a global barrier: its clock is the new epoch's
            // zero on every component, which every post-recovery send
            // dominates and no pre-recovery delivery reaches.
            steps.push(StepInfo {
                chan: chosen,
                enabled,
                send_clock: msg.send_clock,
                clock_after: vec![epoch << EPOCH_TAG_SHIFT; npes],
            });
            continue;
        }

        let state = &mut pes[pe];
        if t > state.clock_ns {
            state.tracer.idle(state.clock_ns, t);
            state.clock_ns = t;
        }
        state.handle(env);
        state.clock_ns += std::mem::take(&mut state.event_work_ns);
        let now = state.clock_ns;
        // One snapshot serves as this delivery's clock *and* the send clock
        // of everything the handler emitted: the handler is atomic, so any
        // finer granularity would claim concurrency no schedule realizes.
        let clock_after = tag_clock(epoch, state.det.clock());
        let outbox: Vec<(Pe, Envelope)> = state.outbox.drain(..).collect();
        let exited = state.exited;
        ship(
            pe,
            now,
            outbox,
            &clock_after,
            &driver.model,
            &mut pending,
            &mut ship_seq,
            &mut last_arrival,
            &mut inject_state,
        );
        steps.push(StepInfo {
            chan: chosen,
            enabled,
            send_clock: msg.send_clock,
            clock_after,
        });
        if exited {
            clean_exit = true;
            // Whatever is still in flight is never delivered; the explorer
            // needs the heads to see the schedules where it would have been.
            let stranded = pending.iter().filter_map(|(c, q)| {
                // analyze: allow(payload-copy, "vector-clock u64 snapshot, not a wire payload")
                q.front().map(|m| (*c, m.send_clock.to_vec()))
            });
            *exit = Some(stranded.collect());
            break;
        }
    }

    // Quiescence invariants, as in the sim driver: the probe collects any
    // imbalance as a finding (= counterexample) instead of panicking.
    crate::analyze::check_balance(
        pes.iter().map(|p| p.det_summary()).collect(),
        !clean_exit,
        Some(probe),
    );
    crate::analyze::check_counter_balance(
        &pes.iter().map(|p| p.counter_totals()).collect::<Vec<_>>(),
        !clean_exit,
        Some(probe),
    );

    let makespan = pes.iter().map(|p| p.clock_ns).max().unwrap_or(0);
    let lb_epochs = pes[0].lb_epochs();
    let traces: Vec<PeTrace> = pes.iter_mut().map(|p| p.finish_trace()).collect();
    Ok(crate::runtime::finish_report(
        start.elapsed(),
        Duration::from_nanos(makespan),
        lb_epochs,
        recoveries,
        clean_exit,
        traces,
    ))
}
