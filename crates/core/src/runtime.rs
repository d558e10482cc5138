//! Runtime configuration, the run report, and the two in-process
//! transports.
//!
//! `charm.start(main)` in CharmPy becomes:
//!
//! ```no_run
//! use charm_core::prelude::*;
//! let report = Runtime::new(4).run(|co| {
//!     println!("hello from PE {}", co.ctx().my_pe());
//!     co.ctx().exit();
//! });
//! # let _ = report;
//! ```
//!
//! Every backend runs the same scheduler under the same driver and restart
//! supervisor (`driver.rs`); a backend is only a transport. The two
//! that live in one process are here:
//!
//! * [`Backend::Threads`] — one OS thread per PE, `std::sync::mpsc`
//!   channels as the interconnect, time read off the host clock. The
//!   "real" runtime for multicore hosts. A PE death is a panicked thread,
//!   a hang is an idle timeout.
//! * [`Backend::Sim`] — all PEs multiplexed on a deterministic
//!   virtual-time event heap, with message delays from a [`MachineModel`].
//!   This is the substitution for the paper's Blue Waters/Cori testbeds:
//!   handler execution is metered and charged to per-PE virtual clocks, so
//!   parallel performance (the figures) is read off virtual time. A PE
//!   death is an injected kill.
//!
//! The modeled network (`ModelNet`) is shared with the model checker's
//! controlled transport (`check.rs`); the multi-process transport is in
//! `net.rs`.

// Decides message order (DESIGN.md §6): the nondeterminism rule.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use charm_sim::{EventQueue, MachineModel, VTime};
use charm_trace::{MetricFrame, PePerf, PeTrace, TraceConfig, TraceReport, WorkClass};
use charm_wire::Codec;

use crate::chare::{Chare, MsgGuard, MsgGuards, Registry};
use crate::checkpoint::CkptStore;
use crate::checkpoint::{self, CkptError, CkptFile, Store};
use crate::collections::{Placement, Placements};
use crate::coro::{install_quiet_shutdown_hook, run_coroutine, Co};
use crate::ctx::Ctx;
use crate::driver::{drive, supervise, End, Ended, Failed, Poll, Transport};
use crate::ids::Pe;
use crate::lb::{GreedyRefineLb, LbStrategy};
use crate::msg::{EnvKind, Envelope};
use crate::pe::{CoroLauncher, PeState, RestoreFrom, SchedCfg};
use crate::reduction::{CustomReducers, RedData, Reducer};
use crate::tree::TreeShape;

/// How PEs execute.
#[derive(Clone)]
pub enum Backend {
    /// One OS thread per PE (real parallel execution).
    Threads,
    /// Deterministic virtual-time simulation under the given machine model.
    Sim(MachineModel),
    /// One OS *process* per PE, exchanging envelopes over TCP through
    /// `charm-net` (DESIGN.md §13). Worker processes are re-execs of the
    /// current binary (or externally launched, [`charm_net::Spawn`]); a
    /// worker killed mid-run is detected through heartbeats/child-reaping
    /// and — with disk checkpointing armed — respawned and restored.
    Net(charm_net::NetCfg),
}

/// TRAM-style per-destination message aggregation thresholds
/// ([`Runtime::aggregation`], DESIGN.md §9).
///
/// With aggregation on, each PE coalesces small remote entry messages into
/// one per-destination wire frame ([`EnvKind::Batch`]) instead of paying
/// one channel send / one latency event per message. A destination's
/// buffer flushes when either threshold below trips, when the scheduler
/// goes idle, when a quiescence probe arrives (so QD send/deliver samples
/// can converge), or when a checkpoint begins (so no snapshot captures a
/// sender-side parked message).
///
/// [`EnvKind::Batch`]: crate::msg::EnvKind::Batch
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggCfg {
    /// Flush a destination's buffer after this many coalesced messages.
    pub max_count: usize,
    /// Flush when the frame reaches this many bytes. Payloads at or above
    /// this size bypass aggregation entirely — they are already cheap per
    /// byte, and buffering them would only add latency.
    pub max_bytes: usize,
}

impl AggCfg {
    /// A count-threshold config with the default 64 KiB size cap — the
    /// "batch size" knob used by the aggregation bench.
    pub fn count(max_count: usize) -> AggCfg {
        AggCfg {
            max_count,
            ..AggCfg::default()
        }
    }
}

impl Default for AggCfg {
    /// Charm++ TRAM-ish defaults: 64 messages or 64 KiB per flush.
    fn default() -> AggCfg {
        AggCfg {
            max_count: 64,
            max_bytes: 64 * 1024,
        }
    }
}

/// Live sink for merged telemetry frames (runs on PE 0's scheduler).
pub type TelemetrySink = Arc<dyn Fn(&MetricFrame) + Send + Sync>;

/// In-band telemetry configuration ([`Runtime::telemetry`]).
///
/// At every `every`-th completed quiescence round, each PE samples a
/// [`MetricFrame`] (utilization split, message/entry counters, queue
/// depth, execution-time and latency histograms, top-K hot chares) and the
/// frames reduce over the runtime's spanning tree to PE 0 — in-band, on
/// the normal envelope path, so the reduction composes with aggregation,
/// recovery epochs and the model checker. The sweep runs while the
/// quiescence waiters are parked, so it samples a quiescent machine:
/// under the sim backend with metering off the merged frames are a pure
/// function of the program (see [`MetricFrame::logical_digest`]).
///
/// PE 0 retains every merged frame in [`RunReport::telemetry`]; `sink`
/// additionally streams each frame as it completes.
#[derive(Clone)]
pub struct TelemetryCfg {
    /// Sweep cadence in completed quiescence rounds (≥ 1).
    pub every: u64,
    /// Optional live sink invoked on PE 0 with each merged frame.
    pub sink: Option<TelemetrySink>,
}

impl TelemetryCfg {
    /// Sweep at every `every`-th quiescence round, no live sink.
    pub fn every(every: u64) -> TelemetryCfg {
        TelemetryCfg { every, sink: None }
    }

    /// Stream each merged frame to `f` as it completes (in addition to
    /// retaining it in the report).
    pub fn sink(mut self, f: impl Fn(&MetricFrame) + Send + Sync + 'static) -> Self {
        self.sink = Some(Arc::new(f));
        self
    }
}

/// How entry methods dispatch and serialize — the Charm++-vs-CharmPy axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Static dispatch, compact codec (the Charm++/C++ analog).
    Native,
    /// Self-describing pickle codec plus a modeled interpreter overhead
    /// per delivery (the CharmPy/Python analog).
    Dynamic,
}

/// The built-in chare hosting the `main` entry coroutine on PE 0.
pub struct Main;

impl Chare for Main {
    type Msg = ();
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Main {
        Main
    }
    fn receive(&mut self, _: (), _: &mut Ctx) {}
}

/// Why a run could not complete ([`Runtime::try_run`]).
#[derive(Debug)]
pub enum RunError {
    /// Threads backend: a PE saw no message for `idle` and restart recovery
    /// was not armed — the application is presumed hung.
    Hang {
        /// The PE that timed out first.
        pe: Pe,
        /// How long it sat idle.
        idle: Duration,
    },
    /// Threads backend: a PE thread panicked and restart recovery was not
    /// armed.
    PePanic {
        /// The PE whose scheduler died.
        pe: Pe,
        /// The panic message.
        msg: String,
    },
    /// The checkpoint handed to [`Runtime::run_restored`] failed validation.
    Restore(CkptError),
    /// A PE failed, recovery was armed, but no restore source exists (e.g.
    /// no checkpoint generation had committed yet, or the buddy copies died
    /// with their holders).
    RecoveryImpossible {
        /// Why recovery could not proceed.
        reason: String,
        /// The failure that triggered the recovery attempt.
        failure: String,
    },
    /// More PE failures than [`Runtime::max_restarts`] allows.
    RestartsExhausted {
        /// Restarts performed before giving up.
        attempts: u64,
        /// The final failure.
        last: String,
    },
    /// Net backend: a peer process was declared lost (heartbeat timeout or
    /// child-process death after reconnects were exhausted) and restart
    /// recovery was not armed — or, on a worker, the root itself vanished.
    PeerLost {
        /// The lost PE.
        pe: Pe,
        /// The machine incarnation it was lost in.
        incarnation: u64,
    },
    /// Net backend: the process mesh never assembled — a worker failed to
    /// register within the rendezvous window, spawning failed, the worker
    /// environment was torn, or the configuration is unsupported.
    Bootstrap(String),
    /// Net backend: the run completed but shutdown could not finish
    /// cleanly — queued frames were not flushed or a worker's final
    /// statistics never arrived within the drain window.
    Drain(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Hang { pe, idle } => {
                write!(f, "PE {pe} idle for {idle:?} — application hang?")
            }
            RunError::PePanic { pe, msg } => write!(f, "PE {pe} panicked: {msg}"),
            RunError::Restore(e) => write!(f, "restore failed: {e}"),
            RunError::RecoveryImpossible { reason, failure } => {
                write!(f, "cannot recover from \"{failure}\": {reason}")
            }
            RunError::RestartsExhausted { attempts, last } => {
                write!(
                    f,
                    "gave up after {attempts} restart(s); last failure: {last}"
                )
            }
            RunError::PeerLost { pe, incarnation } => {
                write!(
                    f,
                    "peer process for PE {pe} lost in incarnation {incarnation}"
                )
            }
            RunError::Bootstrap(msg) => write!(f, "net bootstrap failed: {msg}"),
            RunError::Drain(msg) => write!(f, "net drain failed: {msg}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Restore(e) => Some(e),
            _ => None,
        }
    }
}

/// Aggregate results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Host wall-clock duration of the run.
    pub wall: Duration,
    /// Application time: the virtual-time makespan (max PE clock) under the
    /// sim backend, wall time under threads.
    pub time: Duration,
    /// Application + runtime messages handled.
    pub msgs: u64,
    /// Cross-PE payload bytes moved.
    pub bytes: u64,
    /// Entry methods (incl. reduction deliveries) executed.
    pub entries: u64,
    /// Chare migrations performed.
    pub migrations: u64,
    /// Load-balancing epochs completed.
    pub lb_epochs: u64,
    /// Restart recoveries performed (PE failures survived).
    pub recoveries: u64,
    /// Whether the run ended via `exit()` (vs. running out of messages).
    pub clean_exit: bool,
    /// Per-PE message counts, bytes moved, and (above `TraceLevel::Off`)
    /// the busy/idle/overhead decomposition. Always populated. After a
    /// recovery this covers the final incarnation.
    pub pe_stats: Vec<PePerf>,
    /// Full trace (per-entry stats + event rings under full capture);
    /// `None` when tracing was configured off.
    pub trace: Option<TraceReport>,
    /// Cluster-wide telemetry frames reduced to PE 0, one per sweep, in
    /// sweep order ([`Runtime::telemetry`]); empty when telemetry was off.
    pub telemetry: Vec<MetricFrame>,
}

/// Builder/launcher for a charm-rs application.
pub struct Runtime {
    npes: usize,
    backend: Backend,
    dispatch: DispatchMode,
    same_pe_byref: bool,
    meter: bool,
    tree: TreeShape,
    lb: Arc<dyn LbStrategy>,
    lb_group_size: usize,
    idle_timeout: Duration,
    registry: Registry,
    reducers: CustomReducers,
    placements: Placements,
    restore_dir: Option<std::path::PathBuf>,
    auto_ckpt: Option<(u64, Store)>,
    recover: Option<MainFn>,
    max_restarts: u64,
    msg_guards: MsgGuards,
    trace: TraceConfig,
    /// In-band telemetry sweeps; `None` = off.
    telemetry: Option<TelemetryCfg>,
    /// TRAM-style per-destination message aggregation; `None` = off
    /// (bit-identical to previous releases).
    agg: Option<AggCfg>,
    /// Sim backend: jitter message delivery order with this seed (FIFO
    /// per channel is preserved). Drives the schedule-permutation harness.
    permute: Option<u64>,
    /// Injected fault (detector and recovery tests).
    #[cfg(feature = "analyze")]
    inject: Option<crate::analyze::InjectFault>,
    /// Findings sink shared with every PE's detector.
    #[cfg(feature = "analyze")]
    probe: Option<crate::analyze::FaultProbe>,
}

impl Runtime {
    /// A runtime with `npes` PEs on the threaded backend, native dispatch.
    pub fn new(npes: usize) -> Runtime {
        assert!(npes >= 1, "need at least one PE");
        Runtime {
            npes,
            backend: Backend::Threads,
            dispatch: DispatchMode::Native,
            same_pe_byref: true,
            meter: true,
            tree: TreeShape::default(),
            lb: Arc::new(GreedyRefineLb),
            lb_group_size: npes,
            idle_timeout: Duration::from_secs(30),
            registry: Registry::default(),
            reducers: CustomReducers::default(),
            placements: Placements::default(),
            restore_dir: None,
            auto_ckpt: None,
            recover: None,
            max_restarts: 3,
            msg_guards: MsgGuards::default(),
            trace: default_trace(),
            telemetry: None,
            agg: None,
            permute: None,
            #[cfg(feature = "analyze")]
            inject: None,
            #[cfg(feature = "analyze")]
            probe: None,
        }
    }

    /// Sim backend: permute the delivery schedule with a deterministic
    /// seed. Per-channel FIFO order is preserved (as the network
    /// guarantees); everything else — cross-channel interleaving, the order
    /// concurrent messages reach one PE — is jittered. Running the same
    /// program under many seeds and diffing results is the
    /// schedule-permutation harness of DESIGN.md §6.
    pub fn permute_schedule(mut self, seed: u64) -> Self {
        self.permute = Some(seed);
        self
    }

    /// Install a findings probe: detector violations are collected instead
    /// of panicking. Returns the probe for inspection after `run`.
    #[cfg(feature = "analyze")]
    pub fn analyze_probe(mut self) -> (Self, crate::analyze::FaultProbe) {
        let probe = self
            .probe
            .get_or_insert_with(crate::analyze::FaultProbe::new)
            .clone();
        (self, probe)
    }

    /// Inject a fault (tests): network duplicates/drops under the sim
    /// backend, or a PE kill under either backend. The detector must
    /// report network faults through the returned probe; PE kills drive
    /// the restart supervisor.
    #[cfg(feature = "analyze")]
    pub fn analyze_inject(
        mut self,
        fault: crate::analyze::InjectFault,
    ) -> (Self, crate::analyze::FaultProbe) {
        self.inject = Some(fault);
        self.analyze_probe()
    }

    /// Number of PEs this runtime will drive.
    pub fn npes(&self) -> usize {
        self.npes
    }

    /// The configured dispatch mode (and therefore the active wire codec).
    pub fn dispatch_mode(&self) -> DispatchMode {
        self.dispatch
    }

    /// Select the execution backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Shorthand for the simulated backend.
    pub fn simulated(self, model: MachineModel) -> Self {
        self.backend(Backend::Sim(model))
    }

    /// Select the dispatch/serialization mode.
    pub fn dispatch(mut self, mode: DispatchMode) -> Self {
        self.dispatch = mode;
        self
    }

    /// Toggle the same-PE by-reference optimization (paper §II-D) — the
    /// ablation switch; `true` by default.
    pub fn same_pe_byref(mut self, on: bool) -> Self {
        self.same_pe_byref = on;
        self
    }

    /// Sim backend: whether measured handler time is charged to the virtual
    /// clock (`true`, default) or only explicit `ctx.charge` calls count
    /// (`false`, for deterministic tests).
    pub fn meter_compute(mut self, on: bool) -> Self {
        self.meter = on;
        self
    }

    /// Spanning-tree shape for broadcasts/reductions (§IV-D).
    pub fn tree(mut self, tree: TreeShape) -> Self {
        self.tree = tree;
        self
    }

    /// The strategy the LB tree's root runs at every AtSync epoch over
    /// what reaches it (default [`GreedyRefineLb`]).
    pub fn lb_strategy(mut self, lb: Arc<dyn LbStrategy>) -> Self {
        self.lb = lb;
        self
    }

    /// Fan-in of the LB tree that gathers AtSync loads to PE 0. The
    /// default, `npes`, is one level: the root's strategy sees every
    /// candidate. A smaller group makes the tree hierarchical: interior
    /// nodes refine placement within their subtree and pass only a bounded
    /// residual up, so no PE holds the global stat vector.
    pub fn lb_group_size(mut self, group_size: usize) -> Self {
        assert!(group_size >= 1, "LB group size must be at least 1");
        self.lb_group_size = group_size;
        self
    }

    /// Threaded backend: how long a PE may sit idle before the run is
    /// declared hung. With recovery armed the hang becomes a restart;
    /// otherwise [`Runtime::try_run`] returns [`RunError::Hang`].
    pub fn idle_timeout(mut self, t: Duration) -> Self {
        self.idle_timeout = t;
        self
    }

    /// Arm automatic checkpointing: at every `every`-th completed
    /// quiescence round, PE 0 snapshots the whole machine into `store` —
    /// buddy in-memory copies ([`Store::Memory`]), or atomic per-generation
    /// directories on disk ([`Store::Disk`]). The snapshot is taken while
    /// the machine is quiescent, so it is globally consistent; quiescence
    /// waiters resume only after every PE commits. Combine with
    /// [`Runtime::recover_with`] for automatic restart-recovery.
    pub fn auto_checkpoint(mut self, every: u64, store: Store) -> Self {
        assert!(every > 0, "auto_checkpoint cadence must be at least 1");
        self.auto_ckpt = Some((every, store));
        self
    }

    /// Entry kick used by restart recovery: after the supervisor restores
    /// the newest complete checkpoint generation, this runs as the new main
    /// coroutine (the original `run` entry was consumed by the first
    /// incarnation). It should re-kick the application — e.g. re-broadcast
    /// the driving message — discovering progress from restored chare
    /// state, exactly like the `run_restored` entry.
    pub fn recover_with(mut self, f: impl Fn(&mut Co<Main>) + Send + Sync + 'static) -> Self {
        self.recover = Some(Arc::new(f));
        self
    }

    /// Cap on automatic restarts per run (default 3).
    pub fn max_restarts(mut self, n: u64) -> Self {
        self.max_restarts = n;
        self
    }

    /// Configure tracing (Projections-style, DESIGN.md §7). The default is
    /// [`TraceConfig::counters`] — cheap always-on aggregates — or full
    /// event capture when built with `--features trace`.
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = cfg;
        self
    }

    /// Arm in-band telemetry (see [`TelemetryCfg`]): at every
    /// `cfg.every`-th completed quiescence round, per-PE [`MetricFrame`]s
    /// reduce over the spanning tree to PE 0, which retains the series in
    /// [`RunReport::telemetry`] and streams each frame to `cfg.sink`.
    pub fn telemetry(mut self, cfg: TelemetryCfg) -> Self {
        assert!(cfg.every > 0, "telemetry cadence must be at least 1");
        self.telemetry = Some(cfg);
        self
    }

    /// Coalesce small remote entry messages into per-destination batches
    /// (Charm++'s TRAM; see [`AggCfg`] for the flush triggers). Off by
    /// default — without this call, behaviour is bit-identical to an
    /// unaggregated runtime. Logical counters (`RunReport::msgs`,
    /// `PePerf::msgs_sent`, QD accounting) are unaffected by batching;
    /// the physical envelope count shows up in `PePerf::batches_sent`.
    pub fn aggregation(mut self, cfg: AggCfg) -> Self {
        assert!(
            cfg.max_count >= 1 && cfg.max_bytes >= 1,
            "aggregation thresholds must be at least 1"
        );
        self.agg = Some(cfg);
        self
    }

    /// Register a chare type (every type used must be registered).
    pub fn register<T: Chare>(mut self) -> Self {
        self.registry.register::<T>();
        self
    }

    /// Register a *migratable* chare type (state must be [`Wire`](charm_wire::Wire)).
    pub fn register_migratable<T: Chare + charm_wire::Wire>(mut self) -> Self {
        self.registry.register_migratable::<T>();
        self
    }

    /// Register a custom reducer (CharmPy's `Reducer.addReducer`).
    pub fn add_reducer(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(Vec<RedData>) -> RedData + Send + Sync + 'static,
    ) -> Reducer {
        self.reducers.register(name, f)
    }

    /// Register a per-message when-condition for chare type `T` (the
    /// sender-side conditions of paper §II-E): messages sent with
    /// `Proxy::send_when(msg, guard)` are buffered at the receiver until
    /// `pred(chare, msg)` holds.
    pub fn add_msg_guard<T: Chare>(
        &mut self,
        pred: impl Fn(&T, &T::Msg) -> bool + Send + Sync + 'static,
    ) -> MsgGuard {
        self.msg_guards.register::<T>(pred)
    }

    /// Register a custom placement function (CharmPy's `ArrayMap`).
    pub fn add_placement(
        &mut self,
        f: impl Fn(&crate::ids::Index, usize) -> Pe + Send + Sync + 'static,
    ) -> Placement {
        self.placements.register(f)
    }

    /// Start the runtime from a checkpoint written by `Ctx::checkpoint` or
    /// an automatic [`Store::Disk`] generation: collections and chares are
    /// restored (redistributed by placement if the PE count changed) before
    /// `entry` runs; `entry` re-kicks the application, e.g. by
    /// re-broadcasting its start message.
    pub fn run_restored(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        entry: impl FnOnce(&mut Co<Main>) + Send + 'static,
    ) -> RunReport {
        self.restore_dir = Some(dir.into());
        self.run(entry)
    }

    /// Start the runtime: `entry` runs as an automatically-threaded main
    /// coroutine on PE 0 (paper §II-B). Returns when `exit()` is called (or,
    /// under sim, when no messages remain). Panics on [`RunError`] — use
    /// [`Runtime::try_run`] to handle failures structurally.
    pub fn run(self, entry: impl FnOnce(&mut Co<Main>) + Send + 'static) -> RunReport {
        match self.try_run(entry) {
            Ok(report) => report,
            // run() is the panicking convenience wrapper; try_run returns
            // failures structurally.
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Runtime::run`], but a PE hang, an unrecovered PE death or an
    /// invalid restore source comes back as a typed [`RunError`] instead of
    /// a panic.
    pub fn try_run(
        mut self,
        entry: impl FnOnce(&mut Co<Main>) + Send + 'static,
    ) -> Result<RunReport, RunError> {
        let restore_dir = self.restore_dir.take();
        let mut launch = self.launch();
        // Pre-validate a directory restore — a bad set is a typed error
        // here, not a panic mid-bootstrap — and start fresh checkpoint
        // generations strictly after the restored one.
        if let Some(dir) = restore_dir {
            let files = checkpoint::read_all(&dir).map_err(RunError::Restore)?;
            launch.cfg.ckpt_seq_start = files[0].epoch + 1;
            launch.cfg.restore = Some(RestoreFrom::Dir(dir));
        }
        let entry: CoroLauncher = Box::new(move |side| run_coroutine::<Main>(side, entry));
        let npes = self.npes;
        let idle_timeout = self.idle_timeout;
        match self.backend {
            Backend::Threads => supervise(&launch, entry, 0..npes, |pes, boot, kill| {
                threads_epoch(pes, boot, kill, idle_timeout, launch.start)
            }),
            Backend::Sim(_) => {
                let mut sim = Sim {
                    net: ModelNet::new(self.permute, &launch),
                    events: EventQueue::new(),
                };
                supervise(&launch, entry, 0..npes, |pes, boot, kill| {
                    virtual_epoch(&mut sim, pes, boot, kill)
                })
            }
            Backend::Net(netcfg) => crate::net::run_net(launch, netcfg, idle_timeout, entry),
        }
    }

    /// Package the builder's scheduler-facing pieces — everything an
    /// incarnation is (re)built from. The backend choice and its knobs stay
    /// behind on `self`.
    fn launch(&mut self) -> Launch {
        install_quiet_shutdown_hook();
        self.registry.register::<Main>();
        let sim_model = match &self.backend {
            Backend::Threads | Backend::Net(_) => None,
            Backend::Sim(m) => Some(m.clone()),
        };
        Launch {
            npes: self.npes,
            registry: Arc::new(std::mem::take(&mut self.registry)),
            placements: Arc::new(self.placements.clone()),
            reducers: Arc::new(self.reducers.clone()),
            #[expect(clippy::disallowed_methods, reason = "nondeterminism: the wall field")]
            start: Instant::now(),
            cfg: SchedCfg {
                codec: match self.dispatch {
                    DispatchMode::Native => Codec::Fast,
                    DispatchMode::Dynamic => Codec::Pickle,
                },
                same_pe_byref: self.same_pe_byref,
                tree: self.tree,
                lb: Arc::clone(&self.lb),
                lb_group_size: self.lb_group_size,
                meter: self.meter,
                is_sim: sim_model.is_some(),
                sim_model,
                // The first incarnation's values; `Launch::cfg` sets these
                // three per incarnation.
                restore: None,
                epoch: 0,
                ckpt_seq_start: 1,
                auto_ckpt: self.auto_ckpt.clone(),
                msg_guards: Arc::new(self.msg_guards.clone()),
                trace: self.trace,
                agg: self.agg,
                telemetry: self.telemetry.clone(),
                #[cfg(feature = "analyze")]
                analyze_probe: self.probe.clone(),
            },
            recover: self.recover.clone(),
            max_restarts: self.max_restarts,
            #[cfg(feature = "analyze")]
            inject: self.inject,
        }
    }
}

#[cfg(feature = "analyze")]
impl Runtime {
    /// Systematically explore every delivery schedule of the program up to
    /// happens-before equivalence (DESIGN.md §11): the program is re-run
    /// on the controlled transport while `charm-check`'s DPOR engine
    /// enumerates interleavings, stopping at the first detector violation,
    /// panic, run error, or oracle mismatch. The failing schedule is shrunk
    /// and (with [`CheckCfg::artifact`] set) written as a replay artifact
    /// for [`Runtime::replay_schedule`].
    ///
    /// `entry` must be re-runnable — each explored execution restarts the
    /// program from scratch — hence `Fn`, not the `FnOnce` of
    /// [`Runtime::run`]. Compute metering is forced off so executions are
    /// pure functions of their delivery order; the backend setting is
    /// ignored (exploration always runs the controlled transport).
    ///
    /// [`CheckCfg::artifact`]: crate::check::CheckCfg::artifact
    pub fn check(
        self,
        cfg: crate::check::CheckCfg,
        entry: impl Fn(&mut Co<Main>) + Send + Sync + 'static,
    ) -> crate::check::CheckReport {
        crate::check::run_check(self.into_check_driver(), Arc::new(entry), cfg)
    }

    /// Replay a schedule artifact written by [`Runtime::check`],
    /// bit-identically: the same runtime configuration plus the same
    /// artifact always produces the same delivery sequence, clocks and
    /// outcome (compare [`crate::check::ReplayOutcome::digest`] across
    /// runs to assert it).
    pub fn replay_schedule(
        self,
        path: impl AsRef<std::path::Path>,
        entry: impl Fn(&mut Co<Main>) + Send + Sync + 'static,
    ) -> std::io::Result<crate::check::ReplayOutcome> {
        let schedule = charm_check::Schedule::load(path.as_ref())?;
        Ok(crate::check::run_replay(
            self.into_check_driver(),
            Arc::new(entry),
            &schedule,
        ))
    }

    /// The same [`Launch`] a run is built from, bent for exploration.
    fn into_check_driver(mut self) -> Launch {
        assert!(
            self.restore_dir.is_none(),
            "Runtime::check starts from scratch every execution; run_restored is not supported"
        );
        let mut launch = self.launch();
        // Metering ties virtual time to measured host time; forced off so
        // an execution is a pure function of its delivery order (the
        // replay bit-identity contract).
        launch.cfg.meter = false;
        launch.cfg.is_sim = true;
        // A configured sim model is honored; the other backends fall back
        // to the default model (only default delivery *priorities* depend
        // on it).
        launch
            .cfg
            .sim_model
            .get_or_insert_with(MachineModel::default);
        launch
    }
}

/// A re-runnable main-coroutine body (the recovery entry, a checked
/// program).
pub(crate) type MainFn = Arc<dyn Fn(&mut Co<Main>) + Send + Sync>;

/// A fresh launcher for a re-runnable body (unlike the `FnOnce` the first
/// incarnation of a plain run consumes).
pub(crate) fn main_launcher(f: &MainFn) -> CoroLauncher {
    let f = Arc::clone(f);
    Box::new(move |side| run_coroutine::<Main>(side, move |co: &mut Co<Main>| f(co)))
}

/// Everything needed to (re)build a machine incarnation; the restart
/// supervisor re-launches from this after a PE failure.
#[derive(Clone)]
pub(crate) struct Launch {
    pub(crate) npes: usize,
    registry: Arc<Registry>,
    placements: Arc<Placements>,
    reducers: Arc<CustomReducers>,
    pub(crate) start: Instant,
    /// The first incarnation's scheduler configuration (its `restore` is
    /// the `run_restored` source); [`Launch::cfg`] derives the later ones.
    pub(crate) cfg: SchedCfg,
    recover: Option<MainFn>,
    pub(crate) max_restarts: u64,
    /// The injected fault (tests): a PE kill for the driver's kill clock,
    /// or a network fault for the modeled network.
    #[cfg(feature = "analyze")]
    pub(crate) inject: Option<crate::analyze::InjectFault>,
}

impl Launch {
    /// The scheduler config of incarnation `epoch`, restoring from
    /// `restore` and minting checkpoint generations from `ckpt_seq_start`.
    pub(crate) fn cfg(
        &self,
        epoch: u64,
        restore: Option<RestoreFrom>,
        ckpt_seq_start: u64,
    ) -> Arc<SchedCfg> {
        let mut cfg = self.cfg.clone();
        cfg.epoch = epoch;
        cfg.restore = restore;
        cfg.ckpt_seq_start = ckpt_seq_start;
        Arc::new(cfg)
    }

    pub(crate) fn mk_pe(
        &self,
        pe: Pe,
        entry: Option<CoroLauncher>,
        cfg: &Arc<SchedCfg>,
    ) -> PeState {
        PeState::new(
            pe,
            self.npes,
            Arc::clone(cfg),
            Arc::clone(&self.registry),
            Arc::clone(&self.placements),
            Arc::clone(&self.reducers),
            self.start,
            entry,
        )
    }

    pub(crate) fn recovery_entry(&self) -> Option<CoroLauncher> {
        self.recover.as_ref().map(main_launcher)
    }

    /// Whether a PE failure can even be turned into a restart.
    pub(crate) fn recovery_armed(&self) -> bool {
        self.cfg.auto_ckpt.is_some() && self.recover.is_some()
    }

    /// The injected PE kill `(victim, after_nth)`, if one is configured.
    pub(crate) fn kill(&self) -> Option<(Pe, u64)> {
        #[cfg(feature = "analyze")]
        if let Some(crate::analyze::InjectFault::KillPe { pe, after_nth }) = self.inject {
            return Some((pe, after_nth));
        }
        None
    }

    /// Locate the newest complete checkpoint generation after a failure:
    /// the highest intact `ckpt-<epoch>/` directory under [`Store::Disk`],
    /// or a full image set assembled from the salvaged in-memory stores
    /// under [`Store::Memory`] (a PE's own image when its store survived,
    /// the buddy-held copy otherwise). Returns `(generation, source)`.
    pub(crate) fn recovery_source(
        &self,
        stores: &[Option<CkptStore>],
    ) -> Result<(u64, RestoreFrom), String> {
        let store = match &self.cfg.auto_ckpt {
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
                    if let Some(files) = assemble_images(stores, self.npes, epoch) {
                        return Ok((epoch, RestoreFrom::Images(files)));
                    }
                }
                Err("no complete in-memory checkpoint generation survives the failure".into())
            }
        }
    }
}

/// Assemble one checkpoint generation from per-PE salvage: PE `i`'s image
/// comes from its own store when that survived, else from the buddy copy
/// held on PE `(i+1) % npes`. `None` unless every PE's image is present
/// and decodes.
pub(crate) fn assemble_images(
    stores: &[Option<CkptStore>],
    npes: usize,
    epoch: u64,
) -> Option<Vec<CkptFile>> {
    let mut files = Vec::with_capacity(npes);
    for pe in 0..npes {
        let held_by = |holder: Pe| stores[holder].as_ref().and_then(|s| s.image_of(pe, epoch));
        let image = held_by(pe).or_else(|| held_by((pe + 1) % npes))?;
        files.push(checkpoint::decode_image(image).ok()?);
    }
    Some(files)
}

pub(crate) fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One PE thread's end of the threads interconnect: an `mpsc` receiver, a
/// sender to every PE, a local receive ring, and a sticky spin in front of
/// the blocking wait.
struct Threads {
    pe: Pe,
    rx: mpsc::Receiver<Envelope>,
    senders: Vec<mpsc::Sender<Envelope>>,
    /// One channel drain per wakeup fills this ring, so the hot loop pops
    /// envelopes without paying channel synchronization per message.
    ring: VecDeque<Envelope>,
    idle_timeout: Duration,
    /// Real-time origin shared with the PEs' clocks.
    origin: Instant,
    /// Wall stamp (ns) of `poll` coming up empty, when tracing wants the
    /// idle decomposition; consumed by `idle_wait`.
    went_idle: Option<u64>,
    timed: bool,
}

impl Threads {
    const RING_BURST: usize = 256;
    const STICKY_SPINS: u32 = 64;

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn ready(&self, env: Envelope) -> Poll {
        Poll::Ready {
            pe: self.pe,
            arrival: 0,
            env,
        }
    }
}

impl Transport for Threads {
    fn start(&mut self, _at_ns: u64, boot: Envelope) {
        self.senders[0].send(boot).expect("bootstrap send failed");
    }

    fn send(&mut self, _src: &PeState, dst: Pe, env: Envelope) {
        // A send failing means the destination already exited — the
        // message is moot.
        let _ = self.senders[dst].send(env);
    }

    fn poll(&mut self) -> Poll {
        if let Some(env) = self.ring.pop_front() {
            return self.ready(env);
        }
        match self.rx.try_recv() {
            Ok(env) => {
                // Batched receive: drain the channel in a burst while the
                // queue is hot.
                while self.ring.len() < Self::RING_BURST {
                    match self.rx.try_recv() {
                        Ok(e) => self.ring.push_back(e),
                        Err(_) => break,
                    }
                }
                self.ready(env)
            }
            Err(mpsc::TryRecvError::Disconnected) => Poll::End(End::Drained),
            Err(mpsc::TryRecvError::Empty) => {
                // Sticky backoff: spin briefly before committing to the
                // blocking wait — absorbs ping-pong gaps without a
                // sleep/wake round trip.
                for _ in 0..Self::STICKY_SPINS {
                    std::hint::spin_loop();
                    if let Ok(env) = self.rx.try_recv() {
                        return self.ready(env);
                    }
                }
                self.went_idle = self.timed.then(|| self.now_ns());
                Poll::Empty
            }
        }
    }

    fn idle_wait(&mut self, pes: &mut [PeState]) -> Poll {
        let tracer = &mut pes[0].tracer;
        // Time spent waiting on the channel is the threaded backend's idle
        // time; the flush work before it is runtime overhead, not idle —
        // otherwise summary quanta would not sum to wall time.
        let idle_from = self.went_idle.take().map(|f0| {
            let t0 = self.now_ns();
            tracer.work_at(WorkClass::Overhead, t0 - f0, t0);
            t0
        });
        match self.rx.recv_timeout(self.idle_timeout) {
            Ok(env) => {
                if let Some(t0) = idle_from {
                    tracer.idle(t0, self.now_ns());
                }
                self.ready(env)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Poll::End(End::Hung(self.idle_timeout)),
            Err(mpsc::RecvTimeoutError::Disconnected) => Poll::End(End::Drained),
        }
    }
}

/// One incarnation on the threads backend: one OS thread per PE, each
/// driving its own [`Threads`] transport, and this thread collecting how
/// they end.
#[expect(clippy::disallowed_methods, reason = "nondeterminism: a wall deadline")]
fn threads_epoch(
    pes: Vec<PeState>,
    boot: Envelope,
    kill: Option<(Pe, u64)>,
    idle_timeout: Duration,
    origin: Instant,
) -> Result<Ended, RunError> {
    let npes = pes.len();
    let epoch = boot.epoch;
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..npes).map(|_| mpsc::channel::<Envelope>()).unzip();
    let mut transports: Vec<Threads> = pes
        .iter()
        .zip(receivers)
        .map(|(state, rx)| Threads {
            pe: state.pe,
            rx,
            senders: senders.clone(),
            ring: VecDeque::new(),
            idle_timeout,
            origin,
            went_idle: None,
            timed: state.tracer.enabled(),
        })
        .collect();
    transports[0].start(0, boot);

    /// `(pe, drive's end or the panic message, trace, salvage)`.
    type Status = (Pe, Result<End, String>, PeTrace, CkptStore);
    let (status_tx, status_rx) = mpsc::channel::<Status>();
    for (mut state, mut t) in pes.into_iter().zip(transports) {
        let status_tx = status_tx.clone();
        std::thread::Builder::new()
            .name(format!("pe-{}", state.pe))
            .spawn(move || {
                // The scheduler loop runs under `catch_unwind` so a dying
                // PE reports its end (and its salvageable buddy images)
                // instead of taking the process down.
                let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    drive(std::slice::from_mut(&mut state), &mut t, kill)
                }))
                .map_err(panic_msg);
                let trace = state.finish_trace();
                let store = state.ckpt.take_store();
                let _ = status_tx.send((state.pe, end, trace, store));
            })
            .expect("failed to spawn PE thread");
    }
    drop(status_tx);

    // Collect every PE's end. On the first failure, broadcast `Halt` so
    // surviving PEs stop and report their salvage; from then on wait at
    // most a grace period — an unresponsive thread (stuck inside a
    // handler) is leaked, and the buddy copies cover its images.
    let mut traces: Vec<Option<PeTrace>> = (0..npes).map(|_| None).collect();
    let mut stores: Vec<Option<CkptStore>> = (0..npes).map(|_| None).collect();
    let mut dead: Option<Failed> = None;
    let mut deadline: Option<Instant> = None;
    let failed = |unarmed: RunError| Failed {
        describe: unarmed.to_string(),
        unarmed,
        stores: Vec::new(),
        at_ns: 0,
    };
    for _ in 0..npes {
        let received = match deadline {
            None => status_rx.recv().ok(),
            Some(d) => status_rx
                .recv_timeout(d.saturating_duration_since(Instant::now()))
                .ok(),
        };
        let Some((pe, end, trace, store)) = received else {
            break;
        };
        traces[pe] = Some(trace);
        // A panicked or killed PE is dead: its memory is gone in the
        // machine model, so its salvage is dropped and recovery must come
        // from the buddy copy (or disk).
        let failure = match end {
            Err(msg) => Some(failed(RunError::PePanic { pe, msg })),
            Ok(End::Killed(..)) => Some(Failed::killed(pe, Vec::new(), 0)),
            Ok(End::Hung(idle)) => {
                stores[pe] = Some(store);
                Some(failed(RunError::Hang { pe, idle }))
            }
            Ok(_) => {
                stores[pe] = Some(store);
                None
            }
        };
        if let (Some(f), None) = (failure, &dead) {
            dead = Some(f);
            deadline = Some(Instant::now() + idle_timeout + Duration::from_secs(2));
            for tx in &senders {
                let mut halt = Envelope::new(0, EnvKind::Halt);
                halt.epoch = epoch;
                let _ = tx.send(halt);
            }
        }
    }
    Ok(match dead {
        None => Ended::Finished {
            traces: traces.into_iter().flatten().collect(),
            time: None,
            clean_exit: true,
        },
        Some(failed) => Ended::Failed(Failed { stores, ..failed }),
    })
}

/// Fold the per-PE traces into the run report.
pub(crate) fn finish_report(
    wall: Duration,
    time: Duration,
    recoveries: u64,
    clean_exit: bool,
    pes: Vec<PeTrace>,
) -> RunReport {
    let mut total = PePerf::default();
    for t in &pes {
        total.merge(&t.perf);
    }
    let enabled = pes.iter().any(|t| t.enabled);
    let pe_stats = pes.iter().map(|t| t.perf.clone()).collect();
    // Telemetry frames land only on the reduction root (PE 0), but collect
    // from every PE so a custom tree root still surfaces its series.
    let telemetry: Vec<MetricFrame> = pes
        .iter()
        .flat_map(|t| t.telemetry.iter().cloned())
        .collect();
    RunReport {
        wall,
        time,
        msgs: total.msgs_processed,
        bytes: total.bytes_sent_remote,
        entries: total.entries,
        migrations: total.migrations,
        lb_epochs: total.lb_epochs,
        recoveries,
        clean_exit,
        pe_stats,
        telemetry,
        trace: enabled.then_some(TraceReport { pes }),
    }
}

/// The modeled network the virtual-time transports (sim, check) share:
/// what happens to an envelope between leaving a PE and becoming
/// deliverable — optional fault injection, the machine model's latency,
/// the schedule permutation, and (under `analyze`) a per-channel FIFO
/// clamp. An aggregation batch crosses as ONE envelope — one latency event
/// for the whole frame is the modeled win of aggregation; the receiver
/// pays per-message unpack cost when it splits the frame. Who picks the
/// next deliverable envelope is the transports' business, not this one's.
pub(crate) struct ModelNet {
    model: MachineModel,
    /// Deterministic per-seed jitter on delivery times, preserving
    /// per-channel FIFO (the ordering real networks and the threads
    /// backend guarantee).
    permuter: Option<charm_sim::PermuteSchedule>,
    /// Network fault injection: `(fault, QD-counted envelopes shipped)`.
    #[cfg(feature = "analyze")]
    inject: Option<(crate::analyze::InjectFault, u64)>,
    /// Per-channel arrival clamp: the delay model is size-dependent and
    /// may reorder one channel's messages; under the detector channels are
    /// pinned FIFO so an ordering violation is a runtime bug, not a model
    /// artifact.
    #[cfg(feature = "analyze")]
    last_arrival: std::collections::HashMap<(Pe, Pe), u64>,
}

impl ModelNet {
    /// The network of `launch`'s machine model, delivery order jittered by
    /// the `permute` seed.
    pub(crate) fn new(permute: Option<u64>, launch: &Launch) -> ModelNet {
        let model = launch.cfg.sim_model.clone();
        ModelNet {
            model: model.expect("a virtual-time machine carries its model"),
            permuter: permute.map(charm_sim::PermuteSchedule::new),
            #[cfg(feature = "analyze")]
            inject: launch.inject.map(|f| (f, 0)),
            #[cfg(feature = "analyze")]
            last_arrival: std::collections::HashMap::new(),
        }
    }

    /// Carry `env`, emitted by `src` at `now_ns`, to `dst`: `arrive` is
    /// called with the arrival time of each copy that gets there (none
    /// when dropped, two when duplicated).
    pub(crate) fn ship(
        &mut self,
        src: Pe,
        now_ns: u64,
        dst: Pe,
        env: Envelope,
        mut arrive: impl FnMut(u64, Envelope),
    ) {
        #[cfg(feature = "analyze")]
        let mut duplicate: Option<Envelope> = None;
        #[cfg(feature = "analyze")]
        if let Some((fault, count)) = &mut self.inject {
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
                    crate::analyze::InjectFault::DropNth(k) if k == n => return,
                    crate::analyze::InjectFault::DuplicateNth(k) if k == n => {
                        duplicate = env.try_clone();
                    }
                    _ => {}
                }
            }
        }
        let delay = self.model.msg_delay(src, dst, env.kind.size_hint());
        let mut at = VTime::from_nanos(now_ns) + delay;
        if let Some(p) = &mut self.permuter {
            at = p.delivery_time(src, dst, at);
        }
        let at = at.as_nanos();
        #[cfg(feature = "analyze")]
        let at = {
            let last = self.last_arrival.entry((src, dst)).or_insert(0);
            *last = at.max(*last + 1);
            *last
        };
        arrive(at, env);
        #[cfg(feature = "analyze")]
        if let Some(dup) = duplicate {
            // The duplicate trails the original on the same channel, like
            // a network-level retransmission.
            self.last_arrival.insert((src, dst), at + 1);
            arrive(at + 1, dup);
        }
    }
}

/// The sim transport: every PE multiplexed on one `(arrival, ship order)`
/// event heap over the modeled network. It outlives incarnations — a
/// recovery continues on the same queue and timeline, so pre-failure
/// traffic still in it reaches the new PEs' epoch guard and is counted.
struct Sim {
    net: ModelNet,
    events: EventQueue<(Pe, Envelope)>,
}

impl Transport for Sim {
    fn start(&mut self, at_ns: u64, boot: Envelope) {
        self.events.push(VTime::from_nanos(at_ns), (0, boot));
    }

    fn send(&mut self, src: &PeState, dst: Pe, env: Envelope) {
        let events = &mut self.events;
        self.net.ship(src.pe, src.clock_ns, dst, env, |at, env| {
            events.push(VTime::from_nanos(at), (dst, env))
        });
    }

    fn poll(&mut self) -> Poll {
        match self.events.pop() {
            Some((t, (pe, env))) => Poll::Ready {
                pe,
                arrival: t.as_nanos(),
                env,
            },
            None => Poll::Empty,
        }
    }

    fn idle_wait(&mut self, pes: &mut [PeState]) -> Poll {
        // The idle flush may have put parked traffic back in flight; a
        // quiescent machine with empty buffers is done.
        match self.poll() {
            Poll::Empty => {
                eprintln!("charm-rs sim: event queue drained without exit() — stalled state:");
                for p in pes.iter() {
                    p.debug_dump();
                }
                Poll::End(End::Drained)
            }
            ready => ready,
        }
    }
}

/// One incarnation of a virtual-time machine (sim, check): every PE driven
/// on this thread against one transport.
pub(crate) fn virtual_epoch<T: Transport>(
    t: &mut T,
    mut pes: Vec<PeState>,
    boot: Envelope,
    kill: Option<(Pe, u64)>,
) -> Result<Ended, RunError> {
    t.start(pes[0].clock_ns, boot);
    let clean_exit = match drive(&mut pes, t, kill) {
        End::Killed(victim, at_ns) => {
            // The victim dies just as it would handle the envelope: its
            // state (with its own checkpoint images) is discarded, the
            // envelope is lost with it, and the machine restarts from the
            // newest complete generation the survivors can assemble.
            let stores = pes
                .iter_mut()
                .map(|p| (p.pe != victim).then(|| p.ckpt.take_store()))
                .collect();
            return Ok(Ended::Failed(Failed::killed(victim, stores, at_ns)));
        }
        end => matches!(end, End::Exited),
    };
    // Send/deliver accounting must balance once the machine is quiescent:
    // a drained queue with sent ids never delivered means lost envelopes,
    // and the trace counters must agree with the detector. (After a
    // recovery, the accounting covers the final incarnation — stale-epoch
    // envelopes are discarded before the detector sees them.)
    #[cfg(feature = "analyze")]
    {
        let probe = pes[0].cfg.analyze_probe.as_ref();
        crate::analyze::check_balance(
            pes.iter().map(|p| p.det.summary()).collect(),
            !clean_exit,
            probe,
        );
        crate::analyze::check_counter_balance(
            &pes.iter().map(|p| p.counter_totals()).collect::<Vec<_>>(),
            !clean_exit,
            probe,
        );
    }
    let makespan = pes.iter().map(|p| p.clock_ns).max().unwrap_or(0);
    Ok(Ended::Finished {
        traces: pes.iter_mut().map(|p| p.finish_trace()).collect(),
        time: Some(Duration::from_nanos(makespan)),
        clean_exit,
    })
}

/// Default tracing level: cheap counters, or full event capture when the
/// crate is built with `--features trace`.
fn default_trace() -> TraceConfig {
    if cfg!(feature = "trace") {
        TraceConfig::full()
    } else {
        TraceConfig::counters()
    }
}
