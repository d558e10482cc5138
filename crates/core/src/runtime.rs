//! Runtime configuration, the two execution backends, the restart
//! supervisor and the run report.
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
//! Two backends share every line of model semantics and differ only in how
//! PEs are driven:
//!
//! * [`Backend::Threads`] — one OS thread per PE, `std::sync::mpsc` channels as the
//!   interconnect. The "real" runtime for multicore hosts.
//! * [`Backend::Sim`] — all PEs multiplexed on a deterministic virtual-time
//!   event loop, with message delays from a [`MachineModel`]. This is the
//!   substitution for the paper's Blue Waters/Cori testbeds: handler
//!   execution is metered and charged to per-PE virtual clocks, so parallel
//!   performance (the figures) is read off virtual time.
//!
//! With [`Runtime::auto_checkpoint`] + [`Runtime::recover_with`] armed,
//! both drivers become restart supervisors (DESIGN.md §8): a PE death (a
//! panicked thread, an injected sim kill) or an idle-timeout hang bumps the
//! recovery epoch, restores every chare from the newest complete
//! buddy/disk checkpoint, re-runs the recovery entry, and discards
//! in-flight envelopes stamped with the stale epoch.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use charm_sim::{EventQueue, MachineModel, VTime};
use charm_trace::{MetricFrame, PePerf, PeTrace, TraceConfig, TraceReport, WorkClass};
use charm_wire::Codec;

use crate::chare::{Chare, MsgGuard, MsgGuards, Registry};
use crate::checkpoint::{self, CkptError, CkptFile, Store};
use crate::collections::{Placement, Placements};
use crate::coro::{install_quiet_shutdown_hook, run_coroutine, Co};
use crate::ctx::Ctx;
use crate::ids::Pe;
use crate::lb::{LbMode, LbStrategy};
use crate::msg::{EnvKind, Envelope};
use crate::pe::{CkptStore, PeState, RestoreFrom, SchedCfg};
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
    compute_scale: f64,
    tree: TreeShape,
    lb: Option<Arc<dyn LbStrategy>>,
    lb_mode: LbMode,
    idle_timeout: Duration,
    registry: Registry,
    reducers: CustomReducers,
    placements: Placements,
    restore_dir: Option<std::path::PathBuf>,
    auto_ckpt: Option<(u64, Store)>,
    recover: Option<Arc<dyn Fn(&mut Co<Main>) + Send + Sync>>,
    max_restarts: u64,
    msg_guards: MsgGuards,
    trace: TraceConfig,
    /// In-band telemetry sweeps; `None` = off.
    telemetry: Option<TelemetryCfg>,
    /// TRAM-style per-destination message aggregation; `None` = off
    /// (bit-identical to previous releases).
    agg: Option<AggCfg>,
    /// Per-message fast paths (inline payloads, dispatch cache, threaded
    /// receive ring). On by default; `fast_paths(false)` is the ablation
    /// baseline and must be bit-identical.
    fast_paths: bool,
    /// Sim backend: jitter message delivery order with this seed (FIFO
    /// per channel is preserved). Drives the schedule-permutation harness.
    permute: Option<u64>,
    /// Network fault injected by the sim driver (detector tests).
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
            compute_scale: 1.0,
            tree: TreeShape::default(),
            lb: None,
            lb_mode: LbMode::default(),
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
            fast_paths: true,
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

    /// Sim backend: scale measured host time by this factor to model a
    /// slower/faster target core.
    pub fn compute_scale(mut self, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0);
        self.compute_scale = scale;
        self
    }

    /// Spanning-tree shape for broadcasts/reductions (§IV-D).
    pub fn tree(mut self, tree: TreeShape) -> Self {
        self.tree = tree;
        self
    }

    /// Install a load-balancing strategy (enables at-sync LB).
    pub fn lb_strategy(mut self, lb: Arc<dyn LbStrategy>) -> Self {
        self.lb = Some(lb);
        self
    }

    /// How at-sync stats are collected and placement decided:
    /// [`LbMode::Central`] (default) gathers every chare stat on PE 0 and
    /// runs the installed [`LbStrategy`]; [`LbMode::Tree`] refines
    /// hierarchically up a group tree so no PE materializes the global
    /// stat vector (the strategy object is not consulted). Sim backend
    /// only for `Tree`.
    pub fn lb_mode(mut self, mode: LbMode) -> Self {
        self.lb_mode = mode;
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

    /// Toggle the per-message fast paths: small-payload inlining (no `Arc`
    /// under ~64B), batched-record inline re-publish, the devirtualized
    /// entry-dispatch cache and the threaded backend's burst-drain receive
    /// ring. On by default. `fast_paths(false)` reproduces the pre-fast-path
    /// runtime — results are bit-identical either way (the taskbench
    /// identity suite pins this), only the per-message overhead moves.
    pub fn fast_paths(mut self, on: bool) -> Self {
        self.fast_paths = on;
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
        install_quiet_shutdown_hook();
        self.registry.register::<Main>();
        let codec = match self.dispatch {
            DispatchMode::Native => Codec::Fast,
            DispatchMode::Dynamic => Codec::Pickle,
        };
        let (is_sim, sim_model) = match &self.backend {
            Backend::Threads | Backend::Net(_) => (false, None),
            Backend::Sim(m) => (true, Some(m.clone())),
        };
        // Telemetry sweeps reduce `MetricFrame`s, which carry quantile
        // sketches with no wire form — unsupported across processes (§13.5).
        if matches!(self.backend, Backend::Net(_)) && self.telemetry.is_some() {
            return Err(RunError::Bootstrap(
                "telemetry sweeps are not supported on the Net backend".into(),
            ));
        }
        // The hierarchical LB protocol's control messages have no wire
        // form (orders are issued mid-fold from interior PEs, which the
        // multi-process completion accounting does not cover yet).
        if matches!(self.backend, Backend::Net(_)) && matches!(self.lb_mode, LbMode::Tree { .. }) {
            return Err(RunError::Bootstrap(
                "hierarchical LB (LbMode::Tree) is not supported on the Net backend".into(),
            ));
        }
        // Pre-validate a directory restore — a bad set is a typed error
        // here, not a panic mid-bootstrap — and start fresh checkpoint
        // generations strictly after the restored one.
        let mut ckpt_seq_start = 1;
        let restore = match self.restore_dir.take() {
            Some(dir) => {
                let files = checkpoint::read_all(&dir).map_err(RunError::Restore)?;
                ckpt_seq_start = files[0].epoch + 1;
                Some(RestoreFrom::Dir(dir))
            }
            None => None,
        };
        let registry = Arc::new(std::mem::take(&mut self.registry));
        let placements = Arc::new(self.placements.clone());
        let reducers = Arc::new(self.reducers.clone());
        let entry_fn: crate::pe::CoroLauncher =
            Box::new(move |side| run_coroutine::<Main>(side, entry));
        // analyze: allow(nondeterminism, "wall-clock origin: feeds the report's wall field and the threads backend's real-time clocks; sim ordering runs on virtual time")
        let start = Instant::now();

        // The restart supervisor rebuilds the scheduler config per
        // incarnation (new epoch, new restore source), so the pieces are
        // captured once here.
        let mk_cfg: Box<dyn Fn(u64, Option<RestoreFrom>, u64) -> Arc<SchedCfg>> = {
            let dynamic = self.dispatch == DispatchMode::Dynamic;
            let same_pe_byref = self.same_pe_byref;
            let tree = self.tree;
            let lb = self.lb.clone();
            let lb_mode = self.lb_mode;
            let meter = self.meter;
            let compute_scale = self.compute_scale;
            let sim_model = sim_model.clone();
            let auto_ckpt = self.auto_ckpt.clone();
            let msg_guards = Arc::new(self.msg_guards.clone());
            let trace = self.trace;
            let agg = self.agg;
            let telemetry = self.telemetry.clone();
            let fast_paths = self.fast_paths;
            #[cfg(feature = "analyze")]
            let probe = self.probe.clone();
            Box::new(move |epoch, restore, ckpt_seq_start| {
                Arc::new(SchedCfg {
                    codec,
                    dynamic,
                    same_pe_byref,
                    tree,
                    lb: lb.clone(),
                    lb_mode,
                    meter,
                    compute_scale,
                    sim_model: sim_model.clone(),
                    is_sim,
                    restore,
                    epoch,
                    ckpt_seq_start,
                    auto_ckpt: auto_ckpt.clone(),
                    msg_guards: Arc::clone(&msg_guards),
                    trace,
                    agg,
                    telemetry: telemetry.clone(),
                    fast_paths,
                    #[cfg(feature = "analyze")]
                    analyze_probe: probe.clone(),
                })
            })
        };
        let launch = Launch {
            npes: self.npes,
            registry,
            placements,
            reducers,
            start,
            mk_cfg,
            auto: self.auto_ckpt.clone(),
            recover: self.recover.clone(),
            max_restarts: self.max_restarts,
            restore,
            ckpt_seq_start,
        };

        match self.backend {
            Backend::Threads => run_threads(
                launch,
                self.idle_timeout,
                entry_fn,
                #[cfg(feature = "analyze")]
                self.inject,
            ),
            Backend::Sim(model) => run_sim(
                launch,
                model,
                entry_fn,
                self.permute,
                #[cfg(feature = "analyze")]
                self.inject,
            ),
            Backend::Net(netcfg) => crate::net::run_net(
                launch,
                netcfg,
                self.idle_timeout,
                entry_fn,
                #[cfg(feature = "analyze")]
                self.inject,
            ),
        }
    }
}

#[cfg(feature = "analyze")]
impl Runtime {
    /// Systematically explore every delivery schedule of the program up to
    /// happens-before equivalence (DESIGN.md §11): the sim backend is
    /// re-run under a controlled scheduler while `charm-check`'s DPOR
    /// engine enumerates interleavings, stopping at the first detector
    /// violation, panic, run error, or oracle mismatch. The failing
    /// schedule is shrunk and (with [`CheckCfg::artifact`] set) written as
    /// a replay artifact for [`Runtime::replay_schedule`].
    ///
    /// `entry` must be re-runnable — each explored execution restarts the
    /// program from scratch — hence `Fn`, not the `FnOnce` of
    /// [`Runtime::run`]. Compute metering is forced off so executions are
    /// pure functions of their delivery order; the backend setting is
    /// ignored (exploration always drives the controlled sim loop).
    pub fn check(
        self,
        cfg: crate::check::CheckCfg,
        entry: impl Fn(&mut Co<Main>) + Send + Sync + 'static,
    ) -> crate::check::CheckReport {
        crate::check::run_check(self.into_check_driver(Arc::new(entry)), cfg)
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
            self.into_check_driver(Arc::new(entry)),
            &schedule,
        ))
    }

    /// Package the builder's pieces for the controlled driver — the model
    /// checker's analog of the `Launch` the restart supervisors use.
    fn into_check_driver(
        mut self,
        entry: Arc<dyn Fn(&mut Co<Main>) + Send + Sync>,
    ) -> crate::check::Driver {
        assert!(
            self.restore_dir.is_none(),
            "Runtime::check starts from scratch every execution; run_restored is not supported"
        );
        install_quiet_shutdown_hook();
        self.registry.register::<Main>();
        let codec = match self.dispatch {
            DispatchMode::Native => Codec::Fast,
            DispatchMode::Dynamic => Codec::Pickle,
        };
        // Exploration always runs the controlled sim loop; a configured sim
        // model is honored, the threads backend falls back to the default
        // model (only default delivery *priorities* depend on it).
        let model = match &self.backend {
            Backend::Sim(m) => m.clone(),
            Backend::Threads | Backend::Net(_) => MachineModel::default(),
        };
        let registry = Arc::new(std::mem::take(&mut self.registry));
        let placements = Arc::new(self.placements.clone());
        let reducers = Arc::new(self.reducers.clone());
        let mk_cfg: crate::check::MkCfg = {
            let dynamic = self.dispatch == DispatchMode::Dynamic;
            let same_pe_byref = self.same_pe_byref;
            let tree = self.tree;
            let lb = self.lb.clone();
            let lb_mode = self.lb_mode;
            let compute_scale = self.compute_scale;
            let model = model.clone();
            let auto_ckpt = self.auto_ckpt.clone();
            let msg_guards = Arc::new(self.msg_guards.clone());
            let trace = self.trace;
            let agg = self.agg;
            let telemetry = self.telemetry.clone();
            let fast_paths = self.fast_paths;
            Box::new(move |epoch, restore, ckpt_seq_start, probe| {
                Arc::new(SchedCfg {
                    codec,
                    dynamic,
                    same_pe_byref,
                    tree,
                    lb: lb.clone(),
                    lb_mode,
                    // Metering ties virtual time to measured host time;
                    // forced off so an execution is a pure function of its
                    // delivery order (the replay bit-identity contract).
                    meter: false,
                    compute_scale,
                    sim_model: Some(model.clone()),
                    is_sim: true,
                    restore,
                    epoch,
                    ckpt_seq_start,
                    auto_ckpt: auto_ckpt.clone(),
                    msg_guards: Arc::clone(&msg_guards),
                    trace,
                    agg,
                    telemetry: telemetry.clone(),
                    fast_paths,
                    analyze_probe: Some(probe),
                })
            })
        };
        crate::check::Driver {
            npes: self.npes,
            model,
            registry,
            placements,
            reducers,
            mk_cfg,
            auto: self.auto_ckpt.clone(),
            recover: self.recover.clone(),
            max_restarts: self.max_restarts,
            inject: self.inject,
            entry,
        }
    }
}

/// Everything needed to (re)build a machine incarnation; the restart
/// supervisors re-launch from this after a PE failure.
pub(crate) struct Launch {
    pub(crate) npes: usize,
    registry: Arc<Registry>,
    placements: Arc<Placements>,
    reducers: Arc<CustomReducers>,
    pub(crate) start: Instant,
    pub(crate) mk_cfg: Box<dyn Fn(u64, Option<RestoreFrom>, u64) -> Arc<SchedCfg>>,
    pub(crate) auto: Option<(u64, Store)>,
    recover: Option<Arc<dyn Fn(&mut Co<Main>) + Send + Sync>>,
    pub(crate) max_restarts: u64,
    /// Restore source for the *first* incarnation (`run_restored`).
    pub(crate) restore: Option<RestoreFrom>,
    /// First checkpoint generation the first incarnation may mint.
    pub(crate) ckpt_seq_start: u64,
}

impl Launch {
    pub(crate) fn mk_pe(
        &self,
        pe: Pe,
        entry: Option<crate::pe::CoroLauncher>,
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

    /// Fresh launcher for the recovery entry (it is a reusable `Fn`, unlike
    /// the `FnOnce` consumed by the first incarnation).
    pub(crate) fn recovery_entry(&self) -> Option<crate::pe::CoroLauncher> {
        let f = Arc::clone(self.recover.as_ref()?);
        Some(Box::new(move |side| {
            run_coroutine::<Main>(side, move |co: &mut Co<Main>| f(co))
        }))
    }

    /// Whether a PE failure can even be turned into a restart.
    pub(crate) fn recovery_armed(&self) -> bool {
        self.auto.is_some() && self.recover.is_some()
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
        let own = stores[pe].as_ref().and_then(|s| s.own_at(epoch));
        let held = stores[(pe + 1) % npes]
            .as_ref()
            .and_then(|s| s.held_at(pe, epoch));
        let image = own.or(held)?;
        files.push(checkpoint::decode_image(image).ok()?);
    }
    Some(files)
}

/// How one PE thread's scheduler loop ended.
enum PeEnd {
    /// Clean `Exit`/`Halt`, or channel disconnect.
    Done,
    /// The scheduler loop panicked (an entry method, or an injected kill).
    Panicked(String),
    /// No message arrived within the idle timeout.
    Hung(Duration),
}

/// The failure that brought an incarnation down.
enum Failure {
    Panic(String),
    Hang(Duration),
}

impl Failure {
    fn describe(&self, pe: Pe) -> String {
        match self {
            Failure::Panic(msg) => format!("PE {pe} panicked: {msg}"),
            Failure::Hang(idle) => format!("PE {pe} idle for {idle:?}"),
        }
    }
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

fn run_threads(
    mut launch: Launch,
    idle_timeout: Duration,
    entry_fn: crate::pe::CoroLauncher,
    #[cfg(feature = "analyze")] inject: Option<crate::analyze::InjectFault>,
) -> Result<RunReport, RunError> {
    use std::sync::mpsc as channel;

    let npes = launch.npes;
    let mut entry_slot = Some(entry_fn);
    let mut restore = launch.restore.take();
    let mut seq_start = launch.ckpt_seq_start;
    let mut recoveries = 0u64;

    for epoch in 0u64.. {
        let cfg = (launch.mk_cfg)(epoch, restore.take(), seq_start);
        // First incarnation runs the user's entry; restarts run the
        // recovery entry (the supervisor checked it exists before looping).
        let mut entry = match entry_slot.take() {
            Some(e) => Some(e),
            None => launch.recovery_entry(),
        };
        // An injected PE kill fires only in the first incarnation.
        #[cfg(feature = "analyze")]
        let kill = match inject {
            Some(crate::analyze::InjectFault::KillPe { pe, after_nth }) if epoch == 0 => {
                Some((pe, after_nth))
            }
            _ => None,
        };

        let mut senders = Vec::with_capacity(npes);
        let mut receivers = Vec::with_capacity(npes);
        for _ in 0..npes {
            let (tx, rx) = channel::channel::<Envelope>();
            senders.push(tx);
            receivers.push(rx);
        }
        let mut boot = Envelope::new(0, EnvKind::Bootstrap);
        boot.epoch = epoch;
        senders[0].send(boot).expect("bootstrap send failed");

        type Status = (Pe, PeEnd, PeTrace, u64, CkptStore);
        let (status_tx, status_rx) = channel::channel::<Status>();
        for (pe, rx) in receivers.into_iter().enumerate() {
            let mut state = launch.mk_pe(pe, if pe == 0 { entry.take() } else { None }, &cfg);
            if pe == 0 && epoch > 0 && state.tracer.full() {
                let now = state.now_ns();
                state
                    .tracer
                    .push(now, charm_trace::EventKind::Recovery { epoch });
            }
            let senders = senders.clone();
            let status_tx = status_tx.clone();
            std::thread::Builder::new()
                .name(format!("pe-{pe}"))
                .spawn(move || {
                    #[cfg(feature = "analyze")]
                    let mut qd_handled = 0u64;
                    // The scheduler loop runs under `catch_unwind` so a
                    // dying PE reports its end (and its salvageable buddy
                    // images) instead of taking the process down.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        // Fast path: one channel drain per wakeup fills a
                        // local ring, so the hot loop pops envelopes without
                        // paying channel synchronization per message; a short
                        // sticky spin before the blocking wait absorbs
                        // ping-pong gaps without a sleep/wake round trip.
                        let fast = state.cfg.fast_paths;
                        const RING_BURST: usize = 256;
                        const STICKY_SPINS: u32 = 64;
                        let mut ring: VecDeque<Envelope> = VecDeque::new();
                        loop {
                            // Batched receive: drain the channel in bursts —
                            // one `try_recv` per envelope while the queue is
                            // hot, and the idle bookkeeping (two `now_ns`
                            // reads) only on the transition to the blocking
                            // wait, not per envelope.
                            let env = if let Some(env) = ring.pop_front() {
                                env
                            } else {
                                match rx.try_recv() {
                                    Ok(env) => {
                                        if fast {
                                            while ring.len() < RING_BURST {
                                                match rx.try_recv() {
                                                    Ok(e) => ring.push_back(e),
                                                    Err(_) => break,
                                                }
                                            }
                                        }
                                        env
                                    }
                                    Err(channel::TryRecvError::Disconnected) => return None,
                                    Err(channel::TryRecvError::Empty) => {
                                        // Sticky backoff: spin briefly before
                                        // committing to the blocking wait.
                                        let mut spun = None;
                                        if fast {
                                            for _ in 0..STICKY_SPINS {
                                                std::hint::spin_loop();
                                                if let Ok(env) = rx.try_recv() {
                                                    spun = Some(env);
                                                    break;
                                                }
                                            }
                                        }
                                        if let Some(env) = spun {
                                            env
                                        } else {
                                            // Going idle: release anything parked in
                                            // the aggregation buffers — nobody else
                                            // will flush traffic we are sitting on.
                                            let flush_from = if state.tracer.enabled() {
                                                Some(state.now_ns())
                                            } else {
                                                None
                                            };
                                            if state.flush_aggregation() {
                                                for (dst, env) in state.outbox.drain(..) {
                                                    let _ = senders[dst].send(env);
                                                }
                                            }
                                            // Time spent waiting on the channel is
                                            // the threaded backend's idle time; the
                                            // flush work before it is runtime
                                            // overhead, not idle — otherwise summary
                                            // quanta would not sum to wall time.
                                            let idle_from = flush_from.map(|f0| {
                                                let t0 = state.now_ns();
                                                state.tracer.work_at(
                                                    WorkClass::Overhead,
                                                    t0 - f0,
                                                    t0,
                                                );
                                                t0
                                            });
                                            let env = match rx.recv_timeout(idle_timeout) {
                                                Ok(env) => env,
                                                Err(channel::RecvTimeoutError::Timeout) => {
                                                    return Some(idle_timeout);
                                                }
                                                Err(channel::RecvTimeoutError::Disconnected) => {
                                                    return None;
                                                }
                                            };
                                            if let Some(t0) = idle_from {
                                                let t1 = state.now_ns();
                                                state.tracer.idle(t0, t1);
                                            }
                                            env
                                        }
                                    }
                                }
                            };
                            #[cfg(feature = "analyze")]
                            if let Some((victim, after_nth)) = kill {
                                // Weighted by constituent count so a batch
                                // advances the delivery clock like the
                                // messages it carries would have unbatched.
                                let w = env.kind.qd_weight();
                                if victim == pe && w > 0 && env.epoch == 0 {
                                    let n = qd_handled;
                                    qd_handled += w;
                                    if n <= after_nth && after_nth < n + w {
                                        // The injected PE failure is a deliberate
                                        // panic the restart supervisor must catch
                                        // and recover from.
                                        panic!(
                                            "injected PE failure on PE {pe} (after {after_nth} deliveries)"
                                        );
                                    }
                                }
                            }
                            state.handle(env);
                            for (dst, env) in state.outbox.drain(..) {
                                // A send failing means the destination
                                // already exited — the message is moot.
                                let _ = senders[dst].send(env);
                            }
                            if state.exited {
                                return None;
                            }
                        }
                    }));
                    let end = match outcome {
                        Ok(Some(idle)) => PeEnd::Hung(idle),
                        Ok(None) => PeEnd::Done,
                        Err(p) => PeEnd::Panicked(panic_msg(p)),
                    };
                    let trace = state.finish_trace();
                    let lb = state.lb_epochs();
                    let store = std::mem::take(&mut state.ckpt_store);
                    let _ = status_tx.send((pe, end, trace, lb, store));
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
        let mut lb_total = 0u64;
        let mut dead: Option<(Pe, Failure)> = None;
        let mut deadline: Option<Instant> = None;
        let mut got = 0usize;
        while got < npes {
            let received = match deadline {
                None => status_rx.recv().ok(),
                Some(d) => status_rx
                    // analyze: allow(nondeterminism, "threads-backend supervisor deadline; wall time by design, the sim driver never runs this loop")
                    .recv_timeout(d.saturating_duration_since(Instant::now()))
                    .ok(),
            };
            let Some((pe, end, trace, lb, store)) = received else {
                break;
            };
            got += 1;
            traces[pe] = Some(trace);
            lb_total += lb;
            let failure = match end {
                PeEnd::Done => {
                    stores[pe] = Some(store);
                    None
                }
                // A panicked PE is dead: its memory is gone in the machine
                // model, so its salvage is dropped and recovery must come
                // from the buddy copy (or disk).
                PeEnd::Panicked(msg) => Some(Failure::Panic(msg)),
                PeEnd::Hung(idle) => {
                    stores[pe] = Some(store);
                    Some(Failure::Hang(idle))
                }
            };
            if let Some(f) = failure {
                if dead.is_none() {
                    dead = Some((pe, f));
                    // analyze: allow(nondeterminism, "threads-backend supervisor deadline; wall time by design, the sim driver never runs this loop")
                    deadline = Some(Instant::now() + idle_timeout + Duration::from_secs(2));
                    for tx in &senders {
                        let mut halt = Envelope::new(0, EnvKind::Halt);
                        halt.epoch = epoch;
                        let _ = tx.send(halt);
                    }
                }
            }
        }
        drop(senders);

        let Some((dead_pe, fail)) = dead else {
            let wall = launch.start.elapsed();
            let traces: Vec<PeTrace> = traces.into_iter().flatten().collect();
            return Ok(finish_report(
                wall, wall, lb_total, recoveries, true, traces,
            ));
        };
        if !launch.recovery_armed() {
            return Err(match fail {
                Failure::Panic(msg) => RunError::PePanic { pe: dead_pe, msg },
                Failure::Hang(idle) => RunError::Hang { pe: dead_pe, idle },
            });
        }
        if recoveries >= launch.max_restarts {
            return Err(RunError::RestartsExhausted {
                attempts: recoveries,
                last: fail.describe(dead_pe),
            });
        }
        let (generation, src) = match launch.recovery_source(&stores) {
            Ok(x) => x,
            Err(reason) => {
                return Err(RunError::RecoveryImpossible {
                    reason,
                    failure: fail.describe(dead_pe),
                });
            }
        };
        recoveries += 1;
        restore = Some(src);
        seq_start = generation + 1;
    }
    unreachable!("restart loop returns from within");
}

/// Fold the per-PE traces into the run report (shared by both backends and
/// the model checker's controlled driver).
pub(crate) fn finish_report(
    wall: Duration,
    time: Duration,
    lb_epochs: u64,
    recoveries: u64,
    clean_exit: bool,
    pes: Vec<PeTrace>,
) -> RunReport {
    let mut msgs = 0;
    let mut bytes = 0;
    let mut entries = 0;
    let mut migrations = 0;
    for t in &pes {
        msgs += t.perf.msgs_processed;
        bytes += t.perf.bytes_sent_remote;
        entries += t.perf.entries;
        migrations += t.perf.migrations;
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
        msgs,
        bytes,
        entries,
        migrations,
        lb_epochs,
        recoveries,
        clean_exit,
        pe_stats,
        telemetry,
        trace: enabled.then(|| TraceReport { pes }),
    }
}

/// Ship one PE's drained outbox into the sim event queue: per envelope,
/// optionally inject a network fault, model the latency, apply the schedule
/// permutation, and (under `analyze`) clamp per-channel arrivals FIFO. An
/// aggregation batch passes through here as ONE envelope — one latency
/// event for the whole frame is the modeled win of aggregation; the
/// receiver then pays per-message unpack cost when it splits the frame.
#[allow(clippy::too_many_arguments)]
fn ship_outbox(
    src: Pe,
    now_ns: u64,
    outbox: &mut Vec<(Pe, Envelope)>,
    model: &MachineModel,
    permuter: &mut Option<charm_sim::PermuteSchedule>,
    events: &mut EventQueue<(Pe, Envelope)>,
    #[cfg(feature = "analyze")] inject_state: &mut Option<(crate::analyze::InjectFault, u64)>,
    #[cfg(feature = "analyze")] last_arrival: &mut std::collections::HashMap<(Pe, Pe), u64>,
) {
    // Drained in place: the caller keeps the Vec so its capacity is reused
    // for the next event instead of reallocating once per delivery.
    for (dst, env) in outbox.drain(..) {
        #[cfg(feature = "analyze")]
        let mut duplicate: Option<Envelope> = None;
        #[cfg(feature = "analyze")]
        if let Some((fault, count)) = inject_state {
            if env.kind.counts_for_qd() {
                let n = *count;
                *count += 1;
                match *fault {
                    crate::analyze::InjectFault::DropNth(k) if k == n => continue,
                    crate::analyze::InjectFault::DuplicateNth(k) if k == n => {
                        duplicate = env.try_clone();
                    }
                    _ => {}
                }
            }
        }
        let delay = model.msg_delay(src, dst, env.kind.size_hint());
        let mut at = VTime::from_nanos(now_ns) + delay;
        if let Some(p) = permuter {
            at = p.delivery_time(src, dst, at);
        }
        #[cfg(feature = "analyze")]
        {
            let last = last_arrival.entry((src, dst)).or_insert(0);
            if at.as_nanos() <= *last {
                at = VTime::from_nanos(*last + 1);
            }
            *last = at.as_nanos();
        }
        events.push(at, (dst, env));
        #[cfg(feature = "analyze")]
        if let Some(dup) = duplicate {
            // The duplicate trails the original on the same channel,
            // like a network-level retransmission.
            let at2 = VTime::from_nanos(at.as_nanos() + 1);
            last_arrival.insert((src, dst), at2.as_nanos());
            events.push(at2, (dst, dup));
        }
    }
}

fn run_sim(
    mut launch: Launch,
    model: MachineModel,
    entry_fn: crate::pe::CoroLauncher,
    permute: Option<u64>,
    #[cfg(feature = "analyze")] inject: Option<crate::analyze::InjectFault>,
) -> Result<RunReport, RunError> {
    let npes = launch.npes;
    // The epoch/cfg/recovery state only changes on an injected PE kill,
    // which exists under `analyze` alone — hence the gated `mut`s.
    #[cfg_attr(not(feature = "analyze"), allow(unused_mut))]
    let mut cur_epoch = 0u64;
    #[cfg_attr(not(feature = "analyze"), allow(unused_mut))]
    let mut cfg = (launch.mk_cfg)(cur_epoch, launch.restore.take(), launch.ckpt_seq_start);
    let mut entry_slot = Some(entry_fn);
    let mut pes: Vec<PeState> = (0..npes)
        .map(|pe| launch.mk_pe(pe, if pe == 0 { entry_slot.take() } else { None }, &cfg))
        .collect();
    let mut events: EventQueue<(Pe, Envelope)> = EventQueue::new();
    events.push(VTime::ZERO, (0, Envelope::new(0, EnvKind::Bootstrap)));
    #[cfg_attr(not(feature = "analyze"), allow(unused_mut))]
    let mut recoveries = 0u64;

    // Schedule permutation: deterministic per-seed jitter on delivery
    // times, preserving per-channel FIFO (the ordering real networks and
    // the threads backend guarantee).
    let mut permuter = permute.map(charm_sim::PermuteSchedule::new);
    // Per-channel arrival clamp: the baseline delay model is size-dependent
    // and may reorder one channel's messages; under the detector we pin
    // channels FIFO so an ordering violation is a runtime bug, not a model
    // artifact.
    #[cfg(feature = "analyze")]
    let mut last_arrival: std::collections::HashMap<(Pe, Pe), u64> =
        std::collections::HashMap::new();
    // Network fault injection: (fault, count of QD-counted envelopes shipped).
    #[cfg(feature = "analyze")]
    let mut inject_state = match inject {
        Some(crate::analyze::InjectFault::KillPe { .. }) | None => None,
        Some(f) => Some((f, 0u64)),
    };
    // PE-kill injection: (victim, after_nth, deliveries seen). Armed only
    // until it fires, so the recovery attempt is not re-killed.
    #[cfg(feature = "analyze")]
    let mut kill = match inject {
        Some(crate::analyze::InjectFault::KillPe { pe, after_nth }) => Some((pe, after_nth, 0u64)),
        _ => None,
    };

    let mut clean_exit = false;
    loop {
        let Some((t, (pe, env))) = events.pop() else {
            // The event queue drained — but with aggregation on, traffic
            // may still be parked in sender-side buffers (nothing else in
            // flight will flush them). This is the scheduler-idle flush
            // trigger: release every PE's buffers at its own clock, in PE
            // order (deterministic), and keep simulating. A quiescent
            // machine with empty buffers falls through to the exit path.
            let mut flushed = false;
            for src in 0..npes {
                if pes[src].flush_aggregation() {
                    flushed = true;
                    let state = &mut pes[src];
                    let now = state.clock_ns;
                    ship_outbox(
                        src,
                        now,
                        &mut state.outbox,
                        &model,
                        &mut permuter,
                        &mut events,
                        #[cfg(feature = "analyze")]
                        &mut inject_state,
                        #[cfg(feature = "analyze")]
                        &mut last_arrival,
                    );
                }
            }
            if flushed {
                continue;
            }
            break;
        };
        #[cfg(feature = "analyze")]
        {
            let mut fire = false;
            if let Some((victim, after_nth, count)) = &mut kill {
                // Weighted by constituent count so a batch advances the
                // delivery clock like the messages it carries would have
                // unbatched.
                let w = env.kind.qd_weight();
                if *victim == pe && w > 0 && env.epoch == cur_epoch {
                    let n = *count;
                    *count += w;
                    fire = n <= *after_nth && *after_nth < n + w;
                }
            }
            if fire {
                // The victim dies just as it would handle this envelope:
                // its state (with its own checkpoint images) is discarded,
                // the envelope is lost with it, and the machine restarts
                // from the newest complete generation. Everything else in
                // the event queue is pre-failure traffic that the epoch
                // guard will discard on delivery.
                kill = None;
                let victim = pe;
                let failure = format!("injected failure of PE {victim}");
                if !launch.recovery_armed() {
                    return Err(RunError::RecoveryImpossible {
                        reason: "automatic checkpointing or the recovery entry is not armed".into(),
                        failure,
                    });
                }
                if recoveries >= launch.max_restarts {
                    return Err(RunError::RestartsExhausted {
                        attempts: recoveries,
                        last: failure,
                    });
                }
                let stores: Vec<Option<CkptStore>> = pes
                    .iter_mut()
                    .enumerate()
                    .map(|(i, p)| (i != victim).then(|| std::mem::take(&mut p.ckpt_store)))
                    .collect();
                let (generation, src) = match launch.recovery_source(&stores) {
                    Ok(x) => x,
                    Err(reason) => {
                        return Err(RunError::RecoveryImpossible { reason, failure });
                    }
                };
                recoveries += 1;
                cur_epoch += 1;
                cfg = (launch.mk_cfg)(cur_epoch, Some(src), generation + 1);
                let t_ns = t.as_nanos();
                let mut entry = launch.recovery_entry();
                pes = (0..npes)
                    .map(|p| {
                        let mut st =
                            launch.mk_pe(p, if p == 0 { entry.take() } else { None }, &cfg);
                        // The new incarnation continues on the same virtual
                        // timeline.
                        st.clock_ns = t_ns;
                        st
                    })
                    .collect();
                if pes[0].tracer.full() {
                    pes[0]
                        .tracer
                        .push(t_ns, charm_trace::EventKind::Recovery { epoch: cur_epoch });
                }
                let mut boot = Envelope::new(0, EnvKind::Bootstrap);
                boot.epoch = cur_epoch;
                events.push(t, (0, boot));
                continue;
            }
        }
        let state = &mut pes[pe];
        // An arrival past this PE's clock means the PE sat idle for the gap.
        let t_ns = t.as_nanos();
        if t_ns > state.clock_ns {
            state.tracer.idle(state.clock_ns, t_ns);
            state.clock_ns = t_ns;
        }
        state.handle(env);
        state.clock_ns += std::mem::take(&mut state.event_work_ns);
        let now = state.clock_ns;
        let exited = state.exited;
        ship_outbox(
            pe,
            now,
            &mut state.outbox,
            &model,
            &mut permuter,
            &mut events,
            #[cfg(feature = "analyze")]
            &mut inject_state,
            #[cfg(feature = "analyze")]
            &mut last_arrival,
        );
        if exited {
            clean_exit = true;
            break;
        }
    }

    // Send/deliver accounting must balance once the machine is quiescent:
    // a drained queue with sent ids never delivered means lost envelopes.
    // (After a recovery, the accounting covers the final incarnation —
    // stale-epoch envelopes are discarded before the detector sees them.)
    #[cfg(feature = "analyze")]
    crate::analyze::check_balance(
        pes.iter().map(|p| p.det_summary()).collect(),
        !clean_exit,
        pes[0].cfg.analyze_probe.as_ref(),
    );
    // The trace counters must agree with the detector: every QD-counted
    // send has a matching handle once the machine drains.
    #[cfg(feature = "analyze")]
    crate::analyze::check_counter_balance(
        &pes.iter().map(|p| p.counter_totals()).collect::<Vec<_>>(),
        !clean_exit,
        pes[0].cfg.analyze_probe.as_ref(),
    );

    if !clean_exit {
        eprintln!("charm-rs sim: event queue drained without exit() — stalled state:");
        for p in &pes {
            p.debug_dump();
        }
    }
    let makespan = pes.iter().map(|p| p.clock_ns).max().unwrap_or(0);
    let lb_epochs = pes[0].lb_epochs();
    let traces: Vec<PeTrace> = pes.iter_mut().map(|p| p.finish_trace()).collect();
    Ok(finish_report(
        launch.start.elapsed(),
        Duration::from_nanos(makespan),
        lb_epochs,
        recoveries,
        clean_exit,
        traces,
    ))
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
