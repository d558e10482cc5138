//! The per-PE scheduler: message-driven execution, guarded delivery,
//! coroutine orchestration, reductions, location management, migration and
//! the load-balancing / quiescence protocols.
//!
//! `PeState` is transport-agnostic: handling an envelope never blocks on
//! the network — outgoing traffic is queued in `outbox` and shipped by the
//! driver (`driver.rs`) over whichever transport the backend provides.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use charm_sim::MachineModel;
use charm_trace::{EntryKind, PeTracer, TraceConfig, WorkClass};
use charm_wire::{Codec, EncodePool, WireBytes};

use crate::chare::{MsgGuards, Registry};
use crate::checkpoint::{self, CkptChare, CkptFile, Store};
use crate::collections::{CollKind, CollSpec, CollState, CollTable, Placements};
use crate::coro::{CoroHandle, CoroInput, CoroSide, CoroYield, WaitKind};
use crate::ctx::{Ctx, CtxSeed, Op};
use crate::future::{FutState, FutTable};
use crate::ids::{ChareId, CollectionId, CoroId, FutureId, Index, Pe};
use crate::lb::{
    greedy_refine_place, refine_limit, spill_cap, truncate_acceptors, truncate_spill, LbCentral,
    LbChareStat, LbMode, LbPeState, LbStats, LbStrategy, LbTreePe, LbTreeReport,
    REFINE_THRESHOLD_PERMILLE,
};
use crate::msg::{BoxMsg, EnvKind, Envelope, MigrateMsg, OutPayload, Payload, TelemetryBody};
use crate::quiescence::{QdCentral, QdPeState};
use crate::reduction::{combine, CustomReducers, RedData, RedTable, RedTarget, Reducer};
use crate::tree::TreeShape;

/// Scheduler configuration, the same on every backend.
#[derive(Clone)]
pub(crate) struct SchedCfg {
    pub codec: Codec,
    /// §II-D same-PE by-reference optimization (ablation toggle).
    pub same_pe_byref: bool,
    pub tree: TreeShape,
    pub lb: Option<Arc<dyn LbStrategy>>,
    /// How AtSync load balancing is coordinated (`Central` reproduces the
    /// pre-hierarchical protocol bit for bit).
    pub lb_mode: LbMode,
    /// Charge measured handler time to the virtual clock (sim backend).
    pub meter: bool,
    /// Machine model (sim backend only) for the dynamic-dispatch overhead.
    pub sim_model: Option<MachineModel>,
    pub is_sim: bool,
    /// Restore a checkpoint at bootstrap (PE 0).
    pub restore: Option<RestoreFrom>,
    /// Recovery epoch (machine incarnation): 0 on first launch, bumped by
    /// the supervisor on every restart. Stamped into each emitted envelope;
    /// `PeState::handle` discards mismatches as stale pre-failure traffic.
    pub epoch: u64,
    /// First checkpoint-generation number this incarnation may mint —
    /// strictly above every generation already committed, so fresh images
    /// never alias the one just restored from.
    pub ckpt_seq_start: u64,
    /// Automatic checkpointing `(every, store)`: PE 0 snapshots the machine
    /// at every `every`-th completed quiescence round.
    pub auto_ckpt: Option<(u64, Store)>,
    /// Registered per-message when-conditions.
    pub msg_guards: Arc<MsgGuards>,
    /// Tracing level + ring capacity for every PE's tracer.
    pub trace: TraceConfig,
    /// TRAM-style per-destination aggregation thresholds; `None` = off.
    pub agg: Option<crate::runtime::AggCfg>,
    /// In-band telemetry: reduce a cluster-wide [`charm_trace::MetricFrame`]
    /// to PE 0 at every `every`-th completed quiescence round; `None` = off.
    pub telemetry: Option<crate::runtime::TelemetryCfg>,
    /// Sink for race-detector findings (tests); `None` panics on violation.
    #[cfg(feature = "analyze")]
    pub analyze_probe: Option<crate::analyze::FaultProbe>,
}

impl SchedCfg {
    /// Dynamic (CharmPy-like) dispatch: pickle codec + interpreter overhead.
    pub fn dynamic(&self) -> bool {
        self.codec == Codec::Pickle
    }
}

/// Where PE 0's bootstrap restores the machine from.
#[derive(Clone)]
pub(crate) enum RestoreFrom {
    /// A directory of `pe<N>.ckpt` files (the `run_restored` path).
    Dir(std::path::PathBuf),
    /// Decoded images assembled by the restart supervisor from the PEs' own
    /// and buddy-held in-memory copies.
    Images(Vec<CkptFile>),
}

/// Launcher type for coroutines (the boxed closure spawned on a thread).
pub(crate) type CoroLauncher = Box<dyn FnOnce(CoroSide) + Send + 'static>;

/// An in-progress machine-wide checkpoint tracked on the initiating PE.
enum CkptPending {
    /// `ctx.checkpoint(dir)`: completes the caller's future with the total
    /// chare count once every PE has acked.
    Manual {
        fid: FutureId,
        left: usize,
        total: u64,
    },
    /// Automatic checkpoint taken at quiescence (PE 0): the quiescence
    /// waiters are held until every PE has committed, so the application
    /// only resumes against fully saved state. `telemetry` marks that a
    /// telemetry sweep fell due at the same quiescence round and must run
    /// (machine still quiescent, waiters still parked) once the last PE
    /// acks.
    Auto {
        left: usize,
        waiters: Vec<FutureId>,
        telemetry: bool,
    },
}

/// In-memory checkpoint images one PE holds under `Store::Memory` buddy
/// checkpointing: its own images plus the copies it keeps for its buddy
/// (PE `self - 1 mod npes`). The last two generations are retained, so a
/// failure mid-generation `e` still finds generation `e - 1` complete.
#[derive(Default)]
pub(crate) struct CkptStore {
    own: Vec<(u64, WireBytes)>,
    held: Vec<(Pe, u64, WireBytes)>,
}

impl CkptStore {
    /// Generations retained per slot (current + previous).
    const KEEP: usize = 2;

    fn store_own(&mut self, epoch: u64, image: WireBytes) {
        self.own.retain(|(e, _)| *e != epoch);
        self.own.push((epoch, image));
        self.own.sort_by_key(|(e, _)| *e);
        while self.own.len() > Self::KEEP {
            self.own.remove(0);
        }
    }

    fn store_held(&mut self, owner: Pe, epoch: u64, image: WireBytes) {
        self.held.retain(|(o, e, _)| *o != owner || *e != epoch);
        self.held.push((owner, epoch, image));
        self.held.sort_by_key(|(_, e, _)| *e);
        while self.held.iter().filter(|(o, _, _)| *o == owner).count() > Self::KEEP {
            if let Some(i) = self.held.iter().position(|(o, _, _)| *o == owner) {
                self.held.remove(i);
            }
        }
    }

    /// This PE's own image for generation `epoch`.
    pub(crate) fn own_at(&self, epoch: u64) -> Option<&WireBytes> {
        self.own.iter().find(|(e, _)| *e == epoch).map(|(_, b)| b)
    }

    /// The copy held on behalf of `owner` for generation `epoch`.
    pub(crate) fn held_at(&self, owner: Pe, epoch: u64) -> Option<&WireBytes> {
        self.held
            .iter()
            .find(|(o, e, _)| *o == owner && *e == epoch)
            .map(|(_, _, b)| b)
    }

    /// Every generation this store has any image for, ascending.
    pub(crate) fn epochs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .own
            .iter()
            .map(|(e, _)| *e)
            .chain(self.held.iter().map(|(_, e, _)| *e))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// A when-guard-deferred message.
struct Buffered {
    msg: BoxMsg,
    reply: Option<FutureId>,
    /// Per-message when-condition id, if the sender attached one.
    guard: Option<u32>,
}

/// One local chare.
struct Slot {
    boxed: Option<Box<dyn crate::chare::ChareBox>>,
    /// When-guard-deferred messages in arrival order. A deque so the drain
    /// in `after_state_change` can pull the ready message without shifting
    /// the whole tail: the common case (front is ready) pops in O(1),
    /// where a `Vec::remove` drain degraded to O(n²) over a long buffer.
    buffered: VecDeque<Buffered>,
    load_ns: u64,
    red_seq: u64,
    at_sync: bool,
    coros: Vec<CoroId>,
    /// PEs that still hold a forwarding stub chain for this chare from its
    /// previous migrations. Travels with the chare; when it reaches
    /// [`MAX_FWD_HOPS`] the arrival PE broadcasts its location to every
    /// stub holder and the chain collapses, bounding forward latency.
    fwd_trail: Vec<Pe>,
}

impl Slot {
    fn new(boxed: Box<dyn crate::chare::ChareBox>) -> Slot {
        Slot {
            boxed: Some(boxed),
            buffered: VecDeque::new(),
            load_ns: 0,
            red_seq: 0,
            at_sync: false,
            coros: Vec::new(),
            fwd_trail: Vec::new(),
        }
    }
}

enum Route {
    Local,
    /// `.1` is true when the destination came from a forwarding stub in
    /// `locations` (the chare lived here and migrated away) rather than
    /// a direct location record or initial placement.
    Remote(Pe, bool),
    /// This PE is the element's home but does not (yet) know a location.
    BufferHere,
    UnknownColl,
}

/// What to run on a chare.
enum Invoke {
    Entry(BoxMsg, Option<FutureId>, Option<u32>),
    Reduced(u32, RedData),
    ResumeFromSync,
}

/// One destination's pending aggregation buffer (TRAM-style coalescing,
/// `SchedCfg::agg`): small outgoing entry messages accumulate here as
/// length-prefixed records until a flush turns the frame into one
/// [`EnvKind::Batch`] envelope. The frame `Vec` is cleared, never dropped,
/// on flush, so its capacity is reused like an encode-pool buffer.
#[derive(Default)]
struct AggBuf {
    /// Record-framed constituents (see `msg::push_batch_record`).
    frame: Vec<u8>,
    /// Number of records in `frame`.
    count: u32,
}

/// A chare type's resolved message decoder.
type DecodeFn = fn(Codec, &[u8]) -> charm_wire::Result<BoxMsg>;

/// Per-PE devirtualized entry-dispatch cache (`DispatchMode::Native`).
///
/// Steady-state delivery used to pay a `colls` hash lookup plus a registry
/// vtable indirection per decoded message just to rediscover a function
/// pointer that never changes for a given collection. This caches the
/// resolved `CollectionId → decode fn` pairs; with the handful of live
/// collections a PE hosts, the linear probe over a dense vec is one or two
/// compares on the hot path. Conservatively cleared whenever a collection
/// spec lands (creation or post-recovery restore).
#[derive(Default)]
struct DispatchCache {
    slots: Vec<(CollectionId, DecodeFn)>,
    hits: u64,
    misses: u64,
}

impl DispatchCache {
    #[inline]
    fn lookup(&mut self, coll: CollectionId) -> Option<DecodeFn> {
        for &(c, f) in &self.slots {
            if c == coll {
                self.hits += 1;
                return Some(f);
            }
        }
        self.misses += 1;
        None
    }

    fn insert(&mut self, coll: CollectionId, f: DecodeFn) {
        self.slots.push((coll, f));
    }

    /// Drop every cached resolution (a collection spec just changed hands).
    fn clear(&mut self) {
        self.slots.clear();
    }
}

pub(crate) struct PeState {
    pub pe: Pe,
    pub npes: usize,
    pub cfg: Arc<SchedCfg>,
    seed: CtxSeed,
    registry: Arc<Registry>,
    placements: Arc<Placements>,
    reducers: Arc<CustomReducers>,

    chares: HashMap<ChareId, Slot>,
    colls: CollTable,
    pending_coll: HashMap<CollectionId, Vec<Envelope>>,
    pending_chare: HashMap<ChareId, Vec<Envelope>>,
    locations: HashMap<ChareId, Pe>,
    futures: FutTable,
    coros: HashMap<u64, CoroHandle>,
    next_coro: u64,
    reds: RedTable,

    /// Scratch buffers for message encodes on this PE's send path.
    encode_pool: EncodePool,
    /// Devirtualized `CollectionId → decode fn` cache for native dispatch.
    dispatch_cache: DispatchCache,
    /// Per-destination aggregation buffers (`cfg.agg` on; empty when off).
    agg_bufs: Vec<AggBuf>,
    /// Reusable header-encode scratch for batch records.
    agg_scratch: Vec<u8>,
    /// Cached wall timestamp for the threads send path: refreshed once per
    /// handled envelope instead of read (`Instant::now`) once per emitted
    /// envelope — measurably hot under fine-grained fan-out.
    now_cache_ns: u64,

    lb: LbPeState,
    lb_central: LbCentral,
    /// Hierarchical-LB ([`LbMode::Tree`]) per-epoch state; also tracks the
    /// peak LB stat count this PE materialized (both modes).
    lb_tree: LbTreePe,
    /// Entry messages this PE forwarded on behalf of a departed chare (a
    /// forwarding-stub hit in `locations`); reported as `PePerf::fwd_hops`.
    fwd_hops: u64,
    /// In-progress checkpoint initiated on this PE.
    ckpt: Option<CkptPending>,
    /// In-memory images (own + buddy-held) under `Store::Memory`; salvaged
    /// by the restart supervisor after a PE failure.
    pub ckpt_store: CkptStore,
    /// Next checkpoint generation this PE mints when it initiates one.
    next_ckpt_epoch: u64,
    /// PE 0: completed quiescence rounds (drives the auto-ckpt cadence).
    qd_completions: u64,
    qd_pe: QdPeState,
    qd_central: QdCentral,

    /// PE 0: next telemetry sweep sequence number.
    tel_seq: u64,
    /// PE 0: a sweep is in flight (waiters parked in `tel_waiters`).
    tel_active: bool,
    /// Child subtree frames still owed for the sweep crossing this node.
    tel_pending: usize,
    /// This node's partially merged frame for the sweep in progress.
    tel_acc: Option<Box<charm_trace::MetricFrame>>,
    /// Tree root of the sweep in progress (parent routing).
    tel_root: Pe,
    /// PE 0: quiescence waiters held until the merged frame lands.
    tel_waiters: Vec<FutureId>,
    /// PE 0: the retained telemetry time series (`RunReport::telemetry`).
    tel_series: Vec<charm_trace::MetricFrame>,
    /// Hot-chare sketch (charged entry nanoseconds), sampled into frames.
    tel_sketch: charm_trace::SpaceSaving<ChareId>,

    /// Outgoing envelopes, drained by the driver after each event.
    pub outbox: Vec<(Pe, Envelope)>,
    /// Trace recorder: always-on counters (quiescence detection +
    /// `RunReport`) plus, by level, aggregates and the event ring.
    pub tracer: PeTracer,
    /// Compute time accrued during the current event (sim backend);
    /// drained by the driver into the PE's virtual clock.
    pub event_work_ns: u64,
    /// Virtual clock (sim backend); maintained by the driver.
    pub clock_ns: u64,
    /// Real-time origin (threaded backend).
    start: Instant,
    /// Set when this PE has processed `Exit`.
    pub exited: bool,

    /// PE 0 only: the main entry coroutine body, consumed at `Bootstrap`.
    pub entry: Option<CoroLauncher>,
    /// PE 0, restore path: the entry launch waits on this internal future
    /// (completed by quiescence detection once every restored chare landed).
    entry_gate: Option<FutureId>,
    main_id: ChareId,

    /// Happens-before detector (vector clocks + send/deliver accounting).
    #[cfg(feature = "analyze")]
    pub det: crate::analyze::Detector,
}

/// Longest forwarding-pointer chain a repeatedly-migrating chare may leave
/// behind. Each migration leaves a stub on the departing PE (so in-flight
/// senders still reach the chare in one extra hop); once the trail carried
/// in the migration message reaches this bound, the arrival PE collapses
/// the whole chain with `LocationUpdate`s — location lookups stay O(1)
/// with at most `MAX_FWD_HOPS` extra hops, independent of migration count.
pub const MAX_FWD_HOPS: usize = 4;

/// Identity of the built-in main chare (hosted on PE 0).
pub(crate) fn main_chare_id() -> ChareId {
    ChareId {
        coll: CollectionId {
            creator: u32::MAX,
            seq: 0,
        },
        index: Index::SINGLE,
    }
}

impl PeState {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        pe: Pe,
        npes: usize,
        cfg: Arc<SchedCfg>,
        registry: Arc<Registry>,
        placements: Arc<Placements>,
        reducers: Arc<CustomReducers>,
        start: Instant,
        entry: Option<CoroLauncher>,
    ) -> PeState {
        let seed = CtxSeed {
            pe,
            npes,
            codec: cfg.codec,
            epoch: cfg.epoch,
            fut_seq: Arc::new(AtomicU64::new(0)),
            coll_seq: Arc::new(AtomicU32::new(0)),
            registry: Arc::clone(&registry),
        };
        #[cfg(feature = "analyze")]
        let det = crate::analyze::Detector::new(pe, npes, cfg.epoch, cfg.analyze_probe.clone());
        let cfg_trace = cfg.trace;
        let cfg_seq_start = cfg.ckpt_seq_start;
        let agg_on = cfg.agg.is_some();
        PeState {
            pe,
            npes,
            cfg,
            seed,
            registry,
            placements,
            reducers,
            chares: HashMap::new(),
            colls: HashMap::new(),
            pending_coll: HashMap::new(),
            pending_chare: HashMap::new(),
            locations: HashMap::new(),
            futures: HashMap::new(),
            coros: HashMap::new(),
            next_coro: 0,
            reds: HashMap::new(),
            encode_pool: EncodePool::new(),
            dispatch_cache: DispatchCache::default(),
            agg_bufs: if agg_on {
                (0..npes).map(|_| AggBuf::default()).collect()
            } else {
                Vec::new()
            },
            agg_scratch: Vec::new(),
            now_cache_ns: 0,
            lb: LbPeState::default(),
            lb_central: LbCentral::default(),
            lb_tree: LbTreePe::default(),
            fwd_hops: 0,
            ckpt: None,
            ckpt_store: CkptStore::default(),
            next_ckpt_epoch: cfg_seq_start,
            qd_completions: 0,
            qd_pe: QdPeState::default(),
            qd_central: QdCentral::default(),
            tel_seq: 0,
            tel_active: false,
            tel_pending: 0,
            tel_acc: None,
            tel_root: 0,
            tel_waiters: Vec::new(),
            tel_series: Vec::new(),
            tel_sketch: charm_trace::SpaceSaving::new(charm_trace::DEFAULT_TOP_K),
            outbox: Vec::new(),
            tracer: PeTracer::new(&cfg_trace),
            event_work_ns: 0,
            clock_ns: 0,
            start,
            exited: false,
            entry,
            entry_gate: None,
            main_id: main_chare_id(),
            #[cfg(feature = "analyze")]
            det,
        }
    }

    /// Send/deliver id accounting for the end-of-run balance check.
    #[cfg(feature = "analyze")]
    pub fn det_summary(&self) -> (Vec<u64>, Vec<u64>) {
        self.det.summary()
    }

    /// Current time in nanoseconds (virtual under sim, real elapsed under
    /// threads).
    pub fn now_ns(&self) -> u64 {
        if self.cfg.is_sim {
            self.clock_ns + self.event_work_ns
        } else {
            self.start.elapsed().as_nanos() as u64
        }
    }

    fn new_ctx(&self, this: Option<ChareId>) -> Ctx {
        Ctx::new(self.seed.clone(), self.now_ns(), this)
    }

    /// Timestamp for send-path trace events. Under threads this reads the
    /// cache refreshed once per handled envelope (`handle`) rather than
    /// calling `Instant::now` per emitted envelope; the trace ring's
    /// monotone clamp absorbs the sub-event coarseness.
    fn send_ts_ns(&self) -> u64 {
        if self.cfg.is_sim {
            self.clock_ns + self.event_work_ns
        } else {
            self.now_cache_ns
        }
    }

    /// Queue an envelope for `dst` (counting for QD and traffic stats).
    ///
    /// All *logical* accounting happens here, per message — QD counts,
    /// per-PE send counters, detector trace minting — regardless of whether
    /// the envelope then travels alone or coalesced inside a batch frame,
    /// so aggregation never perturbs `RunReport` message/byte totals or
    /// quiescence arithmetic.
    fn emit(&mut self, dst: Pe, kind: EnvKind) {
        if kind.counts_for_qd() {
            self.tracer.counters.sent += 1;
        }
        let remote = dst != self.pe;
        if remote || self.tracer.enabled() {
            let sz = kind.size_hint() as u64;
            if remote {
                self.tracer.counters.bytes += sz;
            }
            self.tracer.msg_send(sz, remote);
            if self.tracer.full() {
                let now = self.send_ts_ns();
                self.tracer.push(
                    now,
                    charm_trace::EventKind::MsgSend {
                        bytes: sz.min(u32::MAX as u64) as u32,
                        remote,
                    },
                );
            }
        }
        let mut env = Envelope::new(self.pe, kind);
        env.epoch = self.cfg.epoch;
        // Emission stamp for the receiver-side send→deliver latency sample;
        // 0 (tracing off) records nothing.
        if self.tracer.enabled() {
            env.sent_ns = self.send_ts_ns();
        }
        #[cfg(feature = "analyze")]
        {
            env.trace = self.det.on_send();
        }
        self.push_out(dst, env);
    }

    /// Route an outgoing envelope to the outbox — or, with aggregation on,
    /// coalesce it into the destination's batch buffer. Only small remote
    /// wire-encoded `Entry` messages batch; anything else bound for a
    /// destination with a pending buffer flushes that buffer first, so the
    /// outbox order equals the emission order on every (src → dst) channel
    /// and per-channel FIFO survives mixing batched and unbatched traffic.
    fn push_out(&mut self, dst: Pe, env: Envelope) {
        let agg = match self.cfg.agg {
            Some(a) if dst != self.pe && !self.agg_bufs.is_empty() => a,
            _ => {
                self.outbox.push((dst, env));
                return;
            }
        };
        let batchable = matches!(
            &env.kind,
            EnvKind::Entry { payload: Payload::Wire(b), .. } if b.len() < agg.max_bytes
        );
        if !batchable {
            self.flush_agg(dst);
            self.outbox.push((dst, env));
            return;
        }
        #[cfg(feature = "analyze")]
        let Envelope {
            kind,
            sent_ns,
            trace,
            ..
        } = env;
        #[cfg(not(feature = "analyze"))]
        let Envelope { kind, sent_ns, .. } = env;
        let EnvKind::Entry {
            to,
            payload: Payload::Wire(bytes),
            reply,
            guard,
        } = kind
        else {
            // analyze: allow(panic, "the batchable match above admits exactly this shape")
            unreachable!("push_out: non-batchable kind after batchable check");
        };
        // analyze: allow(panic, "agg_bufs is sized to npes at construction and dst is a routed PE index < npes")
        let buf = &mut self.agg_bufs[dst];
        crate::msg::push_batch_record(
            &mut buf.frame,
            &mut self.agg_scratch,
            self.cfg.codec,
            to,
            reply,
            guard,
            sent_ns,
            #[cfg(feature = "analyze")]
            trace,
            &bytes,
        )
        // analyze: allow(panic, "encoding a batch record of an already-encoded entry fails only on a codec bug")
        .expect("batch record failed to encode");
        buf.count += 1;
        if buf.count as usize >= agg.max_count || buf.frame.len() >= agg.max_bytes {
            self.flush_agg(dst);
        }
    }

    /// Flush `dst`'s aggregation buffer (if non-empty) into one
    /// [`EnvKind::Batch`] envelope on the outbox. The batch itself is a
    /// *physical* artifact: never QD-counted, never logically traced (trace
    /// id 0, detector-exempt) — its constituents did all of that in `emit`.
    fn flush_agg(&mut self, dst: Pe) {
        // analyze: allow(panic, "agg_bufs is sized to npes at construction and dst is a routed PE index < npes")
        let buf = &mut self.agg_bufs[dst];
        if buf.count == 0 {
            return;
        }
        let count = std::mem::take(&mut buf.count);
        let frame = WireBytes::copy_from_slice(&buf.frame);
        buf.frame.clear();
        self.encode_pool.record_encoded(frame.len());
        self.tracer.batch_flush(count as u64);
        if self.tracer.full() {
            let now = self.send_ts_ns();
            self.tracer.push(
                now,
                charm_trace::EventKind::BatchFlush {
                    msgs: count,
                    bytes: frame.len().min(u32::MAX as usize) as u32,
                },
            );
        }
        let mut env = Envelope::new(self.pe, EnvKind::Batch { count, frame });
        env.epoch = self.cfg.epoch;
        self.outbox.push((dst, env));
    }

    /// Flush every destination's pending aggregation buffer, in PE order
    /// (deterministic under sim). Called on scheduler idle, on quiescence
    /// probes (a parked message is sent-but-unprocessed, so QD could never
    /// converge over it) and at checkpoint entry (a snapshot must not
    /// capture a world where sent traffic sits in a sender-side buffer
    /// that dies with the incarnation). Returns whether anything flushed.
    pub fn flush_aggregation(&mut self) -> bool {
        let mut any = false;
        for dst in 0..self.agg_bufs.len() {
            // analyze: allow(panic, "dst iterates 0..agg_bufs.len()")
            if self.agg_bufs[dst].count > 0 {
                self.flush_agg(dst);
                any = true;
            }
        }
        any
    }

    /// Charge compute to the current event (and, optionally, a chare),
    /// classified as useful entry work or runtime overhead for the trace.
    fn charge_work(&mut self, ns: u64, chare: Option<&ChareId>, class: WorkClass) {
        self.event_work_ns += ns;
        if self.tracer.summary_on() {
            // Summary mode bins the span on the PE clock; `event_work_ns`
            // already includes this charge, so `now_ns` is the span's end.
            let end = self.now_ns();
            self.tracer.work_at(class, ns, end);
        } else {
            self.tracer.work(class, ns);
        }
        if let Some(id) = chare {
            if ns > 0 && class == WorkClass::Entry && self.cfg.telemetry.is_some() {
                self.tel_sketch.observe(id, ns);
            }
            if let Some(slot) = self.chares.get_mut(id) {
                slot.load_ns += ns;
            }
        }
    }

    // =====================================================================
    // Envelope handling
    // =====================================================================

    pub fn handle(&mut self, env: Envelope) {
        // Refresh the send-path timestamp cache (threads backend, tracing
        // on): every MsgSend/BatchFlush event, outgoing `sent_ns` stamp and
        // the incoming latency sample minted while this envelope is handled
        // shares one `Instant::now` read instead of paying one per emitted
        // envelope.
        if !self.cfg.is_sim && self.tracer.enabled() {
            self.now_cache_ns = self.start.elapsed().as_nanos() as u64;
        }
        // Stale-epoch guard: an envelope from a previous incarnation (in
        // flight when a PE died and the machine restored) must never reach
        // post-recovery state — discard before any accounting, so neither
        // the QD counters nor the detector ever see it. `Halt` is the
        // supervisor's teardown signal and is honored regardless.
        if env.epoch != self.cfg.epoch && !matches!(env.kind, EnvKind::Halt) {
            // A stale batch strands every constituent it carries.
            self.tracer.stale_discarded += match &env.kind {
                EnvKind::Batch { count, .. } => *count as u64,
                _ => 1,
            };
            if self.tracer.full() {
                let now = self.now_ns();
                self.tracer.push(now, charm_trace::EventKind::StaleDrop);
            }
            return;
        }
        // A batch is a transport frame, not a delivery: split it back into
        // its constituent entry envelopes and handle each in frame (=
        // emission) order. All per-message accounting — QD processed
        // counts, recv stats, detector delivery checks — happens in the
        // recursive calls, exactly once per constituent; the split itself
        // (one decode + copy per record, via the metered entry decode path
        // downstream) is the per-message unpack cost of aggregation.
        if let EnvKind::Batch { frame, .. } = env.kind {
            let constituents = crate::msg::split_batch(env.src, env.epoch, &frame, self.cfg.codec)
                .unwrap_or_else(|e| {
                    // analyze: allow(panic, "the frame was produced by this runtime's own batch encoder; a split failure is a framing bug")
                    panic!("batch frame split failed: {e}")
                });
            for constituent in constituents {
                self.handle(constituent);
            }
            return;
        }
        if env.kind.counts_for_qd() {
            self.tracer.counters.processed += 1;
        }
        if self.tracer.enabled() {
            let sz = env.kind.size_hint() as u64;
            self.tracer.msg_recv(sz);
            // Send→deliver latency on the receiver's clock, application
            // (QD-counted) traffic only; `saturating_sub` is the monotone
            // clamp across per-PE clocks.
            if env.sent_ns > 0 && env.kind.counts_for_qd() {
                let now = if self.cfg.is_sim {
                    self.clock_ns + self.event_work_ns
                } else {
                    self.now_cache_ns
                };
                self.tracer.latency(now.saturating_sub(env.sent_ns));
            }
            if self.tracer.full() {
                let now = self.now_ns();
                self.tracer.push(
                    now,
                    charm_trace::EventKind::MsgRecv {
                        bytes: sz.min(u32::MAX as u64) as u32,
                    },
                );
            }
        }
        // Delivery event: dedup + per-channel FIFO + clock join. Parked
        // envelopes re-enter via `dispatch()` below, so each delivery is
        // accounted exactly once.
        #[cfg(feature = "analyze")]
        self.det.on_deliver(env.src, &env.trace);
        self.dispatch(env);
    }

    /// Dispatch without QD counting — used for re-processing envelopes that
    /// were parked (they were counted when they first arrived).
    fn dispatch(&mut self, env: Envelope) {
        let src = env.src;
        match env.kind {
            EnvKind::Entry {
                to,
                payload,
                reply,
                guard,
            } => self.route_entry_from(src, to, payload, reply, guard),
            EnvKind::Batch { .. } => {
                // analyze: allow(panic, "handle() splits every batch before dispatch; reaching here is a scheduler bug")
                unreachable!("batch envelope reached dispatch unsplit")
            }
            EnvKind::BroadcastEntry { coll, bytes, root } => {
                if !self.colls.contains_key(&coll) {
                    self.park_unknown_coll(coll, EnvKind::BroadcastEntry { coll, bytes, root });
                    return;
                }
                let tree = self.cfg.tree;
                let members = self.local_members(coll);
                if self.tracer.enabled() {
                    self.tracer.bcast_relays += 1;
                    if self.tracer.full() {
                        let now = self.now_ns();
                        self.tracer.push(
                            now,
                            charm_trace::EventKind::BcastFanout {
                                children: tree.fanout(self.pe, root, self.npes) as u32,
                                members: members.len() as u32,
                            },
                        );
                    }
                }
                tree.children_for_each(self.pe, root, self.npes, |child| {
                    self.emit(
                        child,
                        EnvKind::BroadcastEntry {
                            coll,
                            bytes: bytes.clone(),
                            root,
                        },
                    );
                });
                for id in members {
                    self.deliver_wire_entry(id, &bytes, None);
                }
            }
            EnvKind::CreateCollection { spec, init, root } => {
                self.create_collection(spec, init, root)
            }
            EnvKind::InsertElem {
                coll,
                index,
                init,
                on_pe,
                placed,
            } => self.insert_elem(coll, index, init, on_pe, placed),
            EnvKind::DoneInserting { coll } => {
                if let Some(cs) = self.colls.get_mut(&coll) {
                    cs.done_inserting = true;
                } else {
                    self.park_unknown_coll(coll, EnvKind::DoneInserting { coll });
                }
            }
            EnvKind::FutureValue { fid, payload } => self.future_value(fid, payload),
            EnvKind::RedPartial {
                coll,
                redno,
                count,
                data,
                reducer,
                target,
            } => {
                if !self.colls.contains_key(&coll) {
                    self.park_unknown_coll(
                        coll,
                        EnvKind::RedPartial {
                            coll,
                            redno,
                            count,
                            data,
                            reducer,
                            target,
                        },
                    );
                    return;
                }
                self.red_merge(coll, redno, count, data, Some(reducer), target);
                self.red_try_complete(coll, redno);
            }
            EnvKind::RedDeliver { to, tag, data } => self.route_reduced(to, tag, data),
            EnvKind::RedBroadcast {
                coll,
                tag,
                data,
                root,
            } => {
                if !self.colls.contains_key(&coll) {
                    self.park_unknown_coll(
                        coll,
                        EnvKind::RedBroadcast {
                            coll,
                            tag,
                            data,
                            root,
                        },
                    );
                    return;
                }
                let tree = self.cfg.tree;
                let members = self.local_members(coll);
                // Hand the reduced value out without a gratuitous per-hop
                // deep copy: every consumer but the last clones, and the
                // final one (last local member, or last child when this PE
                // hosts none) takes the value by move.
                let uses = tree.fanout(self.pe, root, self.npes) + members.len();
                let mut data = Some(data);
                let mut used = 0;
                tree.children_for_each(self.pe, root, self.npes, |child| {
                    used += 1;
                    let d = if used == uses {
                        // analyze: allow(panic, "fan-out discipline: exactly `uses` consumers; the last takes, earlier ones clone, so the Option is Some")
                        data.take().unwrap()
                    } else {
                        // analyze: allow(panic, "fan-out discipline: a non-final consumer clones while the Option still holds the value")
                        data.as_ref().unwrap().clone()
                    };
                    self.emit(
                        child,
                        EnvKind::RedBroadcast {
                            coll,
                            tag,
                            data: d,
                            root,
                        },
                    );
                });
                for id in members {
                    used += 1;
                    let d = if used == uses {
                        // analyze: allow(panic, "fan-out discipline: exactly `uses` consumers; the last takes, earlier ones clone, so the Option is Some")
                        data.take().unwrap()
                    } else {
                        // analyze: allow(panic, "fan-out discipline: a non-final consumer clones while the Option still holds the value")
                        data.as_ref().unwrap().clone()
                    };
                    self.invoke(id, Invoke::Reduced(tag, d));
                }
            }
            EnvKind::MigrateChare { msg } => self.migrate_in(msg),
            EnvKind::LocationUpdate { id, pe } => {
                // "It lives on you" is never news: either the chare is
                // here (routing checks that first and no entry exists), or
                // it has left again and the entry is the forwarding stub
                // its departure wrote — fresher than this update, and the
                // only thing keeping later messages from parking here for
                // good.
                if pe != self.pe {
                    self.locations.insert(id, pe);
                }
                self.flush_pending_chare(id);
            }
            EnvKind::SubtreeAdd { coll, delta } => {
                if let Some(cs) = self.colls.get_mut(&coll) {
                    cs.subtree_members = (cs.subtree_members as i64 + delta) as u64;
                } else {
                    self.park_unknown_coll(coll, EnvKind::SubtreeAdd { coll, delta });
                    return;
                }
                if let Some(parent) = self.cfg.tree.parent(self.pe, 0, self.npes) {
                    self.emit(parent, EnvKind::SubtreeAdd { coll, delta });
                }
            }
            EnvKind::LbPoll => {
                // Only PEs without participants answer; everyone else will
                // (or already did) report via their own at-sync trigger.
                if !self.lb.stats_sent && self.lb_participants().is_empty() {
                    self.lb.stats_sent = true;
                    self.emit(
                        0,
                        EnvKind::LbStats {
                            stats: Vec::new(),
                            at_sync: 0,
                        },
                    );
                }
            }
            EnvKind::LbStats { stats, at_sync } => self.lb_central_stats(stats, at_sync),
            EnvKind::LbDoMigrate { moves, total: _ } => {
                // (The ordering PE tracks the epoch's completion count.)
                for (id, dst) in moves {
                    self.migrate_out(id, dst, true);
                }
            }
            EnvKind::LbMigrated => {
                // A counter rather than a decrement: under `LbMode::Tree`,
                // interior nodes issue orders before the root knows the
                // epoch's total, so completions may arrive first.
                self.lb_central.migrations_done += 1;
                self.lb_maybe_finish_epoch();
            }
            EnvKind::LbKick { epoch } => self.lb_tree_kick(epoch),
            EnvKind::LbTreePoll { epoch, root } => self.lb_tree_poll(epoch, root),
            EnvKind::LbTreeReport { report } => self.lb_tree_report_in(*report),
            EnvKind::LbResume { root } => {
                let tree = self.cfg.tree;
                tree.children_for_each(self.pe, root, self.npes, |child| {
                    self.emit(child, EnvKind::LbResume { root });
                });
                self.lb_resume_local();
            }
            EnvKind::CkptSave { dir, epoch, buddy } => self.ckpt_save(src, dir, epoch, buddy),
            EnvKind::CkptBuddy {
                owner,
                initiator,
                epoch,
                saved,
                image,
            } => self.ckpt_buddy(owner, initiator, epoch, saved, image),
            EnvKind::CkptAck { saved } => self.ckpt_ack(saved),
            EnvKind::RestoreColl { spec, root } => self.restore_coll(spec, root),
            EnvKind::QdProbe { round, root } => self.qd_probe(round, root),
            EnvKind::QdCounts {
                round,
                sent,
                done,
                pes,
            } => self.qd_counts(round, sent, done, pes),
            EnvKind::QdRequest { fid } => self.qd_request(fid),
            EnvKind::TelemetryProbe { seq, root } => self.telemetry_probe(seq, root),
            EnvKind::TelemetryFrame { seq, frame } => self.telemetry_frame(seq, frame.0),
            EnvKind::Bootstrap => self.bootstrap(),
            EnvKind::Exit => {
                self.exited = true;
            }
            EnvKind::Halt => {
                // Supervisor teardown of a failed incarnation: stop the
                // scheduler loop; the driver salvages state for recovery.
                self.exited = true;
            }
        }
    }

    /// Re-wrap a kind for local parking, stamped with this PE's epoch so it
    /// stays valid when later re-dispatched.
    fn wrap(&self, kind: EnvKind) -> Envelope {
        let mut env = Envelope::new(self.pe, kind);
        env.epoch = self.cfg.epoch;
        env
    }

    fn park_unknown_coll(&mut self, coll: CollectionId, kind: EnvKind) {
        let env = self.wrap(kind);
        self.pending_coll.entry(coll).or_default().push(env);
    }

    fn local_members(&self, coll: CollectionId) -> Vec<ChareId> {
        let mut v: Vec<ChareId> = self
            .chares
            // analyze: allow(nondeterminism, "hash order erased by the sort below")
            .keys()
            .filter(|id| id.coll == coll)
            .copied()
            .collect();
        v.sort(); // deterministic delivery order
        v
    }

    // =====================================================================
    // Routing and entry delivery
    // =====================================================================

    fn route_of(&self, id: &ChareId) -> Route {
        if self.chares.contains_key(id) {
            return Route::Local;
        }
        let Some(cs) = self.colls.get(&id.coll) else {
            return Route::UnknownColl;
        };
        if let Some(&pe) = self.locations.get(id) {
            return Route::Remote(pe, true);
        }
        match &cs.spec.kind {
            // Initial placement is globally computable for these kinds.
            CollKind::Singleton { .. } | CollKind::Group | CollKind::Dense { .. } => {
                let pe = cs.spec.place(&id.index, self.npes, &self.placements);
                if pe == self.pe {
                    // We host it (or will, when creation lands): buffer.
                    Route::BufferHere
                } else {
                    Route::Remote(pe, false)
                }
            }
            CollKind::Sparse => {
                let home = cs.spec.home_pe(&id.index, self.npes);
                if home == self.pe {
                    Route::BufferHere
                } else {
                    Route::Remote(home, false)
                }
            }
        }
    }

    /// Route an entry message; when this PE forwards somebody else's
    /// message (the chare moved on), tell the original sender where the
    /// chare lives now, so migration-induced forwarding chains collapse
    /// after one use (Charm++'s location-update piggyback).
    fn route_entry_from(
        &mut self,
        src: Pe,
        to: ChareId,
        payload: Payload,
        reply: Option<FutureId>,
        guard: Option<u32>,
    ) {
        match self.route_of(&to) {
            Route::Local => self.deliver_entry(to, payload, reply, guard),
            Route::Remote(pe, stub) => {
                if src != self.pe {
                    if stub {
                        self.fwd_hops += 1;
                    }
                    self.emit(src, EnvKind::LocationUpdate { id: to, pe });
                }
                let payload = self.reencode_for(pe, to.coll, payload);
                self.emit(
                    pe,
                    EnvKind::Entry {
                        to,
                        payload,
                        reply,
                        guard,
                    },
                );
            }
            Route::BufferHere => {
                let env = self.wrap(EnvKind::Entry {
                    to,
                    payload,
                    reply,
                    guard,
                });
                self.pending_chare.entry(to).or_default().push(env);
            }
            Route::UnknownColl => self.park_unknown_coll(
                to.coll,
                EnvKind::Entry {
                    to,
                    payload,
                    reply,
                    guard,
                },
            ),
        }
    }

    fn route_reduced(&mut self, to: ChareId, tag: u32, data: RedData) {
        match self.route_of(&to) {
            Route::Local => self.invoke(to, Invoke::Reduced(tag, data)),
            Route::Remote(pe, _) => self.emit(pe, EnvKind::RedDeliver { to, tag, data }),
            Route::BufferHere => {
                let env = self.wrap(EnvKind::RedDeliver { to, tag, data });
                self.pending_chare.entry(to).or_default().push(env);
            }
            Route::UnknownColl => {
                self.park_unknown_coll(to.coll, EnvKind::RedDeliver { to, tag, data })
            }
        }
    }

    /// A `Local` payload being forwarded to another PE must be serialized
    /// now (the §II-D by-reference shortcut only holds same-PE).
    fn reencode_for(&mut self, dst: Pe, coll: CollectionId, payload: Payload) -> Payload {
        if dst == self.pe {
            return payload;
        }
        match payload {
            Payload::Wire(b) => Payload::Wire(b),
            Payload::Local(any) => {
                let cs = self
                    .colls
                    .get(&coll)
                    // analyze: allow(panic, "the router resolved this collection's spec to pick a destination; the spec is present")
                    .expect("forwarding unknown collection");
                let vt = self.registry.vtable(cs.spec.ctype);
                let bytes = (vt.encode_msg)(&*any, self.cfg.codec)
                    // analyze: allow(panic, "re-encoding a message that was encodable at send time fails only on a codec bug")
                    .expect("message re-encode for forwarding failed");
                Payload::Wire(WireBytes::from_vec(bytes))
            }
        }
    }

    fn decode_payload(&mut self, id: &ChareId, payload: Payload) -> BoxMsg {
        match payload {
            Payload::Local(b) => b,
            Payload::Wire(bytes) => self.decode_wire(id, &bytes),
        }
    }

    /// The message decoder of `coll`'s chare type, looked up the long way.
    fn resolve_decode(&self, coll: CollectionId) -> DecodeFn {
        let cs = self
            .colls
            .get(&coll)
            // analyze: allow(panic, "delivery paths park messages until the collection spec arrives; decode runs only after it is known")
            .expect("decode for unknown collection");
        self.registry.vtable(cs.spec.ctype).decode_msg
    }

    /// Decode a serialized entry message for `id` straight from a borrowed
    /// buffer. Taking `&[u8]` (not an owned buffer) is the point: fan-out
    /// payloads are owned once by the sender's shared buffer and every
    /// local member decodes from that borrow.
    fn decode_wire(&mut self, id: &ChareId, bytes: &[u8]) -> BoxMsg {
        // Native dispatch resolves the decode fn from the per-PE cache (one
        // short linear probe) instead of the `colls` hash lookup + registry
        // vtable walk per message; dynamic (CharmPy-like) mode keeps the
        // measured per-message lookup cost.
        let decode_msg = if self.cfg.dynamic() {
            self.resolve_decode(id.coll)
        } else {
            match self.dispatch_cache.lookup(id.coll) {
                Some(f) => f,
                None => {
                    let f = self.resolve_decode(id.coll);
                    self.dispatch_cache.insert(id.coll, f);
                    f
                }
            }
        };
        // Dynamic dispatch (CharmPy mode): the measured Rust cost of
        // the pickle codec runs for real; the interpreter premium is
        // charged from the machine model (sim backend only).
        if self.cfg.dynamic() {
            if let Some(model) = self.cfg.sim_model.clone() {
                let ns = model.dynamic_overhead(bytes.len()).as_nanos() as u64;
                self.charge_work(ns, Some(id), WorkClass::Overhead);
            }
        }
        let codec = self.cfg.codec;
        self.metered(Some(*id), move || {
            decode_msg(codec, bytes)
                // analyze: allow(panic, "wire bytes come from the matching registered encoder; failure is a codec/registration bug")
                .unwrap_or_else(|e| panic!("entry message decode failed: {e}"))
        })
    }

    /// Same-PE delivery of a shared broadcast/multicast payload.
    ///
    /// Ownership flow: the encoded bytes are owned by the caller's
    /// refcounted buffer for the whole fan-out; each local member only
    /// *reads* them to decode its own `BoxMsg`. Wrapping the bytes in an
    /// owned `Payload::Wire` here (as this used to do) deep-copied the
    /// entire buffer per member just so `decode_payload` could consume it —
    /// O(members × size) copies that the decoder never needed.
    fn deliver_wire_entry(&mut self, id: ChareId, bytes: &WireBytes, reply: Option<FutureId>) {
        let msg = self.decode_wire(&id, bytes);
        self.deliver_msg(id, msg, reply, None);
    }

    /// Both the type's receiver-side guard and the optional per-message
    /// sender-side guard must pass for a message to be deliverable.
    fn guards_pass(&self, id: &ChareId, msg: &BoxMsg, guard: Option<u32>) -> bool {
        // analyze: allow(panic, "guards_pass is called only for ids the caller just looked up or buffered under; the slot exists")
        let slot = self.chares.get(id).expect("guard check on missing chare");
        // analyze: allow(panic, "guards never run while the chare is checked out; invoke() returns the box before draining buffers")
        let boxed = slot.boxed.as_ref().expect("chare checked out during guard");
        if !boxed.guard_ok(msg) {
            return false;
        }
        match guard {
            Some(g) => self.cfg.msg_guards.get(g)(boxed.any_ref(), msg),
            None => true,
        }
    }

    fn deliver_entry(
        &mut self,
        id: ChareId,
        payload: Payload,
        reply: Option<FutureId>,
        guard: Option<u32>,
    ) {
        let msg = self.decode_payload(&id, payload);
        self.deliver_msg(id, msg, reply, guard);
    }

    fn deliver_msg(
        &mut self,
        id: ChareId,
        msg: BoxMsg,
        reply: Option<FutureId>,
        guard: Option<u32>,
    ) {
        let guard_ok = self.guards_pass(&id, &msg, guard);
        // analyze: allow(panic, "route_entry inserted or located this chare before delivery; the slot exists")
        let at_sync = self.chares.get(&id).unwrap().at_sync;
        if !guard_ok || at_sync {
            // Deferred by a when-guard, or parked while the chare sits at an
            // LB sync point (AtSync chares do no work until resumed).
            let depth = {
                let slot = self
                    .chares
                    .get_mut(&id)
                    // analyze: allow(panic, "slot presence established at the at_sync lookup above in this same delivery")
                    .unwrap();
                slot.buffered.push_back(Buffered { msg, reply, guard });
                slot.buffered.len() as u32
            };
            if self.tracer.enabled() {
                self.tracer.guard_buffered += 1;
                if self.tracer.full() {
                    let now = self.now_ns();
                    self.tracer
                        .push(now, charm_trace::EventKind::GuardBuffer { depth });
                }
            }
            return;
        }
        self.invoke(id, Invoke::Entry(msg, reply, guard));
    }

    /// Run one invocation on a local chare, then execute its deferred ops
    /// and re-examine guards/waiting coroutines.
    fn invoke(&mut self, id: ChareId, what: Invoke) {
        let Some(slot) = self.chares.get_mut(&id) else {
            // The chare migrated away between routing and invocation
            // (possible when draining buffers); re-route.
            match what {
                Invoke::Entry(msg, reply, guard) => {
                    let payload = Payload::Local(msg);
                    self.route_entry_from(self.pe, id, payload, reply, guard);
                }
                Invoke::Reduced(tag, data) => self.route_reduced(id, tag, data),
                Invoke::ResumeFromSync => {}
            }
            return;
        };
        // analyze: allow(panic, "the scheduler serializes entry methods per chare, so the box is present (checked dynamically under --features analyze)")
        let mut boxed = slot.boxed.take().expect("re-entrant invoke on one chare");
        #[cfg(feature = "analyze")]
        self.det.enter_chare(&id);
        let mut ctx = self.new_ctx(Some(id));
        let trace_begin = if self.tracer.enabled() {
            self.now_ns()
        } else {
            0
        };
        // analyze: allow(nondeterminism, "metering clock: metered_ns() discards it on the deterministic sim (meter off), so wall time never reaches virtual time there")
        let t0 = Instant::now();
        let ekind = match &what {
            Invoke::Entry(..) => EntryKind::Receive,
            Invoke::Reduced(..) => EntryKind::Reduced,
            Invoke::ResumeFromSync => EntryKind::ResumeFromSync,
        };
        match what {
            Invoke::Entry(msg, reply, _) => {
                ctx.reply_to = reply;
                boxed.deliver(msg, &mut ctx);
                self.tracer.counters.entries += 1;
            }
            Invoke::Reduced(tag, data) => {
                boxed.reduced_dyn(tag, data, &mut ctx);
                self.tracer.counters.entries += 1;
            }
            Invoke::ResumeFromSync => boxed.resume_from_sync_dyn(&mut ctx),
        }
        let measured = self.metered_ns(t0);
        let slot = self
            .chares
            .get_mut(&id)
            // analyze: allow(panic, "chares are removed only by migration/exit, which cannot interleave with an in-flight invoke on this PE")
            .expect("slot vanished during invoke");
        slot.boxed = Some(boxed);
        #[cfg(feature = "analyze")]
        self.det.exit_chare(&id);
        self.charge_work(measured, Some(&id), WorkClass::Entry);
        if self.tracer.enabled() {
            let end = self.now_ns();
            let ctype = self.chare_ctype(&id);
            self.tracer.entry(trace_begin, end, measured, ctype, ekind);
        }
        self.exec_ops(ctx.ops, Some(id), ctx.reply_to);
        self.after_state_change(id);
    }

    /// Chare type id for trace attribution (0 when the collection spec is
    /// not locally known — cannot happen for an invokable chare).
    fn chare_ctype(&self, id: &ChareId) -> u32 {
        self.colls
            .get(&id.coll)
            .map(|cs| cs.spec.ctype.0)
            .unwrap_or(0)
    }

    /// Record one coroutine segment as an entry activation. The begin stamp
    /// is back-dated by the segment's measured work; the tracer clamps ring
    /// timestamps so this stays monotone.
    fn trace_coro_segment(&mut self, id: &ChareId, measured_ns: u64) {
        if self.tracer.enabled() {
            let end = self.now_ns();
            let ctype = self.chare_ctype(id);
            self.tracer.entry(
                end.saturating_sub(measured_ns),
                end,
                measured_ns,
                ctype,
                EntryKind::Coroutine,
            );
        }
    }

    fn metered_ns(&self, t0: Instant) -> u64 {
        if self.cfg.is_sim && !self.cfg.meter {
            return 0;
        }
        t0.elapsed().as_nanos() as u64
    }

    /// Meter a closure's real time and charge it as PE work (attributed to
    /// `chare` if given). Used for serialization costs on both directions.
    fn metered<R>(&mut self, chare: Option<ChareId>, f: impl FnOnce() -> R) -> R {
        // analyze: allow(nondeterminism, "metering clock: metered_ns() discards it on the deterministic sim (meter off)")
        let t0 = Instant::now();
        let r = f();
        let ns = self.metered_ns(t0);
        self.charge_work(ns, chare.as_ref(), WorkClass::Overhead);
        r
    }

    /// Coroutine segments self-meter their user code (excluding the thread
    /// rendezvous, which a real user-level-thread runtime would not pay).
    fn coro_work_ns(&self, work_ns: u64) -> u64 {
        if self.cfg.is_sim && !self.cfg.meter {
            return 0;
        }
        work_ns
    }

    /// Retry when-buffered messages and predicate-blocked coroutines until
    /// no further progress — the receiver-side engine behind `@when`
    /// (§II-E) and `self.wait` (§II-H2).
    fn after_state_change(&mut self, id: ChareId) {
        loop {
            match self.chares.get(&id) {
                None => return,                       // migrated away mid-drain
                Some(slot) if slot.at_sync => return, // parked for LB
                Some(_) => {}
            }
            // 1. First deliverable buffered message, in arrival order. The
            // scan finds the ready index; the deque extracts it without
            // shifting the rest of the buffer (front-ready, the common
            // case, is a pop).
            #[cfg(feature = "analyze")]
            let mut fifo_violation: Option<String> = None;
            let ready_msg = {
                // analyze: allow(panic, "after_state_change only walks ids that own slots on this PE")
                let slot = &self.chares[&id];
                let pos = slot
                    .buffered
                    .iter()
                    .position(|b| self.guards_pass(&id, &b.msg, b.guard));
                // Independent re-scan: the chosen index must be the FIRST
                // deliverable one, or the when-guard buffer is draining out
                // of FIFO order.
                #[cfg(feature = "analyze")]
                if let Some(p) = pos {
                    if let Some(q) = slot
                        .buffered
                        .iter()
                        .take(p)
                        .position(|b| self.guards_pass(&id, &b.msg, b.guard))
                    {
                        fifo_violation = Some(format!(
                            "when-guard buffer for chare {id} drained out of FIFO order: \
                             index {q} is deliverable but index {p} was chosen"
                        ));
                    }
                }
                // analyze: allow(panic, "slot presence established above in the same drain pass")
                pos.and_then(|pos| self.chares.get_mut(&id).unwrap().buffered.remove(pos))
            };
            #[cfg(feature = "analyze")]
            if let Some(v) = fifo_violation {
                self.det.violation(v);
            }
            if let Some(b) = ready_msg {
                if self.tracer.enabled() {
                    self.tracer.guard_drained += 1;
                    if self.tracer.full() {
                        let now = self.now_ns();
                        // analyze: allow(trace-hook, "depth probe for the drain event; the slot was checked at the top of this drain pass")
                        let depth = self.chares[&id].buffered.len() as u32;
                        self.tracer
                            .push(now, charm_trace::EventKind::GuardDrain { depth });
                    }
                }
                self.invoke(id, Invoke::Entry(b.msg, b.reply, b.guard));
                continue;
            }
            // 2. A coroutine whose wait-predicate is now satisfied.
            let ready_coro = {
                // analyze: allow(panic, "slot presence established by the caller of this guard re-check")
                let slot = self.chares.get(&id).unwrap();
                // analyze: allow(panic, "the box is in place between handler invocations (checked dynamically under --features analyze)")
                let boxed = slot.boxed.as_ref().unwrap();
                slot.coros.iter().copied().find(|cid| {
                    match self.coros.get(&cid.0).and_then(|h| h.wait.as_ref()) {
                        Some(WaitKind::Pred(p)) => p(boxed.any_ref()),
                        _ => false,
                    }
                })
            };
            if let Some(cid) = ready_coro {
                self.resume_coro(cid, None);
                continue;
            }
            return;
        }
    }

    // =====================================================================
    // Deferred ops
    // =====================================================================

    fn exec_ops(&mut self, ops: Vec<Op>, this: Option<ChareId>, reply: Option<FutureId>) {
        for op in ops {
            match op {
                Op::SendElem {
                    to,
                    payload,
                    reply,
                    guard,
                } => {
                    let (is_local, dst) = match self.route_of(&to) {
                        Route::Local => (true, self.pe),
                        Route::Remote(pe, _) => (false, pe),
                        Route::BufferHere | Route::UnknownColl => (false, self.pe),
                    };
                    let (byref, codec) = (self.cfg.same_pe_byref, self.cfg.codec);
                    // The pool is lent out for the metered closure (the
                    // meter needs `&mut self`); takes on it never allocate
                    // at steady state, so the loan is the whole cost.
                    let mut pool = std::mem::take(&mut self.encode_pool);
                    let payload = self.metered(this, || {
                        payload
                            .into_payload(is_local, byref, codec, &mut pool)
                            // analyze: allow(panic, "encoding a runtime-built entry message fails only on a codec bug")
                            .expect("entry message failed to encode")
                    });
                    self.encode_pool = pool;
                    // Always goes through the queue, even locally: entry
                    // methods are asynchronous and never run re-entrantly.
                    self.emit(
                        dst,
                        EnvKind::Entry {
                            to,
                            payload,
                            reply,
                            guard,
                        },
                    );
                }
                Op::Multicast {
                    coll,
                    members,
                    bytes,
                } => {
                    // Section multicast: one encode at the call site, one
                    // routed entry per member, every entry sharing the same
                    // allocation (the clone is a refcount bump).
                    for index in members {
                        let to = ChareId { coll, index };
                        let dst = match self.route_of(&to) {
                            Route::Remote(pe, _) => pe,
                            _ => self.pe,
                        };
                        self.emit(
                            dst,
                            EnvKind::Entry {
                                to,
                                payload: Payload::Wire(bytes.clone()),
                                reply: None,
                                guard: None,
                            },
                        );
                    }
                }
                Op::Broadcast { coll, bytes } => {
                    self.emit(
                        self.pe,
                        EnvKind::BroadcastEntry {
                            coll,
                            bytes,
                            root: self.pe,
                        },
                    );
                }
                Op::CreateCollection { spec, init_bytes } => {
                    self.emit(
                        self.pe,
                        EnvKind::CreateCollection {
                            spec,
                            init: init_bytes,
                            root: self.pe,
                        },
                    );
                }
                Op::InsertElem {
                    coll,
                    index,
                    init,
                    on_pe,
                } => {
                    // Decide the destination if we can; otherwise loop to
                    // self until the spec arrives.
                    let dest = self.colls.get(&coll).map(|cs| {
                        on_pe.unwrap_or_else(|| cs.spec.place(&index, self.npes, &self.placements))
                    });
                    let placed = dest.is_some();
                    let dst = dest.unwrap_or(self.pe);
                    let init = init
                        .into_payload(
                            dst == self.pe,
                            self.cfg.same_pe_byref,
                            self.cfg.codec,
                            &mut self.encode_pool,
                        )
                        // analyze: allow(panic, "encoding a just-built constructor argument fails only on a codec bug")
                        .expect("constructor argument failed to encode");
                    self.emit(
                        dst,
                        EnvKind::InsertElem {
                            coll,
                            index,
                            init,
                            on_pe,
                            placed,
                        },
                    );
                }
                Op::DoneInserting { coll } => {
                    for pe in 0..self.npes {
                        self.emit(pe, EnvKind::DoneInserting { coll });
                    }
                }
                Op::SendFuture { fid, payload } => {
                    let dst = fid.pe as usize;
                    let payload = payload
                        .into_payload(
                            dst == self.pe,
                            self.cfg.same_pe_byref,
                            self.cfg.codec,
                            &mut self.encode_pool,
                        )
                        // analyze: allow(panic, "encoding a future value fails only on a codec bug")
                        .expect("future value failed to encode");
                    self.emit(dst, EnvKind::FutureValue { fid, payload });
                }
                Op::Contribute {
                    data,
                    reducer,
                    target,
                } => {
                    // analyze: allow(panic, "API contract: contribute is only callable inside an entry method")
                    let id = this.expect("contribute outside a chare");
                    self.contribute_local(id, data, reducer, target);
                }
                Op::MigrateMe { to } => {
                    // analyze: allow(panic, "API contract: migrate_me is only callable inside an entry method")
                    let id = this.expect("migrate_me outside a chare");
                    self.migrate_out(id, to, false);
                }
                Op::AtSync => {
                    // analyze: allow(panic, "API contract: at_sync is only callable inside an entry method")
                    let id = this.expect("at_sync outside a chare");
                    if let Some(slot) = self.chares.get_mut(&id) {
                        if !slot.at_sync {
                            slot.at_sync = true;
                            self.lb.at_sync_count += 1;
                        }
                    }
                    self.lb_check_ready();
                }
                Op::Go(f) => {
                    // analyze: allow(panic, "API contract: go is only callable inside an entry method")
                    let id = this.expect("go outside a chare");
                    self.launch_coro(id, f, reply);
                }
                Op::Charge(dt) => {
                    if self.cfg.is_sim {
                        self.charge_work(dt.as_nanos() as u64, this.as_ref(), WorkClass::Entry);
                    } else {
                        // analyze: allow(blocking, "Charge deliberately burns wall time on the threads backend to emulate compute; it blocks only the charging chare's PE, exactly as real work would")
                        std::thread::sleep(dt);
                        // Same accounting as the sim arm: summary bins,
                        // the hot-chare sketch, and the chare's measured
                        // load all see the charge.
                        self.now_cache_ns = self.now_ns();
                        self.charge_work(dt.as_nanos() as u64, this.as_ref(), WorkClass::Entry);
                    }
                }
                Op::StartQd { fid } => {
                    self.emit(0, EnvKind::QdRequest { fid });
                }
                Op::Checkpoint { dir, fid } => {
                    assert!(self.ckpt.is_none(), "checkpoint already in progress");
                    self.ckpt = Some(CkptPending::Manual {
                        fid,
                        left: self.npes,
                        total: 0,
                    });
                    let epoch = self.next_ckpt_epoch;
                    self.next_ckpt_epoch += 1;
                    for pe in 0..self.npes {
                        self.emit(
                            pe,
                            EnvKind::CkptSave {
                                dir: Some(dir.clone()),
                                epoch,
                                buddy: false,
                            },
                        );
                    }
                }
                Op::Exit => {
                    for pe in 0..self.npes {
                        self.emit(pe, EnvKind::Exit);
                    }
                }
                Op::TraceMark(label) => {
                    if self.tracer.full() {
                        let now = self.now_ns();
                        self.tracer
                            .push(now, charm_trace::EventKind::Mark { label });
                    }
                }
            }
        }
    }

    // =====================================================================
    // Coroutines
    // =====================================================================

    fn launch_coro(&mut self, id: ChareId, f: CoroLauncher, reply: Option<FutureId>) {
        let (in_tx, in_rx) = mpsc::channel::<CoroInput>();
        let (out_tx, out_rx) = mpsc::channel::<CoroYield>();
        let side = CoroSide {
            rx: in_rx,
            tx: out_tx,
            seed: self.seed.clone(),
            chare_id: id,
        };
        let join = std::thread::Builder::new()
            .name(format!("coro-{id}"))
            .spawn(move || f(side))
            // analyze: allow(panic, "OS thread spawn fails only on resource exhaustion; the runtime cannot run coroutines without it")
            .expect("failed to spawn coroutine thread");
        let cid = CoroId(self.next_coro);
        self.next_coro += 1;
        self.coros.insert(
            cid.0,
            CoroHandle {
                tx: in_tx,
                rx: out_rx,
                join: Some(join),
                chare: id,
                wait: None,
            },
        );
        self.chares
            .get_mut(&id)
            // analyze: allow(panic, "launch_coro is called with an id the scheduler just resolved; the slot exists")
            .expect("go on missing chare")
            .coros
            .push(cid);
        let chare = self
            .chares
            .get_mut(&id)
            // analyze: allow(panic, "slot presence established at the `go on missing chare` check above")
            .unwrap()
            .boxed
            .take()
            // analyze: allow(panic, "the box is in place when a coroutine launches; entry methods are serialized per chare")
            .expect("chare checked out at coroutine launch");
        let now_ns = self.now_ns();
        // analyze: allow(panic, "the handle was inserted into self.coros a few lines above")
        let handle = self.coros.get_mut(&cid.0).unwrap();
        handle
            .tx
            .send(CoroInput::Start {
                chare,
                now_ns,
                reply_to: reply,
            })
            // analyze: allow(panic, "the coroutine thread blocks on the rendezvous before any yield; a closed channel means it died, which is fatal")
            .expect("coroutine died before start");
        let y = handle.rx.recv();
        self.process_yield(cid, y);
    }

    fn resume_coro(&mut self, cid: CoroId, value: Option<Payload>) {
        let id = self
            .coros
            .get(&cid.0)
            // analyze: allow(panic, "resume messages are only generated for coroutines this scheduler created and has not completed")
            .expect("resume of unknown coroutine")
            .chare;
        let chare = self
            .chares
            .get_mut(&id)
            // analyze: allow(panic, "a live coroutine pins its chare; the chare cannot be removed mid-coroutine")
            .expect("coroutine's chare missing")
            .boxed
            .take()
            // analyze: allow(panic, "the box was returned at the previous yield; no other handler ran for this chare since")
            .expect("chare checked out at coroutine resume");
        let now_ns = self.now_ns();
        // analyze: allow(panic, "handle presence established at the resume lookup above")
        let handle = self.coros.get_mut(&cid.0).unwrap();
        handle.wait = None;
        handle
            .tx
            .send(CoroInput::Resume {
                chare,
                value,
                now_ns,
            })
            // analyze: allow(panic, "a closed rendezvous channel means the coroutine thread died; fatal")
            .expect("coroutine died before resume");
        let y = handle.rx.recv();
        self.process_yield(cid, y);
    }

    fn process_yield(&mut self, cid: CoroId, y: Result<CoroYield, mpsc::RecvError>) {
        let id = self
            .coros
            .get(&cid.0)
            // analyze: allow(panic, "yields only come from coroutines this scheduler launched")
            .expect("yield from unknown coroutine")
            .chare;
        match y {
            Ok(CoroYield::Blocked {
                chare,
                ops,
                wait,
                work_ns,
            }) => {
                let measured_ns = self.coro_work_ns(work_ns);
                // analyze: allow(panic, "the chare slot outlives its coroutines; presence established at launch")
                self.chares.get_mut(&id).unwrap().boxed = Some(chare);
                self.charge_work(measured_ns, Some(&id), WorkClass::Entry);
                self.trace_coro_segment(&id, measured_ns);
                let register_future = match &wait {
                    WaitKind::Future(fid) => Some(*fid),
                    WaitKind::Pred(_) => None,
                };
                // analyze: allow(panic, "handle presence established when the yield was received")
                self.coros.get_mut(&cid.0).unwrap().wait = Some(wait);
                // Flush the coroutine's buffered ops *before* checking for
                // an already-ready future, so they are never lost.
                self.exec_ops(ops, Some(id), None);
                if let Some(fid) = register_future {
                    match self.futures.remove(&fid) {
                        Some(FutState::Ready(payload)) => {
                            // Value already arrived: resume immediately.
                            self.resume_coro(cid, Some(payload));
                            return;
                        }
                        Some(FutState::Waiting(_)) => {
                            // analyze: allow(panic, "one-waiter-per-future discipline: wait() consumes the future, so a second waiter is a user bug worth failing fast")
                            panic!("two coroutines waiting on one future")
                        }
                        _ => {
                            self.futures.insert(fid, FutState::Waiting(cid));
                        }
                    }
                }
                self.after_state_change(id);
            }
            Ok(CoroYield::Done {
                chare,
                ops,
                work_ns,
            }) => {
                let measured_ns = self.coro_work_ns(work_ns);
                // analyze: allow(panic, "the chare slot outlives its coroutines; presence established at resume")
                self.chares.get_mut(&id).unwrap().boxed = Some(chare);
                self.charge_work(measured_ns, Some(&id), WorkClass::Entry);
                self.trace_coro_segment(&id, measured_ns);
                if let Some(mut h) = self.coros.remove(&cid.0) {
                    if let Some(j) = h.join.take() {
                        let _ = j.join();
                    }
                }
                if let Some(slot) = self.chares.get_mut(&id) {
                    slot.coros.retain(|c| *c != cid);
                }
                self.exec_ops(ops, Some(id), None);
                self.after_state_change(id);
            }
            Err(_) => {
                // Recover the original panic payload from the dead thread
                // so the user's message survives, not a generic wrapper.
                let payload = self
                    .coros
                    .get_mut(&cid.0)
                    .and_then(|h| h.join.take())
                    .and_then(|j| j.join().err());
                match payload {
                    Some(p) => std::panic::resume_unwind(p),
                    // analyze: allow(panic, "a coroutine ending without Done or a yield means its thread panicked; propagate the failure")
                    None => panic!("coroutine for chare {id} terminated unexpectedly"),
                }
            }
        }
    }

    // =====================================================================
    // Futures
    // =====================================================================

    fn future_value(&mut self, fid: FutureId, payload: Payload) {
        debug_assert_eq!(fid.pe as usize, self.pe, "future value routed to wrong PE");
        if self.entry_gate == Some(fid) {
            // Restoration quiesced: every checkpointed chare has landed.
            self.entry_gate = None;
            self.launch_main();
            return;
        }
        match self.futures.remove(&fid) {
            Some(FutState::Waiting(cid)) => self.resume_coro(cid, Some(payload)),
            // analyze: allow(panic, "futures complete exactly once by protocol; a second FutureValue is runtime corruption (the analyze detector reports it as double delivery)")
            Some(FutState::Ready(_)) => panic!("future {fid:?} completed twice"),
            _ => {
                self.futures.insert(fid, FutState::Ready(payload));
            }
        }
    }

    // =====================================================================
    // Collections
    // =====================================================================

    fn initial_counts(&self, spec: &CollSpec) -> Vec<u64> {
        let mut counts = vec![0u64; self.npes];
        match &spec.kind {
            // analyze: allow(panic, "pe indices come from placement and are bounded by npes; counts was sized to npes")
            CollKind::Singleton { pe } => counts[*pe] += 1,
            CollKind::Group => counts.iter_mut().for_each(|c| *c += 1),
            CollKind::Dense { dims } => {
                // Closed form for the analytic placements: every PE runs
                // this at creation, so the enumeration fallback is
                // O(members) per PE — O(npes · members) machine-wide,
                // which dominates bootstrap at 65k PEs.
                if !spec.dense_counts_closed(&mut counts, self.npes) {
                    for ix in CollSpec::dense_indices(dims) {
                        // analyze: allow(panic, "place() reduces indices mod npes; counts was sized to npes")
                        counts[spec.place(&ix, self.npes, &self.placements)] += 1;
                    }
                }
            }
            CollKind::Sparse => {}
        }
        counts
    }

    fn subtree_total(&self, counts: &[u64], pe: Pe) -> u64 {
        // analyze: allow(panic, "pe iterates 0..npes here; counts was sized to npes")
        let mut total = counts[pe];
        self.cfg
            .tree
            .children_for_each(pe, 0, self.npes, |c| total += self.subtree_total(counts, c));
        total
    }

    fn create_collection(&mut self, spec: CollSpec, init: WireBytes, root: Pe) {
        let tree = self.cfg.tree;
        tree.children_for_each(self.pe, root, self.npes, |child| {
            self.emit(
                child,
                EnvKind::CreateCollection {
                    spec: spec.clone(),
                    init: init.clone(),
                    root,
                },
            );
        });
        let counts = self.initial_counts(&spec);
        let coll = spec.id;
        let state = CollState {
            // analyze: allow(panic, "self.pe is bounded by npes; counts was sized to npes")
            local_members: counts[self.pe],
            subtree_members: self.subtree_total(&counts, self.pe),
            done_inserting: !matches!(spec.kind, CollKind::Sparse),
            red_broadcast_seen: 0,
            spec,
        };
        let spec = state.spec.clone();
        self.colls.insert(coll, state);
        self.dispatch_cache.clear();

        // Construct locally-placed members (deterministic index order).
        // The analytic placements enumerate only this PE's own linear
        // positions — the filter-everything fallback is O(members) per PE,
        // O(npes · members) machine-wide.
        let mine: Vec<Index> = match &spec.kind {
            CollKind::Singleton { pe } if *pe == self.pe => vec![Index::SINGLE],
            CollKind::Group => vec![Index::pe(self.pe)],
            CollKind::Dense { dims } => match spec.placement {
                crate::collections::Placement::Block => {
                    let (lo, hi) = CollSpec::block_range(dims, self.pe, self.npes);
                    (lo..hi)
                        .map(|lin| CollSpec::dense_index_at(dims, lin))
                        .collect()
                }
                crate::collections::Placement::RoundRobin => {
                    let total = CollSpec::dense_len(dims);
                    (self.pe as u64..total)
                        .step_by(self.npes)
                        .map(|lin| CollSpec::dense_index_at(dims, lin))
                        .collect()
                }
                _ => CollSpec::dense_indices(dims)
                    .filter(|ix| spec.place(ix, self.npes, &self.placements) == self.pe)
                    .collect(),
            },
            _ => Vec::new(),
        };
        for index in mine {
            let id = ChareId { coll, index };
            self.construct_member(id, &init);
        }

        // Anything that raced ahead of the create can now be handled.
        if let Some(parked) = self.pending_coll.remove(&coll) {
            for env in parked {
                self.dispatch(env);
            }
        }
    }

    fn construct_member(&mut self, id: ChareId, init_bytes: &WireBytes) {
        // analyze: allow(panic, "construct messages are only routed after the spec broadcast that created the collection")
        let cs = self.colls.get(&id.coll).expect("construct without spec");
        let vt = self.registry.vtable(cs.spec.ctype);
        let init = (vt.decode_init)(self.cfg.codec, init_bytes)
            // analyze: allow(panic, "constructor bytes come from the matching registered encoder; failure is a codec bug")
            .unwrap_or_else(|e| panic!("constructor argument decode failed: {e}"));
        self.construct_member_box(id, init);
    }

    fn construct_member_box(&mut self, id: ChareId, init: BoxMsg) {
        // analyze: allow(panic, "spec presence established at the construct lookup above")
        let cs = self.colls.get(&id.coll).expect("construct without spec");
        let ctype = cs.spec.ctype;
        let construct = self.registry.vtable(ctype).construct;
        let mut ctx = self.new_ctx(Some(id));
        let trace_begin = if self.tracer.enabled() {
            self.now_ns()
        } else {
            0
        };
        // analyze: allow(nondeterminism, "metering clock: metered_ns() discards it on the deterministic sim (meter off)")
        let t0 = Instant::now();
        let boxed = construct(init, &mut ctx, ctype);
        let measured = self.metered_ns(t0);
        self.chares.insert(id, Slot::new(boxed));
        self.charge_work(measured, Some(&id), WorkClass::Entry);
        if self.tracer.enabled() {
            let end = self.now_ns();
            self.tracer
                .entry(trace_begin, end, measured, ctype.0, EntryKind::Construct);
        }
        self.exec_ops(ctx.ops, Some(id), None);
        self.flush_pending_chare(id);
        self.after_state_change(id);
    }

    fn flush_pending_chare(&mut self, id: ChareId) {
        if let Some(parked) = self.pending_chare.remove(&id) {
            for env in parked {
                self.dispatch(env);
            }
        }
    }

    fn insert_elem(
        &mut self,
        coll: CollectionId,
        index: Index,
        init: Payload,
        on_pe: Option<Pe>,
        placed: bool,
    ) {
        let Some(cs) = self.colls.get(&coll) else {
            self.park_unknown_coll(
                coll,
                EnvKind::InsertElem {
                    coll,
                    index,
                    init,
                    on_pe,
                    placed,
                },
            );
            return;
        };
        if !placed {
            let dst = on_pe.unwrap_or_else(|| cs.spec.place(&index, self.npes, &self.placements));
            let init = self.reencode_init_for(dst, coll, init);
            self.emit(
                dst,
                EnvKind::InsertElem {
                    coll,
                    index,
                    init,
                    on_pe,
                    placed: true,
                },
            );
            return;
        }
        let home = cs.spec.home_pe(&index, self.npes);
        let id = ChareId { coll, index };
        let vt = self.registry.vtable(cs.spec.ctype);
        let init_box = match init {
            Payload::Local(b) => b,
            Payload::Wire(bytes) => (vt.decode_init)(self.cfg.codec, &bytes)
                // analyze: allow(panic, "constructor bytes come from the matching registered encoder; failure is a codec bug")
                .unwrap_or_else(|e| panic!("constructor argument decode failed: {e}")),
        };
        {
            // analyze: allow(panic, "spec presence established earlier in this insert path")
            let cs = self.colls.get_mut(&coll).unwrap();
            cs.local_members += 1;
            cs.subtree_members += 1;
        }
        if let Some(parent) = self.cfg.tree.parent(self.pe, 0, self.npes) {
            self.emit(parent, EnvKind::SubtreeAdd { coll, delta: 1 });
        }
        if home != self.pe {
            self.emit(home, EnvKind::LocationUpdate { id, pe: self.pe });
        }
        self.construct_member_box(id, init_box);
    }

    fn reencode_init_for(&self, dst: Pe, coll: CollectionId, init: Payload) -> Payload {
        if dst == self.pe {
            return init;
        }
        match init {
            Payload::Wire(b) => Payload::Wire(b),
            Payload::Local(any) => {
                let cs = self
                    .colls
                    .get(&coll)
                    // analyze: allow(panic, "the router resolved this collection's spec to pick a destination; the spec is present")
                    .expect("forwarding unknown collection");
                let vt = self.registry.vtable(cs.spec.ctype);
                // Init payloads use the init decoder, so encode via the
                // generic path: we cannot re-use encode_msg (wrong type).
                // OutPayload already encoded Wire for remote dests, so a
                // Local init here means dst was believed local; encode with
                // the vtable's init encoder.
                let bytes = (vt.encode_init)(&*any, self.cfg.codec)
                    // analyze: allow(panic, "re-encoding an argument that was encodable at send time fails only on a codec bug")
                    .expect("constructor argument re-encode failed");
                Payload::Wire(WireBytes::from_vec(bytes))
            }
        }
    }

    // =====================================================================
    // Reductions
    // =====================================================================

    fn contribute_local(
        &mut self,
        id: ChareId,
        data: RedData,
        reducer: Reducer,
        target: RedTarget,
    ) {
        if self.tracer.enabled() {
            self.tracer.red_contributes += 1;
            if self.tracer.full() {
                let now = self.now_ns();
                self.tracer.push(now, charm_trace::EventKind::RedContribute);
            }
        }
        let coll = id.coll;
        let redno = {
            let slot = self
                .chares
                .get_mut(&id)
                // analyze: allow(panic, "contribute is invoked by a live chare on this PE; its slot exists")
                .expect("contribute from missing chare");
            let n = slot.red_seq;
            slot.red_seq += 1;
            n
        };
        self.red_merge(coll, redno, 1, data, Some(reducer), Some(target));
        // analyze: allow(panic, "the reduction state was created by the entry check just above")
        let st = self.reds.get_mut(&(coll, redno)).unwrap();
        st.local_got += 1;
        self.red_try_complete(coll, redno);
    }

    fn red_merge(
        &mut self,
        coll: CollectionId,
        redno: u64,
        count: u64,
        data: RedData,
        reducer: Option<Reducer>,
        target: Option<RedTarget>,
    ) {
        let st = self.reds.entry((coll, redno)).or_default();
        if st.reducer.is_none() {
            st.reducer = reducer;
        }
        if st.target.is_none() {
            st.target = target;
        }
        st.count += count;
        st.parts.push(data);
        // Combine incrementally so memory stays bounded for big fan-ins.
        if st.parts.len() >= 2 {
            // analyze: allow(panic, "every contribute path sets the reducer before pushing a part")
            let reducer = st.reducer.expect("reduction without reducer");
            let parts = std::mem::take(&mut st.parts);
            let combined = combine(reducer, parts, &self.reducers);
            self.reds
                .get_mut(&(coll, redno))
                // analyze: allow(panic, "the (coll, redno) entry was fetched mutably two lines up; still present")
                .unwrap()
                .parts
                .push(combined);
        }
    }

    fn red_try_complete(&mut self, coll: CollectionId, redno: u64) {
        let Some(cs) = self.colls.get(&coll) else {
            return;
        };
        let expected = self.subtree_expected(coll);
        // analyze: allow(panic, "callers only check completion for reductions with live state")
        let st = self.reds.get(&(coll, redno)).expect("red state missing");
        if expected == 0 || st.count < expected {
            return;
        }
        assert!(
            st.count == expected,
            "reduction over-contributed: {} > {} on {} (did members contribute twice?)",
            st.count,
            expected,
            cs.spec.id
        );
        // analyze: allow(panic, "completion runs at most once; the caller verified the state is present")
        let mut st = self.reds.remove(&(coll, redno)).unwrap();
        // analyze: allow(panic, "every contribution set the reducer; a reduction cannot complete without one")
        let reducer = st.reducer.expect("completing reduction without reducer");
        let data = if st.parts.len() == 1 {
            // analyze: allow(panic, "the len()==1 branch guarantees a part to pop")
            st.parts.pop().unwrap()
        } else {
            combine(reducer, std::mem::take(&mut st.parts), &self.reducers)
        };
        match self.cfg.tree.parent(self.pe, 0, self.npes) {
            Some(parent) => self.emit(
                parent,
                EnvKind::RedPartial {
                    coll,
                    redno,
                    count: expected,
                    data,
                    reducer,
                    target: st.target,
                },
            ),
            None => {
                // Root: deliver to the target.
                // analyze: allow(panic, "the reduction's target was recorded at creation from the contribute call")
                let target = st.target.expect("reduction completed without target");
                self.red_deliver(target, data);
            }
        }
    }

    fn subtree_expected(&self, coll: CollectionId) -> u64 {
        self.colls
            .get(&coll)
            .map(|c| c.subtree_members)
            .unwrap_or(0)
    }

    fn red_deliver(&mut self, target: RedTarget, data: RedData) {
        if self.tracer.enabled() {
            self.tracer.red_delivers += 1;
            if self.tracer.full() {
                let now = self.now_ns();
                self.tracer.push(now, charm_trace::EventKind::RedDeliver);
            }
        }
        match target {
            RedTarget::Future(fid) => {
                let dst = fid.pe as usize;
                let payload = OutPayload::new(data)
                    .into_payload(
                        dst == self.pe,
                        self.cfg.same_pe_byref,
                        self.cfg.codec,
                        &mut self.encode_pool,
                    )
                    // analyze: allow(panic, "encoding the reduction result fails only on a codec bug")
                    .expect("reduction result failed to encode");
                self.emit(dst, EnvKind::FutureValue { fid, payload });
            }
            RedTarget::Element(id, tag) => {
                self.route_reduced(id, tag, data);
            }
            RedTarget::Broadcast(coll, tag) => {
                self.emit(
                    self.pe,
                    EnvKind::RedBroadcast {
                        coll,
                        tag,
                        data,
                        root: self.pe,
                    },
                );
            }
        }
    }

    // =====================================================================
    // Migration
    // =====================================================================

    fn migrate_out(&mut self, id: ChareId, to: Pe, for_lb: bool) {
        if to == self.pe {
            if for_lb {
                self.emit(0, EnvKind::LbMigrated);
            }
            return;
        }
        {
            let slot = self
                .chares
                .get(&id)
                // analyze: allow(panic, "LbDoMigrate names chares the central LB just saw in this PE's stats; absence means runtime corruption")
                .unwrap_or_else(|| panic!("migrate_out of missing chare {id}"));
            assert!(
                slot.coros.is_empty(),
                "cannot migrate {id}: a threaded entry method is active"
            );
        }
        let (encode_msg, home) = {
            // analyze: allow(panic, "a chare cannot exist without its collection's spec on its PE")
            let cs = self.colls.get(&id.coll).expect("migrate without spec");
            (
                self.registry.vtable(cs.spec.ctype).encode_msg,
                cs.spec.home_pe(&id.index, self.npes),
            )
        };
        // analyze: allow(panic, "presence checked by migrate_out's lookup at entry")
        let slot = self.chares.remove(&id).unwrap();
        // analyze: allow(panic, "migration initiates between entry methods; the box is in place")
        let boxed = slot.boxed.expect("chare checked out at migration");
        let data = boxed
            .pack(self.cfg.codec)
            .unwrap_or_else(|| {
                // analyze: allow(panic, "migrating a chare type without pack support is a registration bug, surfaced at the first migration attempt")
                panic!(
                    "{} is not migratable; use register_migratable",
                    self.registry.vtable(boxed.type_id()).name
                )
            })
            // analyze: allow(panic, "encoding chare state for migration fails only on a codec bug")
            .expect("chare state failed to encode");
        let buffered: Vec<(Vec<u8>, Option<FutureId>, Option<u32>)> = slot
            .buffered
            .iter()
            .map(|b| {
                (
                    // analyze: allow(panic, "buffered messages were encodable at send time; re-encode fails only on a codec bug")
                    encode_msg(&*b.msg, self.cfg.codec).expect("buffered message encode failed"),
                    b.reply,
                    b.guard,
                )
            })
            .collect();
        {
            // analyze: allow(panic, "spec presence established at migrate_out entry")
            let cs = self.colls.get_mut(&id.coll).unwrap();
            cs.local_members -= 1;
            cs.subtree_members -= 1;
        }
        if let Some(parent) = self.cfg.tree.parent(self.pe, 0, self.npes) {
            self.emit(
                parent,
                EnvKind::SubtreeAdd {
                    coll: id.coll,
                    delta: -1,
                },
            );
        }
        self.locations.insert(id, to);
        // The home PE must learn the new location for fresh senders.
        if home != self.pe && home != to {
            self.emit(home, EnvKind::LocationUpdate { id, pe: to });
        }
        self.tracer.counters.migrations += 1;
        if self.tracer.full() {
            let now = self.now_ns();
            self.tracer.push(
                now,
                charm_trace::EventKind::MigrateOut {
                    bytes: data.len().min(u32::MAX as usize) as u32,
                },
            );
        }
        // This PE joins the chare's stub chain; the arrival side collapses
        // the chain once it reaches MAX_FWD_HOPS.
        let mut trail = slot.fwd_trail;
        trail.push(self.pe);
        self.emit(
            to,
            EnvKind::MigrateChare {
                msg: Box::new(MigrateMsg {
                    coll: id.coll,
                    index: id.index,
                    data,
                    buffered,
                    load_ns: if for_lb { 0 } else { slot.load_ns },
                    red_seq: slot.red_seq,
                    for_lb,
                    trail,
                }),
            },
        );
    }

    fn migrate_in(&mut self, msg: Box<MigrateMsg>) {
        if !self.colls.contains_key(&msg.coll) {
            let coll = msg.coll;
            self.park_unknown_coll(coll, EnvKind::MigrateChare { msg });
            return;
        }
        let MigrateMsg {
            coll,
            index,
            data,
            buffered,
            load_ns,
            red_seq,
            for_lb,
            mut trail,
        } = *msg;
        // analyze: allow(panic, "presence checked above")
        let cs = self.colls.get(&coll).unwrap();
        let id = ChareId { coll, index };
        if self.tracer.full() {
            let now = self.now_ns();
            self.tracer.push(
                now,
                charm_trace::EventKind::MigrateIn {
                    bytes: data.len().min(u32::MAX as usize) as u32,
                },
            );
        }
        let vt = self.registry.vtable(cs.spec.ctype);
        // analyze: allow(panic, "migrated-in chares were packed by a type whose vtable migrates; missing unpack is a registration bug")
        let unpack = vt.unpack.expect("migrated chare type lacks unpack");
        let decode_msg = vt.decode_msg;
        let boxed = unpack(self.cfg.codec, &data, cs.spec.ctype)
            // analyze: allow(panic, "state bytes come from the matching pack; decode failure is a codec bug")
            .unwrap_or_else(|e| panic!("migrated chare decode failed: {e}"));
        let mut slot = Slot::new(boxed);
        slot.load_ns = load_ns;
        slot.red_seq = red_seq;
        slot.at_sync = for_lb; // LB migrants resume with everyone else
        if trail.len() < MAX_FWD_HOPS {
            // Chain still short: carry it along (emptying `trail` so the
            // collapse loop below has nothing to send).
            slot.fwd_trail = std::mem::take(&mut trail);
        }
        for (bytes, reply, guard) in buffered {
            let msg = decode_msg(self.cfg.codec, &bytes)
                // analyze: allow(panic, "buffered bytes come from the matching encoder; decode failure is a codec bug")
                .unwrap_or_else(|e| panic!("buffered message decode failed: {e}"));
            slot.buffered.push_back(Buffered { msg, reply, guard });
        }
        self.chares.insert(id, slot);
        self.locations.remove(&id);
        {
            // analyze: allow(panic, "home routing ships migrations only to PEs that hold the collection spec")
            let cs = self.colls.get_mut(&coll).unwrap();
            cs.local_members += 1;
            cs.subtree_members += 1;
        }
        if let Some(parent) = self.cfg.tree.parent(self.pe, 0, self.npes) {
            self.emit(parent, EnvKind::SubtreeAdd { coll, delta: 1 });
        }
        // analyze: allow(panic, "spec presence established in this same migrate-in path")
        let home = cs_home(self.colls.get(&coll).unwrap(), &index, self.npes);
        if home != self.pe {
            self.emit(home, EnvKind::LocationUpdate { id, pe: self.pe });
        }
        // Chain at the hop bound: tell every stub holder the real location
        // so future sends reach this PE in one hop (`trail` is empty unless
        // the bound was hit above).
        for p in trail {
            if p != self.pe && p != home {
                self.emit(p, EnvKind::LocationUpdate { id, pe: self.pe });
            }
        }
        if for_lb {
            self.lb.at_sync_count += 1;
            self.emit(0, EnvKind::LbMigrated);
        }
        self.flush_pending_chare(id);
        self.after_state_change(id);
    }

    // =====================================================================
    // Load balancing protocol
    // =====================================================================

    fn lb_participants(&self) -> Vec<ChareId> {
        let mut v: Vec<ChareId> = self
            .chares
            // analyze: allow(nondeterminism, "hash order erased by the sort below")
            .keys()
            .filter(|id| {
                self.colls
                    .get(&id.coll)
                    .map(|c| c.spec.use_lb)
                    .unwrap_or(false)
            })
            .copied()
            .collect();
        v.sort();
        v
    }

    fn lb_check_ready(&mut self) {
        if self.lb.stats_sent {
            return;
        }
        let participants = self.lb_participants();
        if participants.is_empty() || self.lb.at_sync_count < participants.len() as u64 {
            return;
        }
        match self.cfg.lb_mode {
            LbMode::Central => self.lb_send_central_stats(&participants),
            LbMode::Tree { .. } => {
                // Nudge the root to start the epoch's poll wave (once per
                // PE per epoch); report up as soon as we are polled.
                if !self.lb_tree.kicked {
                    self.lb_tree.kicked = true;
                    let epoch = self.lb_tree.epoch;
                    self.emit(0, EnvKind::LbKick { epoch });
                }
                self.lb_tree_try_report();
            }
        }
    }

    fn lb_send_central_stats(&mut self, participants: &[ChareId]) {
        let stats: Vec<LbChareStat> = participants
            .iter()
            .map(|id| {
                // analyze: allow(panic, "LB stats walk this PE's own chare map keys")
                let slot = &self.chares[id];
                let migratable = self
                    .registry
                    // analyze: allow(panic, "a chare's collection spec exists wherever the chare lives")
                    .vtable(self.colls[&id.coll].spec.ctype)
                    .migratable;
                LbChareStat {
                    id: *id,
                    pe: self.pe,
                    load_ns: slot.load_ns,
                    migratable,
                }
            })
            .collect();
        // Loads reset at the epoch boundary.
        for id in participants {
            // analyze: allow(panic, "participants are keys of self.chares collected above")
            self.chares.get_mut(id).unwrap().load_ns = 0;
        }
        self.lb.stats_sent = true;
        let at_sync = self.lb.at_sync_count;
        self.emit(0, EnvKind::LbStats { stats, at_sync });
    }

    fn lb_central_stats(&mut self, stats: Vec<LbChareStat>, _at_sync: u64) {
        debug_assert_eq!(self.pe, 0, "LB stats routed to non-central PE");
        // Fold each batch on arrival (same concatenation order the old
        // per-batch buffer produced, without holding npes Vec headers).
        self.lb_central.chares.extend(stats);
        self.lb_tree.peak_stats = self
            .lb_tree
            .peak_stats
            .max(self.lb_central.chares.len() as u64);
        self.lb_central.pes_reported += 1;
        if self.lb_central.pes_reported == 1 {
            // Epoch begins: stamp it for the trace, then poll every PE so
            // ones without participants still report (they have no at-sync
            // trigger of their own).
            self.lb_central.epoch_start_ns = self.now_ns();
            for pe in 0..self.npes {
                self.emit(pe, EnvKind::LbPoll);
            }
        }
        if self.lb_central.pes_reported < self.npes {
            return;
        }
        let chares = std::mem::take(&mut self.lb_central.chares);
        self.lb_central.pes_reported = 0;
        self.lb_central.in_epoch = true;
        let mut stats = LbStats {
            npes: self.npes,
            chares,
        };
        let assigned = self.cfg.lb.as_ref().map(|s| s.assign(&stats));
        // The strategy has seen the stats in arrival order; sorted by id
        // they are this epoch's lookup index (a stable sort, so a lookup
        // finds what a front-to-back scan would).
        stats.chares.sort_by_key(|c| c.id);
        let mut per_pe: HashMap<Pe, Vec<(ChareId, Pe)>> = HashMap::new();
        let mut total = 0u64;
        for (id, dst) in assigned.unwrap_or_default() {
            // A strategy returning a move for a chare absent from its own
            // input stats is a strategy bug; skip that move instead of
            // panicking the PE mid-epoch.
            let first = stats.chares.partition_point(|c| c.id < id);
            let Some(c) = stats.chares.get(first).filter(|c| c.id == id) else {
                continue;
            };
            if c.migratable && c.pe != dst && dst < self.npes {
                total += 1;
                per_pe.entry(c.pe).or_default().push((id, dst));
            }
        }
        // Reclaim the stat buffer's capacity for the next epoch.
        let mut buf = stats.chares;
        buf.clear();
        self.lb_central.chares = buf;
        if total == 0 {
            self.lb_finish_epoch();
            return;
        }
        self.lb_central.migrations_pending = total;
        self.lb_central.migrations_done = 0;
        for (owner, moves) in per_pe {
            self.emit(owner, EnvKind::LbDoMigrate { moves, total });
        }
    }

    // =====================================================================
    // Hierarchical load balancing (`LbMode::Tree`)
    //
    // PEs fold chare stats up a group tree; interior nodes refine placement
    // within their subtree, issue migration orders directly, and pass only
    // a bounded residual (truncated acceptor list + capped spill) upward.
    // No PE ever materializes the global stat vector. Orders flow as normal
    // `LbDoMigrate`s; completion is counted at the root (`LbMigrated`),
    // which finishes the epoch once every ordered migration landed.
    // =====================================================================

    fn lb_tree_kick(&mut self, epoch: u64) {
        debug_assert_eq!(self.pe, 0, "LbKick routed to non-root PE");
        // Redundant kicks for a running epoch and stragglers from finished
        // ones are both dropped; only a kick for the current epoch starts
        // the wave.
        if self.lb_central.in_epoch || epoch != self.lb_central.epochs_done {
            return;
        }
        self.lb_central.in_epoch = true;
        self.lb_central.epoch_start_ns = self.now_ns();
        // The order total is unknown until the root's own merge runs;
        // block lb_maybe_finish_epoch until then.
        self.lb_central.migrations_pending = u64::MAX;
        self.lb_central.migrations_done = 0;
        self.lb_tree_poll(epoch, 0);
    }

    fn lb_tree_poll(&mut self, epoch: u64, root: Pe) {
        debug_assert!(
            epoch <= self.lb_tree.epoch + 1,
            "LB poll wave more than one epoch ahead"
        );
        if epoch == self.lb_tree.epoch + 1 {
            // Next epoch's wave outran this PE's resume; hold it.
            self.lb_tree.pending_poll = Some((epoch, root));
            return;
        }
        if epoch != self.lb_tree.epoch || self.lb_tree.polled {
            return; // straggler or duplicate
        }
        self.lb_tree.polled = true;
        let tree = self.cfg.lb_mode.tree_shape();
        let mut expected = 0usize;
        tree.children_for_each(self.pe, root, self.npes, |child| {
            expected += 1;
            self.emit(child, EnvKind::LbTreePoll { epoch, root });
        });
        self.lb_tree.children_expected = expected;
        self.lb_tree_try_report();
    }

    fn lb_tree_report_in(&mut self, report: LbTreeReport) {
        // A child reports only after we polled it, and we cannot resume
        // (reset) before our whole subtree reported — so a report always
        // lands in its own epoch.
        debug_assert!(self.lb_tree.polled, "LB tree report before poll");
        self.lb_tree.fold(report);
        let held = self.lb_tree.spill.len() as u64;
        self.lb_tree.peak_stats = self.lb_tree.peak_stats.max(held);
        self.lb_tree_try_report();
    }

    /// Report readiness check, run after every event that could complete
    /// this PE's subtree: polled, every relayed child reported, and every
    /// local participant reached at-sync.
    fn lb_tree_try_report(&mut self) {
        if !self.lb_tree.polled || self.lb.stats_sent {
            return;
        }
        if self.lb_tree.children_seen < self.lb_tree.children_expected {
            return;
        }
        let participants = self.lb_participants();
        if !participants.is_empty() && self.lb.at_sync_count < participants.len() as u64 {
            return;
        }
        let LbMode::Tree { group_size } = self.cfg.lb_mode else {
            debug_assert!(false, "tree report in central mode");
            return;
        };
        // Merge this PE's own contribution: migratable participants become
        // placement candidates; everything pinned is this PE's fixed load.
        let mut fixed = 0u64;
        for id in &participants {
            // analyze: allow(panic, "LB stats walk this PE's own chare map keys")
            let slot = &self.chares[id];
            let migratable = self
                .registry
                // analyze: allow(panic, "a chare's collection spec exists wherever the chare lives")
                .vtable(self.colls[&id.coll].spec.ctype)
                .migratable;
            self.lb_tree.total_load_ns += slot.load_ns;
            if migratable {
                self.lb_tree.chare_count += 1;
                self.lb_tree.spill.push(LbChareStat {
                    id: *id,
                    pe: self.pe,
                    load_ns: slot.load_ns,
                    migratable: true,
                });
            } else {
                fixed += slot.load_ns;
            }
        }
        // Loads reset at the epoch boundary, as in central mode.
        for id in &participants {
            // analyze: allow(panic, "participants are keys of self.chares collected above")
            self.chares.get_mut(id).unwrap().load_ns = 0;
        }
        self.lb_tree.pe_count += 1;
        self.lb_tree.acceptors.push((self.pe, fixed));
        self.lb.stats_sent = true;
        let held = self.lb_tree.spill.len() as u64;
        self.lb_tree.peak_stats = self.lb_tree.peak_stats.max(held);

        let is_root = self.pe == 0;
        if is_root || self.lb_tree.children_expected > 0 {
            // Interior (or root) node: refine placement within the subtree
            // and issue orders directly. Leaves skip this — refining a
            // single PE against its own average would keep every chare
            // local and starve the upper levels of candidates.
            let limit = refine_limit(
                self.lb_tree.total_load_ns,
                self.lb_tree.pe_count,
                REFINE_THRESHOLD_PERMILLE,
            );
            let mut acceptors = std::mem::take(&mut self.lb_tree.acceptors);
            let candidates = std::mem::take(&mut self.lb_tree.spill);
            let outcome = greedy_refine_place(&mut acceptors, candidates, limit);
            let mut per_pe: HashMap<Pe, Vec<(ChareId, Pe)>> = HashMap::new();
            for (id, from, dst) in outcome.moves {
                self.lb_tree.ordered += 1;
                per_pe.entry(from).or_default().push((id, dst));
            }
            for (owner, moves) in per_pe {
                let total = moves.len() as u64;
                self.emit(owner, EnvKind::LbDoMigrate { moves, total });
            }
            self.lb_tree.acceptors = acceptors;
            self.lb_tree.spill = outcome.leftover;
        }
        if is_root {
            // Residual candidates stay put. The epoch's order total is now
            // final; the epoch ends when that many LbMigrateds landed.
            self.lb_central.migrations_pending = self.lb_tree.ordered;
            self.lb_maybe_finish_epoch();
        } else {
            truncate_acceptors(&mut self.lb_tree.acceptors, group_size.max(16));
            let cap = spill_cap(self.lb_tree.chare_count, self.lb_tree.pe_count);
            truncate_spill(&mut self.lb_tree.spill, cap);
            let tree = self.cfg.lb_mode.tree_shape();
            let parent = tree.parent(self.pe, 0, self.npes);
            // analyze: allow(panic, "every non-root PE has an LB tree parent")
            let parent = parent.expect("non-root has parent");
            let report = LbTreeReport {
                pe_count: self.lb_tree.pe_count,
                chare_count: self.lb_tree.chare_count,
                total_load_ns: self.lb_tree.total_load_ns,
                ordered: self.lb_tree.ordered,
                acceptors: std::mem::take(&mut self.lb_tree.acceptors),
                spill: std::mem::take(&mut self.lb_tree.spill),
            };
            self.emit(
                parent,
                EnvKind::LbTreeReport {
                    report: Box::new(report),
                },
            );
        }
    }

    /// Close the epoch once every ordered migration has landed. `pending`
    /// holds `u64::MAX` from kick until the root's merge fixes the total,
    /// so a completion arriving early can never finish the epoch.
    fn lb_maybe_finish_epoch(&mut self) {
        if self.lb_central.in_epoch
            && self.lb_central.migrations_done >= self.lb_central.migrations_pending
        {
            self.lb_finish_epoch();
        }
    }

    fn lb_finish_epoch(&mut self) {
        self.lb_central.in_epoch = false;
        self.lb_central.migrations_pending = 0;
        self.lb_central.migrations_done = 0;
        self.lb_central.epochs_done += 1;
        if self.tracer.full() {
            let now = self.now_ns();
            let dur = now.saturating_sub(self.lb_central.epoch_start_ns);
            self.tracer
                .push(now, charm_trace::EventKind::LbEpoch { dur_ns: dur });
        }
        self.emit(0, EnvKind::LbResume { root: 0 });
    }

    fn lb_resume_local(&mut self) {
        self.lb.at_sync_count = 0;
        self.lb.stats_sent = false;
        self.lb_tree.reset();
        self.lb_tree.epoch += 1;
        // A buffered next-epoch poll (its wave outran this resume) can run
        // now that the epoch counter caught up.
        if let Some((epoch, root)) = self.lb_tree.pending_poll.take() {
            self.lb_tree_poll(epoch, root);
        }
        let resumed: Vec<ChareId> = self
            .chares
            .iter()
            .filter(|(_, s)| s.at_sync)
            .map(|(id, _)| *id)
            .collect();
        let mut ids = resumed;
        ids.sort();
        for id in ids {
            if let Some(slot) = self.chares.get_mut(&id) {
                slot.at_sync = false;
            }
            self.invoke(id, Invoke::ResumeFromSync);
        }
    }

    /// LB epochs completed (read by the driver for the report; PE 0 only).
    pub fn lb_epochs(&self) -> u64 {
        self.lb_central.epochs_done
    }

    /// Close out this PE's trace: fold unattributed time into overhead and
    /// hand the per-PE record to the driver. The tracer is consumed (a
    /// subsequent call would yield an empty `Off` trace).
    pub fn finish_trace(&mut self) -> charm_trace::PeTrace {
        let wall = self.now_ns();
        let tracer = std::mem::take(&mut self.tracer);
        let registry = Arc::clone(&self.registry);
        let mut trace = tracer.finish(self.pe, wall, self.encode_pool.bytes_encoded(), move |ct| {
            registry.name_of(crate::ids::ChareTypeId(ct)).to_string()
        });
        // Fast-path counters live where the fast paths run (the encode
        // pool and the dispatch cache); fold them into the report here.
        trace.perf.slab_hits = self.encode_pool.hits();
        trace.perf.slab_misses = self.encode_pool.misses();
        trace.perf.inline_payloads = self.encode_pool.inline_count();
        trace.perf.dispatch_hits = self.dispatch_cache.hits;
        trace.perf.dispatch_misses = self.dispatch_cache.misses;
        trace.perf.fwd_hops = self.fwd_hops;
        trace.perf.lb_peak_stats = self.lb_tree.peak_stats;
        // The telemetry series lives where the sweeps complete (PE 0).
        trace.telemetry = std::mem::take(&mut self.tel_series);
        trace
    }

    /// QD counter totals for the end-of-run balance check.
    #[cfg(feature = "analyze")]
    pub fn counter_totals(&self) -> (u64, u64) {
        (self.tracer.counters.sent, self.tracer.counters.processed)
    }

    /// Diagnostic snapshot printed when a simulated run stalls (runs out of
    /// events without an `exit()`): everything that could be waiting.
    pub fn debug_dump(&self) {
        // analyze: allow(nondeterminism, "order-insensitive sum for stall diagnostics; never feeds scheduling")
        let buffered: usize = self.chares.values().map(|s| s.buffered.len()).sum();
        // analyze: allow(nondeterminism, "order-insensitive count for stall diagnostics; never feeds scheduling")
        let blocked: usize = self.coros.values().filter(|h| h.wait.is_some()).count();
        if buffered == 0
            && blocked == 0
            && self.reds.is_empty()
            && self.pending_chare.is_empty()
            && self.pending_coll.is_empty()
            && self.lb.at_sync_count == 0
        {
            return;
        }
        let c = &self.tracer.counters;
        eprintln!(
            "  PE {}: {} chares, {} buffered msgs, {} blocked coros, {} reductions in flight, {} pending-chare, {} pending-coll, at_sync={}, sent={} processed={} remote_bytes={} entries={} migrations={}",
            self.pe,
            self.chares.len(),
            buffered,
            blocked,
            self.reds.len(),
            self.pending_chare.len(),
            self.pending_coll.len(),
            self.lb.at_sync_count,
            c.sent,
            c.processed,
            c.bytes,
            c.entries,
            c.migrations,
        );
        for ((coll, redno), st) in &self.reds {
            eprintln!(
                "    red {coll} #{redno}: count {} of subtree {}",
                st.count,
                self.subtree_expected(*coll)
            );
        }
        // analyze: allow(nondeterminism, "hash order erased by the sort below; diagnostic output only")
        let mut ids: Vec<_> = self.chares.keys().copied().collect();
        ids.sort();
        for id in ids {
            // analyze: allow(panic, "debug dump walks this PE's own chare map keys")
            let slot = &self.chares[&id];
            if !slot.buffered.is_empty() || slot.at_sync || slot.red_seq > 0 {
                eprintln!(
                    "    chare {id}: buffered={} at_sync={} red_seq={}",
                    slot.buffered.len(),
                    slot.at_sync,
                    slot.red_seq
                );
            }
        }
    }

    // =====================================================================
    // Quiescence detection
    // =====================================================================

    fn qd_request(&mut self, fid: FutureId) {
        debug_assert_eq!(self.pe, 0);
        self.qd_central.waiters.push(fid);
        if !self.qd_central.active {
            self.qd_central.active = true;
            self.qd_central.last = None;
            self.qd_start_round();
        }
    }

    fn qd_start_round(&mut self) {
        self.qd_central.round += 1;
        let round = self.qd_central.round;
        self.emit(0, EnvKind::QdProbe { round, root: 0 });
    }

    fn qd_probe(&mut self, round: u64, root: Pe) {
        // Quiescence-entry flush: a message parked in an aggregation buffer
        // is sent-but-unprocessed forever, so no `(sent, processed)` sample
        // could ever balance over it. Flushing here puts the traffic in
        // flight; the two-consecutive-identical-rounds rule then converges
        // normally (just with extra rounds). See `QdCentral::round_complete`.
        self.flush_aggregation();
        let tree = self.cfg.tree;
        self.qd_pe = QdPeState {
            round,
            pending_children: tree.fanout(self.pe, root, self.npes),
            sent: self.tracer.counters.sent,
            done: self.tracer.counters.processed,
            pes: 1,
            active: true,
        };
        tree.children_for_each(self.pe, root, self.npes, |child| {
            self.emit(child, EnvKind::QdProbe { round, root });
        });
        self.qd_maybe_reply(root);
    }

    fn qd_counts(&mut self, round: u64, sent: u64, done: u64, pes: u64) {
        if !self.qd_pe.active || self.qd_pe.round != round {
            return; // stale round
        }
        self.qd_pe.pending_children -= 1;
        self.qd_pe.sent += sent;
        self.qd_pe.done += done;
        self.qd_pe.pes += pes;
        self.qd_maybe_reply(0);
    }

    fn qd_maybe_reply(&mut self, root: Pe) {
        if !self.qd_pe.active || self.qd_pe.pending_children > 0 {
            return;
        }
        self.qd_pe.active = false;
        let (round, sent, done, pes) = (
            self.qd_pe.round,
            self.qd_pe.sent,
            self.qd_pe.done,
            self.qd_pe.pes,
        );
        match self.cfg.tree.parent(self.pe, root, self.npes) {
            Some(parent) => self.emit(
                parent,
                EnvKind::QdCounts {
                    round,
                    sent,
                    done,
                    pes,
                },
            ),
            None => {
                // Root evaluates.
                let stuck = self.qd_central.last == Some((sent, done));
                if self.qd_central.round_complete(sent, done) {
                    self.qd_central.active = false;
                    self.qd_completions += 1;
                    let waiters = std::mem::take(&mut self.qd_central.waiters);
                    let telemetry = self.telemetry_due();
                    if self.auto_ckpt_due() {
                        // The machine is quiescent — exactly when a
                        // consistent image exists. Hold the quiescence
                        // waiters until every PE commits, so the app only
                        // resumes against fully saved state. A telemetry
                        // sweep due at the same round runs after the last
                        // ack (the machine stays quiescent throughout).
                        self.start_auto_ckpt(waiters, telemetry);
                        return;
                    }
                    if telemetry {
                        // The machine is quiescent: every PE's counters
                        // are stable and only sweep traffic will be in
                        // flight, so the reduced frame is a deterministic
                        // function of the program (not the schedule).
                        self.start_telemetry_sweep(waiters);
                        return;
                    }
                    self.complete_qd_waiters(waiters);
                } else {
                    // Two identical rounds mean nothing moved in between;
                    // if they also show more processed than sent, some
                    // message was delivered twice and no later round can
                    // ever balance. Fail loudly instead of probing forever.
                    assert!(
                        !(stuck && done > sent),
                        "quiescence is unreachable: {done} messages processed but only {sent} \
                         sent, stable across probe rounds — a message was delivered twice"
                    );
                    self.qd_start_round();
                }
            }
        }
    }

    /// Complete every pending quiescence future with `()`.
    fn complete_qd_waiters(&mut self, waiters: Vec<FutureId>) {
        for fid in waiters {
            let dst = fid.pe as usize;
            let payload = OutPayload::new(())
                .into_payload(
                    dst == self.pe,
                    self.cfg.same_pe_byref,
                    self.cfg.codec,
                    &mut self.encode_pool,
                )
                // analyze: allow(panic, "encoding the unit value fails only on a codec bug")
                .expect("() failed to encode");
            self.emit(dst, EnvKind::FutureValue { fid, payload });
        }
    }

    /// Whether this quiescence completion should trigger an automatic
    /// checkpoint (PE 0; cadence from `Runtime::auto_checkpoint`). The
    /// restore gate's own quiescence round never checkpoints — the machine
    /// is still re-installing chares at that point.
    fn auto_ckpt_due(&self) -> bool {
        match &self.cfg.auto_ckpt {
            Some((every, _)) => {
                *every > 0
                    && self.ckpt.is_none()
                    && self.entry_gate.is_none()
                    && self.qd_completions.is_multiple_of(*every)
            }
            None => false,
        }
    }

    // =====================================================================
    // In-band telemetry (DESIGN.md §12)
    // =====================================================================

    /// Whether this quiescence completion should trigger a telemetry sweep
    /// (PE 0; cadence from `Runtime::telemetry`). Mirrors
    /// [`Self::auto_ckpt_due`]: the restore gate's own round never sweeps,
    /// and a sweep already in flight is never overlapped.
    fn telemetry_due(&self) -> bool {
        match &self.cfg.telemetry {
            Some(t) => {
                t.every > 0
                    && !self.tel_active
                    && self.entry_gate.is_none()
                    && self.qd_completions.is_multiple_of(t.every)
            }
            None => false,
        }
    }

    /// PE 0: start an in-band telemetry sweep over the PE tree. The
    /// quiescence waiters stay parked until the merged frame lands back
    /// here, so the only traffic in flight during the sweep is the sweep's
    /// own — every PE samples stable counters, and the reduced frame is
    /// schedule-independent (the determinism the permuted-schedule suite
    /// asserts).
    fn start_telemetry_sweep(&mut self, waiters: Vec<FutureId>) {
        self.tel_active = true;
        self.tel_waiters = waiters;
        let seq = self.tel_seq;
        self.tel_seq += 1;
        self.telemetry_probe(seq, 0);
    }

    /// A telemetry probe crossing this node (or starting on the root):
    /// relay it to the tree children, sample this PE's own frame — the
    /// machine is quiescent, so the counters are stable — and send the
    /// merged frame up once every child subtree has answered.
    fn telemetry_probe(&mut self, seq: u64, root: Pe) {
        let tree = self.cfg.tree;
        self.tel_pending = tree.fanout(self.pe, root, self.npes);
        self.tel_root = root;
        tree.children_for_each(self.pe, root, self.npes, |child| {
            self.emit(child, EnvKind::TelemetryProbe { seq, root });
        });
        let frame = self.sample_frame(seq);
        self.tel_acc = Some(Box::new(frame));
        self.tel_maybe_send_up(seq);
    }

    /// A child subtree's merged frame: fold it into this node's
    /// accumulator.
    fn telemetry_frame(&mut self, seq: u64, frame: Box<charm_trace::MetricFrame>) {
        if let Some(acc) = self.tel_acc.as_deref_mut() {
            acc.merge(&frame);
        }
        self.tel_pending = self.tel_pending.saturating_sub(1);
        self.tel_maybe_send_up(seq);
    }

    /// Once the local sample and every child frame are merged, ship the
    /// subtree frame to the parent — or, on the root, complete the sweep.
    fn tel_maybe_send_up(&mut self, seq: u64) {
        if self.tel_pending > 0 {
            return;
        }
        let Some(frame) = self.tel_acc.take() else {
            return;
        };
        match self.cfg.tree.parent(self.pe, self.tel_root, self.npes) {
            Some(parent) => self.emit(
                parent,
                EnvKind::TelemetryFrame {
                    seq,
                    frame: TelemetryBody(frame),
                },
            ),
            None => self.tel_root_complete(*frame),
        }
    }

    /// PE 0: the cluster-wide frame is complete — feed the sink, retain it
    /// for `RunReport::telemetry`, and release the held quiescence waiters.
    fn tel_root_complete(&mut self, frame: charm_trace::MetricFrame) {
        if let Some(t) = &self.cfg.telemetry {
            if let Some(sink) = &t.sink {
                sink(&frame);
            }
        }
        self.tel_series.push(frame);
        self.tel_active = false;
        let waiters = std::mem::take(&mut self.tel_waiters);
        self.complete_qd_waiters(waiters);
    }

    /// Snapshot this PE's metrics into a single-PE frame. Runs at probe
    /// arrival, when the machine is quiescent except for sweep traffic, so
    /// every field the logical digest covers is stable.
    fn sample_frame(&mut self, seq: u64) -> charm_trace::MetricFrame {
        let now = self.now_ns();
        let (busy, idle, overhead) = self.tracer.time_split();
        let wall = busy + idle + overhead;
        let util = if wall == 0 {
            0.0
        } else {
            busy as f64 / wall as f64
        };
        let c = self.tracer.counters;
        // Parked-message census; each sum is order-insensitive, so hash
        // iteration order cannot leak into the frame.
        let mut queue_depth = 0u64;
        // analyze: allow(nondeterminism, "order-insensitive sum of when-guard buffer lengths")
        for s in self.chares.values() {
            queue_depth += s.buffered.len() as u64;
        }
        // analyze: allow(nondeterminism, "order-insensitive sum of pending-chare queue lengths")
        for v in self.pending_chare.values() {
            queue_depth += v.len() as u64;
        }
        // analyze: allow(nondeterminism, "order-insensitive sum of pending-collection queue lengths")
        for v in self.pending_coll.values() {
            queue_depth += v.len() as u64;
        }
        let top = self
            .tel_sketch
            .items()
            .into_iter()
            .map(|(id, weight, err)| charm_trace::TopItem {
                label: self.chare_label(&id),
                weight,
                err,
            })
            .collect();
        charm_trace::MetricFrame {
            seq,
            pes: 1,
            sampled_at_ns: now,
            busy_ns: busy,
            idle_ns: idle,
            overhead_ns: overhead,
            util_min: util,
            util_max: util,
            util_sum: util,
            util_sumsq: util * util,
            msgs_sent: c.sent,
            msgs_processed: c.processed,
            entries: c.entries,
            bytes_remote: c.bytes,
            queue_depth,
            queue_depth_max: queue_depth,
            exec: self.tracer.exec_hist(),
            latency: self.tracer.latency_hist().clone(),
            top,
            top_cap: charm_trace::DEFAULT_TOP_K,
        }
    }

    /// Human label for a hot chare: `TypeName[index]` when the collection
    /// spec is locally known, the raw id otherwise.
    fn chare_label(&self, id: &ChareId) -> String {
        match self.colls.get(&id.coll) {
            Some(cs) => format!("{}{}", self.registry.name_of(cs.spec.ctype), id.index),
            None => format!("{id}"),
        }
    }

    /// PE 0: broadcast `CkptSave` for the next generation, parking the
    /// quiescence waiters until every PE acks ([`Self::ckpt_ack`]).
    /// `telemetry` carries a same-round telemetry sweep through the
    /// checkpoint (it starts once the last PE commits).
    fn start_auto_ckpt(&mut self, waiters: Vec<FutureId>, telemetry: bool) {
        let store = match &self.cfg.auto_ckpt {
            Some((_, store)) => store.clone(),
            None => return,
        };
        let epoch = self.next_ckpt_epoch;
        self.next_ckpt_epoch += 1;
        self.ckpt = Some(CkptPending::Auto {
            left: self.npes,
            waiters,
            telemetry,
        });
        let (dir, buddy) = match &store {
            Store::Disk(root) => (
                Some(
                    checkpoint::epoch_dir(root, epoch)
                        .to_string_lossy()
                        .into_owned(),
                ),
                false,
            ),
            Store::Memory => (None, true),
        };
        for pe in 0..self.npes {
            self.emit(
                pe,
                EnvKind::CkptSave {
                    dir: dir.clone(),
                    epoch,
                    buddy,
                },
            );
        }
    }

    // =====================================================================
    // Checkpoint / restart
    // =====================================================================

    fn ckpt_save(&mut self, initiator: Pe, dir: Option<String>, epoch: u64, buddy: bool) {
        // Checkpoint-entry flush: the snapshot must not capture a machine
        // where already-counted sends sit in a sender-side aggregation
        // buffer — the buffer dies with this incarnation, and a restore
        // would then wait forever on traffic that no longer exists.
        self.flush_aggregation();
        let main_coll = main_chare_id().coll;
        let mut specs: Vec<CollSpec> = self
            .colls
            // analyze: allow(nondeterminism, "hash order erased by the sort below — specs are persisted and restored in id order")
            .values()
            .map(|cs| cs.spec.clone())
            .filter(|spec| spec.id != main_coll)
            .collect();
        // Sort: the image bytes (and the restore emission order derived
        // from them) must not depend on HashMap iteration order, or two
        // replays of one schedule diverge after a checkpoint.
        specs.sort_by_key(|spec| spec.id);
        let mut ids: Vec<ChareId> = self
            .chares
            // analyze: allow(nondeterminism, "hash order erased by the sort below — images are encoded in id order")
            .keys()
            .filter(|id| id.coll != main_coll)
            .copied()
            .collect();
        ids.sort();
        let mut chares = Vec::with_capacity(ids.len());
        for id in ids {
            // analyze: allow(panic, "checkpoint walks this PE's own chares; their specs exist locally")
            let cs = &self.colls[&id.coll];
            let encode_msg = self.registry.vtable(cs.spec.ctype).encode_msg;
            // analyze: allow(panic, "checkpoint walks this PE's own chare map keys")
            let slot = &self.chares[&id];
            assert!(
                slot.coros.is_empty(),
                "cannot checkpoint {id}: a threaded entry method is active"
            );
            let boxed = slot
                .boxed
                .as_ref()
                // analyze: allow(panic, "checkpoints run between entry methods; the box is in place")
                .expect("chare checked out at checkpoint");
            let data = boxed
                .pack(self.cfg.codec)
                .unwrap_or_else(|| {
                    // analyze: allow(panic, "checkpointing a chare type without pack support is a registration bug")
                    panic!(
                        "{} is not migratable; checkpointing requires register_migratable",
                        self.registry.vtable(boxed.type_id()).name
                    )
                })
                // analyze: allow(panic, "encoding chare state for checkpoint fails only on a codec bug")
                .expect("chare state failed to encode");
            let buffered: Vec<(Vec<u8>, Option<FutureId>, Option<u32>)> = slot
                .buffered
                .iter()
                .map(|b| {
                    (
                        encode_msg(&*b.msg, self.cfg.codec)
                            // analyze: allow(panic, "buffered messages were encodable at send time")
                            .expect("buffered message encode failed"),
                        b.reply,
                        b.guard,
                    )
                })
                .collect();
            chares.push(CkptChare {
                coll: id.coll,
                index: id.index,
                data,
                red_seq: slot.red_seq,
                buffered,
            });
        }
        let saved = chares.len() as u64;
        let file = CkptFile {
            version: checkpoint::CKPT_VERSION,
            npes: self.npes as u64,
            epoch,
            specs,
            chares,
        };
        let mut bytes = 0u64;
        if let Some(dir) = &dir {
            bytes += checkpoint::write_file(std::path::Path::new(dir), self.pe, &file)
                // analyze: allow(panic, "an unwritable checkpoint directory is an unrecoverable operator error; fail loudly rather than silently drop the checkpoint")
                .unwrap_or_else(|e| panic!("checkpoint write failed on PE {}: {e}", self.pe));
        }
        if buddy {
            let image = checkpoint::encode_image(&file).unwrap_or_else(|e| {
                // analyze: allow(recovery-hook, "encoding the in-memory checkpoint image fails only on a codec bug; without the image there is nothing to recover from")
                panic!("checkpoint image encode failed on PE {}: {e}", self.pe)
            });
            bytes += image.len() as u64;
            self.ckpt_store.store_own(epoch, image.clone());
            // Ship a copy to the buddy; the buddy acks the initiator on our
            // behalf, so a committed generation implies buddy coverage.
            let buddy_pe = (self.pe + 1) % self.npes;
            self.emit(
                buddy_pe,
                EnvKind::CkptBuddy {
                    owner: self.pe,
                    initiator,
                    epoch,
                    saved,
                    image,
                },
            );
        } else {
            self.emit(initiator, EnvKind::CkptAck { saved });
        }
        if self.tracer.enabled() {
            self.tracer.ckpt_bytes += bytes;
            if self.tracer.full() {
                let now = self.now_ns();
                self.tracer
                    .push(now, charm_trace::EventKind::Ckpt { bytes });
            }
        }
    }

    /// Buddy half of in-memory double checkpointing: hold `owner`'s image
    /// so its death can be recovered from this PE's copy, then ack the
    /// initiator on the owner's behalf.
    fn ckpt_buddy(&mut self, owner: Pe, initiator: Pe, epoch: u64, saved: u64, image: WireBytes) {
        self.ckpt_store.store_held(owner, epoch, image);
        self.emit(initiator, EnvKind::CkptAck { saved });
    }

    fn ckpt_ack(&mut self, saved: u64) {
        // A late or duplicate ack after the checkpoint window closed is a
        // peer-protocol anomaly, not a local invariant violation: drop it
        // rather than bringing the PE down.
        //
        // The `mutation-ckptack` feature (tests only, never default)
        // reintroduces the pre-fix behaviour — panicking on the stray ack —
        // so the mutation smoke test can prove the model checker
        // rediscovers the original bug and shrinks its schedule.
        #[cfg(feature = "mutation-ckptack")]
        let Some(pending) = self.ckpt.take() else {
            // analyze: allow(panic, "deliberately reintroduced bug behind the test-only mutation-ckptack feature; the model checker must catch this")
            panic!(
                "stray CkptAck on PE {} with no checkpoint in progress",
                self.pe
            );
        };
        #[cfg(not(feature = "mutation-ckptack"))]
        let Some(pending) = self.ckpt.take() else {
            return;
        };
        match pending {
            CkptPending::Manual { fid, left, total } => {
                let total = total + saved;
                if left > 1 {
                    self.ckpt = Some(CkptPending::Manual {
                        fid,
                        left: left - 1,
                        total,
                    });
                    return;
                }
                let dst = fid.pe as usize;
                let payload = OutPayload::new(total as i64)
                    .into_payload(
                        dst == self.pe,
                        self.cfg.same_pe_byref,
                        self.cfg.codec,
                        &mut self.encode_pool,
                    )
                    // analyze: allow(panic, "encoding the checkpoint count fails only on a codec bug")
                    .expect("checkpoint count failed to encode");
                self.emit(dst, EnvKind::FutureValue { fid, payload });
            }
            CkptPending::Auto {
                left,
                waiters,
                telemetry,
            } => {
                if left > 1 {
                    self.ckpt = Some(CkptPending::Auto {
                        left: left - 1,
                        waiters,
                        telemetry,
                    });
                    return;
                }
                // Generation committed on every PE. A telemetry sweep due
                // at the same quiescence round runs now — the machine is
                // still quiescent and the waiters are still parked — then
                // releases the waiters; otherwise release them here.
                if telemetry {
                    self.start_telemetry_sweep(waiters);
                    return;
                }
                self.complete_qd_waiters(waiters);
            }
        }
    }

    fn restore_coll(&mut self, spec: CollSpec, root: Pe) {
        let tree = self.cfg.tree;
        tree.children_for_each(self.pe, root, self.npes, |child| {
            self.emit(
                child,
                EnvKind::RestoreColl {
                    spec: spec.clone(),
                    root,
                },
            );
        });
        // A restored collection starts empty everywhere; members arrive as
        // MigrateChare envelopes, which maintain local/subtree counts.
        let coll = spec.id;
        if spec.id.creator as usize == self.pe {
            // Keep fresh collection ids from colliding with restored ones.
            self.seed
                .coll_seq
                .fetch_max(spec.id.seq + 1, std::sync::atomic::Ordering::Relaxed);
        }
        self.colls.entry(coll).or_insert_with(|| CollState {
            local_members: 0,
            subtree_members: 0,
            done_inserting: !matches!(spec.kind, CollKind::Sparse),
            red_broadcast_seen: 0,
            spec,
        });
        self.dispatch_cache.clear();
        if let Some(parked) = self.pending_coll.remove(&coll) {
            for env in parked {
                self.dispatch(env);
            }
        }
    }

    /// PE 0, at bootstrap with a restore source: re-install the collections
    /// and redistribute the chares by their placement policy onto the
    /// *current* PE count (which may differ from the checkpoint's).
    fn restore_from_files(&mut self, files: Vec<CkptFile>) {
        let mut seen = std::collections::HashSet::new();
        let mut specs = Vec::new();
        for f in &files {
            for spec in &f.specs {
                if seen.insert(spec.id) {
                    specs.push(spec.clone());
                }
            }
        }
        for spec in &specs {
            self.emit(
                0,
                EnvKind::RestoreColl {
                    spec: spec.clone(),
                    root: 0,
                },
            );
        }
        let spec_of = |coll: CollectionId| {
            specs
                .iter()
                .find(|s| s.id == coll)
                // analyze: allow(panic, "a checkpoint naming a collection absent from the restored spec set is corrupt input; fail loudly")
                .unwrap_or_else(|| panic!("checkpointed chare of unknown collection {coll}"))
        };
        let mut restored = 0u64;
        for f in files {
            for c in f.chares {
                let dest = spec_of(c.coll).place(&c.index, self.npes, &self.placements);
                self.emit(
                    dest,
                    EnvKind::MigrateChare {
                        msg: Box::new(MigrateMsg {
                            coll: c.coll,
                            index: c.index,
                            data: c.data,
                            buffered: c.buffered,
                            load_ns: 0,
                            red_seq: c.red_seq,
                            for_lb: false,
                            trail: Vec::new(),
                        }),
                    },
                );
                restored += 1;
            }
        }
        let _ = restored;
    }

    // =====================================================================
    // Bootstrap
    // =====================================================================

    fn bootstrap(&mut self) {
        debug_assert_eq!(self.pe, 0, "bootstrap on non-zero PE");
        if let Some(restore) = &self.cfg.restore {
            // Re-install the checkpoint, then hold the entry coroutine
            // until quiescence confirms every restored chare has landed —
            // otherwise the entry's first broadcast could race migrants.
            let files = match restore {
                RestoreFrom::Dir(dir) => checkpoint::read_all(dir)
                    // analyze: allow(recovery-hook, "the driver pre-validates the restore directory; a failure here means it was ripped out from under a running restore")
                    .unwrap_or_else(|e| panic!("checkpoint restore failed: {e}")),
                RestoreFrom::Images(files) => files.clone(),
            };
            self.restore_from_files(files);
            let fid = FutureId {
                pe: self.pe as u32,
                seq: self
                    .seed
                    .fut_seq
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            };
            self.entry_gate = Some(fid);
            self.emit(0, EnvKind::QdRequest { fid });
            return;
        }
        self.launch_main();
    }

    fn launch_main(&mut self) {
        let id = self.main_id;
        // The main chare lives in a synthetic singleton collection known
        // only to PE 0 — it is never addressed remotely.
        let spec = CollSpec {
            id: id.coll,
            ctype: self.registry.type_of::<crate::runtime::Main>(),
            kind: CollKind::Singleton { pe: 0 },
            placement: crate::collections::Placement::Hash,
            use_lb: false,
        };
        self.colls.insert(
            id.coll,
            CollState {
                spec,
                local_members: 1,
                subtree_members: 1,
                done_inserting: true,
                red_broadcast_seen: 0,
            },
        );
        self.chares.insert(
            id,
            Slot::new(Box::new(crate::chare::holder_for(
                crate::runtime::Main,
                self.registry.type_of::<crate::runtime::Main>(),
            ))),
        );
        // analyze: allow(panic, "bootstrap runs exactly once and Runtime::run always sets the entry closure first")
        let entry = self.entry.take().expect("bootstrap without entry closure");
        self.launch_coro(id, entry, None);
    }
}

fn cs_home(cs: &CollState, index: &Index, npes: usize) -> Pe {
    cs.spec.home_pe(index, npes)
}
