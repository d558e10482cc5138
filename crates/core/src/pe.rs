//! The per-PE scheduler: envelope accounting, the dispatch switch, routing
//! and delivery, and the chare slots.
//!
//! `PeState` is transport-agnostic: handling an envelope never blocks on
//! the network — outgoing traffic is queued in `outbox` and shipped by the
//! driver (`driver.rs`) over whichever transport the backend provides.
//!
//! The protocols live beside their state, each in its own module as an
//! `impl PeState` block over one private-field struct: `location`
//! (where a chare lives, migration), `collections` (creation, membership),
//! `reduction`, `lb`, `sweep` (quiescence detection and telemetry),
//! `checkpoint`, `aggregation` and `coro`. `dispatch` hands each envelope
//! kind to its module's `on_*` entry point and holds no protocol logic.

// Scheduler hot path (DESIGN.md §6): the panic, blocking and nondeterminism rules.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::iter_over_hash_type))]

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::sync::Arc;
use std::time::Instant;

use charm_sim::MachineModel;
use charm_trace::{EntryKind, PeTracer, TraceConfig, WorkClass};
use charm_wire::{Codec, EncodePool, WireBytes};

use crate::aggregation::Aggregator;
use crate::chare::{ChareBox, ChareVTable, MsgGuards, Registry};
use crate::checkpoint::{Ckpt, CkptFile, Store};
use crate::collections::{CollKind, CollSpec, Colls, Placements};
use crate::coro::{CoroSide, Coros, WaitKind};
use crate::ctx::{Ctx, CtxSeed, Op};
use crate::future::{FutState, FutTable};
use crate::ids::{ChareId, CollectionId, FutureId, Index, Pe};
use crate::lb::{Lb, LbStrategy};
use crate::location::{Locations, Route};
use crate::msg::{BoxMsg, CollMsg, EnvKind, Envelope, LocMsg, OutPayload, Payload, SweepMsg};
use crate::reduction::{CustomReducers, RedData, Reductions};
use crate::sweep::Sweeps;
use crate::tree::TreeShape;

/// Scheduler configuration, the same on every backend.
#[derive(Clone)]
pub(crate) struct SchedCfg {
    pub codec: Codec,
    /// §II-D same-PE by-reference optimization (ablation toggle).
    pub same_pe_byref: bool,
    pub tree: TreeShape,
    /// The strategy the LB tree's root runs.
    pub lb: Arc<dyn LbStrategy>,
    /// Fan-in of the LB tree (`npes` by default: one level).
    pub lb_group_size: usize,
    /// Machine model (sim backend only): its presence puts the PE on
    /// virtual time, and it prices the dynamic-dispatch overhead.
    pub sim_model: Option<MachineModel>,
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

/// A when-guard-deferred message.
pub(crate) struct Buffered {
    pub(crate) msg: BoxMsg,
    pub(crate) reply: Option<FutureId>,
    /// Per-message when-condition id, if the sender attached one.
    pub(crate) guard: Option<u32>,
}

/// One local chare.
pub(crate) struct Slot {
    pub(crate) boxed: Option<Box<dyn ChareBox>>,
    /// When-guard-deferred messages in arrival order. A deque so the drain
    /// in `after_state_change` pulls the ready message without shifting the
    /// whole tail: the common case (front is ready) pops in O(1).
    pub(crate) buffered: VecDeque<Buffered>,
    pub(crate) load_ns: u64,
    pub(crate) red_seq: u64,
    pub(crate) at_sync: bool,
    /// Migrations this chare has made: the version of the location records
    /// its next move writes (`location.rs`).
    pub(crate) seq: u64,
    pub(crate) coros: Vec<crate::ids::CoroId>,
    /// PEs that still hold a forwarding stub chain for this chare from its
    /// previous migrations. Travels with the chare; when it reaches
    /// [`MAX_FWD_HOPS`](crate::location::MAX_FWD_HOPS) the arrival PE
    /// broadcasts its location to every stub holder and the chain
    /// collapses, bounding forward latency.
    pub(crate) fwd_trail: Vec<Pe>,
}

impl Slot {
    /// The chare, in place between handler invocations. Entry methods and
    /// coroutine segments run one at a time per chare and each returns the
    /// box before anything else touches the slot (checked dynamically under
    /// `--features analyze`).
    #[expect(clippy::expect_used, reason = "panic: a chare runs one at a time")]
    pub(crate) fn chare(&self) -> &dyn ChareBox {
        self.boxed.as_deref().expect("chare is checked out")
    }

    /// Check the chare out for one handler or coroutine segment.
    #[expect(clippy::expect_used, reason = "panic: same invariant as chare()")]
    pub(crate) fn checkout(&mut self) -> Box<dyn ChareBox> {
        self.boxed.take().expect("re-entrant use of one chare")
    }

    pub(crate) fn new(boxed: Box<dyn ChareBox>) -> Slot {
        Slot {
            boxed: Some(boxed),
            buffered: VecDeque::new(),
            load_ns: 0,
            red_seq: 0,
            at_sync: false,
            seq: 0,
            coros: Vec::new(),
            fwd_trail: Vec::new(),
        }
    }
}

/// What to run on a chare.
pub(crate) enum Invoke {
    Entry(BoxMsg, Option<FutureId>, Option<u32>),
    Reduced(u32, RedData),
    ResumeFromSync,
}

pub(crate) struct PeState {
    pub pe: Pe,
    pub npes: usize,
    pub cfg: Arc<SchedCfg>,
    pub(crate) seed: CtxSeed,
    pub(crate) registry: Arc<Registry>,
    pub(crate) placements: Arc<Placements>,

    pub(crate) chares: HashMap<ChareId, Slot>,
    pub(crate) colls: Colls,
    pub(crate) locs: Locations,
    pub(crate) futures: FutTable,
    pub(crate) coros: Coros,
    pub(crate) reds: Reductions,

    /// Scratch buffers for message encodes on this PE's send path.
    pub(crate) encode_pool: EncodePool,
    /// Per-destination aggregation buffers (`cfg.agg` on; empty when off).
    pub(crate) agg: Aggregator,
    /// Cached wall timestamp for the threads send path: refreshed once per
    /// handled envelope instead of read (`Instant::now`) once per emitted
    /// envelope — measurably hot under fine-grained fan-out.
    now_cache_ns: u64,

    pub(crate) lb: Lb,
    pub(crate) ckpt: Ckpt,
    pub(crate) sweeps: Sweeps,

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
    pub(crate) entry_gate: Option<FutureId>,

    /// Happens-before detector (vector clocks + send/deliver accounting).
    #[cfg(feature = "analyze")]
    pub det: crate::analyze::Detector,
}

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
    #[expect(clippy::too_many_arguments, reason = "one per shared table")]
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
        PeState {
            pe,
            npes,
            seed,
            registry,
            placements,
            chares: HashMap::new(),
            colls: Colls::default(),
            locs: Locations::default(),
            futures: HashMap::new(),
            coros: Coros::default(),
            reds: Reductions::new(reducers),
            encode_pool: EncodePool::new(),
            agg: Aggregator::new(if cfg.agg.is_some() { npes } else { 0 }),
            now_cache_ns: 0,
            lb: Lb::default(),
            ckpt: Ckpt::new(cfg.ckpt_seq_start),
            sweeps: Sweeps::default(),
            outbox: Vec::new(),
            tracer: PeTracer::new(&cfg.trace),
            event_work_ns: 0,
            clock_ns: 0,
            start,
            exited: false,
            entry,
            entry_gate: None,
            #[cfg(feature = "analyze")]
            det,
            cfg,
        }
    }

    /// Current time in nanoseconds (virtual under sim, real elapsed under
    /// threads).
    pub fn now_ns(&self) -> u64 {
        if self.cfg.sim_model.is_some() {
            self.clock_ns + self.event_work_ns
        } else {
            self.start.elapsed().as_nanos() as u64
        }
    }

    pub(crate) fn new_ctx(&self, this: Option<ChareId>) -> Ctx {
        Ctx::new(self.seed.clone(), self.now_ns(), this)
    }

    /// Timestamp for send-path trace events. Under threads this reads the
    /// cache refreshed once per handled envelope (`handle`) rather than
    /// calling `Instant::now` per emitted envelope; the trace ring's
    /// monotone clamp absorbs the sub-event coarseness.
    pub(crate) fn send_ts_ns(&self) -> u64 {
        if self.cfg.sim_model.is_some() {
            self.clock_ns + self.event_work_ns
        } else {
            self.now_cache_ns
        }
    }

    /// Record an event on the ring under full capture; `kind` is built only
    /// then, after the timestamp is read.
    pub(crate) fn trace_event(&mut self, kind: impl FnOnce(&Self) -> charm_trace::EventKind) {
        if self.tracer.full() {
            let now = self.now_ns();
            let kind = kind(self);
            self.tracer.push(now, kind);
        }
    }

    /// The slot of a chare the caller knows to be on this PE: an id it just
    /// routed to, walked out of the slot table or is executing for. A chare
    /// leaves its PE only through `migrate_out`, never under a running
    /// handler.
    #[expect(clippy::panic, reason = "panic: the caller knows it is here")]
    pub(crate) fn slot(&self, id: &ChareId) -> &Slot {
        self.chares
            .get(id)
            .unwrap_or_else(|| panic!("chare {id} is not on PE {}", self.pe))
    }

    /// [`Self::slot`], mutably.
    #[expect(clippy::panic, reason = "panic: same invariant as slot()")]
    pub(crate) fn slot_mut(&mut self, id: &ChareId) -> &mut Slot {
        let pe = self.pe;
        self.chares
            .get_mut(id)
            .unwrap_or_else(|| panic!("chare {id} is not on PE {pe}"))
    }

    /// Ids of the local chares `keep` selects, sorted: every walk over the
    /// slot table that feeds emission order goes through here.
    pub(crate) fn sorted_chares(&self, keep: impl Fn(&ChareId) -> bool) -> Vec<ChareId> {
        #[expect(clippy::disallowed_methods, reason = "nondeterminism: sorted below")]
        let mut ids: Vec<ChareId> = self.chares.keys().filter(|id| keep(id)).copied().collect();
        ids.sort();
        ids
    }

    /// Queue an envelope for `dst` (counting for QD and traffic stats).
    ///
    /// All *logical* accounting happens here, per message — QD counts,
    /// per-PE send counters, detector trace minting — regardless of whether
    /// the envelope then travels alone or coalesced inside a batch frame,
    /// so aggregation never perturbs `RunReport` message/byte totals or
    /// quiescence arithmetic.
    pub(crate) fn emit(&mut self, dst: Pe, kind: EnvKind) {
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
        let mut env = self.wrap(kind);
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

    /// Emit `mk()` to each of this PE's children in `tree` rooted at
    /// `root` (one step of a down-wave); returns how many there were.
    pub(crate) fn relay(
        &mut self,
        tree: TreeShape,
        root: Pe,
        mut mk: impl FnMut() -> EnvKind,
    ) -> usize {
        let mut children = 0;
        tree.children_for_each(self.pe, root, self.npes, |child| {
            children += 1;
            self.emit(child, mk());
        });
        children
    }

    /// Turn a runtime-built typed payload into its transit form: kept boxed
    /// when the destination is `local` (and §II-D by-reference is on),
    /// serialized through the encode pool otherwise.
    pub(crate) fn encode_for(&mut self, local: bool, payload: OutPayload) -> Payload {
        payload.into_payload(
            local,
            self.cfg.same_pe_byref,
            self.cfg.codec,
            &mut self.encode_pool,
        )
    }

    /// Complete future `fid` with `value`.
    pub(crate) fn send_future(&mut self, fid: FutureId, value: OutPayload) {
        let dst = fid.pe as usize;
        let payload = self.encode_for(dst == self.pe, value);
        self.emit(dst, EnvKind::FutureValue { fid, payload });
    }

    /// Charge compute to the current event (and, optionally, a chare),
    /// classified as useful entry work or runtime overhead for the trace.
    pub(crate) fn charge_work(&mut self, ns: u64, chare: Option<&ChareId>, class: WorkClass) {
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
                self.sweeps.observe(id, ns);
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
        if self.cfg.sim_model.is_none() && self.tracer.enabled() {
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
            self.trace_event(|_| charm_trace::EventKind::StaleDrop);
            return;
        }
        // A batch is a transport frame, not a delivery: split it back into
        // its constituent entry envelopes and handle each in frame (=
        // emission) order. All per-message accounting — QD processed
        // counts, recv stats, detector delivery checks — happens in the
        // recursive calls, exactly once per constituent; the split itself
        // (one decode + copy per record, via the entry decode path
        // downstream) is the per-message unpack cost of aggregation.
        if let EnvKind::Batch { frame, .. } = env.kind {
            #[expect(clippy::panic, reason = "panic: our own batch frame; a framing bug")]
            let constituents = crate::msg::split_batch(env.src, env.epoch, &frame, self.cfg.codec)
                .unwrap_or_else(|e| panic!("batch frame split failed: {e}"));
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
                let now = self.send_ts_ns();
                self.tracer.latency(now.saturating_sub(env.sent_ns));
            }
            self.trace_event(|_| charm_trace::EventKind::MsgRecv {
                bytes: sz.min(u32::MAX as u64) as u32,
            });
        }
        // Delivery event: dedup + per-channel FIFO + clock join. Parked
        // envelopes re-enter via `dispatch()` below, so each delivery is
        // accounted exactly once.
        #[cfg(feature = "analyze")]
        self.det.on_deliver(env.src, &env.trace);
        self.dispatch(env);
    }

    /// Dispatch without QD counting — used for re-processing envelopes that
    /// were parked (they were counted when they first arrived). A switch and
    /// nothing else: an envelope for a collection whose spec has not reached
    /// this PE is parked, every other one goes to the module that owns its
    /// protocol.
    pub(crate) fn dispatch(&mut self, env: Envelope) {
        #[cfg(feature = "analyze")]
        self.det.on_dispatch(&env.trace);
        let Envelope { src, kind, .. } = env;
        if let Some(coll) = kind.coll() {
            if self.colls.get(coll).is_none() {
                return self.park_unknown_coll(coll, kind);
            }
        }
        match kind {
            kind @ (EnvKind::Entry { to, .. } | EnvKind::RedDeliver { to, .. }) => {
                self.route(src, to, kind)
            }
            #[expect(clippy::unreachable, reason = "panic: handle() splits every batch")]
            EnvKind::Batch { .. } => {
                unreachable!("batch envelope reached dispatch unsplit")
            }
            EnvKind::BroadcastEntry { coll, bytes, root } => {
                self.broadcast_entry(coll, bytes, root)
            }
            EnvKind::FutureValue { fid, payload } => self.future_value(fid, payload),
            EnvKind::Coll(msg) => self.on_collection(msg),
            EnvKind::Red(msg) => self.on_reduction(msg),
            EnvKind::Loc(msg) => self.on_location(msg),
            EnvKind::Lb(msg) => self.on_lb(msg),
            EnvKind::Ckpt(msg) => self.on_checkpoint(src, msg),
            EnvKind::Sweep(msg) => self.on_sweep(msg),
            EnvKind::Bootstrap => self.bootstrap(),
            // `Halt` is the supervisor's teardown of a failed incarnation:
            // stop the scheduler loop; the driver salvages state for
            // recovery.
            EnvKind::Exit | EnvKind::Halt => self.exited = true,
        }
    }

    /// An entry broadcast crossing this PE: relay it down the tree, then
    /// deliver to every local member from the one shared buffer.
    fn broadcast_entry(&mut self, coll: CollectionId, bytes: WireBytes, root: Pe) {
        let tree = self.cfg.tree;
        let members = self.sorted_chares(|id| id.coll == coll);
        if self.tracer.enabled() {
            self.tracer.bcast_relays += 1;
            self.trace_event(|s| charm_trace::EventKind::BcastFanout {
                children: tree.fanout(s.pe, root, s.npes) as u32,
                members: members.len() as u32,
            });
        }
        self.relay(tree, root, || EnvKind::BroadcastEntry {
            coll,
            bytes: bytes.clone(),
            root,
        });
        // The encoded bytes stay owned by the one refcounted buffer for the
        // whole fan-out: each local member only *reads* them to decode its
        // own message — no per-member copy.
        for id in members {
            let msg = self.decode_wire(&id, &bytes);
            self.deliver_msg(id, msg, None, None);
        }
    }

    /// Wrap a kind in an envelope from this PE in this incarnation — for
    /// emission, or for parking (so it stays valid when re-dispatched).
    pub(crate) fn wrap(&self, kind: EnvKind) -> Envelope {
        let mut env = Envelope::new(self.pe, kind);
        env.epoch = self.cfg.epoch;
        env
    }

    // =====================================================================
    // Routing and entry delivery
    // =====================================================================

    /// Send `kind` — an `Entry` or a `RedDeliver` for chare `to`, arrived
    /// from `src` — one step closer: deliver it, forward it, or hold it
    /// until this PE learns more. When this PE forwards somebody else's
    /// entry message on a location record (the chare moved on), it tells
    /// the original sender what the record says, so migration-induced
    /// forwarding chains collapse after one use (Charm++'s location-update
    /// piggyback).
    pub(crate) fn route(&mut self, src: Pe, to: ChareId, mut kind: EnvKind) {
        match self.route_of(&to) {
            Route::Local => match kind {
                EnvKind::Entry {
                    payload,
                    reply,
                    guard,
                    ..
                } => {
                    let msg = match payload {
                        Payload::Local(b) => b,
                        Payload::Wire(bytes) => self.decode_wire(&to, &bytes),
                    };
                    self.deliver_msg(to, msg, reply, guard)
                }
                EnvKind::RedDeliver { tag, data, .. } => {
                    self.invoke(to, Invoke::Reduced(tag, data))
                }
                #[expect(clippy::unreachable, reason = "panic: callers pass chare kinds only")]
                other => unreachable!("not routable to a chare: {other:?}"),
            },
            Route::Remote(pe, record) => {
                if let Some(seq) = record {
                    // Forwarding on a location record: tell the next hop
                    // first what this PE knows ("it was headed for you as
                    // of `seq`"), so that it holds the envelope if the
                    // chare has not landed yet instead of sending it round
                    // on an older record of its own.
                    let knows = || EnvKind::Loc(LocMsg::Update { id: to, pe, seq });
                    if src != self.pe && matches!(kind, EnvKind::Entry { .. }) {
                        self.locs.count_fwd_hop();
                        if src != pe {
                            self.emit(src, knows());
                        }
                    }
                    self.emit(pe, knows());
                    #[cfg(feature = "analyze")]
                    if !self.det.on_forward(&to, seq) {
                        return; // reported; stop chasing so the run can end
                    }
                }
                if let EnvKind::Entry { payload, .. } = &mut kind {
                    self.reencode(pe, to.coll, payload, false);
                }
                self.emit(pe, kind);
            }
            Route::BufferHere => {
                let env = self.wrap(kind);
                self.locs.park(to, env);
            }
            Route::UnknownColl => self.park_unknown_coll(to.coll, kind),
        }
    }

    /// The registered hooks of `coll`'s chare type.
    pub(crate) fn vtable_of(&self, coll: CollectionId) -> &ChareVTable {
        self.registry.vtable(self.spec(coll).ctype)
    }

    /// A `Local` payload leaving for another PE must be serialized now (the
    /// §II-D by-reference shortcut only holds same-PE): with the type's
    /// message encoder, or its constructor-argument encoder for `init`.
    pub(crate) fn reencode(&self, dst: Pe, coll: CollectionId, payload: &mut Payload, init: bool) {
        let Payload::Local(any) = payload else {
            return;
        };
        if dst == self.pe {
            return;
        }
        let vt = self.vtable_of(coll);
        let encode = if init { vt.encode_init } else { vt.encode_msg };
        *payload = Payload::Wire(WireBytes::from_vec(encode(&**any, self.cfg.codec)));
    }

    /// Decode a serialized entry message for `id` straight from a borrowed
    /// buffer. Taking `&[u8]` (not an owned buffer) is the point: fan-out
    /// payloads are owned once by the sender's shared buffer and every
    /// local member decodes from that borrow.
    fn decode_wire(&mut self, id: &ChareId, bytes: &[u8]) -> BoxMsg {
        let decode_msg = self.vtable_of(id.coll).decode_msg;
        // Dynamic dispatch (CharmPy mode): the pickle codec runs for real
        // (measured off the sim); the interpreter premium is charged from
        // the machine model (sim backend only).
        if self.cfg.dynamic() {
            if let Some(model) = &self.cfg.sim_model {
                let ns = model.dynamic_overhead(bytes.len()).as_nanos() as u64;
                self.charge_work(ns, Some(id), WorkClass::Overhead);
            }
        }
        self.metered(Some(*id), |s| {
            #[expect(clippy::panic, reason = "panic: a codec or registration bug")]
            decode_msg(s.cfg.codec, bytes)
                .unwrap_or_else(|e| panic!("entry message decode failed: {e}"))
        })
    }

    /// Both the type's receiver-side guard and the optional per-message
    /// sender-side guard must pass for a message to be deliverable.
    fn guards_pass(&self, id: &ChareId, msg: &BoxMsg, guard: Option<u32>) -> bool {
        let chare = self.slot(id).chare();
        if !chare.guard_ok(msg) {
            return false;
        }
        match guard {
            Some(g) => self.cfg.msg_guards.get(g)(chare.any_ref(), msg),
            None => true,
        }
    }

    fn deliver_msg(
        &mut self,
        id: ChareId,
        msg: BoxMsg,
        reply: Option<FutureId>,
        guard: Option<u32>,
    ) {
        let guard_ok = self.guards_pass(&id, &msg, guard);
        let slot = self.slot_mut(&id);
        if !guard_ok || slot.at_sync {
            // Deferred by a when-guard, or parked while the chare sits at an
            // LB sync point (AtSync chares do no work until resumed).
            slot.buffered.push_back(Buffered { msg, reply, guard });
            let depth = slot.buffered.len() as u32;
            if self.tracer.enabled() {
                self.tracer.guard_buffered += 1;
                self.trace_event(|_| charm_trace::EventKind::GuardBuffer { depth });
            }
            return;
        }
        self.invoke(id, Invoke::Entry(msg, reply, guard));
    }

    /// Run one invocation on a local chare, then execute its deferred ops
    /// and re-examine guards/waiting coroutines.
    pub(crate) fn invoke(&mut self, id: ChareId, what: Invoke) {
        let Some(slot) = self.chares.get_mut(&id) else {
            // The chare migrated away between routing and invocation
            // (possible when draining buffers); re-route.
            let kind = match what {
                Invoke::Entry(msg, reply, guard) => EnvKind::Entry {
                    to: id,
                    payload: Payload::Local(msg),
                    reply,
                    guard,
                },
                Invoke::Reduced(tag, data) => EnvKind::RedDeliver { to: id, tag, data },
                Invoke::ResumeFromSync => return,
            };
            return self.route(self.pe, id, kind);
        };
        let mut boxed = slot.checkout();
        #[cfg(feature = "analyze")]
        self.det.enter_chare(&id);
        let mut ctx = self.new_ctx(Some(id));
        let trace_begin = if self.tracer.enabled() {
            self.now_ns()
        } else {
            0
        };
        let t0 = meter_start();
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
        self.slot_mut(&id).boxed = Some(boxed);
        #[cfg(feature = "analyze")]
        self.det.exit_chare(&id);
        self.charge_work(measured, Some(&id), WorkClass::Entry);
        if self.tracer.enabled() {
            let end = self.now_ns();
            let ctype = self.spec(id.coll).ctype.0;
            self.tracer.entry(trace_begin, end, measured, ctype, ekind);
        }
        self.exec_ops(ctx.ops, Some(id), ctx.reply_to);
        self.after_state_change(id);
    }

    /// Host time since `t0` off the sim; the sim's clock reads no host
    /// time, so there it is 0.
    pub(crate) fn metered_ns(&self, t0: Instant) -> u64 {
        if self.cfg.sim_model.is_some() {
            return 0;
        }
        t0.elapsed().as_nanos() as u64
    }

    /// Meter `f`'s real time and charge it as PE work (attributed to
    /// `chare` if given; nothing on the sim). Used for serialization costs
    /// on both directions.
    fn metered<R>(&mut self, chare: Option<ChareId>, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = meter_start();
        let r = f(self);
        let ns = self.metered_ns(t0);
        self.charge_work(ns, chare.as_ref(), WorkClass::Overhead);
        r
    }

    /// Retry when-buffered messages and predicate-blocked coroutines until
    /// no further progress — the receiver-side engine behind `@when`
    /// (§II-E) and `self.wait` (§II-H2).
    pub(crate) fn after_state_change(&mut self, id: ChareId) {
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
                let slot = self.slot(&id);
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
                pos.and_then(|pos| self.slot_mut(&id).buffered.remove(pos))
            };
            #[cfg(feature = "analyze")]
            if let Some(v) = fifo_violation {
                self.det.violation(v);
            }
            if let Some(b) = ready_msg {
                if self.tracer.enabled() {
                    self.tracer.guard_drained += 1;
                    self.trace_event(|s| charm_trace::EventKind::GuardDrain {
                        depth: s.slot(&id).buffered.len() as u32,
                    });
                }
                self.invoke(id, Invoke::Entry(b.msg, b.reply, b.guard));
                continue;
            }
            // 2. A coroutine whose wait-predicate is now satisfied.
            let slot = self.slot(&id);
            let chare = slot.chare();
            let ready_coro =
                slot.coros
                    .iter()
                    .copied()
                    .find(|cid| match self.coros.wait_of(*cid) {
                        Some(WaitKind::Pred(p)) => p(chare.any_ref()),
                        _ => false,
                    });
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

    pub(crate) fn exec_ops(
        &mut self,
        ops: Vec<Op>,
        this: Option<ChareId>,
        reply: Option<FutureId>,
    ) {
        #[expect(clippy::panic, reason = "panic: API contract: inside a chare only")]
        let in_chare = |what: &str| this.unwrap_or_else(|| panic!("{what} outside a chare"));
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
                    let payload = self.metered(this, |s| s.encode_for(is_local, payload));
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
                    let root = self.pe;
                    self.emit(root, EnvKind::BroadcastEntry { coll, bytes, root });
                }
                Op::CreateCollection { spec, init_bytes } => {
                    let (init, root) = (init_bytes, self.pe);
                    self.emit(root, EnvKind::Coll(CollMsg::Create { spec, init, root }));
                }
                Op::InsertElem {
                    coll,
                    index,
                    init,
                    on_pe,
                } => {
                    // Decide the destination if we can; otherwise loop to
                    // self until the spec arrives.
                    let dest = self.colls.get(coll).map(|cs| {
                        on_pe.unwrap_or_else(|| cs.spec.place(&index, self.npes, &self.placements))
                    });
                    let placed = dest.is_some();
                    let dst = dest.unwrap_or(self.pe);
                    let init = self.encode_for(dst == self.pe, init);
                    let insert = CollMsg::Insert {
                        coll,
                        index,
                        init,
                        on_pe,
                        placed,
                    };
                    self.emit(dst, EnvKind::Coll(insert));
                }
                Op::DoneInserting { coll } => {
                    for pe in 0..self.npes {
                        self.emit(pe, EnvKind::Coll(CollMsg::DoneInserting { coll }));
                    }
                }
                Op::SendFuture { fid, payload } => self.send_future(fid, payload),
                Op::Contribute {
                    data,
                    reducer,
                    target,
                } => self.contribute_local(in_chare("contribute"), data, reducer, target),
                Op::MigrateMe { to } => self.migrate_out(in_chare("migrate_me"), to, false),
                Op::AtSync => self.at_sync(in_chare("at_sync")),
                Op::Go(f) => self.launch_coro(in_chare("go"), f, reply),
                Op::Charge(dt) => {
                    if self.cfg.sim_model.is_none() {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "blocking: emulated compute"
                        )]
                        std::thread::sleep(dt);
                        self.now_cache_ns = self.now_ns();
                    }
                    // Summary bins, the hot-chare sketch and the chare's
                    // measured load see the charge on every backend.
                    self.charge_work(dt.as_nanos() as u64, this.as_ref(), WorkClass::Entry);
                }
                Op::StartQd { fid } => self.emit(0, EnvKind::Sweep(SweepMsg::QdRequest { fid })),
                Op::Checkpoint { dir, fid } => self.start_manual_ckpt(dir, fid),
                Op::Exit => {
                    for pe in 0..self.npes {
                        self.emit(pe, EnvKind::Exit);
                    }
                }
                Op::TraceMark(label) => {
                    self.trace_event(move |_| charm_trace::EventKind::Mark { label })
                }
            }
        }
    }

    // =====================================================================
    // Futures
    // =====================================================================

    pub(crate) fn future_value(&mut self, fid: FutureId, payload: Payload) {
        debug_assert_eq!(fid.pe as usize, self.pe, "future value routed to wrong PE");
        if self.entry_gate == Some(fid) {
            // Restoration quiesced: every checkpointed chare has landed.
            self.entry_gate = None;
            self.launch_main();
            return;
        }
        match self.futures.remove(&fid) {
            Some(FutState::Waiting(cid)) => self.resume_coro(cid, Some(payload)),
            #[expect(clippy::panic, reason = "panic: a future completes once")]
            Some(FutState::Ready(_)) => panic!("future {fid:?} completed twice"),
            _ => {
                self.futures.insert(fid, FutState::Ready(payload));
            }
        }
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
        // Counters kept outside the tracer (encode pool, locations, LB)
        // fold into the report here.
        trace.perf.slab_hits = self.encode_pool.hits();
        trace.perf.slab_misses = self.encode_pool.misses();
        trace.perf.inline_payloads = self.encode_pool.inline_count();
        trace.perf.fwd_hops = self.locs.fwd_hops();
        trace.perf.lb_peak_stats = self.lb.peak_stats();
        trace.perf.lb_epochs = self.lb.epochs_done();
        // The telemetry series lives where the sweeps complete (PE 0).
        trace.telemetry = self.sweeps.take_series();
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
        let ids = self.sorted_chares(|_| true);
        let buffered: usize = ids.iter().map(|id| self.slot(id).buffered.len()).sum();
        let blocked = self.coros.blocked();
        let (pending_chare, pending_coll) = (self.locs.parked().0, self.colls.parked().0);
        let (at_sync, reds) = (self.lb.at_sync_count(), self.reds.progress());
        if buffered == 0
            && blocked == 0
            && reds.is_empty()
            && pending_chare == 0
            && pending_coll == 0
            && at_sync == 0
        {
            return;
        }
        let c = &self.tracer.counters;
        eprintln!(
            "  PE {}: {} chares, {} buffered msgs, {} blocked coros, {} reductions in flight, {} pending-chare, {} pending-coll, at_sync={}, sent={} processed={} remote_bytes={} entries={} migrations={}",
            self.pe,
            ids.len(),
            buffered,
            blocked,
            reds.len(),
            pending_chare,
            pending_coll,
            at_sync,
            c.sent,
            c.processed,
            c.bytes,
            c.entries,
            c.migrations,
        );
        for (coll, redno, count) in reds {
            eprintln!(
                "    red {coll} #{redno}: count {count} of subtree {}",
                self.subtree_expected(coll)
            );
        }
        for id in ids {
            let slot = self.slot(&id);
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
    // Bootstrap
    // =====================================================================

    fn bootstrap(&mut self) {
        debug_assert_eq!(self.pe, 0, "bootstrap on non-zero PE");
        if let Some(restore) = &self.cfg.restore {
            // Re-install the checkpoint, then hold the entry coroutine
            // until quiescence confirms every restored chare has landed —
            // otherwise the entry's first broadcast could race migrants.
            let files = match restore {
                #[expect(clippy::panic, reason = "panic: the driver checked the directory")]
                RestoreFrom::Dir(dir) => crate::checkpoint::read_all(dir)
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
            self.emit(0, EnvKind::Sweep(SweepMsg::QdRequest { fid }));
            return;
        }
        self.launch_main();
    }

    fn launch_main(&mut self) {
        let id = main_chare_id();
        let ctype = self.registry.type_of::<crate::runtime::Main>();
        // The main chare lives in a synthetic singleton collection known
        // only to PE 0 — it is never addressed remotely.
        let spec = CollSpec {
            id: id.coll,
            ctype,
            kind: CollKind::Singleton { pe: 0 },
            placement: crate::collections::Placement::Hash,
            use_lb: false,
        };
        self.install_coll(spec, 1);
        let main = crate::chare::holder_for(crate::runtime::Main, ctype);
        self.chares.insert(id, Slot::new(Box::new(main)));
        #[expect(clippy::expect_used, reason = "panic: bootstrap runs exactly once")]
        let entry = self.entry.take().expect("bootstrap without entry closure");
        self.launch_coro(id, entry, None);
    }
}

/// Start of a metered span (an entry's decode, encode or handler, or a
/// coroutine segment). The reading is wall time: Threads and Net charge
/// it (LB reads measured load there); `metered_ns` and `resume_coro`
/// discard it on the sim, so it never reaches virtual time.
#[expect(
    clippy::disallowed_methods,
    reason = "nondeterminism: only Threads and Net charge it; the sim discards it"
)]
pub(crate) fn meter_start() -> Instant {
    Instant::now()
}
