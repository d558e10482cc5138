//! Messages, payloads and the runtime envelope.
//!
//! Entry-method arguments travel as a [`Payload`]: same-PE sends keep the
//! boxed value and move it by reference into the callee (the paper's §II-D
//! optimization — ownership transfer in Rust enforces the "caller must give
//! up ownership" rule at compile time), while cross-PE sends serialize with
//! the active codec into a shared, refcounted [`WireBytes`] buffer. Fan-out
//! (broadcast, multicast, collection creation) clones the handle, never the
//! bytes, so N destinations share one allocation.

// Scheduler hot path (DESIGN.md §6): the panic and blocking rules.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::any::Any;

use charm_trace::{Hist, MetricFrame, TopItem};
use charm_wire::{
    wire_enum, wire_struct, Codec, EncodePool, Reader, Wire, WireBytes, WireError, Writer,
};

use crate::collections::CollSpec;
use crate::ids::{ChareId, CollectionId, FutureId, Index, Pe};
use crate::reduction::{RedData, RedTarget, Reducer};

/// Marker for types usable as entry-method arguments, constructor arguments
/// and future values. Blanket-implemented: any [`Wire`] `Send` type works.
pub trait Message: Wire + Send + 'static {}
impl<T: Wire + Send + 'static> Message for T {}

/// A type-erased message value.
pub type BoxMsg = Box<dyn Any + Send>;

/// An entry-method argument in transit.
pub enum Payload {
    /// Same-process payload, passed by move (never serialized).
    Local(BoxMsg),
    /// Serialized payload (cross-PE): a refcounted handle onto one shared
    /// allocation, so fan-out clones the handle, not the bytes.
    Wire(WireBytes),
}

impl Payload {
    /// Serialized size, if already on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Local(_) => 0,
            Payload::Wire(b) => b.len(),
        }
    }

    /// Recover a typed value: downcast if local, decode if serialized.
    #[expect(clippy::panic, reason = "panic: a registration or codec bug")]
    pub fn take<V: Message>(self, codec: Codec) -> V {
        match self {
            Payload::Local(b) => *b.downcast::<V>().unwrap_or_else(|_| {
                panic!("payload type mismatch for {}", std::any::type_name::<V>())
            }),
            Payload::Wire(bytes) => codec.decode::<V>(&bytes).unwrap_or_else(|e| {
                panic!(
                    "payload decode failed for {}: {e}",
                    std::any::type_name::<V>()
                )
            }),
        }
    }
}

/// A payload crosses a process boundary as one raw byte block, written
/// straight from the shared allocation. A [`Payload::Local`] box reaching
/// an encoder means the scheduler classified a remote destination as
/// same-PE — a runtime bug that surfaces as a typed error, never as a
/// silent drop of the box.
impl Wire for Payload {
    fn encode<W: Writer>(&self, w: &mut W) -> charm_wire::Result<()> {
        match self {
            Payload::Local(_) => Err(WireError::Unsupported(
                "Payload::Local at a process boundary",
            )),
            Payload::Wire(b) => b.encode(w),
        }
    }
    fn decode<R: Reader>(r: &mut R) -> charm_wire::Result<Self> {
        WireBytes::decode(r).map(Payload::Wire)
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Local(_) => write!(f, "Payload::Local"),
            Payload::Wire(b) => write!(f, "Payload::Wire({}B)", b.len()),
        }
    }
}

/// An outgoing typed payload: the boxed value plus the encoder captured at
/// the (generic) call site, so the scheduler can serialize it later if the
/// destination turns out to be remote — without any type registry lookup.
pub struct OutPayload {
    pub(crate) any: BoxMsg,
    pub(crate) encode: fn(&dyn Any, Codec, &mut EncodePool) -> charm_wire::Result<WireBytes>,
}

impl OutPayload {
    /// Wrap a typed message.
    pub fn new<M: Message>(m: M) -> OutPayload {
        OutPayload {
            any: Box::new(m),
            encode: |any, codec, pool| {
                #[expect(clippy::expect_used, reason = "panic: built with the same type")]
                let m = any
                    .downcast_ref::<M>()
                    .expect("OutPayload encoder type invariant");
                codec.encode_shared_with(pool, m)
            },
        }
    }

    /// Turn into a transit payload for `dst`: local stays boxed, remote is
    /// serialized into a pooled scratch buffer and published as shared
    /// bytes. `same_pe_byref=false` (ablation switch) forces serialization
    /// even locally.
    pub fn into_payload(
        self,
        local: bool,
        same_pe_byref: bool,
        codec: Codec,
        pool: &mut EncodePool,
    ) -> charm_wire::Result<Payload> {
        if local && same_pe_byref {
            Ok(Payload::Local(self.any))
        } else {
            Ok(Payload::Wire((self.encode)(&*self.any, codec, pool)?))
        }
    }
}

impl std::fmt::Debug for OutPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OutPayload")
    }
}

/// The body of a [`EnvKind::MigrateChare`] envelope: a migrating chare's
/// packed state plus its runtime baggage. Boxed inside the envelope — the
/// sim backend keeps up to 10^6 envelopes in flight, and an unboxed
/// migration body (three vectors plus scalars) would dominate the enum
/// size for every message kind.
#[derive(Debug)]
pub struct MigrateMsg {
    /// Collection of the migrating chare.
    pub coll: CollectionId,
    /// Its index.
    pub index: Index,
    /// Serialized chare state.
    pub data: Vec<u8>,
    /// Buffered (when-guard deferred) messages, serialized, with
    /// their pending reply futures and per-message guard ids.
    pub buffered: Vec<(Vec<u8>, Option<FutureId>, Option<u32>)>,
    /// Accumulated load since the last LB epoch, nanoseconds.
    pub load_ns: u64,
    /// The chare's reduction sequence number.
    pub red_seq: u64,
    /// Whether this migration is part of an LB epoch (completion is
    /// then reported to the LB root).
    pub for_lb: bool,
    /// PEs this chare has left a forwarding stub on, oldest first. Each
    /// hop appends the departing PE; when the trail reaches
    /// [`crate::location::MAX_FWD_HOPS`] the arrival PE collapses the chain by
    /// sending every trail PE (and the home) a `LocationUpdate`.
    pub trail: Vec<Pe>,
    /// How many migrations the chare has made, this one included: the
    /// version of every location record this move gives rise to.
    pub seq: u64,
}
wire_struct! { MigrateMsg { coll, index, data, buffered, load_ns, red_seq, for_lb, trail, seq } }

/// The body of a [`EnvKind::TelemetryFrame`]: boxed — a frame carries two
/// dense histograms and would otherwise dominate the enum size. On the wire
/// it is the frame's row words (`MetricFrame::to_words`), each histogram's
/// words (`Hist::to_words`, checked on the way back in), the top-K list and
/// its cap.
#[derive(Debug)]
pub struct TelemetryBody(pub Box<MetricFrame>);

/// What a [`TelemetryBody`] is on the wire.
type FrameWire = (
    (Vec<u64>, Vec<u64>, Vec<u64>),
    (Vec<(String, u64, u64)>, u64),
);

impl Wire for TelemetryBody {
    fn encode<W: Writer>(&self, w: &mut W) -> charm_wire::Result<()> {
        let f = &*self.0;
        let top = f.top.iter().map(|t| (t.label.clone(), t.weight, t.err));
        let words = (f.to_words(), f.exec.to_words(), f.latency.to_words());
        (words, (top.collect::<Vec<_>>(), f.top_cap as u64)).encode(w)
    }
    fn decode<R: Reader>(r: &mut R) -> charm_wire::Result<Self> {
        let ((words, exec, latency), (top, cap)) = FrameWire::decode(r)?;
        let bad = |why| WireError::TypeMismatch {
            found: why,
            expected: "a telemetry frame",
        };
        let mut f = MetricFrame::from_words(&words)
            .map_err(|e| WireError::InvalidLength(e.found as u64))?;
        f.exec = Hist::from_words(&exec).map_err(bad)?;
        f.latency = Hist::from_words(&latency).map_err(bad)?;
        f.top = top
            .into_iter()
            .map(|(label, weight, err)| TopItem { label, weight, err })
            .collect();
        f.top_cap = usize::try_from(cap).map_err(|_| WireError::InvalidLength(cap))?;
        Ok(TelemetryBody(Box::new(f)))
    }
}

/// A unit of inter-PE communication.
#[derive(Debug)]
pub struct Envelope {
    /// Sending PE.
    pub src: Pe,
    /// What the message is.
    pub kind: EnvKind,
    /// Recovery epoch (machine incarnation) this envelope belongs to. A
    /// scheduler discards envelopes stamped with an epoch other than its
    /// own, so in-flight pre-failure traffic can never double-deliver into
    /// post-restore state.
    pub epoch: u64,
    /// Sender-clock emission stamp (ns), set by the emitting scheduler.
    /// The receiver derives a send→deliver latency sample from it with a
    /// monotone clamp (clocks are per-PE); 0 means "not stamped" (driver-
    /// injected envelopes) and records no sample.
    pub sent_ns: u64,
    /// Happens-before trace (id + sender vector clock) for the dynamic
    /// race detector. Only present with `--features analyze`.
    #[cfg(feature = "analyze")]
    pub trace: crate::analyze::EnvTrace,
}
#[cfg(not(feature = "analyze"))]
wire_struct! { Envelope { src, kind, epoch, sent_ns } }
#[cfg(feature = "analyze")]
wire_struct! { Envelope { src, kind, epoch, sent_ns, trace } }

impl Envelope {
    /// Build an envelope; the trace (when the `analyze` feature is on)
    /// starts untraced and is stamped by the sending scheduler's detector.
    /// The epoch starts at 0 (the first incarnation); schedulers stamp
    /// their own epoch on emission, and drivers re-stamp the bootstrap
    /// envelope of a recovery attempt.
    pub fn new(src: Pe, kind: EnvKind) -> Envelope {
        Envelope {
            src,
            kind,
            epoch: 0,
            sent_ns: 0,
            #[cfg(feature = "analyze")]
            trace: crate::analyze::EnvTrace::default(),
        }
    }

    /// Clone the envelope if its kind supports it — used only by the
    /// fault-injection harness to double-deliver a message. The duplicate
    /// keeps the original trace id, exactly like a network-level duplicate.
    #[cfg(feature = "analyze")]
    pub fn try_clone(&self) -> Option<Envelope> {
        Some(Envelope {
            src: self.src,
            kind: self.kind.try_clone()?,
            epoch: self.epoch,
            sent_ns: self.sent_ns,
            trace: self.trace.clone(),
        })
    }
}

/// The runtime message set.
#[derive(Debug)]
pub enum EnvKind {
    /// Invoke an entry method on one chare.
    Entry {
        /// Destination chare.
        to: ChareId,
        /// The arguments.
        payload: Payload,
        /// Future to complete via `ctx.reply` (the `ret=True` mechanism).
        reply: Option<FutureId>,
        /// Registered per-message when-condition, if any (§II-E
        /// sender-side conditions).
        guard: Option<u32>,
    },
    /// A TRAM-style aggregation frame: `count` coalesced small [`Entry`]
    /// envelopes from one sender to one destination PE, packed into a
    /// single length-prefixed wire frame (see [`push_batch_record`] /
    /// [`split_batch`]). A batch is a transport artifact, not a delivery:
    /// it is never QD-counted and never traced itself — its constituents
    /// carry their own counts and happens-before traces, and the receiver
    /// re-expands them in frame (= emission) order so per-channel FIFO is
    /// preserved.
    ///
    /// [`Entry`]: EnvKind::Entry
    Batch {
        /// Number of coalesced entry messages in `frame`.
        count: u32,
        /// The record-framed constituents, one shared allocation.
        frame: WireBytes,
    },
    /// Invoke an entry method on every member of a collection; relayed down
    /// the PE spanning tree rooted at `root`.
    BroadcastEntry {
        /// Target collection.
        coll: CollectionId,
        /// Pre-encoded arguments, shared across hops and members (decoded
        /// once per member, never re-copied).
        bytes: WireBytes,
        /// Tree root (the broadcasting PE).
        root: Pe,
    },
    /// Replicate collection metadata and create locally-placed members;
    /// relayed down the PE tree rooted at `root`.
    CreateCollection {
        /// The collection being created.
        spec: CollSpec,
        /// Pre-encoded constructor argument, shared by all members.
        init: WireBytes,
        /// Tree root (the creating PE).
        root: Pe,
    },
    /// Create one element (sparse-array insert / singleton chare).
    InsertElem {
        /// Collection to insert into.
        coll: CollectionId,
        /// New element's index.
        index: Index,
        /// Constructor argument.
        init: Payload,
        /// Explicit PE requested by the inserter, if any.
        on_pe: Option<Pe>,
        /// `true` once the destination PE has been decided (the receiving
        /// PE is then the element's host).
        placed: bool,
    },
    /// Sparse-array insertion phase is complete (`ckDoneInserting`).
    DoneInserting {
        /// The collection.
        coll: CollectionId,
    },
    /// Deliver a value to a future on its home PE.
    FutureValue {
        /// The future.
        fid: FutureId,
        /// Its value.
        payload: Payload,
    },
    /// A partial reduction result flowing up the PE tree.
    RedPartial {
        /// Collection being reduced.
        coll: CollectionId,
        /// Reduction sequence number within the collection.
        redno: u64,
        /// Number of member contributions covered by `data`.
        count: u64,
        /// Combined partial data.
        data: RedData,
        /// The reducer in use.
        reducer: Reducer,
        /// Delivery target (fixed by the first contribution).
        target: Option<RedTarget>,
    },
    /// Final reduction value delivered to a single chare.
    RedDeliver {
        /// Destination chare.
        to: ChareId,
        /// Application tag selecting what the value means.
        tag: u32,
        /// The reduced data.
        data: RedData,
    },
    /// Final reduction value broadcast to all members of a collection.
    RedBroadcast {
        /// Destination collection.
        coll: CollectionId,
        /// Application tag.
        tag: u32,
        /// The reduced data.
        data: RedData,
        /// Tree root of the relay.
        root: Pe,
    },
    /// A migrating chare: its packed state plus its runtime baggage
    /// (boxed — see [`MigrateMsg`]).
    MigrateChare {
        /// The migration body.
        msg: Box<MigrateMsg>,
    },
    /// Tell a PE where a chare lives (or is about to land) as of its
    /// `seq`-th migration; the receiver keeps the newest record it has seen.
    LocationUpdate {
        /// The chare.
        id: ChareId,
        /// The PE that migration took it to.
        pe: Pe,
        /// The chare's migration count at that point.
        seq: u64,
    },
    /// Adjust the reduction-tree subtree member count (sparse inserts).
    SubtreeAdd {
        /// The collection.
        coll: CollectionId,
        /// Members added (or removed, if negative) below this PE.
        delta: i64,
    },
    /// An LB tree node (interior or root) instructs a PE to emigrate the
    /// listed chares.
    LbDoMigrate {
        /// `(chare, destination)` pairs owned by the receiving PE. (The
        /// ordering PE tracks the epoch's completion count.)
        moves: Vec<(ChareId, Pe)>,
    },
    /// A migrated chare arrived somewhere (destination → PE 0).
    LbMigrated,
    /// LB epoch complete: every PE resumes its at-sync chares.
    LbResume {
        /// Tree root of the relay (PE 0).
        root: Pe,
    },
    /// A PE whose local LB participants all reached at-sync nudges the LB
    /// root to start the epoch's poll wave. At most one per PE per epoch;
    /// the root starts the wave on the first matching kick and drops the
    /// rest.
    LbKick {
        /// The sender's LB epoch number (resumes seen); the root ignores
        /// kicks from any epoch but its current one, so a kick that
        /// arrives after its epoch completed cannot start a bogus wave.
        epoch: u64,
    },
    /// LB poll wave relayed down the LB group tree. A PE reports up only
    /// after it has been polled, so child reports can never race ahead of
    /// the epoch start.
    LbTreePoll {
        /// LB epoch this wave belongs to. A PE that receives next epoch's
        /// poll before its own `LbResume` (the two travel different
        /// trees) parks the poll until the resume lands.
        epoch: u64,
        /// LB tree root (PE 0).
        root: Pe,
    },
    /// A subtree's folded, bounded LB summary flowing up the LB group tree
    /// (boxed — it carries three vectors).
    LbTreeReport {
        /// The subtree summary.
        report: Box<crate::lb::LbTreeReport>,
    },
    /// Quiescence-detection probe (PE0 → all, relayed).
    QdProbe {
        /// Probe round number.
        round: u64,
        /// Tree root (PE 0).
        root: Pe,
    },
    /// Quiescence-detection counters (PE → PE0, combined up the tree).
    QdCounts {
        /// Probe round these counters answer.
        round: u64,
        /// Messages sent (subtree total).
        sent: u64,
        /// Messages processed (subtree total).
        done: u64,
        /// PEs covered.
        pes: u64,
    },
    /// Save a checkpoint of this PE's chares (initiated by the PE that
    /// called `ctx.checkpoint`, or by PE 0 at the automatic cadence).
    CkptSave {
        /// Target directory; `None` keeps the image purely in memory
        /// (`Store::Memory` buddy checkpointing).
        dir: Option<String>,
        /// Checkpoint generation being taken.
        epoch: u64,
        /// Whether to push an in-memory copy to the buddy PE.
        buddy: bool,
    },
    /// An in-memory checkpoint image pushed to the owner's buddy PE
    /// (`(owner+1) % npes`), which acks the initiator once it holds it.
    CkptBuddy {
        /// The PE whose state this is.
        owner: Pe,
        /// The PE coordinating the checkpoint (receives the ack).
        initiator: Pe,
        /// Checkpoint generation.
        epoch: u64,
        /// Chares in the image (forwarded with the ack).
        saved: u64,
        /// The encoded [`crate::checkpoint::CkptFile`] image; refcounted,
        /// so the owner's local copy and the buddy copy share bytes until
        /// the envelope crosses a PE boundary.
        image: WireBytes,
    },
    /// A PE finished writing its checkpoint file (back to the initiator).
    CkptAck {
        /// Chares it saved.
        saved: u64,
    },
    /// Install collection metadata during a restore: no members are
    /// constructed (they arrive as `MigrateChare` envelopes) and subtree
    /// counts start at zero. Relayed down the PE tree rooted at `root`.
    RestoreColl {
        /// The collection being re-installed.
        spec: CollSpec,
        /// Tree root (PE 0).
        root: Pe,
    },
    /// Ask PE 0 to run quiescence detection and complete `fid` when done.
    QdRequest {
        /// Future completed (with `()`) at quiescence.
        fid: crate::ids::FutureId,
    },
    /// Telemetry sweep request (PE 0 → all, relayed down the PE tree).
    /// Control traffic, never QD-counted: sweeps fire *at* quiescence
    /// (while QD waiters are held), so the reduction sees a stable frame.
    TelemetryProbe {
        /// Sweep sequence number.
        seq: u64,
        /// Tree root (PE 0).
        root: Pe,
    },
    /// A merged telemetry frame flowing up the PE tree to PE 0: each inner
    /// node folds its children's frames into its own sample before
    /// forwarding (the in-band metric reduction).
    TelemetryFrame {
        /// Sweep sequence number this frame answers.
        seq: u64,
        /// The (partially merged) metric frame.
        frame: TelemetryBody,
    },
    /// Start the main chare (delivered once, to PE 0).
    Bootstrap,
    /// Shut the runtime down.
    Exit,
    /// Supervisor-initiated teardown of a failed incarnation: stop the
    /// scheduler loop without treating it as an application exit. Unlike
    /// every other kind, `Halt` is honored regardless of its epoch stamp.
    Halt,
}
// The Net backend's wire form (DESIGN.md §13.1). The match this expands to
// is exhaustive, so a new variant without an entry here is a compile
// error, not a silent wire gap.
wire_enum! {
    EnvKind {
        Entry { to, payload, reply, guard },
        Batch { count, frame },
        BroadcastEntry { coll, bytes, root },
        CreateCollection { spec, init, root },
        InsertElem { coll, index, init, on_pe, placed },
        DoneInserting { coll },
        FutureValue { fid, payload },
        RedPartial { coll, redno, count, data, reducer, target },
        RedDeliver { to, tag, data },
        RedBroadcast { coll, tag, data, root },
        MigrateChare { msg },
        LocationUpdate { id, pe, seq },
        SubtreeAdd { coll, delta },
        LbDoMigrate { moves },
        LbMigrated,
        LbResume { root },
        LbKick { epoch },
        LbTreePoll { epoch, root },
        LbTreeReport { report },
        QdProbe { round, root },
        QdCounts { round, sent, done, pes },
        CkptSave { dir, epoch, buddy },
        CkptBuddy { owner, initiator, epoch, saved, image },
        CkptAck { saved },
        RestoreColl { spec, root },
        QdRequest { fid },
        TelemetryProbe { seq, root },
        TelemetryFrame { seq, frame },
        Bootstrap,
        Exit,
        Halt,
    }
}

impl EnvKind {
    /// Whether this message counts toward quiescence detection (application
    /// traffic) as opposed to runtime control traffic.
    pub fn counts_for_qd(&self) -> bool {
        matches!(
            self,
            EnvKind::Entry { .. }
                | EnvKind::BroadcastEntry { .. }
                | EnvKind::InsertElem { .. }
                | EnvKind::FutureValue { .. }
                | EnvKind::RedPartial { .. }
                | EnvKind::RedDeliver { .. }
                | EnvKind::RedBroadcast { .. }
                | EnvKind::MigrateChare { .. }
        )
    }

    /// The collection whose spec a PE must hold before it can act on this
    /// envelope; a scheduler parks the envelope until that spec arrives
    /// (creation is a tree broadcast, so traffic for a new collection can
    /// outrun it). `None` also for the two kinds addressed to one chare,
    /// `Entry` and `RedDeliver`: routing decides for them, after the local
    /// slot lookup that settles the common case without touching the specs.
    pub fn coll(&self) -> Option<CollectionId> {
        match self {
            EnvKind::BroadcastEntry { coll, .. }
            | EnvKind::InsertElem { coll, .. }
            | EnvKind::DoneInserting { coll }
            | EnvKind::RedPartial { coll, .. }
            | EnvKind::RedBroadcast { coll, .. }
            | EnvKind::SubtreeAdd { coll, .. } => Some(*coll),
            EnvKind::MigrateChare { msg } => Some(msg.coll),
            _ => None,
        }
    }

    /// How many QD-counted *deliveries* this envelope carries: `count` for
    /// an aggregation batch (the batch itself is never QD-counted, but each
    /// constituent is), 1 for ordinary application traffic, 0 for runtime
    /// control messages. The PE-kill fault injector walks this weight so a
    /// failure point expressed as "the Nth delivery" lands at the same
    /// logical position whether or not aggregation is on.
    pub fn qd_weight(&self) -> u64 {
        match self {
            EnvKind::Batch { count, .. } => u64::from(*count),
            k if k.counts_for_qd() => 1,
            _ => 0,
        }
    }

    /// Clone the kinds whose payloads are cheaply shareable (wire bytes,
    /// reduction data) — enough for the fault injector to duplicate any
    /// cross-PE application envelope. `Payload::Local` and control kinds
    /// return `None`.
    #[cfg(feature = "analyze")]
    pub fn try_clone(&self) -> Option<EnvKind> {
        fn clone_payload(p: &Payload) -> Option<Payload> {
            match p {
                Payload::Local(_) => None,
                Payload::Wire(b) => Some(Payload::Wire(b.clone())),
            }
        }
        match self {
            EnvKind::Entry {
                to,
                payload,
                reply,
                guard,
            } => Some(EnvKind::Entry {
                to: *to,
                payload: clone_payload(payload)?,
                reply: *reply,
                guard: *guard,
            }),
            EnvKind::BroadcastEntry { coll, bytes, root } => Some(EnvKind::BroadcastEntry {
                coll: *coll,
                bytes: bytes.clone(),
                root: *root,
            }),
            EnvKind::InsertElem {
                coll,
                index,
                init,
                on_pe,
                placed,
            } => Some(EnvKind::InsertElem {
                coll: *coll,
                index: *index,
                init: clone_payload(init)?,
                on_pe: *on_pe,
                placed: *placed,
            }),
            EnvKind::FutureValue { fid, payload } => Some(EnvKind::FutureValue {
                fid: *fid,
                payload: clone_payload(payload)?,
            }),
            EnvKind::RedDeliver { to, tag, data } => Some(EnvKind::RedDeliver {
                to: *to,
                tag: *tag,
                data: data.clone(),
            }),
            EnvKind::RedBroadcast {
                coll,
                tag,
                data,
                root,
            } => Some(EnvKind::RedBroadcast {
                coll: *coll,
                tag: *tag,
                data: data.clone(),
                root: *root,
            }),
            // The mutation build lets the fault injector duplicate
            // checkpoint acks: the pre-fix network layer drew no
            // app/control distinction, which is how the stray-ack panic
            // was reachable. Test-only; never compiled by default.
            #[cfg(feature = "mutation-ckptack")]
            EnvKind::CkptAck { saved } => Some(EnvKind::CkptAck { saved: *saved }),
            _ => None,
        }
    }

    /// Approximate on-wire size for the network cost model.
    pub fn size_hint(&self) -> usize {
        const HDR: usize = 32; // envelope header: ids, tags
        match self {
            EnvKind::Entry { payload, .. } => HDR + payload.wire_len(),
            EnvKind::Batch { frame, .. } => HDR + frame.len(),
            EnvKind::BroadcastEntry { bytes, .. } => HDR + bytes.len(),
            EnvKind::CreateCollection { init, .. } => HDR + 64 + init.len(),
            EnvKind::InsertElem { init, .. } => HDR + init.wire_len(),
            EnvKind::FutureValue { payload, .. } => HDR + payload.wire_len(),
            EnvKind::RedPartial { data, .. } => HDR + data.size_hint(),
            EnvKind::RedDeliver { data, .. } => HDR + data.size_hint(),
            EnvKind::RedBroadcast { data, .. } => HDR + data.size_hint(),
            EnvKind::MigrateChare { msg } => {
                HDR + msg.data.len()
                    + msg
                        .buffered
                        .iter()
                        .map(|(b, ..)| b.len() + 16)
                        .sum::<usize>()
            }
            EnvKind::CkptBuddy { image, .. } => HDR + image.len(),
            // A frame wires two sparse histograms plus scalars; the cost
            // model only needs the order of magnitude.
            EnvKind::TelemetryFrame { .. } => HDR + 512,
            EnvKind::LbDoMigrate { moves, .. } => HDR + moves.len() * 40,
            EnvKind::LbTreeReport { report } => {
                HDR + report.acceptors.len() * 16 + report.spill.len() * 48
            }
            _ => HDR,
        }
    }
}

// =========================================================================
// Batch frames (TRAM-style aggregation)
// =========================================================================

/// Per-record header inside an [`EnvKind::Batch`] frame: everything an
/// `Entry` envelope carries besides its payload bytes. `src` and `epoch`
/// are batch-level — one sender, one incarnation per frame.
struct BatchHdr {
    to: ChareId,
    reply: Option<FutureId>,
    guard: Option<u32>,
    /// The constituent's emit stamp (sender clock, ns) — aggregation must
    /// not hide queueing delay from the latency histogram.
    sent_ns: u64,
    /// The constituent's happens-before trace, minted at emit time and
    /// carried through the frame so batching is invisible to the detector.
    #[cfg(feature = "analyze")]
    trace: crate::analyze::EnvTrace,
}
#[cfg(not(feature = "analyze"))]
wire_struct! { BatchHdr { to, reply, guard, sent_ns } }
#[cfg(feature = "analyze")]
wire_struct! { BatchHdr { to, reply, guard, sent_ns, trace } }

/// Append one entry record to a batch frame:
/// `varint(hdr_len) ++ codec(BatchHdr) ++ varint(payload_len) ++ payload`.
/// `scratch` is a caller-owned buffer reused across records so the header
/// encode never allocates at steady state.
#[expect(clippy::too_many_arguments, reason = "one per header field")]
pub(crate) fn push_batch_record(
    frame: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    codec: Codec,
    to: ChareId,
    reply: Option<FutureId>,
    guard: Option<u32>,
    sent_ns: u64,
    #[cfg(feature = "analyze")] trace: crate::analyze::EnvTrace,
    payload: &[u8],
) -> charm_wire::Result<()> {
    let hdr = BatchHdr {
        to,
        reply,
        guard,
        sent_ns,
        #[cfg(feature = "analyze")]
        trace,
    };
    scratch.clear();
    codec.encode_into(scratch, &hdr)?;
    charm_wire::varint::write_u64(frame, scratch.len() as u64);
    frame.extend_from_slice(scratch);
    charm_wire::varint::write_u64(frame, payload.len() as u64);
    frame.extend_from_slice(payload);
    Ok(())
}

/// Split a batch frame back into `Entry` envelopes, in frame (= emission)
/// order. Payload bytes are copied out per record — the frame is one shared
/// allocation and `WireBytes` exposes no sub-slice view; that copy is the
/// per-message unpack cost the receiver pays (and the sim model charges).
/// The copies of sub-64B records land inline in the envelope (no per-record
/// allocation).
#[expect(clippy::indexing_slicing, reason = "panic: off <= frame.len() holds")]
pub(crate) fn split_batch(
    src: Pe,
    epoch: u64,
    frame: &[u8],
    codec: Codec,
) -> charm_wire::Result<Vec<Envelope>> {
    use charm_wire::WireError;
    let mut envs = Vec::new();
    let mut off = 0usize;
    while off < frame.len() {
        let (hlen, used) = charm_wire::varint::read_u64(&frame[off..])?;
        off += used;
        let hdr_bytes = frame.get(off..off + hlen as usize).ok_or(WireError::Eof)?;
        let hdr: BatchHdr = codec.decode(hdr_bytes)?;
        off += hlen as usize;
        let (plen, used) = charm_wire::varint::read_u64(&frame[off..])?;
        off += used;
        let payload_bytes = frame.get(off..off + plen as usize).ok_or(WireError::Eof)?;
        off += plen as usize;
        let bytes = WireBytes::inline(payload_bytes)
            .unwrap_or_else(|| WireBytes::copy_from_slice(payload_bytes));
        let mut env = Envelope::new(
            src,
            EnvKind::Entry {
                to: hdr.to,
                payload: Payload::Wire(bytes),
                reply: hdr.reply,
                guard: hdr.guard,
            },
        );
        env.epoch = epoch;
        env.sent_ns = hdr.sent_ns;
        #[cfg(feature = "analyze")]
        {
            env.trace = hdr.trace;
        }
        envs.push(env);
    }
    Ok(envs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sim backend keeps up to 10^6 envelopes in flight, so every
    /// in-flight event pays `size_of::<Envelope>()` whether or not it uses
    /// a fat variant. Fat bodies (migration state, LB subtree summaries,
    /// telemetry frames) are boxed to keep the enum at the size its
    /// hot-path variants ([`EnvKind::Entry`] with an inline-capable
    /// [`WireBytes`]) actually need. This pins the budget so a future
    /// variant can't silently re-inflate it.
    #[test]
    fn envelope_stays_compact() {
        // `Entry` is the floor: a chare id, a payload (inline-capable
        // `WireBytes` dominates), and two options. Anything past that plus
        // a tag word means some other variant carries fat inline.
        let floor = std::mem::size_of::<ChareId>()
            + std::mem::size_of::<Payload>()
            + std::mem::size_of::<Option<FutureId>>()
            + std::mem::size_of::<Option<u32>>();
        assert!(
            std::mem::size_of::<EnvKind>() <= floor + 16,
            "EnvKind is {}B but its hot-path variant needs only {}B — box the fat variant's body",
            std::mem::size_of::<EnvKind>(),
            floor
        );
        // Boxing keeps the fat bodies out of every in-flight envelope: the
        // telemetry frame alone outweighs the whole enum, and a boxed body
        // costs one pointer.
        assert!(std::mem::size_of::<charm_trace::MetricFrame>() > std::mem::size_of::<EnvKind>());
        assert!(std::mem::size_of::<Box<MigrateMsg>>() == std::mem::size_of::<usize>());
    }
}
