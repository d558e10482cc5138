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

use crate::ids::{ChareId, CollectionId, FutureId, Index, Pe};
use crate::reduction::RedData;
pub use crate::{
    checkpoint::CkptMsg, collections::CollMsg, lb::LbMsg, location::LocMsg, reduction::RedMsg,
    sweep::SweepMsg,
};

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
/// straight from the shared allocation. No [`Payload::Local`] box reaches
/// an encoder: `PeState::encode_for` serializes every payload bound for
/// another PE, and `Net::send` queues an envelope for its own PE locally
/// before it encodes anything. One that got here is a scheduler bug.
impl Wire for Payload {
    fn encode<W: Writer>(&self, w: &mut W) {
        match self {
            #[expect(
                clippy::unreachable,
                reason = "panic: encode_for serializes every remote payload"
            )]
            Payload::Local(_) => unreachable!(
                "Payload::Local at a process boundary: encode_for serializes every payload \
                 bound for another PE, and Net::send keeps dst == me local"
            ),
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
    pub(crate) encode: fn(&dyn Any, Codec, &mut EncodePool) -> WireBytes,
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
    ) -> Payload {
        if local && same_pe_byref {
            Payload::Local(self.any)
        } else {
            Payload::Wire((self.encode)(&*self.any, codec, pool))
        }
    }
}

impl std::fmt::Debug for OutPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OutPayload")
    }
}

/// The body of a [`LocMsg::Migrate`] envelope: a migrating chare's
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

/// The body of a [`SweepMsg::TelemetryFrame`]: boxed — a frame carries two
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
    fn encode<W: Writer>(&self, w: &mut W) {
        let f = &*self.0;
        let top = f.top.iter().map(|t| (t.label.clone(), t.weight, t.err));
        let words = (f.to_words(), f.exec.to_words(), f.latency.to_words());
        (words, (top.collect::<Vec<_>>(), f.top_cap as u64)).encode(w);
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

    /// A network-level duplicate, for the fault-injection harness: the
    /// envelope's own bytes decoded again, trace id included. Only an
    /// application kind whose payload is on the wire has one; reduction
    /// partials and migrations, like control kinds, do not.
    #[cfg(feature = "analyze")]
    pub fn try_clone(&self) -> Option<Envelope> {
        let wire = |p: &Payload| matches!(p, Payload::Wire(_));
        let dup = match &self.kind {
            EnvKind::Entry { payload, .. } | EnvKind::FutureValue { payload, .. } => wire(payload),
            EnvKind::Coll(CollMsg::Insert { init, .. }) => wire(init),
            EnvKind::BroadcastEntry { .. } | EnvKind::RedDeliver { .. } => true,
            EnvKind::Red(RedMsg::Broadcast { .. }) => true,
            // The mutation build lets the fault injector duplicate
            // checkpoint acks: the pre-fix network layer drew no
            // app/control distinction, which is how the stray-ack panic
            // was reachable. Test-only; never compiled by default.
            #[cfg(feature = "mutation-ckptack")]
            EnvKind::Ckpt(CkptMsg::Ack { .. }) => true,
            _ => false,
        };
        // A duplicate is the same bytes, and our own bytes decode.
        let bytes = dup.then(|| Codec::Fast.encode(self))?;
        Codec::Fast.decode(&bytes).ok()
    }
}

/// The runtime message set: the kinds the scheduler handles itself, plus
/// one variant per protocol module holding that module's own message type
/// ([`CollMsg`], [`RedMsg`], [`LocMsg`], [`LbMsg`], [`CkptMsg`],
/// [`SweepMsg`]), which dispatch hands whole to the module's `on_*` handler.
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
    /// Deliver a value to a future on its home PE.
    FutureValue {
        /// The future.
        fid: FutureId,
        /// Its value.
        payload: Payload,
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
    Coll(CollMsg),
    Red(RedMsg),
    Loc(LocMsg),
    Lb(LbMsg),
    Ckpt(CkptMsg),
    Sweep(SweepMsg),
    /// Start the main chare (delivered once, to PE 0).
    Bootstrap,
    /// Shut the runtime down.
    Exit,
    /// Supervisor-initiated teardown of a failed incarnation: stop the
    /// scheduler loop without treating it as an application exit. Unlike
    /// every other kind, `Halt` is honored regardless of its epoch stamp.
    Halt,
}
// The Net backend's wire form (DESIGN.md §13.1): one flat list of kinds,
// whatever module's type holds them, so each keeps its variant index and
// Pickle name. The match this expands to is exhaustive, so a new variant
// without an entry here is a compile error, not a silent wire gap.
wire_enum! {
    EnvKind {
        Entry { to, payload, reply, guard },
        Batch { count, frame },
        BroadcastEntry { coll, bytes, root },
        CreateCollection = Coll(CollMsg::Create) { spec, init, root },
        InsertElem = Coll(CollMsg::Insert) { coll, index, init, on_pe, placed },
        DoneInserting = Coll(CollMsg::DoneInserting) { coll },
        FutureValue { fid, payload },
        RedPartial = Red(RedMsg::Partial) { coll, redno, count, data, reducer, target },
        RedDeliver { to, tag, data },
        RedBroadcast = Red(RedMsg::Broadcast) { coll, tag, data, root },
        MigrateChare = Loc(LocMsg::Migrate) { msg },
        LocationUpdate = Loc(LocMsg::Update) { id, pe, seq },
        SubtreeAdd = Coll(CollMsg::SubtreeAdd) { coll, delta },
        LbDoMigrate = Lb(LbMsg::DoMigrate) { moves },
        LbMigrated = Lb(LbMsg::Migrated),
        LbResume = Lb(LbMsg::Resume) { root },
        LbKick = Lb(LbMsg::Kick) { epoch },
        LbTreePoll = Lb(LbMsg::TreePoll) { epoch, root },
        LbTreeReport = Lb(LbMsg::TreeReport) { report },
        QdProbe = Sweep(SweepMsg::QdProbe) { round, root },
        QdCounts = Sweep(SweepMsg::QdCounts) { round, sent, done, pes },
        CkptSave = Ckpt(CkptMsg::Save) { dir, epoch, buddy },
        CkptBuddy = Ckpt(CkptMsg::Buddy) { owner, initiator, epoch, saved, image },
        CkptAck = Ckpt(CkptMsg::Ack) { saved },
        RestoreColl = Ckpt(CkptMsg::RestoreColl) { spec, root },
        QdRequest = Sweep(SweepMsg::QdRequest) { fid },
        TelemetryProbe = Sweep(SweepMsg::TelemetryProbe) { seq, root },
        TelemetryFrame = Sweep(SweepMsg::TelemetryFrame) { seq, frame },
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
                | EnvKind::Coll(CollMsg::Insert { .. })
                | EnvKind::FutureValue { .. }
                | EnvKind::Red(_)
                | EnvKind::RedDeliver { .. }
                | EnvKind::Loc(LocMsg::Migrate { .. })
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
            | EnvKind::Coll(
                CollMsg::Insert { coll, .. }
                | CollMsg::DoneInserting { coll }
                | CollMsg::SubtreeAdd { coll, .. },
            )
            | EnvKind::Red(RedMsg::Partial { coll, .. } | RedMsg::Broadcast { coll, .. }) => {
                Some(*coll)
            }
            EnvKind::Loc(LocMsg::Migrate { msg }) => Some(msg.coll),
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

    /// Approximate on-wire size for the network cost model.
    pub fn size_hint(&self) -> usize {
        const HDR: usize = 32; // envelope header: ids, tags
        match self {
            EnvKind::Entry { payload, .. } => HDR + payload.wire_len(),
            EnvKind::Batch { frame, .. } => HDR + frame.len(),
            EnvKind::BroadcastEntry { bytes, .. } => HDR + bytes.len(),
            EnvKind::Coll(CollMsg::Create { init, .. }) => HDR + 64 + init.len(),
            EnvKind::Coll(CollMsg::Insert { init, .. }) => HDR + init.wire_len(),
            EnvKind::FutureValue { payload, .. } => HDR + payload.wire_len(),
            EnvKind::Red(RedMsg::Partial { data, .. } | RedMsg::Broadcast { data, .. })
            | EnvKind::RedDeliver { data, .. } => HDR + data.size_hint(),
            EnvKind::Loc(LocMsg::Migrate { msg }) => {
                HDR + msg.data.len()
                    + msg
                        .buffered
                        .iter()
                        .map(|(b, ..)| b.len() + 16)
                        .sum::<usize>()
            }
            EnvKind::Ckpt(CkptMsg::Buddy { image, .. }) => HDR + image.len(),
            // A frame wires two sparse histograms plus scalars; the cost
            // model only needs the order of magnitude.
            EnvKind::Sweep(SweepMsg::TelemetryFrame { .. }) => HDR + 512,
            EnvKind::Lb(LbMsg::DoMigrate { moves, .. }) => HDR + moves.len() * 40,
            EnvKind::Lb(LbMsg::TreeReport { report }) => {
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
pub(crate) struct BatchHdr {
    pub(crate) to: ChareId,
    pub(crate) reply: Option<FutureId>,
    pub(crate) guard: Option<u32>,
    /// The constituent's emit stamp (sender clock, ns) — aggregation must
    /// not hide queueing delay from the latency histogram.
    pub(crate) sent_ns: u64,
    /// The constituent's happens-before trace, minted at emit time and
    /// carried through the frame so batching is invisible to the detector.
    #[cfg(feature = "analyze")]
    pub(crate) trace: crate::analyze::EnvTrace,
}
#[cfg(not(feature = "analyze"))]
wire_struct! { BatchHdr { to, reply, guard, sent_ns } }
#[cfg(feature = "analyze")]
wire_struct! { BatchHdr { to, reply, guard, sent_ns, trace } }

/// Append one entry record to a batch frame:
/// `varint(hdr_len) ++ codec(BatchHdr) ++ varint(payload_len) ++ payload`.
/// `scratch` is a caller-owned buffer reused across records so the header
/// encode never allocates at steady state.
pub(crate) fn push_batch_record(
    frame: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    codec: Codec,
    hdr: &BatchHdr,
    payload: &[u8],
) {
    scratch.clear();
    codec.encode_into(scratch, hdr);
    charm_wire::varint::write_u64(frame, scratch.len() as u64);
    frame.extend_from_slice(scratch);
    charm_wire::varint::write_u64(frame, payload.len() as u64);
    frame.extend_from_slice(payload);
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
