//! TRAM-style per-destination message aggregation (`SchedCfg::agg`,
//! DESIGN.md §9).
//!
//! **State:** [`Aggregator`] — one record-framed buffer per destination PE
//! plus the header-encode scratch; empty when aggregation is off.
//!
//! **Envelopes:** none arrive here. This is the send side: `emit` hands
//! every outgoing envelope to `push_out`, which either coalesces it or
//! puts it on the outbox; `handle` splits an arriving [`EnvKind::Batch`]
//! back into its constituents before any accounting.
//!
//! **Invariants:** only small remote wire-encoded `Entry` messages batch;
//! anything else bound for a destination with a pending buffer flushes
//! that buffer first, so outbox order equals emission order on every
//! (src → dst) channel. A batch is a physical artifact: never QD-counted,
//! never traced — its constituents did all of that in `emit`. Buffers are
//! flushed on scheduler idle, on every quiescence probe and at checkpoint
//! entry, so no counted send outlives the state that counted it.

// Scheduler hot path (DESIGN.md §6): the panic, blocking and nondeterminism rules.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::iter_over_hash_type))]

use charm_wire::WireBytes;

use crate::ids::Pe;
use crate::msg::{push_batch_record, BatchHdr, EnvKind, Envelope, Payload};
use crate::pe::PeState;

/// One destination's pending aggregation buffer: small outgoing entry
/// messages accumulate here as length-prefixed records until a flush turns
/// the frame into one [`EnvKind::Batch`] envelope. The frame `Vec` is
/// cleared, never dropped, on flush, so its capacity is reused like an
/// encode-pool buffer.
#[derive(Default)]
struct AggBuf {
    /// Record-framed constituents (see `msg::push_batch_record`).
    frame: Vec<u8>,
    /// Number of records in `frame`.
    count: u32,
}

/// Per-destination aggregation buffers of one PE.
pub(crate) struct Aggregator {
    bufs: Vec<AggBuf>,
    /// Reusable header-encode scratch for batch records.
    scratch: Vec<u8>,
}

impl Aggregator {
    /// Buffers for `npes` destinations (0 = aggregation off).
    pub(crate) fn new(npes: usize) -> Aggregator {
        Aggregator {
            bufs: (0..npes).map(|_| AggBuf::default()).collect(),
            scratch: Vec::new(),
        }
    }

    #[expect(clippy::indexing_slicing, reason = "panic: bufs has npes entries")]
    fn buf(&mut self, dst: Pe) -> (&mut AggBuf, &mut Vec<u8>) {
        (&mut self.bufs[dst], &mut self.scratch)
    }
}

impl PeState {
    /// Route an outgoing envelope to the outbox — or, with aggregation on,
    /// coalesce it into the destination's batch buffer.
    pub(crate) fn push_out(&mut self, dst: Pe, env: Envelope) {
        let Some(agg) = self
            .cfg
            .agg
            .filter(|_| dst != self.pe && !self.agg.bufs.is_empty())
        else {
            return self.outbox.push((dst, env));
        };
        match env {
            Envelope {
                kind:
                    EnvKind::Entry {
                        to,
                        payload: Payload::Wire(bytes),
                        reply,
                        guard,
                    },
                sent_ns,
                #[cfg(feature = "analyze")]
                trace,
                ..
            } if bytes.len() < agg.max_bytes => {
                let hdr = BatchHdr {
                    to,
                    reply,
                    guard,
                    sent_ns,
                    #[cfg(feature = "analyze")]
                    trace,
                };
                let (buf, scratch) = self.agg.buf(dst);
                push_batch_record(&mut buf.frame, scratch, self.cfg.codec, &hdr, &bytes);
                buf.count += 1;
                if buf.count as usize >= agg.max_count || buf.frame.len() >= agg.max_bytes {
                    self.flush_agg(dst);
                }
            }
            // Not batchable: flush what is pending for `dst` first, so the
            // channel's order stays the emission order.
            env => {
                self.flush_agg(dst);
                self.outbox.push((dst, env));
            }
        }
    }

    /// Flush `dst`'s aggregation buffer (if non-empty) into one
    /// [`EnvKind::Batch`] envelope on the outbox.
    fn flush_agg(&mut self, dst: Pe) {
        let (buf, _) = self.agg.buf(dst);
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
        let env = self.wrap(EnvKind::Batch { count, frame });
        self.outbox.push((dst, env));
    }

    /// Flush every destination's pending aggregation buffer, in PE order
    /// (deterministic under sim). Returns whether anything flushed.
    pub(crate) fn flush_aggregation(&mut self) -> bool {
        let pending = |(dst, buf): (Pe, &AggBuf)| (buf.count > 0).then_some(dst);
        let pending: Vec<Pe> = self
            .agg
            .bufs
            .iter()
            .enumerate()
            .filter_map(pending)
            .collect();
        for &dst in &pending {
            self.flush_agg(dst);
        }
        !pending.is_empty()
    }
}
