//! Machine-wide sweeps: quiescence detection and in-band telemetry
//! (DESIGN.md §8, §12), and the wave they and the hierarchical balancer's
//! poll share.
//!
//! All three are one shape — a probe goes down a PE tree, every PE folds
//! its children's answers into its own sample and sends the result up —
//! so the bookkeeping is written once, as [`Wave`].
//!
//! **State:** [`Sweeps`] — the quiescence round crossing this PE, PE 0's
//! detection state (waiters, last round's sums, completed rounds), the
//! telemetry sweep crossing this PE and, on PE 0, the waiters it holds and
//! the retained series; plus the hot-chare sketch frames sample.
//!
//! **Envelopes:** `QdRequest`, `QdProbe`, `QdCounts`, `TelemetryProbe`,
//! `TelemetryFrame` ([`PeState::on_sweep`]).
//!
//! **Invariants:** quiescence is declared after two consecutive rounds
//! with identical sums and `sent == processed` (the rule and its reasons:
//! `quiescence.rs`). A probe flushes this PE's aggregation buffers first:
//! a message parked there is sent-but-unprocessed forever, so no round
//! could balance over it. The automatic checkpoint and the telemetry sweep
//! both hang off a completed round and hold its waiters, so they run on a
//! quiescent machine whose only traffic is their own: a telemetry frame is
//! a function of the program, not of the schedule. Neither runs on the
//! restore gate's own round, and a sweep in flight is never overlapped.

// Scheduler hot path (DESIGN.md §6): the panic, blocking and nondeterminism rules.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::iter_over_hash_type))]

use charm_trace::{MetricFrame, SpaceSaving};

use crate::ids::{ChareId, FutureId, Pe};
use crate::msg::{EnvKind, OutPayload, TelemetryBody};
use crate::pe::PeState;
use crate::quiescence::QdCentral;

/// One probe-down / fold-up wave as one PE sees it: the answers its tree
/// children still owe, and the accumulator they fold into. The PE relays
/// the probe (`PeState::relay` counts the children), opens the wave with
/// its own sample, folds each child's answer in, and takes the result to
/// pass up once nothing is owed.
pub(crate) struct Wave<T> {
    /// What distinguishes this wave from a stale one (a round, a sweep
    /// sequence number, an epoch).
    tag: u64,
    /// Root of the tree the wave travels (parent routing).
    root: Pe,
    /// Child answers still outstanding.
    owed: usize,
    /// `Some` while the wave is open here.
    acc: Option<T>,
}

impl<T> Default for Wave<T> {
    fn default() -> Wave<T> {
        Wave {
            tag: 0,
            root: 0,
            owed: 0,
            acc: None,
        }
    }
}

impl<T> Wave<T> {
    /// The probe of wave `tag` just crossed this PE on its way to `owed`
    /// children; `acc` is this PE's own contribution.
    pub(crate) fn open(&mut self, tag: u64, root: Pe, owed: usize, acc: T) {
        *self = Wave {
            tag,
            root,
            owed,
            acc: Some(acc),
        };
    }

    pub(crate) fn is_open(&self) -> bool {
        self.acc.is_some()
    }

    /// A child's answer to wave `tag` arrived: the accumulator to fold it
    /// into. `None`, and nothing counted, when that wave is not open here
    /// (an answer to a round that was superseded).
    pub(crate) fn answer(&mut self, tag: u64) -> Option<&mut T> {
        if self.tag != tag || !self.is_open() {
            return None;
        }
        debug_assert!(self.owed > 0, "more answers than children");
        self.owed = self.owed.saturating_sub(1);
        self.acc.as_mut()
    }

    /// Open, and every child has answered.
    pub(crate) fn ready(&self) -> bool {
        self.is_open() && self.owed == 0
    }

    /// Close a [`ready`](Self::ready) wave: `(tag, root, accumulator)`.
    pub(crate) fn finish(&mut self) -> Option<(u64, Pe, T)> {
        if !self.ready() {
            return None;
        }
        self.acc.take().map(|acc| (self.tag, self.root, acc))
    }

    /// Forget the wave, answered or not.
    pub(crate) fn reset(&mut self) {
        self.acc = None;
    }
}

/// The `(sent, processed, PEs covered)` sums of one quiescence round.
struct QdSums {
    sent: u64,
    done: u64,
    pes: u64,
}

/// One PE's sweep state.
#[derive(Default)]
pub(crate) struct Sweeps {
    /// The quiescence round crossing this PE.
    qd: Wave<QdSums>,
    /// PE 0: the detector.
    central: QdCentral,
    /// PE 0: completed quiescence rounds (drives the auto-checkpoint and
    /// telemetry cadences).
    completions: u64,
    /// The telemetry sweep crossing this PE.
    tel: Wave<Box<MetricFrame>>,
    /// PE 0: next telemetry sweep sequence number.
    tel_seq: u64,
    /// PE 0: the quiescence waiters held while a sweep is in flight.
    tel_held: Option<Vec<FutureId>>,
    /// PE 0: the retained telemetry time series (`RunReport::telemetry`).
    tel_series: Vec<MetricFrame>,
    /// Hot-chare sketch (charged entry nanoseconds), sampled into frames;
    /// built on first use, so a run without telemetry never carries one.
    tel_sketch: Option<SpaceSaving<ChareId>>,
}

impl Sweeps {
    /// Feed the hot-chare sketch: `ns` of entry work charged to `id`.
    pub(crate) fn observe(&mut self, id: &ChareId, ns: u64) {
        self.tel_sketch
            .get_or_insert_with(|| SpaceSaving::new(charm_trace::DEFAULT_TOP_K))
            .observe(id, ns);
    }

    /// Hand over the telemetry series collected here (PE 0).
    pub(crate) fn take_series(&mut self) -> Vec<MetricFrame> {
        std::mem::take(&mut self.tel_series)
    }

    /// PE 0: whether something that runs every `every`-th completed round
    /// is due now.
    pub(crate) fn round_is_multiple_of(&self, every: u64) -> bool {
        every > 0 && self.completions.is_multiple_of(every)
    }
}

impl PeState {
    /// The sweep slice of the dispatch switch.
    pub(crate) fn on_sweep(&mut self, kind: EnvKind) {
        match kind {
            EnvKind::QdRequest { fid } => self.qd_request(fid),
            EnvKind::QdProbe { round, root } => self.qd_probe(round, root),
            EnvKind::QdCounts {
                round,
                sent,
                done,
                pes,
            } => {
                // (An answer to a superseded round is dropped.)
                if let Some(sums) = self.sweeps.qd.answer(round) {
                    sums.sent += sent;
                    sums.done += done;
                    sums.pes += pes;
                    self.qd_maybe_reply();
                }
            }
            EnvKind::TelemetryProbe { seq, root } => self.telemetry_probe(seq, root),
            EnvKind::TelemetryFrame { seq, frame } => {
                if let Some(acc) = self.sweeps.tel.answer(seq) {
                    acc.merge(&frame.0);
                }
                self.tel_maybe_send_up();
            }
            #[expect(clippy::unreachable, reason = "panic: dispatch sends only these kinds")]
            other => unreachable!("not a sweep envelope: {other:?}"),
        }
    }

    fn qd_request(&mut self, fid: FutureId) {
        debug_assert_eq!(self.pe, 0);
        let central = &mut self.sweeps.central;
        central.waiters.push(fid);
        if !central.active {
            central.active = true;
            central.last = None;
            self.qd_start_round();
        }
    }

    fn qd_start_round(&mut self) {
        self.sweeps.central.round += 1;
        let round = self.sweeps.central.round;
        self.emit(0, EnvKind::QdProbe { round, root: 0 });
    }

    fn qd_probe(&mut self, round: u64, root: Pe) {
        self.flush_aggregation();
        let owed = self.relay(self.cfg.tree, root, || EnvKind::QdProbe { round, root });
        let c = self.tracer.counters;
        let own = QdSums {
            sent: c.sent,
            done: c.processed,
            pes: 1,
        };
        self.sweeps.qd.open(round, root, owed, own);
        self.qd_maybe_reply();
    }

    fn qd_maybe_reply(&mut self) {
        let Some((round, root, QdSums { sent, done, pes })) = self.sweeps.qd.finish() else {
            return;
        };
        if let Some(parent) = self.cfg.tree.parent(self.pe, root, self.npes) {
            let counts = EnvKind::QdCounts {
                round,
                sent,
                done,
                pes,
            };
            return self.emit(parent, counts);
        }
        // Root evaluates.
        let central = &mut self.sweeps.central;
        let stuck = central.last == Some((sent, done));
        if !central.round_complete(sent, done) {
            // Two identical rounds mean nothing moved in between; if they
            // also show more processed than sent, some message was
            // delivered twice and no later round can ever balance. Fail
            // loudly instead of probing forever.
            assert!(
                !(stuck && done > sent),
                "quiescence is unreachable: {done} messages processed but only {sent} \
                 sent, stable across probe rounds — a message was delivered twice"
            );
            return self.qd_start_round();
        }
        central.active = false;
        let waiters = std::mem::take(&mut central.waiters);
        self.sweeps.completions += 1;
        let telemetry = self.telemetry_due();
        if self.auto_ckpt_due() {
            // The machine is quiescent — exactly when a consistent image
            // exists. Hold the quiescence waiters until every PE commits,
            // so the app only resumes against fully saved state. A
            // telemetry sweep due at the same round runs after the last
            // ack (the machine stays quiescent throughout).
            self.start_auto_ckpt(waiters, telemetry);
        } else {
            self.release_qd_waiters(waiters, telemetry);
        }
    }

    /// A completed round's waiters may go — after the telemetry sweep, if
    /// one fell due at this round (`telemetry`): the sweep holds them, so
    /// the machine stays quiescent while it samples.
    pub(crate) fn release_qd_waiters(&mut self, waiters: Vec<FutureId>, telemetry: bool) {
        if telemetry {
            self.sweeps.tel_held = Some(waiters);
            let seq = self.sweeps.tel_seq;
            self.sweeps.tel_seq += 1;
            return self.telemetry_probe(seq, 0);
        }
        for fid in waiters {
            self.send_future(fid, OutPayload::new(()));
        }
    }

    /// Whether this quiescence completion should trigger a telemetry sweep
    /// (PE 0; cadence from `Runtime::telemetry`).
    fn telemetry_due(&self) -> bool {
        self.cfg.telemetry.as_ref().is_some_and(|t| {
            self.sweeps.tel_held.is_none()
                && self.entry_gate.is_none()
                && self.sweeps.round_is_multiple_of(t.every)
        })
    }

    /// A telemetry probe crossing this node (or starting on the root):
    /// relay it to the tree children, sample this PE's own frame — the
    /// machine is quiescent, so the counters are stable — and send the
    /// merged frame up once every child subtree has answered.
    fn telemetry_probe(&mut self, seq: u64, root: Pe) {
        let owed = self.relay(self.cfg.tree, root, || EnvKind::TelemetryProbe {
            seq,
            root,
        });
        let frame = Box::new(self.sample_frame(seq));
        self.sweeps.tel.open(seq, root, owed, frame);
        self.tel_maybe_send_up();
    }

    /// Once the local sample and every child frame are merged, ship the
    /// subtree frame to the parent — or, on the root, complete the sweep:
    /// feed the sink, retain the frame for `RunReport::telemetry`, and
    /// release the held quiescence waiters.
    fn tel_maybe_send_up(&mut self) {
        let Some((seq, root, frame)) = self.sweeps.tel.finish() else {
            return;
        };
        if let Some(parent) = self.cfg.tree.parent(self.pe, root, self.npes) {
            let frame = TelemetryBody(frame);
            return self.emit(parent, EnvKind::TelemetryFrame { seq, frame });
        }
        if let Some(sink) = self.cfg.telemetry.as_ref().and_then(|t| t.sink.as_ref()) {
            sink(&frame);
        }
        self.sweeps.tel_series.push(*frame);
        let waiters = self.sweeps.tel_held.take().unwrap_or_default();
        self.release_qd_waiters(waiters, false);
    }

    /// Snapshot this PE's metrics into a single-PE frame. Runs at probe
    /// arrival, when the machine is quiescent except for sweep traffic, so
    /// every field the logical digest covers is stable.
    fn sample_frame(&mut self, seq: u64) -> MetricFrame {
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
        #[expect(clippy::disallowed_methods, reason = "nondeterminism: order-free sum")]
        let buffered: usize = self.chares.values().map(|s| s.buffered.len()).sum();
        let queue_depth = buffered as u64 + self.locs.parked().1 + self.colls.parked().1;
        let hot = self.sweeps.tel_sketch.as_ref().map(|s| s.items());
        let top = hot
            .unwrap_or_default()
            .into_iter()
            .map(|(id, weight, err)| charm_trace::TopItem {
                label: self.chare_label(&id),
                weight,
                err,
            })
            .collect();
        MetricFrame {
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
        match self.colls.get(id.coll) {
            Some(cs) => format!("{}{}", self.registry.name_of(cs.spec.ctype), id.index),
            None => format!("{id}"),
        }
    }
}
