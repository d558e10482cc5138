//! Machine-wide sweeps: quiescence detection and in-band telemetry
//! (DESIGN.md §8, §12).
//!
//! Both are the same shape — PE 0 sends a probe down the PE tree, every PE
//! folds its children's answers into its own sample and sends the result
//! up — so they share this module.
//!
//! **State:** [`Sweeps`] — the quiescence round being combined on this PE,
//! PE 0's detection state (waiters, last round's sums, completed rounds),
//! and the telemetry sweep crossing this PE (owed child frames, the
//! partial frame) plus, on PE 0, the retained series and held waiters.
//!
//! **Envelopes:** `QdRequest`, `QdProbe`, `QdCounts`, `TelemetryProbe`,
//! `TelemetryFrame` ([`PeState::on_sweep`]).
//!
//! **Invariants:** quiescence is declared after two consecutive rounds
//! with identical sums and `sent == processed` (the rule and its reasons:
//! `quiescence.rs`). A probe flushes this PE's aggregation buffers first.
//! The automatic checkpoint and the telemetry sweep both hang off a
//! completed round and hold its waiters, so they run on a quiescent
//! machine: a telemetry frame is a function of the program, not of the
//! schedule.

use crate::ids::{ChareId, FutureId, Pe};
use crate::msg::{EnvKind, OutPayload, TelemetryBody};
use crate::pe::PeState;
use crate::quiescence::{QdCentral, QdPeState};

/// One PE's sweep state.
pub(crate) struct Sweeps {
    qd_pe: QdPeState,
    qd_central: QdCentral,
    /// PE 0: completed quiescence rounds (drives the auto-checkpoint and
    /// telemetry cadences).
    completions: u64,

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
}

impl Default for Sweeps {
    fn default() -> Sweeps {
        Sweeps {
            qd_pe: QdPeState::default(),
            qd_central: QdCentral::default(),
            completions: 0,
            tel_seq: 0,
            tel_active: false,
            tel_pending: 0,
            tel_acc: None,
            tel_root: 0,
            tel_waiters: Vec::new(),
            tel_series: Vec::new(),
            tel_sketch: charm_trace::SpaceSaving::new(charm_trace::DEFAULT_TOP_K),
        }
    }
}

impl Sweeps {
    /// Feed the hot-chare sketch: `ns` of entry work charged to `id`.
    pub(crate) fn observe(&mut self, id: &ChareId, ns: u64) {
        self.tel_sketch.observe(id, ns);
    }

    /// Completed quiescence rounds (PE 0).
    pub(crate) fn completions(&self) -> u64 {
        self.completions
    }

    /// Hand over the telemetry series collected here (PE 0).
    pub(crate) fn take_series(&mut self) -> Vec<charm_trace::MetricFrame> {
        std::mem::take(&mut self.tel_series)
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
            } => self.qd_counts(round, sent, done, pes),
            EnvKind::TelemetryProbe { seq, root } => self.telemetry_probe(seq, root),
            EnvKind::TelemetryFrame { seq, frame } => self.telemetry_frame(seq, frame.0),
            // analyze: allow(panic, "dispatch hands this module only the five kinds above")
            other => unreachable!("not a sweep envelope: {other:?}"),
        }
    }

    pub(crate) fn qd_request(&mut self, fid: FutureId) {
        debug_assert_eq!(self.pe, 0);
        self.sweeps.qd_central.waiters.push(fid);
        if !self.sweeps.qd_central.active {
            self.sweeps.qd_central.active = true;
            self.sweeps.qd_central.last = None;
            self.qd_start_round();
        }
    }

    pub(crate) fn qd_start_round(&mut self) {
        self.sweeps.qd_central.round += 1;
        let round = self.sweeps.qd_central.round;
        self.emit(0, EnvKind::QdProbe { round, root: 0 });
    }

    pub(crate) fn qd_probe(&mut self, round: u64, root: Pe) {
        // Quiescence-entry flush: a message parked in an aggregation buffer
        // is sent-but-unprocessed forever, so no `(sent, processed)` sample
        // could ever balance over it. Flushing here puts the traffic in
        // flight; the two-consecutive-identical-rounds rule then converges
        // normally (just with extra rounds). See `QdCentral::round_complete`.
        self.flush_aggregation();
        let tree = self.cfg.tree;
        self.sweeps.qd_pe = QdPeState {
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

    pub(crate) fn qd_counts(&mut self, round: u64, sent: u64, done: u64, pes: u64) {
        if !self.sweeps.qd_pe.active || self.sweeps.qd_pe.round != round {
            return; // stale round
        }
        self.sweeps.qd_pe.pending_children -= 1;
        self.sweeps.qd_pe.sent += sent;
        self.sweeps.qd_pe.done += done;
        self.sweeps.qd_pe.pes += pes;
        self.qd_maybe_reply(0);
    }

    pub(crate) fn qd_maybe_reply(&mut self, root: Pe) {
        if !self.sweeps.qd_pe.active || self.sweeps.qd_pe.pending_children > 0 {
            return;
        }
        self.sweeps.qd_pe.active = false;
        let (round, sent, done, pes) = (
            self.sweeps.qd_pe.round,
            self.sweeps.qd_pe.sent,
            self.sweeps.qd_pe.done,
            self.sweeps.qd_pe.pes,
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
                let stuck = self.sweeps.qd_central.last == Some((sent, done));
                if self.sweeps.qd_central.round_complete(sent, done) {
                    self.sweeps.qd_central.active = false;
                    self.sweeps.completions += 1;
                    let waiters = std::mem::take(&mut self.sweeps.qd_central.waiters);
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
    pub(crate) fn complete_qd_waiters(&mut self, waiters: Vec<FutureId>) {
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

    /// Whether this quiescence completion should trigger a telemetry sweep
    /// (PE 0; cadence from `Runtime::telemetry`). Mirrors
    /// [`Self::auto_ckpt_due`]: the restore gate's own round never sweeps,
    /// and a sweep already in flight is never overlapped.
    pub(crate) fn telemetry_due(&self) -> bool {
        match &self.cfg.telemetry {
            Some(t) => {
                t.every > 0
                    && !self.sweeps.tel_active
                    && self.entry_gate.is_none()
                    && self.sweeps.completions.is_multiple_of(t.every)
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
    pub(crate) fn start_telemetry_sweep(&mut self, waiters: Vec<FutureId>) {
        self.sweeps.tel_active = true;
        self.sweeps.tel_waiters = waiters;
        let seq = self.sweeps.tel_seq;
        self.sweeps.tel_seq += 1;
        self.telemetry_probe(seq, 0);
    }

    /// A telemetry probe crossing this node (or starting on the root):
    /// relay it to the tree children, sample this PE's own frame — the
    /// machine is quiescent, so the counters are stable — and send the
    /// merged frame up once every child subtree has answered.
    pub(crate) fn telemetry_probe(&mut self, seq: u64, root: Pe) {
        let tree = self.cfg.tree;
        self.sweeps.tel_pending = tree.fanout(self.pe, root, self.npes);
        self.sweeps.tel_root = root;
        tree.children_for_each(self.pe, root, self.npes, |child| {
            self.emit(child, EnvKind::TelemetryProbe { seq, root });
        });
        let frame = self.sample_frame(seq);
        self.sweeps.tel_acc = Some(Box::new(frame));
        self.tel_maybe_send_up(seq);
    }

    /// A child subtree's merged frame: fold it into this node's
    /// accumulator.
    pub(crate) fn telemetry_frame(&mut self, seq: u64, frame: Box<charm_trace::MetricFrame>) {
        if let Some(acc) = self.sweeps.tel_acc.as_deref_mut() {
            acc.merge(&frame);
        }
        self.sweeps.tel_pending = self.sweeps.tel_pending.saturating_sub(1);
        self.tel_maybe_send_up(seq);
    }

    /// Once the local sample and every child frame are merged, ship the
    /// subtree frame to the parent — or, on the root, complete the sweep.
    pub(crate) fn tel_maybe_send_up(&mut self, seq: u64) {
        if self.sweeps.tel_pending > 0 {
            return;
        }
        let Some(frame) = self.sweeps.tel_acc.take() else {
            return;
        };
        match self
            .cfg
            .tree
            .parent(self.pe, self.sweeps.tel_root, self.npes)
        {
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
    pub(crate) fn tel_root_complete(&mut self, frame: charm_trace::MetricFrame) {
        if let Some(t) = &self.cfg.telemetry {
            if let Some(sink) = &t.sink {
                sink(&frame);
            }
        }
        self.sweeps.tel_series.push(frame);
        self.sweeps.tel_active = false;
        let waiters = std::mem::take(&mut self.sweeps.tel_waiters);
        self.complete_qd_waiters(waiters);
    }

    /// Snapshot this PE's metrics into a single-PE frame. Runs at probe
    /// arrival, when the machine is quiescent except for sweep traffic, so
    /// every field the logical digest covers is stable.
    pub(crate) fn sample_frame(&mut self, seq: u64) -> charm_trace::MetricFrame {
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
        queue_depth += self.locs.parked().1 + self.colls.parked().1;
        let top = self
            .sweeps
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
    pub(crate) fn chare_label(&self, id: &ChareId) -> String {
        match self.colls.get(&id.coll) {
            Some(cs) => format!("{}{}", self.registry.name_of(cs.spec.ctype), id.index),
            None => format!("{id}"),
        }
    }
}
