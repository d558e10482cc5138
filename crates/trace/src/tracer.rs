//! Per-PE recorder: always-on counters, cheap aggregates, optional ring.
//!
//! One [`PeTracer`] lives inside every PE scheduler. The scheduler checks
//! [`PeTracer::enabled`] / [`PeTracer::full`] before computing hook
//! arguments, so an `Off` tracer costs one branch per boundary; the
//! [`Counters`] block alone is maintained unconditionally because
//! quiescence detection and `RunReport` read it.

use crate::event::{EntryKind, Event, EventKind, Ring};
use crate::hist::Hist;
use crate::report::{EntrySummary, PePerf, PeTrace};
use crate::summary::{BinClass, SummaryRec};
use crate::{TraceConfig, TraceLevel};

/// Message/byte counters (quiescence detection + `RunReport`). Maintained
/// unconditionally, even at [`TraceLevel::Off`]. Kept as live fields rather
/// than a [`PePerf`] (33 words) so a PE's tracer stays small; the benchmark
/// crate under `benchmark/` reads `sent`, `processed`, `entries` and
/// `bytes` by name.
#[derive(Default, Debug, Clone, Copy)]
pub struct Counters {
    /// QD-counted envelopes emitted by this PE.
    pub sent: u64,
    /// QD-counted envelopes handled by this PE.
    pub processed: u64,
    /// Bytes shipped to *other* PEs (same-PE sends move no wire bytes).
    pub bytes: u64,
    /// Entry-method activations.
    pub entries: u64,
    /// Chares migrated away from this PE.
    pub migrations: u64,
}

/// How charged scheduler time is classified in the utilization breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkClass {
    /// Entry-method / coroutine-segment execution — the useful work.
    Entry,
    /// Runtime bookkeeping: codec work, dynamic-dispatch decode, metering.
    Overhead,
}

/// Per-(chare type, entry kind) call statistics with a log-linear
/// execution-time histogram ([`Hist`]): `stat.hist.quantile(0.99)` answers
/// the p99 question the serving scenario's SLOs need, with bounded
/// relative error and exact cross-PE merging.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EntryStat {
    /// Activations recorded.
    pub calls: u64,
    /// Total charged nanoseconds.
    pub total_ns: u64,
    /// Longest single activation.
    pub max_ns: u64,
    /// Activation-time distribution (quantiles via [`Hist::quantile`]).
    pub hist: Hist,
}

impl EntryStat {
    /// Record one activation of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
        self.hist.record(ns);
    }

    /// Fold another stat block (same entry, another PE) into this one.
    pub fn merge(&mut self, other: &EntryStat) {
        self.calls += other.calls;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.hist.merge(&other.hist);
    }

    /// Mean activation time (0 when nothing was recorded).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }
}

/// Per-PE trace recorder. `Default` yields an `Off` tracer (used by
/// `mem::take` when the scheduler finishes and hands its trace over).
pub struct PeTracer {
    level: TraceLevel,
    /// Always-on counters (see [`Counters`]).
    pub counters: Counters,
    /// Same-PE envelopes emitted.
    pub sent_local: u64,
    /// Cross-PE envelopes emitted.
    pub sent_remote: u64,
    /// Bytes of same-PE sends (delivered by reference, no wire copy).
    pub bytes_local: u64,
    /// Bytes received by this scheduler (all sources).
    pub bytes_recv: u64,
    /// Messages that missed their when-guard and were buffered.
    pub guard_buffered: u64,
    /// Buffered messages later drained to their entry.
    pub guard_drained: u64,
    /// Reduction contributions made on this PE.
    pub red_contributes: u64,
    /// Finished reductions delivered at a root on this PE.
    pub red_delivers: u64,
    /// Broadcasts relayed down the spanning tree by this PE.
    pub bcast_relays: u64,
    /// Checkpoint bytes written by this PE.
    pub ckpt_bytes: u64,
    /// Envelopes from a previous recovery epoch discarded by this PE.
    /// Maintained unconditionally (like [`Counters`]): recovery audits
    /// need it even at trace level off.
    pub stale_discarded: u64,
    /// Aggregation batch frames flushed by this PE — the *physical*
    /// envelope count, next to the *logical* `sent_remote` (which counts
    /// each coalesced message individually). Maintained unconditionally:
    /// the batching tests audit it even at trace level off.
    pub batches_sent: u64,
    /// Logical messages carried inside those batches.
    pub batch_msgs: u64,
    busy_ns: u64,
    idle_ns: u64,
    overhead_ns: u64,
    /// Per-(chare type, entry kind) statistics, sorted by key. A PE runs a
    /// handful of pairs: a sorted vector is searched faster than a B-tree
    /// and, unlike a B-tree leaf of these (over 1 KiB before the first
    /// sample), costs what it holds.
    entries: Vec<((u32, EntryKind), EntryStat)>,
    /// Send→deliver latency distribution (one sample per QD-counted
    /// delivery, on the receiver's clock; level ≥ counters).
    latency: Hist,
    /// Bounded time-bin profile (level ≥ summary).
    summary: Option<Box<SummaryRec>>,
    ring: Ring,
    /// Last ring timestamp; [`PeTracer::push`] clamps to it so the ring
    /// stays monotone even when a coroutine begin is back-dated
    /// (`end - measured`) past an already-recorded event.
    last_ts: u64,
}

impl Default for PeTracer {
    /// An `Off` tracer regardless of `TraceLevel::default()` (which is
    /// `Counters`, the *config* default): a taken-from tracer must record
    /// nothing.
    fn default() -> Self {
        PeTracer {
            level: TraceLevel::Off,
            counters: Counters::default(),
            sent_local: 0,
            sent_remote: 0,
            bytes_local: 0,
            bytes_recv: 0,
            guard_buffered: 0,
            guard_drained: 0,
            red_contributes: 0,
            red_delivers: 0,
            bcast_relays: 0,
            ckpt_bytes: 0,
            stale_discarded: 0,
            batches_sent: 0,
            batch_msgs: 0,
            busy_ns: 0,
            idle_ns: 0,
            overhead_ns: 0,
            entries: Vec::new(),
            latency: Hist::default(),
            summary: None,
            ring: Ring::default(),
            last_ts: 0,
        }
    }
}

impl PeTracer {
    /// Build a tracer for one PE from the run's config.
    pub fn new(cfg: &TraceConfig) -> PeTracer {
        PeTracer {
            level: cfg.level,
            ring: if cfg.level == TraceLevel::Full {
                Ring::new(cfg.ring_capacity)
            } else {
                Ring::default()
            },
            summary: (cfg.level >= TraceLevel::Summary)
                .then(|| Box::new(SummaryRec::new(cfg.quantum_ns, cfg.max_bins))),
            ..PeTracer::default()
        }
    }

    /// Aggregates (and everything above) are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level >= TraceLevel::Counters
    }

    /// Summary time-binning (and everything above) is on.
    #[inline]
    pub fn summary_on(&self) -> bool {
        self.level >= TraceLevel::Summary
    }

    /// Full event capture is on.
    #[inline]
    pub fn full(&self) -> bool {
        self.level == TraceLevel::Full
    }

    /// Record a timestamped event (no-op below full capture). Timestamps
    /// are clamped to be non-decreasing per PE.
    #[inline]
    pub fn push(&mut self, ts_ns: u64, kind: EventKind) {
        if self.level == TraceLevel::Full {
            let ts = ts_ns.max(self.last_ts);
            self.last_ts = ts;
            self.ring.push(Event { ts_ns: ts, kind });
        }
    }

    /// Classify `ns` of charged scheduler time.
    #[inline]
    pub fn work(&mut self, class: WorkClass, ns: u64) {
        if self.level < TraceLevel::Counters {
            return;
        }
        match class {
            WorkClass::Entry => self.busy_ns += ns,
            WorkClass::Overhead => self.overhead_ns += ns,
        }
    }

    /// Classify `ns` of charged time ending at clock stamp `end_ns`, so
    /// summary mode can bin the span `[end_ns - ns, end_ns)`. Equivalent
    /// to [`PeTracer::work`] below summary level.
    #[inline]
    pub fn work_at(&mut self, class: WorkClass, ns: u64, end_ns: u64) {
        self.work(class, ns);
        if ns > 0 {
            if let Some(s) = self.summary.as_deref_mut() {
                let bc = match class {
                    WorkClass::Entry => BinClass::Busy,
                    WorkClass::Overhead => BinClass::Overhead,
                };
                s.span(bc, end_ns.saturating_sub(ns), end_ns);
            }
        }
    }

    /// Record one send→deliver latency sample (receiver side; level ≥
    /// counters).
    #[inline]
    pub fn latency(&mut self, ns: u64) {
        if self.level >= TraceLevel::Counters {
            self.latency.record(ns);
        }
    }

    /// Bin emitted-message counts at `ts_ns` (no-op below summary level;
    /// the caller keeps the logical counters itself).
    #[inline]
    pub fn summary_msg(&mut self, ts_ns: u64, msgs: u64, bytes: u64) {
        if let Some(s) = self.summary.as_deref_mut() {
            s.count(ts_ns, 0, msgs, bytes);
        }
    }

    /// Record one entry-method activation: per-entry stats, plus an
    /// adjacent begin/end event pair under full capture. `measured_ns` is
    /// the charged execution time; `begin_ns`/`end_ns` are clock stamps.
    pub fn entry(
        &mut self,
        begin_ns: u64,
        end_ns: u64,
        measured_ns: u64,
        ctype: u32,
        kind: EntryKind,
    ) {
        if self.level < TraceLevel::Counters {
            return;
        }
        let key = (ctype, kind);
        // A forward scan: over a handful of sorted entries its predictable
        // branches beat a binary search (and a B-tree's node walk).
        let at = self
            .entries
            .iter()
            .position(|e| e.0 >= key)
            .unwrap_or(self.entries.len());
        if self.entries.get(at).is_none_or(|e| e.0 != key) {
            self.entries.insert(at, (key, EntryStat::default()));
        }
        self.entries[at].1.record(measured_ns);
        if let Some(s) = self.summary.as_deref_mut() {
            // Busy time is binned by `work_at` (the charge path); here only
            // the activation count, stamped where the activation ended.
            s.count(end_ns.max(begin_ns), 1, 0, 0);
        }
        if self.level == TraceLevel::Full {
            self.push(begin_ns, EventKind::EntryBegin { ctype, kind });
            self.push(end_ns.max(begin_ns), EventKind::EntryEnd { ctype, kind });
        }
    }

    /// Record an idle period `[begin_ns, end_ns)` on the scheduler clock.
    #[inline]
    pub fn idle(&mut self, begin_ns: u64, end_ns: u64) {
        if self.level < TraceLevel::Counters {
            return;
        }
        let d = end_ns.saturating_sub(begin_ns);
        self.idle_ns += d;
        if d > 0 {
            if let Some(s) = self.summary.as_deref_mut() {
                s.span(BinClass::Idle, begin_ns, end_ns);
            }
        }
        if self.level == TraceLevel::Full && d > 0 {
            self.push(begin_ns, EventKind::IdleBegin);
            self.push(end_ns, EventKind::IdleEnd);
        }
    }

    /// Aggregate one emitted envelope by path (the caller keeps
    /// [`Counters::sent`]/[`Counters::bytes`] up to date unconditionally).
    #[inline]
    pub fn msg_send(&mut self, bytes: u64, remote: bool) {
        if self.level < TraceLevel::Counters {
            return;
        }
        if remote {
            self.sent_remote += 1;
        } else {
            self.sent_local += 1;
            self.bytes_local += bytes;
        }
    }

    /// Aggregate one received envelope.
    #[inline]
    pub fn msg_recv(&mut self, bytes: u64) {
        if self.level >= TraceLevel::Counters {
            self.bytes_recv += bytes;
        }
    }

    /// Record one aggregation batch flush carrying `msgs` coalesced
    /// messages. Unconditional, like [`Counters`] — the logical/physical
    /// send ratio must be auditable at any trace level.
    #[inline]
    pub fn batch_flush(&mut self, msgs: u64) {
        self.batches_sent += 1;
        self.batch_msgs += msgs;
    }

    /// Live time-split `(busy, idle, overhead)` ns so far — what the
    /// telemetry frame sampler reads mid-run.
    pub fn time_split(&self) -> (u64, u64, u64) {
        (self.busy_ns, self.idle_ns, self.overhead_ns)
    }

    /// Merged execution-time histogram across all entries so far.
    pub fn exec_hist(&self) -> Hist {
        let mut h = Hist::default();
        for (_, stat) in &self.entries {
            h.merge(&stat.hist);
        }
        h
    }

    /// The send→deliver latency histogram recorded so far.
    pub fn latency_hist(&self) -> &Hist {
        &self.latency
    }

    /// Finish the PE: fold unattributed time into overhead and produce the
    /// per-PE trace. `name_of` resolves a chare type id to a display name.
    pub fn finish(
        mut self,
        pe: usize,
        wall_ns: u64,
        bytes_encoded: u64,
        name_of: impl Fn(u32) -> String,
    ) -> PeTrace {
        let enabled = self.level >= TraceLevel::Counters;
        let captured = self.level == TraceLevel::Full;
        let (events, dropped) = self.ring.into_parts();
        let (busy_ns, idle_ns, mut overhead_ns) = if enabled {
            (self.busy_ns, self.idle_ns, self.overhead_ns)
        } else {
            (0, 0, 0)
        };
        if enabled {
            // Unattributed scheduler time (dispatch machinery, channel
            // plumbing, coroutine rendezvous) becomes overhead so the
            // decomposition sums to wall time exactly.
            overhead_ns += wall_ns.saturating_sub(busy_ns + idle_ns + overhead_ns);
        }
        let summary = self.summary.take().map(|mut s| {
            // Reconcile: any time that reached the counters without being
            // span-binned (plus the slack fold above) lands in the tail
            // bin, so the summary's per-class totals equal the PePerf
            // totals to the nanosecond — the exactness `charm-perf`
            // re-derives from the artifact.
            let (sb, si, so) = s.totals();
            let tail = wall_ns.saturating_sub(1);
            s.charge_point(BinClass::Busy, busy_ns.saturating_sub(sb), tail);
            s.charge_point(BinClass::Idle, idle_ns.saturating_sub(si), tail);
            s.charge_point(BinClass::Overhead, overhead_ns.saturating_sub(so), tail);
            s.finish()
        });
        let c = self.counters;
        let perf = PePerf {
            pe,
            wall_ns,
            busy_ns,
            idle_ns,
            overhead_ns,
            msgs_sent: c.sent,
            msgs_processed: c.processed,
            sent_remote: self.sent_remote,
            sent_local: self.sent_local,
            bytes_sent_remote: c.bytes,
            bytes_sent_local: self.bytes_local,
            bytes_recv: self.bytes_recv,
            bytes_encoded,
            entries: c.entries,
            migrations: c.migrations,
            guard_buffered: self.guard_buffered,
            guard_drained: self.guard_drained,
            red_contributes: self.red_contributes,
            red_delivers: self.red_delivers,
            bcast_relays: self.bcast_relays,
            ckpt_bytes: self.ckpt_bytes,
            stale_discarded: self.stale_discarded,
            batches_sent: self.batches_sent,
            batch_msgs: self.batch_msgs,
            events_dropped: dropped,
            // Fast-path counters live in runtime-side structures (encode
            // pool, locations, LB); the scheduler assigns them onto
            // the finished trace. Zero here keeps `finish` signature-stable.
            ..PePerf::default()
        };
        let entries = std::mem::take(&mut self.entries)
            .into_iter()
            .map(|((ctype, kind), stat)| EntrySummary {
                ctype,
                name: name_of(ctype),
                kind,
                stat,
            })
            .collect();
        PeTrace {
            perf,
            entries,
            events,
            latency: std::mem::take(&mut self.latency),
            summary,
            telemetry: Vec::new(),
            enabled,
            captured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_keeps_counters_only() {
        let mut t = PeTracer::new(&TraceConfig::off());
        t.counters.sent += 3;
        t.work(WorkClass::Entry, 100);
        t.idle(0, 50);
        t.entry(0, 10, 10, 0, EntryKind::Receive);
        t.msg_send(8, true);
        let p = t.finish(0, 1_000, 0, |_| String::new());
        assert!(!p.enabled && !p.captured);
        assert_eq!(p.perf.msgs_sent, 3);
        assert_eq!(p.perf.busy_ns + p.perf.idle_ns + p.perf.overhead_ns, 0);
        assert!(p.entries.is_empty() && p.events.is_empty());
    }

    #[test]
    fn counters_level_decomposition_sums_to_wall() {
        let mut t = PeTracer::new(&TraceConfig::counters());
        t.work(WorkClass::Entry, 400);
        t.work(WorkClass::Overhead, 100);
        t.idle(0, 300);
        let p = t.finish(1, 1_000, 0, |_| String::new());
        assert!(p.enabled && !p.captured);
        assert_eq!(p.perf.busy_ns, 400);
        assert_eq!(p.perf.idle_ns, 300);
        // 100 charged + 200 slack folded in.
        assert_eq!(p.perf.overhead_ns, 300);
        assert_eq!(
            p.perf.busy_ns + p.perf.idle_ns + p.perf.overhead_ns,
            p.perf.wall_ns
        );
    }

    #[test]
    fn entry_stats_and_histogram() {
        let mut s = EntryStat::default();
        s.record(0);
        s.record(1);
        s.record(1024);
        s.record(u64::MAX);
        assert_eq!(s.calls, 4);
        assert_eq!(s.hist.count(), 4);
        assert_eq!(s.hist.min(), 0);
        assert_eq!(s.max_ns, u64::MAX);
        // Quantiles answer within the grid's relative-error bound.
        let p50 = s.hist.quantile(0.5).unwrap();
        assert!((p50 as f64 - 1.0).abs() <= 1.0 * s.hist.max_rel_error() + 0.5);
        let mut other = EntryStat::default();
        other.record(1024);
        s.merge(&other);
        assert_eq!(s.calls, 5);
        assert_eq!(s.hist.count(), 5);
    }

    #[test]
    fn full_capture_pairs_and_names() {
        let mut t = PeTracer::new(&TraceConfig::full().ring_capacity(16));
        t.entry(10, 30, 20, 7, EntryKind::Receive);
        let p = t.finish(0, 100, 0, |ct| format!("Chare{ct}"));
        assert!(p.captured);
        assert_eq!(p.events.len(), 2);
        assert_eq!(p.entries.len(), 1);
        assert_eq!(p.entries[0].name, "Chare7");
        assert_eq!(p.entries[0].stat.calls, 1);
    }

    #[test]
    fn back_dated_begin_is_clamped_monotone() {
        let mut t = PeTracer::new(&TraceConfig::full());
        t.push(100, EventKind::MsgRecv { bytes: 8 });
        // Coroutine segment back-dates its begin before the recv above.
        t.entry(60, 90, 30, 1, EntryKind::Coroutine);
        let p = t.finish(0, 200, 0, |_| String::new());
        let ts: Vec<u64> = p.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![100, 100, 100]);
    }

    #[test]
    fn batch_flush_counts_survive_off_level() {
        let mut t = PeTracer::new(&TraceConfig::off());
        t.batch_flush(8);
        t.batch_flush(3);
        let p = t.finish(0, 100, 0, |_| String::new());
        assert_eq!(p.perf.batches_sent, 2);
        assert_eq!(p.perf.batch_msgs, 11);
        assert!((p.perf.batch_occupancy() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn summary_level_bins_and_conserves_wall() {
        let cfg = TraceConfig::summary().quantum_ns(100).max_bins(4);
        let mut t = PeTracer::new(&cfg);
        assert!(t.summary_on() && !t.full());
        t.work_at(WorkClass::Entry, 150, 150);
        t.idle(150, 400);
        t.work_at(WorkClass::Overhead, 50, 450);
        t.entry(100, 150, 150, 1, EntryKind::Receive);
        t.summary_msg(200, 3, 96);
        t.latency(40);
        let p = t.finish(0, 1_000, 0, |_| String::new());
        let s = p.summary.as_ref().expect("summary profile present");
        assert!(s.bins.len() <= 4);
        let (b, i, o) = s.totals();
        assert_eq!(b, p.perf.busy_ns);
        assert_eq!(i, p.perf.idle_ns);
        assert_eq!(o, p.perf.overhead_ns);
        assert_eq!(b + i + o, p.perf.wall_ns, "quanta sum exactly to wall");
        let msgs: u64 = s.bins.iter().map(|x| x.msgs).sum();
        let entries: u64 = s.bins.iter().map(|x| x.entries).sum();
        assert_eq!((msgs, entries), (3, 1));
        assert_eq!(p.latency.count(), 1);
    }

    #[test]
    fn counters_level_has_no_summary() {
        let mut t = PeTracer::new(&TraceConfig::counters());
        t.work_at(WorkClass::Entry, 10, 10);
        let p = t.finish(0, 100, 0, |_| String::new());
        assert!(p.summary.is_none());
    }

    #[test]
    fn mem_take_yields_off_tracer() {
        let mut t = PeTracer::new(&TraceConfig::full());
        let taken = std::mem::take(&mut t);
        assert!(taken.full());
        assert!(!t.full() && !t.enabled());
    }
}
