//! End-of-run trace artifacts: per-PE performance blocks, the assembled
//! [`TraceReport`], and its two exporters (Chrome trace-event JSON for
//! Perfetto / `chrome://tracing`, and a plain-text summary table).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

use crate::event::{EntryKind, Event, EventKind};
use crate::hist::Hist;
use crate::json;
use crate::summary::PeSummary;
use crate::telemetry::MetricFrame;
use crate::text::{push_dec, push_us};
use crate::tracer::EntryStat;

/// Cheap per-PE performance counters — always present in `RunReport`,
/// whatever the trace level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PePerf {
    /// Which PE this block describes.
    pub pe: usize,
    /// Scheduler lifetime in ns (virtual time under the sim backend).
    pub wall_ns: u64,
    /// Entry-method / coroutine execution time.
    pub busy_ns: u64,
    /// Time spent waiting for work.
    pub idle_ns: u64,
    /// Runtime bookkeeping, codec work, and unattributed scheduler time.
    pub overhead_ns: u64,
    /// QD-counted envelopes emitted.
    pub msgs_sent: u64,
    /// QD-counted envelopes handled.
    pub msgs_processed: u64,
    /// Cross-PE envelopes emitted (trace-level ≥ counters).
    pub sent_remote: u64,
    /// Same-PE envelopes emitted (trace-level ≥ counters).
    pub sent_local: u64,
    /// Bytes shipped to other PEs.
    pub bytes_sent_remote: u64,
    /// Bytes of same-PE sends (delivered by reference).
    pub bytes_sent_local: u64,
    /// Bytes received by this scheduler.
    pub bytes_recv: u64,
    /// Bytes produced by this PE's wire-encode pool.
    pub bytes_encoded: u64,
    /// Entry-method activations.
    pub entries: u64,
    /// Chares migrated away.
    pub migrations: u64,
    /// Messages buffered behind a when-guard.
    pub guard_buffered: u64,
    /// Buffered messages later drained.
    pub guard_drained: u64,
    /// Reduction contributions.
    pub red_contributes: u64,
    /// Reductions delivered at a root here.
    pub red_delivers: u64,
    /// Broadcasts relayed down the spanning tree.
    pub bcast_relays: u64,
    /// Checkpoint bytes written.
    pub ckpt_bytes: u64,
    /// Envelopes from a previous recovery epoch discarded by this PE.
    pub stale_discarded: u64,
    /// Aggregation batch frames flushed — physical envelopes, vs. the
    /// logical per-message `sent_remote`/`msgs_sent` counts (which are
    /// unaffected by batching).
    pub batches_sent: u64,
    /// Logical messages carried inside those batches.
    pub batch_msgs: u64,
    /// Encode-scratch takes served from the per-PE envelope slab (the
    /// `EncodePool` freelist) without allocating.
    pub slab_hits: u64,
    /// Encode-scratch takes that had to allocate a fresh buffer.
    pub slab_misses: u64,
    /// Payloads published inline inside the envelope (< 64 B), skipping
    /// the shared allocation entirely.
    pub inline_payloads: u64,
    /// Entry-dispatch lookups served from the per-PE dispatch cache.
    pub dispatch_hits: u64,
    /// Entry-dispatch lookups that resolved through the registry.
    pub dispatch_misses: u64,
    /// Events overwritten in the full-capture ring.
    pub events_dropped: u64,
    /// Entry messages this PE forwarded through a migration stub (the
    /// chare lived here and moved on). Bounded per chain by the runtime's
    /// forwarding-trail collapse.
    pub fwd_hops: u64,
    /// Peak load-balancing chare-stat records materialized on this PE at
    /// once. A one-level LB tree (group size `npes`) gathers all O(nchares)
    /// on its root; a deeper tree bounds this by the group size.
    pub lb_peak_stats: u64,
}

impl PePerf {
    /// Fraction of wall time spent in entry methods (0 when wall is 0).
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }

    /// Mean coalesced messages per flushed aggregation batch (0 when no
    /// batch was ever flushed, i.e. aggregation off or never triggered).
    pub fn batch_occupancy(&self) -> f64 {
        if self.batches_sent == 0 {
            0.0
        } else {
            self.batch_msgs as f64 / self.batches_sent as f64
        }
    }

    /// Fraction of encode-scratch takes served by the envelope slab
    /// without allocating (0 when the slab was never used).
    pub fn slab_hit_rate(&self) -> f64 {
        let total = self.slab_hits + self.slab_misses;
        if total == 0 {
            0.0
        } else {
            self.slab_hits as f64 / total as f64
        }
    }

    /// Fraction of entry-dispatch lookups served from the dispatch cache
    /// (0 when dispatch never ran, e.g. dynamic mode or cache disabled).
    pub fn dispatch_hit_rate(&self) -> f64 {
        let total = self.dispatch_hits + self.dispatch_misses;
        if total == 0 {
            0.0
        } else {
            self.dispatch_hits as f64 / total as f64
        }
    }
}

/// One (chare type, entry kind) row of the per-entry statistics.
#[derive(Debug, Clone)]
pub struct EntrySummary {
    /// Chare type id (index into the runtime's registry).
    pub ctype: u32,
    /// Resolved chare type name.
    pub name: String,
    /// Activation kind.
    pub kind: EntryKind,
    /// Call counts and time histogram.
    pub stat: EntryStat,
}

/// Everything one PE recorded.
#[derive(Debug, Clone, Default)]
pub struct PeTrace {
    /// Counter block (always meaningful).
    pub perf: PePerf,
    /// Per-entry statistics (empty below counters level).
    pub entries: Vec<EntrySummary>,
    /// Captured events in record order (empty below full level).
    pub events: Vec<Event>,
    /// Send→deliver latency distribution (empty below counters level).
    pub latency: Hist,
    /// Bounded time-bin profile (present at level ≥ summary).
    pub summary: Option<PeSummary>,
    /// Telemetry time series — populated on PE 0 only, when
    /// `Runtime::telemetry` is armed (the reduction root retains it).
    pub telemetry: Vec<MetricFrame>,
    /// Trace level was ≥ counters.
    pub enabled: bool,
    /// Trace level was full (events were captured).
    pub captured: bool,
}

impl Default for EntrySummary {
    fn default() -> Self {
        EntrySummary {
            ctype: 0,
            name: String::new(),
            kind: EntryKind::Receive,
            stat: EntryStat::default(),
        }
    }
}

/// The whole machine's trace, one [`PeTrace`] per PE in PE order.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Per-PE traces, indexed by PE number.
    pub pes: Vec<PeTrace>,
}

/// An `args` member of a Chrome instant.
enum Arg {
    Num(u64),
    Bool(bool),
}

/// Open a `"X"` complete event up to the opening quote of its name; the
/// caller appends the escaped name, then [`end_event`].
fn begin_complete(out: &mut String, pe: usize, begin_ns: u64, end_ns: u64) {
    out.push_str(",\n{\"ph\":\"X\",\"pid\":1,\"tid\":");
    push_dec(out, pe as u64);
    out.push_str(",\"ts\":");
    push_us(out, begin_ns);
    out.push_str(",\"dur\":");
    push_us(out, end_ns.saturating_sub(begin_ns));
    out.push_str(",\"name\":\"");
}

/// Close the name, then the category, the `args` (if any) and the object.
fn end_event(out: &mut String, cat: &str, args: &[(&str, Arg)]) {
    out.push_str("\",\"cat\":\"");
    out.push_str(cat);
    out.push('"');
    for (i, (key, val)) in args.iter().enumerate() {
        out.push_str(if i == 0 { ",\"args\":{\"" } else { ",\"" });
        out.push_str(key);
        out.push_str("\":");
        match *val {
            Arg::Num(n) => push_dec(out, n),
            Arg::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    }
    if !args.is_empty() {
        out.push('}');
    }
    out.push('}');
}

/// A whole `"i"` instant.
fn instant(out: &mut String, pe: usize, name: &str, cat: &str, ts_ns: u64, args: &[(&str, Arg)]) {
    out.push_str(",\n{\"ph\":\"i\",\"pid\":1,\"tid\":");
    push_dec(out, pe as u64);
    out.push_str(",\"ts\":");
    push_us(out, ts_ns);
    out.push_str(",\"s\":\"t\",\"name\":\"");
    json::escape_into(out, name);
    end_event(out, cat, args);
}

impl TraceReport {
    /// Chrome trace-event JSON (array form): metadata rows naming one
    /// track per PE, `"X"` complete events for entry/idle/LB spans, and
    /// `"i"` instants for everything else. Timestamps are microseconds.
    pub fn chrome_json(&self) -> String {
        // One buffer for the whole text: ~77 bytes an event in a scheduler's
        // mix (a begin/end pair is one object), ~100 a metadata row.
        let events: usize = self.pes.iter().map(|t| t.events.len()).sum();
        let mut out = String::with_capacity(96 * events + 256 * self.pes.len() + 128);
        out.push_str(
            "[\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"charm-rs\"}}",
        );
        for t in &self.pes {
            let pe = t.perf.pe;
            let _ = write!(
                out,
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{pe},\"name\":\"thread_name\",\"args\":{{\"name\":\"PE {pe}\"}}}}"
            );
        }
        // Per-PE health metadata: ring-drop count and encode-slab hit rate
        // travel with the trace so a viewer (or charm-perf) can flag a
        // truncated or allocation-bound capture without the RunReport.
        for t in &self.pes {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"charm_stats\",\"args\":{{\"events_dropped\":{},\"slab_hit_rate\":{:.4}}}}}",
                t.perf.pe,
                t.perf.events_dropped,
                t.perf.slab_hit_rate()
            );
        }
        for t in &self.pes {
            let pe = t.perf.pe;
            let names: BTreeMap<u32, &str> = t
                .entries
                .iter()
                .map(|e| (e.ctype, e.name.as_str()))
                .collect();
            let mut iter = t.events.iter().peekable();
            while let Some(ev) = iter.next() {
                let name = ev.kind.name();
                let ts = ev.ts_ns;
                match &ev.kind {
                    EventKind::EntryBegin { ctype, kind } => {
                        let paired = matches!(
                            iter.peek(),
                            Some(n) if n.kind == (EventKind::EntryEnd { ctype: *ctype, kind: *kind })
                        );
                        if paired {
                            let end = iter.next().map(|n| n.ts_ns).unwrap_or(ts);
                            begin_complete(&mut out, pe, ts, end);
                            match names.get(ctype) {
                                Some(n) => json::escape_into(&mut out, n),
                                None => {
                                    out.push_str("ctype");
                                    push_dec(&mut out, u64::from(*ctype));
                                }
                            }
                            out.push_str("::");
                            out.push_str(kind.label());
                            end_event(&mut out, "entry", &[]);
                        } else {
                            instant(&mut out, pe, name, "entry", ts, &[]);
                        }
                    }
                    EventKind::IdleBegin => {
                        if matches!(iter.peek(), Some(n) if n.kind == EventKind::IdleEnd) {
                            let end = iter.next().map(|n| n.ts_ns).unwrap_or(ts);
                            begin_complete(&mut out, pe, ts, end);
                            out.push_str("idle");
                            end_event(&mut out, "idle", &[]);
                        } else {
                            instant(&mut out, pe, name, "idle", ts, &[]);
                        }
                    }
                    // Orphan ends can only come from a ring-wrap cut.
                    EventKind::EntryEnd { .. } => instant(&mut out, pe, name, "entry", ts, &[]),
                    EventKind::IdleEnd => instant(&mut out, pe, name, "idle", ts, &[]),
                    EventKind::MsgSend { bytes, remote } => instant(
                        &mut out,
                        pe,
                        name,
                        "msg",
                        ts,
                        &[
                            ("bytes", Arg::Num(u64::from(*bytes))),
                            ("remote", Arg::Bool(*remote)),
                        ],
                    ),
                    EventKind::MsgRecv { bytes } => instant(
                        &mut out,
                        pe,
                        name,
                        "msg",
                        ts,
                        &[("bytes", Arg::Num(u64::from(*bytes)))],
                    ),
                    EventKind::BatchFlush { msgs, bytes } => instant(
                        &mut out,
                        pe,
                        name,
                        "msg",
                        ts,
                        &[
                            ("msgs", Arg::Num(u64::from(*msgs))),
                            ("bytes", Arg::Num(u64::from(*bytes))),
                        ],
                    ),
                    EventKind::GuardBuffer { depth } | EventKind::GuardDrain { depth } => instant(
                        &mut out,
                        pe,
                        name,
                        "guard",
                        ts,
                        &[("depth", Arg::Num(u64::from(*depth)))],
                    ),
                    EventKind::RedContribute | EventKind::RedDeliver => {
                        instant(&mut out, pe, name, "red", ts, &[]);
                    }
                    EventKind::BcastFanout { children, members } => instant(
                        &mut out,
                        pe,
                        name,
                        "bcast",
                        ts,
                        &[
                            ("children", Arg::Num(u64::from(*children))),
                            ("members", Arg::Num(u64::from(*members))),
                        ],
                    ),
                    EventKind::MigrateOut { bytes } | EventKind::MigrateIn { bytes } => instant(
                        &mut out,
                        pe,
                        name,
                        "migrate",
                        ts,
                        &[("bytes", Arg::Num(u64::from(*bytes)))],
                    ),
                    EventKind::LbEpoch { dur_ns } => {
                        begin_complete(&mut out, pe, ts.saturating_sub(*dur_ns), ts);
                        out.push_str(name);
                        end_event(&mut out, "lb", &[]);
                    }
                    EventKind::Ckpt { bytes } => {
                        instant(
                            &mut out,
                            pe,
                            name,
                            "ckpt",
                            ts,
                            &[("bytes", Arg::Num(*bytes))],
                        );
                    }
                    EventKind::Recovery { epoch } => {
                        instant(
                            &mut out,
                            pe,
                            name,
                            "ckpt",
                            ts,
                            &[("epoch", Arg::Num(*epoch))],
                        );
                    }
                    EventKind::StaleDrop => instant(&mut out, pe, name, "ckpt", ts, &[]),
                    EventKind::Mark { label } => instant(&mut out, pe, label, "mark", ts, &[]),
                }
            }
        }
        out.push_str("\n]\n");
        out
    }

    /// Write the Chrome JSON to `path` (open the file in Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_json())
    }

    /// Plain-text utilization + per-entry summary table.
    pub fn summary(&self) -> String {
        // A row per PE and per distinct entry, none over 160 bytes.
        let rows = self.pes.iter().map(|t| 2 + t.entries.len()).sum::<usize>();
        let mut out = String::with_capacity(160 * (rows + 3));
        let _ = writeln!(out, "{:>4}  {:>12} {:>7} {:>7} {:>7}  {:>8} {:>8}  {:>12} {:>8} {:>6} {:>6} {:>7} {:>6} {:>8}",
            "PE",
            "wall_ms",
            "busy%",
            "idle%",
            "ovhd%",
            "sent",
            "procd",
            "rem_bytes",
            "batches",
            "occ",
            "slab%",
            "inline",
            "disp%",
            "dropped"
        );
        for t in &self.pes {
            let p = &t.perf;
            let pct = |ns: u64| {
                if p.wall_ns == 0 {
                    0.0
                } else {
                    100.0 * ns as f64 / p.wall_ns as f64
                }
            };
            let _ = writeln!(out, "{:>4}  {:>12.3} {:>7.1} {:>7.1} {:>7.1}  {:>8} {:>8}  {:>12} {:>8} {:>6.1} {:>6.1} {:>7} {:>6.1} {:>8}",
                p.pe,
                p.wall_ns as f64 / 1e6,
                pct(p.busy_ns),
                pct(p.idle_ns),
                pct(p.overhead_ns),
                p.msgs_sent,
                p.msgs_processed,
                p.bytes_sent_remote,
                p.batches_sent,
                p.batch_occupancy(),
                100.0 * p.slab_hit_rate(),
                p.inline_payloads,
                100.0 * p.dispatch_hit_rate(),
                p.events_dropped,
            );
        }
        // Merge entry stats across PEs by (name, kind) — histograms merge
        // bucket-wise, so the p50/p99 columns are cluster-wide quantiles.
        let mut merged: BTreeMap<(&str, EntryKind), EntryStat> = BTreeMap::new();
        for t in &self.pes {
            for e in &t.entries {
                merged
                    .entry((e.name.as_str(), e.kind))
                    .or_default()
                    .merge(&e.stat);
            }
        }
        if !merged.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<48} {:<16} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10}",
                "entry", "kind", "calls", "total_ms", "max_us", "avg_us", "p50_us", "p99_us"
            );
            for ((name, kind), s) in &merged {
                let q = |p: f64| s.hist.quantile(p).unwrap_or(0) as f64 / 1e3;
                let _ = writeln!(
                    out,
                    "{:<48} {:<16} {:>8} {:>12.3} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                    name,
                    kind.label(),
                    s.calls,
                    s.total_ns as f64 / 1e6,
                    s.max_ns as f64 / 1e3,
                    s.mean_ns() as f64 / 1e3,
                    q(0.5),
                    q(0.99),
                );
            }
        }
        // Cluster-wide send→deliver latency distribution.
        let mut lat = Hist::default();
        for t in &self.pes {
            lat.merge(&t.latency);
        }
        if lat.count() > 0 {
            let q = |p: f64| lat.quantile(p).unwrap_or(0) as f64 / 1e3;
            let _ = writeln!(
                out,
                "\nmsg latency: n={} p50={:.1}us p99={:.1}us p999={:.1}us max={:.1}us",
                lat.count(),
                q(0.5),
                q(0.99),
                q(0.999),
                lat.max() as f64 / 1e3,
            );
        }
        // Summary-mode profile digest (full bins live in the artifact).
        for t in &self.pes {
            if let Some(s) = &t.summary {
                let _ = writeln!(
                    out,
                    "summary: PE {} quantum={}ns bins={} merges={}",
                    t.perf.pe,
                    s.quantum_ns,
                    s.bins.len(),
                    s.merges,
                );
            }
        }
        out
    }

    /// Plain-text summary-mode artifact (`charm-summary v1`): one `pe`
    /// header per PE that ran at summary level, followed by its time bins.
    /// The per-class nanosecond totals in the header equal the `PePerf`
    /// counters exactly — `charm-perf` re-derives and checks this.
    pub fn summary_artifact(&self) -> String {
        // A `bin` line of six-digit fields is ~80 bytes, a header ~130.
        let bins: usize = self
            .pes
            .iter()
            .filter_map(|t| t.summary.as_ref())
            .map(|s| 2 + s.bins.len())
            .sum();
        let mut out = String::with_capacity(96 * bins + 32);
        out.push_str("charm-summary v1\n");
        for t in &self.pes {
            let Some(s) = &t.summary else { continue };
            let p = &t.perf;
            out.push_str("pe ");
            push_dec(&mut out, p.pe as u64);
            for (key, v) in [
                (" wall_ns=", p.wall_ns),
                (" quantum_ns=", s.quantum_ns),
                (" merges=", u64::from(s.merges)),
                (" bins=", s.bins.len() as u64),
                (" busy_ns=", p.busy_ns),
                (" idle_ns=", p.idle_ns),
                (" overhead_ns=", p.overhead_ns),
            ] {
                out.push_str(key);
                push_dec(&mut out, v);
            }
            out.push('\n');
            for (i, b) in s.bins.iter().enumerate() {
                out.push_str("bin ");
                push_dec(&mut out, i as u64);
                for (key, v) in [
                    (" busy_ns=", b.busy_ns),
                    (" idle_ns=", b.idle_ns),
                    (" overhead_ns=", b.overhead_ns),
                    (" entries=", b.entries),
                    (" msgs=", b.msgs),
                    (" bytes=", b.bytes),
                ] {
                    out.push_str(key);
                    push_dec(&mut out, v);
                }
                out.push('\n');
            }
        }
        out
    }

    /// Write the summary-mode artifact to `path`.
    pub fn write_summary_artifact(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.summary_artifact())
    }

    /// Distinct event-kind names captured across all PEs (paired spans
    /// count once), handy for coverage assertions.
    pub fn event_kind_names(&self) -> BTreeSet<&'static str> {
        let mut names = BTreeSet::new();
        for t in &self.pes {
            for ev in &t.events {
                names.insert(ev.kind.name());
            }
        }
        names
    }

    /// Check event well-formedness: per PE, timestamps must be
    /// non-decreasing and every begin must be immediately followed by its
    /// matching end (the recorder pushes pairs back-to-back; a ring wrap
    /// may leave at most one orphan end, and only as the first event).
    pub fn validate(&self) -> Result<(), String> {
        for t in &self.pes {
            let pe = t.perf.pe;
            let evs = &t.events;
            let mut last = 0u64;
            let mut i = 0usize;
            while let Some(ev) = evs.get(i) {
                if ev.ts_ns < last {
                    return Err(format!(
                        "PE {pe}: timestamp went backwards at event {i} ({} < {last})",
                        ev.ts_ns
                    ));
                }
                last = ev.ts_ns;
                match &ev.kind {
                    EventKind::EntryBegin { ctype, kind } => match evs.get(i + 1) {
                        Some(n)
                            if n.kind
                                == (EventKind::EntryEnd {
                                    ctype: *ctype,
                                    kind: *kind,
                                })
                                && n.ts_ns >= ev.ts_ns =>
                        {
                            last = n.ts_ns;
                            i += 2;
                            continue;
                        }
                        _ => {
                            return Err(format!(
                                "PE {pe}: EntryBegin at event {i} lacks an adjacent matching EntryEnd"
                            ));
                        }
                    },
                    EventKind::IdleBegin => match evs.get(i + 1) {
                        Some(n) if n.kind == EventKind::IdleEnd && n.ts_ns >= ev.ts_ns => {
                            last = n.ts_ns;
                            i += 2;
                            continue;
                        }
                        _ => {
                            return Err(format!(
                                "PE {pe}: IdleBegin at event {i} lacks an adjacent IdleEnd"
                            ));
                        }
                    },
                    EventKind::EntryEnd { .. } | EventKind::IdleEnd if i != 0 => {
                        return Err(format!(
                            "PE {pe}: orphan end event at {i} (only allowed at the ring cut)"
                        ));
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn span(ts: u64, dur: u64, ctype: u32) -> [Event; 2] {
        [
            Event {
                ts_ns: ts,
                kind: EventKind::EntryBegin {
                    ctype,
                    kind: EntryKind::Receive,
                },
            },
            Event {
                ts_ns: ts + dur,
                kind: EventKind::EntryEnd {
                    ctype,
                    kind: EntryKind::Receive,
                },
            },
        ]
    }

    fn one_pe(events: Vec<Event>) -> TraceReport {
        TraceReport {
            pes: vec![PeTrace {
                perf: PePerf {
                    pe: 0,
                    wall_ns: 1_000_000,
                    ..PePerf::default()
                },
                entries: Vec::new(),
                events,
                enabled: true,
                captured: true,
                ..PeTrace::default()
            }],
        }
    }

    #[test]
    fn validate_accepts_paired_monotone() {
        let mut evs: Vec<Event> = span(100, 50, 1).to_vec();
        evs.push(Event {
            ts_ns: 200,
            kind: EventKind::MsgSend {
                bytes: 16,
                remote: true,
            },
        });
        evs.extend(span(300, 10, 1));
        assert!(one_pe(evs).validate().is_ok());
    }

    #[test]
    fn validate_rejects_backwards_time() {
        let mut evs: Vec<Event> = span(500, 10, 1).to_vec();
        evs.push(Event {
            ts_ns: 10,
            kind: EventKind::RedContribute,
        });
        assert!(one_pe(evs).validate().is_err());
    }

    #[test]
    fn validate_rejects_unpaired_begin() {
        let evs = vec![Event {
            ts_ns: 1,
            kind: EventKind::IdleBegin,
        }];
        assert!(one_pe(evs).validate().is_err());
    }

    #[test]
    fn validate_allows_orphan_end_at_ring_cut_only() {
        let mut evs = vec![Event {
            ts_ns: 5,
            kind: EventKind::IdleEnd,
        }];
        evs.extend(span(10, 5, 2));
        assert!(one_pe(evs.clone()).validate().is_ok());
        evs.push(Event {
            ts_ns: 100,
            kind: EventKind::IdleEnd,
        });
        assert!(one_pe(evs).validate().is_err());
    }

    #[test]
    fn chrome_json_parses_and_names_tracks() {
        let mut evs: Vec<Event> = span(1_000, 2_000, 3).to_vec();
        evs.push(Event {
            ts_ns: 4_000,
            kind: EventKind::Mark {
                label: "weird \"label\"\n<T>".into(),
            },
        });
        let mut rep = one_pe(evs);
        rep.pes[0].entries.push(EntrySummary {
            ctype: 3,
            name: "demo::Chare".into(),
            kind: EntryKind::Receive,
            stat: EntryStat::default(),
        });
        let doc = parse(&rep.chrome_json()).expect("exporter emits valid JSON");
        let arr = doc.as_arr().expect("top level is an array");
        // Metadata: process name + one thread_name per PE.
        let tracks: Vec<&Value> = arr
            .iter()
            .filter(|o| o.get("name").and_then(Value::as_str) == Some("thread_name"))
            .collect();
        assert_eq!(tracks.len(), 1);
        // The entry span resolved its chare name and is a complete event.
        assert!(arr.iter().any(|o| {
            o.get("ph").and_then(Value::as_str) == Some("X")
                && o.get("name").and_then(Value::as_str) == Some("demo::Chare::receive")
                && o.get("dur").and_then(Value::as_f64) == Some(2.0)
        }));
        // The nasty mark label survived the escaping round trip.
        assert!(arr
            .iter()
            .any(|o| { o.get("name").and_then(Value::as_str) == Some("weird \"label\"\n<T>") }));
    }

    #[test]
    fn summary_mentions_entries_and_pes() {
        let mut rep = one_pe(Vec::new());
        rep.pes[0].entries.push(EntrySummary {
            ctype: 0,
            name: "demo::Chare".into(),
            kind: EntryKind::Reduced,
            stat: {
                let mut s = EntryStat::default();
                s.record(1_500);
                s
            },
        });
        let text = rep.summary();
        assert!(text.contains("demo::Chare"));
        assert!(text.contains("reduced"));
        assert!(text.contains("wall_ms"));
    }

    #[test]
    fn batch_flush_exports_and_summarizes() {
        let evs = vec![Event {
            ts_ns: 10,
            kind: EventKind::BatchFlush {
                msgs: 64,
                bytes: 4_096,
            },
        }];
        let mut rep = one_pe(evs);
        rep.pes[0].perf.batches_sent = 3;
        rep.pes[0].perf.batch_msgs = 96;
        rep.validate().expect("instant events validate");
        let doc = parse(&rep.chrome_json()).expect("exporter emits valid JSON");
        let arr = doc.as_arr().expect("top level is an array");
        assert!(arr.iter().any(|o| {
            o.get("name").and_then(Value::as_str) == Some("batch_flush")
                && o.get("args")
                    .and_then(|a| a.get("msgs"))
                    .and_then(Value::as_f64)
                    == Some(64.0)
        }));
        let text = rep.summary();
        assert!(text.contains("batches"));
        assert!(text.contains("occ"));
        assert!((rep.pes[0].perf.batch_occupancy() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn fast_path_counters_summarize_and_rate() {
        let mut rep = one_pe(Vec::new());
        {
            let p = &mut rep.pes[0].perf;
            p.slab_hits = 90;
            p.slab_misses = 10;
            p.inline_payloads = 75;
            p.dispatch_hits = 99;
            p.dispatch_misses = 1;
        }
        let p = &rep.pes[0].perf;
        assert!((p.slab_hit_rate() - 0.9).abs() < 1e-9);
        assert!((p.dispatch_hit_rate() - 0.99).abs() < 1e-9);
        let text = rep.summary();
        assert!(text.contains("slab%"));
        assert!(text.contains("inline"));
        assert!(text.contains("disp%"));
        assert!(text.contains("75"), "inline count appears in the row");
        // Untouched blocks report 0, not NaN.
        assert_eq!(PePerf::default().slab_hit_rate(), 0.0);
        assert_eq!(PePerf::default().dispatch_hit_rate(), 0.0);
    }

    #[test]
    fn chrome_metadata_surfaces_drops_and_slab_rate() {
        let mut rep = one_pe(Vec::new());
        rep.pes[0].perf.events_dropped = 42;
        rep.pes[0].perf.slab_hits = 3;
        rep.pes[0].perf.slab_misses = 1;
        let doc = parse(&rep.chrome_json()).expect("exporter emits valid JSON");
        let arr = doc.as_arr().expect("top level is an array");
        let stats = arr
            .iter()
            .find(|o| o.get("name").and_then(Value::as_str) == Some("charm_stats"))
            .expect("charm_stats metadata row present");
        let args = stats.get("args").expect("args object");
        assert_eq!(
            args.get("events_dropped").and_then(Value::as_f64),
            Some(42.0)
        );
        assert_eq!(
            args.get("slab_hit_rate").and_then(Value::as_f64),
            Some(0.75)
        );
    }

    #[test]
    fn summary_artifact_lists_bins_and_matches_perf() {
        use crate::summary::{PeSummary, SummaryBin};
        let mut rep = one_pe(Vec::new());
        {
            let t = &mut rep.pes[0];
            t.perf.busy_ns = 30;
            t.perf.idle_ns = 20;
            t.perf.overhead_ns = 950;
            t.summary = Some(PeSummary {
                quantum_ns: 500,
                merges: 1,
                bins: vec![
                    SummaryBin {
                        busy_ns: 30,
                        idle_ns: 20,
                        overhead_ns: 450,
                        entries: 2,
                        msgs: 5,
                        bytes: 160,
                    },
                    SummaryBin {
                        overhead_ns: 500,
                        ..SummaryBin::default()
                    },
                ],
            });
        }
        let art = rep.summary_artifact();
        assert!(art.starts_with("charm-summary v1\n"));
        assert!(art.contains(
            "pe 0 wall_ns=1000000 quantum_ns=500 merges=1 bins=2 busy_ns=30 idle_ns=20 overhead_ns=950"
        ));
        assert!(
            art.contains("bin 0 busy_ns=30 idle_ns=20 overhead_ns=450 entries=2 msgs=5 bytes=160")
        );
        assert!(art.contains("bin 1 busy_ns=0 idle_ns=0 overhead_ns=500 entries=0 msgs=0 bytes=0"));
        let text = rep.summary();
        assert!(text.contains("summary: PE 0 quantum=500ns bins=2 merges=1"));
        // A counters-only report emits the header and nothing else.
        assert_eq!(one_pe(Vec::new()).summary_artifact(), "charm-summary v1\n");
    }

    #[test]
    fn summary_reports_latency_quantiles() {
        let mut rep = one_pe(Vec::new());
        for v in [10_000u64, 20_000, 30_000, 40_000] {
            rep.pes[0].latency.record(v);
        }
        let text = rep.summary();
        assert!(text.contains("msg latency: n=4"));
        assert!(text.contains("p50="));
        assert!(text.contains("p99="));
        // No latency samples → no latency line.
        assert!(!one_pe(Vec::new()).summary().contains("msg latency"));
    }

    #[test]
    fn event_kind_names_collects_distinct() {
        let mut evs: Vec<Event> = span(0, 1, 0).to_vec();
        evs.push(Event {
            ts_ns: 2,
            kind: EventKind::RedContribute,
        });
        evs.push(Event {
            ts_ns: 3,
            kind: EventKind::RedDeliver,
        });
        let names = one_pe(evs).event_kind_names();
        assert!(names.contains("entry_begin") && names.contains("red_deliver"));
        assert_eq!(names.len(), 4);
    }
}
