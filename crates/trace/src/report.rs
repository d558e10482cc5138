//! End-of-run trace artifacts: per-PE performance blocks, the assembled
//! [`TraceReport`], and its two exporters (Chrome trace-event JSON for
//! Perfetto / `chrome://tracing`, and a plain-text summary table).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

pub use crate::counters::PePerf;
use crate::event::{EntryKind, Event, EventKind};
use crate::hist::Hist;
use crate::json;
use crate::summary::PeSummary;
use crate::telemetry::MetricFrame;
use crate::text::{push_dec, push_us};
use crate::tracer::EntryStat;

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl PePerf {
    /// Fraction of wall time spent in entry methods (0 when wall is 0).
    pub fn utilization(&self) -> f64 {
        ratio(self.busy_ns, self.wall_ns)
    }

    /// Mean coalesced messages per flushed aggregation batch (0 when no
    /// batch was ever flushed, i.e. aggregation off or never triggered).
    pub fn batch_occupancy(&self) -> f64 {
        ratio(self.batch_msgs, self.batches_sent)
    }

    /// Fraction of encode-scratch takes served by the envelope slab
    /// without allocating (0 when the slab was never used).
    pub fn slab_hit_rate(&self) -> f64 {
        ratio(self.slab_hits, self.slab_hits + self.slab_misses)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    /// A whole number.
    Num(u64),
    /// A boolean.
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

/// An `"X"` or `"i"` row as `chrome_json` writes it, read back by
/// [`written_row`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WrittenRow<'a> {
    /// `b'X'` (a complete event) or `b'i'` (an instant).
    pub ph: u8,
    /// The track: the PE number.
    pub tid: u64,
    /// `ts` in nanoseconds, as written (`push_us`' digits without the point).
    ts_ns: u64,
    /// `dur` in nanoseconds, as written; 0 for an instant, which has none.
    dur_ns: u64,
    /// `dur` in microseconds: the value `json::Reader` gives its literal.
    pub dur_us: f64,
    /// `name`, free of escapes.
    pub name: &'a str,
    /// `cat`, free of escapes.
    pub cat: &'a str,
    /// The members of the `args` object without its braces, `""` if none.
    args: &'a str,
}

/// Read `word` at the front of `rest`, moving past it; `None` if it is not
/// there.
#[inline(always)]
fn lit(rest: &mut &str, word: &str) -> Option<()> {
    *rest = rest.strip_prefix(word)?;
    Some(())
}

/// A whole number at the front of `rest` as `push_dec` writes it, moving
/// past it: `0`, or digits without a leading zero that fit a `u64`. What
/// follows it must then be a byte that is not a digit, as it is in every
/// place a row reader reads one.
#[inline(always)]
fn whole(rest: &mut &str) -> Option<u64> {
    let bytes = rest.as_bytes();
    let mut n = 0u64;
    let mut len = 0;
    while let Some(d) = bytes.get(len).map(|b| b.wrapping_sub(b'0')) {
        if d > 9 {
            break;
        }
        // Checked below: a wrap needs more digits than `u64::MAX` has.
        n = n.wrapping_mul(10).wrapping_add(u64::from(d));
        len += 1;
    }
    let (digits, tail) = rest.split_at_checked(len)?;
    let fits = match digits.as_bytes() {
        [] => false,
        [_] => true,
        [b'0', ..] => false,
        _ => len < 20 || len == 20 && digits <= "18446744073709551615",
    };
    *rest = tail;
    fits.then_some(n)
}

/// A time as `push_us` writes it at the front of `rest` (a [`whole`] number
/// of microseconds, a point, three digits), moving past it: its value in
/// nanoseconds, at most 2^53 (about 104 days). Up to there the reader
/// converts the literal with one division (`json::exact`); past it, `None`.
#[inline(always)]
fn written_us(rest: &mut &str) -> Option<u64> {
    let us = whole(rest)?;
    lit(rest, ".")?;
    let (frac, tail) = rest.split_at_checked(3)?;
    let mut milli = 0;
    for b in frac.bytes() {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        milli = milli * 10 + u64::from(d);
    }
    *rest = tail;
    us.checked_mul(1000)?
        .checked_add(milli)
        .filter(|&ns| ns <= 1 << 53)
}

/// The contents of a string literal whose opening quote has been read,
/// when they hold no escape and no control byte, and its closing quote is
/// the first byte of `then`, which must follow: moving past both.
#[inline(always)]
fn plain_until<'a>(rest: &mut &'a str, then: &str) -> Option<&'a str> {
    let (s, tail) = rest.split_at_checked(json::plain_end(rest.as_bytes(), 0))?;
    *rest = tail.strip_prefix(then)?;
    Some(s)
}

/// One `"key":value` member of an `args` object as [`end_event`] writes it,
/// at the front of `rest`, moving past it: a key as [`plain_until`] reads
/// it, then a [`whole`] number or a boolean.
#[inline(always)]
fn written_arg<'a>(rest: &mut &'a str) -> Option<(&'a str, Arg)> {
    lit(rest, "\"")?;
    let key = plain_until(rest, "\":")?;
    let val = if lit(rest, "true").is_some() {
        Arg::Bool(true)
    } else if lit(rest, "false").is_some() {
        Arg::Bool(false)
    } else {
        Arg::Num(whole(rest)?)
    };
    Some((key, val))
}

/// The Chrome row at byte `at` of `text` and the offset just past it, when
/// the row is an `"X"` or `"i"` event spelled exactly as `begin_complete`,
/// `instant` and `end_event` spell it:
/// `{"ph":"X"|"i","pid":1,"tid":N,"ts":U,...}` with `N` at most 2^53, `U`
/// (and an `"X"` row's `dur`) in `push_us`' form and at most 2^53 ns, a
/// `name` and a `cat` without an escape, and `args`, if present, holding
/// only whole numbers and booleans. `None` for any other spelling, which a
/// caller then reads with `json::Reader`.
///
/// What it accepts is one valid JSON object, every byte checked, and its
/// values are the ones a `json::Reader` reads from it. One pass, no
/// allocation, no token calls: how `charm-perf` reads the rows of a trace
/// this crate wrote.
pub fn written_row(text: &str, at: usize) -> Option<(WrittenRow<'_>, usize)> {
    let mut rest = text.get(at..)?.strip_prefix("{\"ph\":\"")?;
    let ph = if lit(&mut rest, "X\",\"pid\":1,\"tid\":").is_some() {
        b'X'
    } else {
        lit(&mut rest, "i\",\"pid\":1,\"tid\":")?;
        b'i'
    };
    let tid = whole(&mut rest).filter(|&t| t <= 1 << 53)?;
    lit(&mut rest, ",\"ts\":")?;
    let ts_ns = written_us(&mut rest)?;
    let (dur_ns, dur_us) = if ph == b'X' {
        lit(&mut rest, ",\"dur\":")?;
        let ns = written_us(&mut rest)?;
        (ns, json::exact(ns, -3)?)
    } else {
        lit(&mut rest, ",\"s\":\"t\"")?;
        (0, 0.0)
    };
    lit(&mut rest, ",\"name\":\"")?;
    let name = plain_until(&mut rest, "\",\"cat\":\"")?;
    let cat = plain_until(&mut rest, "\"")?;
    let mut args = "";
    if lit(&mut rest, ",\"args\":{").is_some() {
        let members = rest;
        written_arg(&mut rest)?;
        while let Some(tail) = rest.strip_prefix(',') {
            rest = tail;
            written_arg(&mut rest)?;
        }
        args = &members[..members.len() - rest.len()];
        lit(&mut rest, "}")?;
    }
    lit(&mut rest, "}")?;
    let row = WrittenRow {
        ph,
        tid,
        ts_ns,
        dur_ns,
        dur_us,
        name,
        cat,
        args,
    };
    Some((row, text.len() - rest.len()))
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
        let _ = writeln!(
            out,
            "{:>4}  {:>12} {:>7} {:>7} {:>7}  {:>8} {:>8}  {:>12} {:>8} {:>6} {:>6} {:>7} {:>8}",
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
            let _ = writeln!(out, "{:>4}  {:>12.3} {:>7.1} {:>7.1} {:>7.1}  {:>8} {:>8}  {:>12} {:>8} {:>6.1} {:>6.1} {:>7} {:>8}",
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
                b.write_fields(&mut out);
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

    /// What a row states: `ph`, `name`, `cat`, `ts` and `dur` (ns) as the
    /// exporter was handed them, and the `args`.
    type Want = (
        u8,
        &'static str,
        &'static str,
        u64,
        u64,
        Vec<(&'static str, Arg)>,
    );

    /// Every row shape `chrome_json` writes, each with its row (`None`: a
    /// row the reader must refuse). Times sit at 0 and on both sides of
    /// `FLOAT_FROM_NS`, where `push_us` hands over to the float format.
    fn every_row() -> Vec<(Vec<Event>, Option<Want>)> {
        use crate::text::FLOAT_FROM_NS as F;
        let ev = |ts_ns, kind| Event { ts_ns, kind };
        let begin = |ctype, kind| EventKind::EntryBegin { ctype, kind };
        let end = |ctype, kind| EventKind::EntryEnd { ctype, kind };
        let (rcv, red, co) = (EntryKind::Receive, EntryKind::Reduced, EntryKind::Coroutine);
        let (num, yes, no) = (Arg::Num, Arg::Bool(true), Arg::Bool(false));
        let i = |name, cat, ts| Some((b'i', name, cat, ts, 0, Vec::new()));
        let x = |name, cat, ts, dur| Some((b'X', name, cat, ts, dur, Vec::new()));
        let with = |name, cat, ts, args| Some((b'i', name, cat, ts, 0, args));
        vec![
            // Orphan ends, as a ring cut leaves them.
            (vec![ev(0, end(3, rcv))], i("entry_end", "entry", 0)),
            (vec![ev(0, EventKind::IdleEnd)], i("idle_end", "idle", 0)),
            (
                vec![ev(0, begin(3, rcv)), ev(0, end(3, rcv))],
                x("demo::Chare::receive", "entry", 0, 0),
            ),
            (
                vec![
                    ev(5, begin(9, EntryKind::Construct)),
                    ev(F - 1, end(9, EntryKind::Construct)),
                ],
                x("ctype9::construct", "entry", 5, F - 6),
            ),
            (
                vec![ev(F - 1, EventKind::IdleBegin), ev(F, EventKind::IdleEnd)],
                x("idle", "idle", F - 1, 1),
            ),
            (
                vec![ev(F, begin(3, rcv)), ev(2 * F, end(3, rcv))],
                x("demo::Chare::receive", "entry", F, F),
            ),
            // A begin whose end names another entry: two instants.
            (vec![ev(F, begin(1, red))], i("entry_begin", "entry", F)),
            (vec![ev(F + 1, end(1, co))], i("entry_end", "entry", F + 1)),
            (
                vec![ev(F + 1, EventKind::IdleBegin)],
                i("idle_begin", "idle", F + 1),
            ),
            (
                vec![ev(
                    F + 2,
                    EventKind::MsgSend {
                        bytes: 4_096,
                        remote: true,
                    },
                )],
                with(
                    "msg_send",
                    "msg",
                    F + 2,
                    vec![("bytes", num(4_096)), ("remote", yes)],
                ),
            ),
            (
                vec![ev(
                    1,
                    EventKind::MsgSend {
                        bytes: 0,
                        remote: false,
                    },
                )],
                with(
                    "msg_send",
                    "msg",
                    1,
                    vec![("bytes", num(0)), ("remote", no)],
                ),
            ),
            (
                vec![ev(999, EventKind::MsgRecv { bytes: u32::MAX })],
                with(
                    "msg_recv",
                    "msg",
                    999,
                    vec![("bytes", num(u64::from(u32::MAX)))],
                ),
            ),
            (
                vec![ev(
                    1_000,
                    EventKind::BatchFlush {
                        msgs: 64,
                        bytes: 65_536,
                    },
                )],
                with(
                    "batch_flush",
                    "msg",
                    1_000,
                    vec![("msgs", num(64)), ("bytes", num(65_536))],
                ),
            ),
            (
                vec![ev(1_001, EventKind::GuardBuffer { depth: 3 })],
                with("guard_buffer", "guard", 1_001, vec![("depth", num(3))]),
            ),
            (
                vec![ev(1_002, EventKind::GuardDrain { depth: 0 })],
                with("guard_drain", "guard", 1_002, vec![("depth", num(0))]),
            ),
            (
                vec![ev(1_003, EventKind::RedContribute)],
                i("red_contribute", "red", 1_003),
            ),
            (
                vec![ev(1_004, EventKind::RedDeliver)],
                i("red_deliver", "red", 1_004),
            ),
            (
                vec![ev(
                    1_005,
                    EventKind::BcastFanout {
                        children: 4,
                        members: 1_000,
                    },
                )],
                with(
                    "bcast_fanout",
                    "bcast",
                    1_005,
                    vec![("children", num(4)), ("members", num(1_000))],
                ),
            ),
            (
                vec![ev(1_006, EventKind::MigrateOut { bytes: 777 })],
                with("migrate_out", "migrate", 1_006, vec![("bytes", num(777))]),
            ),
            (
                vec![ev(1_007, EventKind::MigrateIn { bytes: 778 })],
                with("migrate_in", "migrate", 1_007, vec![("bytes", num(778))]),
            ),
            (
                vec![ev(F + 1_500, EventKind::LbEpoch { dur_ns: 1_500 })],
                x("lb_epoch", "lb", F, 1_500),
            ),
            // The duration reaches past the clock's start: the span starts at 0.
            (
                vec![ev(F + 3, EventKind::LbEpoch { dur_ns: u64::MAX })],
                x("lb_epoch", "lb", 0, F + 3),
            ),
            (
                vec![ev(F + 4, EventKind::Ckpt { bytes: u64::MAX })],
                with("ckpt", "ckpt", F + 4, vec![("bytes", num(u64::MAX))]),
            ),
            (
                vec![ev(F - 2, EventKind::Recovery { epoch: 2 })],
                with("recovery", "ckpt", F - 2, vec![("epoch", num(2))]),
            ),
            (
                vec![ev(7, EventKind::StaleDrop)],
                i("stale_drop", "ckpt", 7),
            ),
            (
                vec![ev(
                    8,
                    EventKind::Mark {
                        label: "phase 2 <T>".into(),
                    },
                )],
                i("phase 2 <T>", "mark", 8),
            ),
            (
                vec![ev(
                    9,
                    EventKind::Mark {
                        label: String::new(),
                    },
                )],
                i("", "mark", 9),
            ),
            // A label that needs an escape is not a written row.
            (
                vec![ev(
                    10,
                    EventKind::Mark {
                        label: "say \"hi\"".into(),
                    },
                )],
                None,
            ),
        ]
    }

    /// `push_us`' text for `ns` read back as the nanoseconds it spells:
    /// `ns` below `FLOAT_FROM_NS`, the float's rounding above it.
    fn spelled_ns(ns: u64) -> u64 {
        let mut text = String::new();
        push_us(&mut text, ns);
        text.replace('.', "").parse().expect("digits")
    }

    /// The start of every element of a `chrome_json` text.
    fn row_starts(text: &str) -> Vec<usize> {
        text.match_indices("\n{").map(|(at, _)| at + 1).collect()
    }

    /// A written row's `args` members in written order.
    fn written_args<'a>(row: &WrittenRow<'a>) -> impl Iterator<Item = (&'a str, Arg)> + 'a {
        let mut rest = row.args;
        std::iter::from_fn(move || {
            let arg = written_arg(&mut rest)?;
            // Past the comma; after the last member, nothing is left.
            rest = rest.strip_prefix(',').unwrap_or("");
            Some(arg)
        })
    }

    /// `row`, read from `text` at `at` up to `end`, says what `json::parse`
    /// says of the same bytes: the same members, no others, each with the
    /// same value, the floats bit for bit.
    fn agrees_with_the_tree(text: &str, at: usize, end: usize, row: &WrittenRow<'_>) {
        let piece = &text[at..end];
        let tree = parse(piece).unwrap_or_else(|e| panic!("accepted invalid JSON {piece:?}: {e}"));
        let Value::Obj(members) = &tree else {
            panic!("accepted a non-object {piece:?}");
        };
        let mut keys: Vec<&str> = members.keys().map(String::as_str).collect();
        keys.sort_unstable();
        let mut want = vec!["cat", "name", "ph", "pid", "tid", "ts"];
        want.push(if row.ph == b'X' { "dur" } else { "s" });
        if !row.args.is_empty() {
            want.push("args");
        }
        want.sort_unstable();
        assert_eq!(keys, want, "{piece}");
        let num = |k: &str| tree.get(k).and_then(Value::as_f64).map(f64::to_bits);
        let text_of = |k: &str| tree.get(k).and_then(Value::as_str);
        assert_eq!(
            text_of("ph"),
            Some(if row.ph == b'X' { "X" } else { "i" }),
            "{piece}"
        );
        assert_eq!(num("pid"), Some(1f64.to_bits()), "{piece}");
        assert_eq!(num("tid"), Some((row.tid as f64).to_bits()), "{piece}");
        assert_eq!(
            num("ts"),
            Some((row.ts_ns as f64 / 1e3).to_bits()),
            "{piece}"
        );
        if row.ph == b'X' {
            assert_eq!(num("dur"), Some(row.dur_us.to_bits()), "{piece}");
            assert_eq!(
                row.dur_us.to_bits(),
                (row.dur_ns as f64 / 1e3).to_bits(),
                "{piece}"
            );
        } else {
            assert_eq!(text_of("s"), Some("t"), "{piece}");
            assert_eq!((row.dur_ns, row.dur_us.to_bits()), (0, 0), "{piece}");
        }
        assert_eq!(
            (text_of("name"), text_of("cat")),
            (Some(row.name), Some(row.cat)),
            "{piece}"
        );
        if let Some(Value::Obj(args)) = tree.get("args") {
            // A repeated key keeps its last value, as in the tree.
            let read: BTreeMap<&str, Arg> = written_args(row).collect();
            assert_eq!(read.len(), args.len(), "{piece}");
            for (k, v) in &read {
                let got = match *v {
                    Arg::Num(n) => Value::Num(n as f64),
                    Arg::Bool(b) => Value::Bool(b),
                };
                assert_eq!(args.get(*k), Some(&got), "{piece}");
            }
        } else {
            assert!(
                tree.get("args").is_none() && written_args(row).next().is_none(),
                "{piece}"
            );
        }
    }

    /// A report of three PEs (tids 0, 7 and 2^53), each with every row.
    fn every_row_report() -> TraceReport {
        let events: Vec<Event> = every_row().into_iter().flat_map(|(evs, _)| evs).collect();
        let mut rep = one_pe(events);
        rep.pes[0].entries.push(EntrySummary {
            ctype: 3,
            name: "demo::Chare".into(),
            ..EntrySummary::default()
        });
        for pe in [7, 1 << 53] {
            let mut t = rep.pes[0].clone();
            t.perf.pe = pe;
            rep.pes.push(t);
        }
        rep
    }

    #[test]
    fn every_row_chrome_json_writes_reads_back_as_written() {
        let rep = every_row_report();
        let text = rep.chrome_json();
        let wants: Vec<Option<Want>> = every_row().into_iter().map(|(_, w)| w).collect();
        let starts = row_starts(&text);
        // Metadata first: one process row, then a name and a stats row a PE.
        let (meta, rows) = starts.split_at(1 + 2 * rep.pes.len());
        for &at in meta {
            assert_eq!(written_row(&text, at), None, "{}", &text[at..at + 40]);
        }
        assert_eq!(rows.len(), wants.len() * rep.pes.len());
        for (k, &at) in rows.iter().enumerate() {
            let tid = rep.pes[k / wants.len()].perf.pe as u64;
            let next = rows.get(k + 1).map_or(text.len() - 3, |&n| n - 2);
            match (&wants[k % wants.len()], written_row(&text, at)) {
                (Some((ph, name, cat, ts, dur, args)), Some((row, end))) => {
                    assert_eq!(end, next, "row {k} ends where the next begins");
                    assert_eq!(
                        (row.ph, row.tid, row.name, row.cat),
                        (*ph, tid, *name, *cat),
                        "row {k}"
                    );
                    assert_eq!(
                        (row.ts_ns, row.dur_ns),
                        (spelled_ns(*ts), spelled_ns(*dur)),
                        "row {k}"
                    );
                    assert_eq!(written_args(&row).collect::<Vec<_>>(), *args, "row {k}");
                    agrees_with_the_tree(&text, at, end, &row);
                }
                (None, None) => {}
                (want, got) => panic!("row {k}: want {want:?}, read {got:?}"),
            }
        }
        // Below the hand-over a time reads back exact, above it as the
        // float rounded it.
        use crate::text::FLOAT_FROM_NS as F;
        assert_eq!(spelled_ns(F - 1), F - 1);
        assert_eq!(spelled_ns(F), F);
        assert_ne!(spelled_ns(F + 1), F + 1);
    }

    #[test]
    fn written_row_refuses_every_other_spelling() {
        let good = r#"{"ph":"i","pid":1,"tid":3,"ts":1.500,"s":"t","name":"msg_send","cat":"msg","args":{"bytes":16,"remote":true}}"#;
        let (row, end) = written_row(good, 0).expect("a written row");
        assert_eq!((row.tid, row.ts_ns, end), (3, 1_500, good.len()));
        // Each one valid JSON that a `json::Reader` reads, or not JSON at all.
        for (from, to) in [
            ("{\"ph\"", "{ \"ph\""),
            ("\"ph\":\"i\"", "\"ph\":\"M\""),
            ("\"pid\":1", "\"pid\":2"),
            ("\"tid\":3", "\"tid\":03"),
            ("\"tid\":3", "\"tid\":-3"),
            ("\"tid\":3", "\"tid\":3.0"),
            ("\"tid\":3", "\"tid\":9007199254740993"),
            ("\"tid\":3", "\"tid\":"),
            ("1.500", "1.50"),
            ("1.500", "1.5000"),
            ("1.500", "1"),
            ("1.500", "1.5e0"),
            ("1.500", "01.500"),
            ("1.500", "9007199254740.993"),
            ("1.500", "18446744073709551.999"),
            ("\"s\":\"t\",", ""),
            ("msg_send", "msg\\u005fsend"),
            ("msg_send", "msg\tsend"),
            ("\"cat\":\"msg\"", "\"cat\":7"),
            ("16", "1.6"),
            ("16", "016"),
            ("16", "-16"),
            ("16", "\"16\""),
            ("16", "18446744073709551616"),
            ("16", "null"),
            ("true", "tru"),
            ("true", "True"),
            (",\"remote\":true", ",\"remote\":true,"),
            ("{\"bytes\":16,\"remote\":true}", "{}"),
            ("{\"bytes\":16,\"remote\":true}", "[16]"),
            ("true}}", "true}"),
            ("true}}", "true} }"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from}");
            assert_eq!(written_row(&bad, 0), None, "{bad}");
        }
        // Every cut of it.
        for cut in 0..good.len() {
            assert_eq!(written_row(&good[..cut], 0), None, "cut {cut}");
        }
        // A `ts` or `dur` past 2^53 ns, up to microseconds whose
        // nanoseconds overflow a `u64` only once the fraction is added.
        let span =
            r#"{"ph":"X","pid":1,"tid":3,"ts":1.500,"dur":2.250,"name":"idle","cat":"idle"}"#;
        assert!(written_row(span, 0).is_some());
        for time in ["1.500", "2.250"] {
            for big in [
                "9007199254740.993",
                "18446744073709551.615",
                "18446744073709551.616",
                "18446744073709551.999",
                "18446744073709551615.000",
            ] {
                let bad = span.replacen(time, big, 1);
                assert_eq!(written_row(&bad, 0), None, "{bad}");
            }
        }
        // The widest numbers it takes.
        let wide = good
            .replacen("\"tid\":3", "\"tid\":9007199254740992", 1)
            .replacen("1.500", "9007199254740.992", 1)
            .replacen("16", "18446744073709551615", 1);
        let (row, _) = written_row(&wide, 0).expect("numbers at their bounds");
        assert_eq!((row.tid, row.ts_ns), (1 << 53, 1 << 53));
        assert_eq!(
            written_args(&row).next(),
            Some(("bytes", Arg::Num(u64::MAX)))
        );
    }

    #[test]
    fn what_the_row_reader_accepts_json_parse_reads_the_same() {
        // Every substitution of a byte that means something to JSON, and
        // every deletion, at every position of every written row: if the
        // reader still takes the row, the tree must read the same values.
        const ALPHABET: &[u8] = b"\"\\,:{}[]0159.e-+ tfXiM\x01\n";
        let text = every_row_report().chrome_json();
        let (mut variants, mut taken) = (0, 0);
        for at in row_starts(&text) {
            let Some((_, end)) = written_row(&text, at) else {
                continue;
            };
            let row = &text[at..end];
            for k in 0..row.len() {
                let deleted = [&row[..k], &row[k + 1..]].concat();
                let substituted = ALPHABET
                    .iter()
                    .filter(|&&b| b != row.as_bytes()[k])
                    .map(|&b| format!("{}{}{}", &row[..k], char::from(b), &row[k + 1..]));
                for variant in std::iter::once(deleted).chain(substituted) {
                    variants += 1;
                    if let Some((read, end)) = written_row(&variant, 0) {
                        taken += 1;
                        agrees_with_the_tree(&variant, 0, end, &read);
                    }
                }
            }
        }
        // Some variants are still written rows (another digit, another name).
        assert!(taken > 0 && taken < variants / 4, "{taken} of {variants}");
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
        }
        let p = &rep.pes[0].perf;
        assert!((p.slab_hit_rate() - 0.9).abs() < 1e-9);
        let text = rep.summary();
        assert!(text.contains("slab%"));
        assert!(text.contains("inline"));
        assert!(text.contains("75"), "inline count appears in the row");
        // Untouched blocks report 0, not NaN.
        assert_eq!(PePerf::default().slab_hit_rate(), 0.0);
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
