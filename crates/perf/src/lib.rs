//! # charm-perf — post-mortem analyzer for charm-rs trace artifacts
//!
//! Projections ships with an analyzer GUI; this is the charm-rs text
//! equivalent. It ingests the three artifact kinds the runtime exports and
//! turns them into load-imbalance reports, hot-chare tables, and text
//! timelines:
//!
//! * **`charm-summary v1`** ([`parse_summary`]) — the bounded time-binned
//!   profile written by `TraceReport::write_summary_artifact` at
//!   `TraceLevel::Summary`. Per PE: wall/busy/idle/overhead totals plus one
//!   bin per wall-clock quantum. [`summary_report`] re-derives the per-PE
//!   totals from the bins and cross-checks them against the header (the
//!   runtime's `RunReport::pe_stats` values), then prints per-quantum
//!   max/avg utilization and the imbalance factor λ = max/avg.
//! * **`charm-telemetry v1`** ([`parse_telemetry`]) — the in-band metric
//!   frames reduced over the PE spanning tree at a quiescence cadence
//!   (`Runtime::telemetry`). [`telemetry_report`] prints the utilization
//!   time series, queue depths, p50/p99 execution and latency quantiles,
//!   and the top-K hot chares of the final frame.
//! * **Chrome trace JSON** ([`parse_chrome`]) — full event capture.
//!   [`chrome_report`] sums `"X"` span durations per track into busy/idle
//!   time, ranks entry methods by total duration, and surfaces the
//!   `charm_stats` health metadata (ring drops, encode-slab hit rate).
//!
//! The summary and telemetry artifacts are line-oriented plain text in and
//! out, so they survive copy-paste through job logs. All three parsers are
//! strict — a truncated or drifted artifact should fail loudly, not
//! silently produce a rosier report — and none sizes an allocation by a
//! number it read:
//!
//! * **every format**: a wrong or missing magic line, an unknown line head,
//!   a missing, misnamed or malformed field is an error naming the line (or
//!   byte);
//! * **summary**: `bin` lines are numbered in order, and a `pe` block must
//!   hold exactly the `bins=` its header declares when the next block or the
//!   end of the file arrives — a file cut at a line boundary inside a block
//!   is an error;
//! * **telemetry**: a frame must have had both its `hist` lines (each once)
//!   when the next frame or the end of the file arrives; the `util_*`
//!   moments must be finite; bucket counts saturate in [`Hist`] instead of
//!   overflowing;
//! * **Chrome**: the document must be RFC 8259 JSON nested no deeper than
//!   `json::MAX_DEPTH`, an array whose elements are all objects; `tid` and
//!   `dur` must be numbers and `ph`, `name`, `cat` strings where present
//!   (absent, they default to 0 and `""`); the `args` of a `charm_stats` row
//!   must be an object whose `events_dropped` / `slab_hit_rate` are numbers;
//!   other members are checked for syntax and skipped; a member repeated in
//!   one object keeps its last value, as in `json::parse`.
//!
//! Neither text format has a trailer, so a prefix that ends on a whole
//! block (or that only shortens the last number of a block's last line) is
//! an artifact in its own right; `tests/hostile.rs` pins exactly which cuts
//! pass.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::BTreeMap;

use charm_trace::counters::{field, num};
use charm_trace::json::{Reader, Token};
use charm_trace::{Hist, MetricFrame, SummaryBin, TopItem};

/// One PE's summary-mode profile (`pe` header + its `bin` lines).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SummaryPe {
    /// PE number.
    pub pe: usize,
    /// Wall time the PE observed (ns).
    pub wall_ns: u64,
    /// Quantum width (ns per bin before any pairwise merges).
    pub quantum_ns: u64,
    /// Pairwise bin merges performed to stay within the bin budget.
    pub merges: u64,
    /// Header busy total — equals the runtime's `PePerf::busy_ns`.
    pub busy_ns: u64,
    /// Header idle total — equals the runtime's `PePerf::idle_ns`.
    pub idle_ns: u64,
    /// Header overhead total — equals the runtime's `PePerf::overhead_ns`.
    pub overhead_ns: u64,
    /// The time bins, oldest first.
    pub bins: Vec<SummaryBin>,
}

impl SummaryPe {
    /// Re-derive the per-class totals by summing the bins.
    pub fn bin_totals(&self) -> (u64, u64, u64) {
        let mut t = SummaryBin::default();
        self.bins.iter().for_each(|b| t.merge(b));
        (t.busy_ns, t.idle_ns, t.overhead_ns)
    }

    /// Busy fraction of attributed time for bin `i`.
    pub fn bin_util(&self, i: usize) -> f64 {
        let b = &self.bins[i];
        let wall = b.busy_ns + b.idle_ns + b.overhead_ns;
        if wall == 0 {
            0.0
        } else {
            b.busy_ns as f64 / wall as f64
        }
    }
}

/// A `pe` block is complete when it holds as many `bin` lines as its
/// header declared; a file cut at a line boundary is not.
fn check_bins(p: &SummaryPe, declared: usize, no: usize) -> Result<(), String> {
    if p.bins.len() == declared {
        Ok(())
    } else {
        Err(format!(
            "line {no}: pe {} declares bins={declared} but {} bin lines precede this point",
            p.pe,
            p.bins.len()
        ))
    }
}

/// Parse a `charm-summary v1` artifact.
pub fn parse_summary(text: &str) -> Result<Vec<SummaryPe>, String> {
    let mut lines = text.lines();
    if lines.next() != Some("charm-summary v1") {
        return Err("not a charm-summary v1 artifact".into());
    }
    let mut pes: Vec<SummaryPe> = Vec::new();
    // `bins=` of the last header: checked against the lines that follow,
    // never used to size anything.
    let mut declared = 0usize;
    let mut no = 1;
    for line in lines {
        no += 1;
        let mut t = line.split_whitespace();
        match t.next() {
            Some("pe") => {
                if let Some(prev) = pes.last() {
                    check_bins(prev, declared, no)?;
                }
                let mut p = SummaryPe {
                    pe: t
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or(format!("line {no}: bad pe number"))?,
                    ..SummaryPe::default()
                };
                let err = |e| format!("line {no}: {e}");
                p.wall_ns = num(t.next().unwrap_or(""), "wall_ns").map_err(err)?;
                p.quantum_ns = num(t.next().unwrap_or(""), "quantum_ns").map_err(err)?;
                p.merges = num(t.next().unwrap_or(""), "merges").map_err(err)?;
                declared = num(t.next().unwrap_or(""), "bins").map_err(err)?;
                p.busy_ns = num(t.next().unwrap_or(""), "busy_ns").map_err(err)?;
                p.idle_ns = num(t.next().unwrap_or(""), "idle_ns").map_err(err)?;
                p.overhead_ns = num(t.next().unwrap_or(""), "overhead_ns").map_err(err)?;
                pes.push(p);
            }
            Some("bin") => {
                let p = pes
                    .last_mut()
                    .ok_or(format!("line {no}: bin before any pe header"))?;
                let idx: usize = t
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(format!("line {no}: bad bin index"))?;
                if idx != p.bins.len() || idx >= declared {
                    return Err(format!(
                        "line {no}: bin index {idx} out of order (expected {} of {declared})",
                        p.bins.len()
                    ));
                }
                let bin = SummaryBin::read_fields(&mut t).map_err(|e| format!("line {no}: {e}"))?;
                p.bins.push(bin);
            }
            None => continue,
            Some(head) => return Err(format!("line {no}: unknown line head `{head}`")),
        }
    }
    if let Some(last) = pes.last() {
        check_bins(last, declared, no + 1)?;
    }
    Ok(pes)
}

/// Which `hist` lines the frame being parsed has had.
#[derive(Default)]
struct HistsSeen {
    exec: bool,
    latency: bool,
}

impl HistsSeen {
    /// A frame is complete when both its histograms have been read; one
    /// that ends (next `frame` line or end of file) without them was cut.
    fn check(&self, frames: &[MetricFrame], no: usize) -> Result<(), String> {
        match frames.last() {
            Some(f) if !(self.exec && self.latency) => Err(format!(
                "line {no}: frame seq={} ends without both its hist lines",
                f.seq
            )),
            _ => Ok(()),
        }
    }
}

/// Parse a `charm-telemetry v1` artifact.
pub fn parse_telemetry(text: &str) -> Result<Vec<MetricFrame>, String> {
    let mut lines = text.lines();
    if lines.next() != Some("charm-telemetry v1") {
        return Err("not a charm-telemetry v1 artifact".into());
    }
    let mut frames: Vec<MetricFrame> = Vec::new();
    let mut seen = HistsSeen::default();
    let mut no = 1;
    for line in lines {
        no += 1;
        let mut t = line.split_whitespace();
        let err = |e| format!("line {no}: {e}");
        match t.next() {
            Some("frame") => {
                seen.check(&frames, no)?;
                seen = HistsSeen::default();
                frames.push(MetricFrame::read_fields(&mut t).map_err(err)?);
            }
            Some("hist") => {
                let f = frames
                    .last_mut()
                    .ok_or(format!("line {no}: hist before any frame"))?;
                let (slot, seen) = match t.next() {
                    Some("exec") => (&mut f.exec, &mut seen.exec),
                    Some("latency") => (&mut f.latency, &mut seen.latency),
                    Some(other) => return Err(format!("line {no}: unknown hist `{other}`")),
                    None => return Err(format!("line {no}: hist missing name")),
                };
                if std::mem::replace(seen, true) {
                    return Err(format!(
                        "line {no}: second hist line of its kind in one frame"
                    ));
                }
                let sub_bits: u32 = num(t.next().unwrap_or(""), "sub_bits").map_err(err)?;
                let mut h = Hist::new(sub_bits);
                for bucket in t {
                    let bad = || format!("line {no}: bad bucket `{bucket}`");
                    let (lo, n) = bucket.split_once(':').ok_or_else(bad)?;
                    let lo: u64 = lo.parse().map_err(|_| bad())?;
                    let n: u64 = n.parse().map_err(|_| bad())?;
                    // A bucket's lower bound re-buckets to itself, so the
                    // rebuilt histogram sits on the original grid. Counts
                    // saturate in `Hist`, whatever the file claims.
                    h.record_n(lo, n);
                }
                *slot = h;
            }
            Some("top") => {
                let f = frames
                    .last_mut()
                    .ok_or(format!("line {no}: top before any frame"))?;
                let label = field(t.next().unwrap_or(""), "label")
                    .map_err(err)?
                    .to_string();
                let weight = num(t.next().unwrap_or(""), "weight").map_err(err)?;
                let e = num(t.next().unwrap_or(""), "err").map_err(err)?;
                f.top.push(TopItem {
                    label,
                    weight,
                    err: e,
                });
            }
            None => continue,
            Some(head) => return Err(format!("line {no}: unknown line head `{head}`")),
        }
    }
    seen.check(&frames, no + 1)?;
    Ok(frames)
}

/// One track's span totals from a Chrome trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrack {
    /// Track id (`tid` — the PE number).
    pub tid: u64,
    /// Total `"X"` span time with category `entry` (µs).
    pub entry_us: f64,
    /// Total `"X"` span time with category `idle` (µs).
    pub idle_us: f64,
    /// `charm_stats` metadata: event-ring drops on this PE.
    pub events_dropped: u64,
    /// `charm_stats` metadata: encode-slab hit rate on this PE.
    pub slab_hit_rate: f64,
}

/// A Chrome trace reduced to per-track totals plus a per-entry-name
/// duration ranking (name, total µs, span count), heaviest first.
#[derive(Debug, Clone, Default)]
pub struct ChromeProfile {
    /// Per-PE tracks in tid order.
    pub tracks: Vec<ChromeTrack>,
    /// Entry spans ranked by total duration.
    pub entries: Vec<(String, f64, u64)>,
}

/// The number at the reader's position; `what` names the field in the
/// error.
fn json_num(r: &mut Reader<'_>, what: &str) -> Result<f64, String> {
    let at = r.offset();
    match r.value()? {
        Token::Num(n) => Ok(n),
        _ => Err(format!("`{what}` at byte {at} is not a number")),
    }
}

/// The string at the reader's position.
fn json_str<'a>(r: &mut Reader<'a>, what: &str) -> Result<Cow<'a, str>, String> {
    let at = r.offset();
    match r.value()? {
        Token::Str(s) => Ok(s),
        _ => Err(format!("`{what}` at byte {at} is not a string")),
    }
}

/// `(events_dropped, slab_hit_rate)` from the `args` of a `charm_stats`
/// row, 0 for a member that is absent.
fn charm_stats(mut args: Reader<'_>) -> Result<(u64, f64), String> {
    let at = args.offset();
    if args.value()? != Token::ObjBegin {
        return Err(format!(
            "`args` of charm_stats at byte {at} is not an object"
        ));
    }
    let (mut dropped, mut rate) = (0.0, 0.0);
    while let Some(key) = args.key()? {
        match &*key {
            "events_dropped" => dropped = json_num(&mut args, &key)?,
            "slab_hit_rate" => rate = json_num(&mut args, &key)?,
            _ => args.skip()?,
        }
    }
    Ok((dropped as u64, rate))
}

/// Parse Chrome trace-event JSON (array form, as written by
/// `TraceReport::write_chrome`) into per-track totals.
///
/// Events are read straight off a [`Reader`] with no tree and one
/// allocation per distinct entry name; durations are summed in document
/// order, so the floating-point totals are those of a front-to-back walk.
/// A member repeated inside one event keeps its last value, as in
/// `json::parse`.
pub fn parse_chrome(text: &str) -> Result<ChromeProfile, String> {
    let mut r = Reader::new(text);
    if r.value()? != Token::ArrBegin {
        return Err("chrome trace is not a JSON array".into());
    }
    let mut tracks: BTreeMap<u64, ChromeTrack> = BTreeMap::new();
    let mut entries: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    while r.elem()? {
        let at = r.offset();
        if r.value()? != Token::ObjBegin {
            return Err(format!("event at byte {at} is not an object"));
        }
        let (mut tid, mut dur) = (0.0, 0.0);
        let (mut ph, mut name, mut cat) = (Cow::from(""), Cow::from(""), Cow::from(""));
        // Where the last `args` value starts. What it must hold depends on
        // `ph` and `name`, which may follow it: checked for syntax now,
        // read once the event is complete.
        let mut args: Option<Reader<'_>> = None;
        while let Some(key) = r.key()? {
            match &*key {
                "tid" => tid = json_num(&mut r, &key)?,
                "dur" => dur = json_num(&mut r, &key)?,
                "ph" => ph = json_str(&mut r, &key)?,
                "name" => name = json_str(&mut r, &key)?,
                "cat" => cat = json_str(&mut r, &key)?,
                "args" => {
                    args = Some(r.clone());
                    r.skip()?;
                }
                _ => r.skip()?,
            }
        }
        let tid = tid as u64;
        let track = tracks.entry(tid).or_insert_with(|| ChromeTrack {
            tid,
            ..ChromeTrack::default()
        });
        match &*ph {
            "M" if name == "charm_stats" => {
                if let Some(args) = args {
                    (track.events_dropped, track.slab_hit_rate) = charm_stats(args)?;
                }
            }
            "X" => match &*cat {
                "entry" => {
                    track.entry_us += dur;
                    let e = match entries.get_mut(&*name) {
                        Some(e) => e,
                        None => entries.entry(name.into_owned()).or_insert((0.0, 0)),
                    };
                    e.0 += dur;
                    e.1 += 1;
                }
                "idle" => track.idle_us += dur,
                _ => {}
            },
            _ => {}
        }
    }
    r.finish()?;
    let mut ranked: Vec<(String, f64, u64)> =
        entries.into_iter().map(|(n, (d, c))| (n, d, c)).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(ChromeProfile {
        tracks: tracks.into_values().collect(),
        entries: ranked,
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Utilization ramp for the text timeline: ten steps from blank to full.
fn util_glyph(u: f64) -> char {
    const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    RAMP[((u * 10.0) as usize).min(9)]
}

/// Load-imbalance report over a summary-mode profile: cross-checks each
/// PE's bin totals against its header, then prints per-quantum max/avg
/// utilization, σ, and the imbalance factor λ = max/avg (the Projections
/// measure of how much a perfect balancer could save).
pub fn summary_report(pes: &[SummaryPe]) -> String {
    let mut out = String::new();
    if pes.is_empty() {
        out.push_str("summary: no PEs at summary level\n");
        return out;
    }
    out.push_str("PE  wall_ms  busy_ms  idle_ms  ovhd_ms  util   bins merges totals\n");
    for p in pes {
        let (b, i, o) = p.bin_totals();
        let ok = b == p.busy_ns && i == p.idle_ns && o == p.overhead_ns;
        let wall = p.busy_ns + p.idle_ns + p.overhead_ns;
        let util = if wall == 0 {
            0.0
        } else {
            p.busy_ns as f64 / wall as f64
        };
        out.push_str(&format!(
            "{:<3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>5.1}% {:>5} {:>6} {}\n",
            p.pe,
            ms(p.wall_ns),
            ms(p.busy_ns),
            ms(p.idle_ns),
            ms(p.overhead_ns),
            100.0 * util,
            p.bins.len(),
            p.merges,
            if ok { "exact" } else { "MISMATCH" },
        ));
    }
    let quanta = pes.iter().map(|p| p.bins.len()).max().unwrap_or(0);
    if quanta > 0 {
        out.push_str("\nquantum  util_max  util_avg  sigma   lambda\n");
        for q in 0..quanta {
            let utils: Vec<f64> = pes
                .iter()
                .filter(|p| q < p.bins.len())
                .map(|p| p.bin_util(q))
                .collect();
            let n = utils.len() as f64;
            let max = utils.iter().cloned().fold(0.0, f64::max);
            let avg = utils.iter().sum::<f64>() / n;
            let sigma = (utils.iter().map(|u| (u - avg) * (u - avg)).sum::<f64>() / n).sqrt();
            let lambda = if avg > 0.0 { max / avg } else { 0.0 };
            out.push_str(&format!(
                "{:<8} {:>7.1}% {:>8.1}% {:>6.3} {:>7.3}\n",
                q,
                100.0 * max,
                100.0 * avg,
                sigma,
                lambda,
            ));
        }
        out.push('\n');
        out.push_str(&timeline(pes));
    }
    out
}

/// Text timeline: one row per PE, one utilization glyph per quantum.
pub fn timeline(pes: &[SummaryPe]) -> String {
    let mut out = String::from("timeline (utilization per quantum; ' '=0% .. '@'=100%)\n");
    for p in pes {
        out.push_str(&format!("PE {:<3} |", p.pe));
        for q in 0..p.bins.len() {
            out.push(util_glyph(p.bin_util(q)));
        }
        out.push_str("|\n");
    }
    out
}

/// Telemetry time-series report: per-frame utilization spread, queue
/// depths, exec/latency quantiles, then the final frame's hot chares.
pub fn telemetry_report(frames: &[MetricFrame], top_n: usize) -> String {
    let mut out = String::new();
    if frames.is_empty() {
        out.push_str("telemetry: no frames\n");
        return out;
    }
    out.push_str(
        "seq  at_ms      util_avg util_min util_max sigma  queue qmax  exec_p50 exec_p99 lat_p50 lat_p99\n",
    );
    for f in frames {
        let q = |h: &Hist, q: f64| h.quantile(q).unwrap_or(0);
        out.push_str(&format!(
            "{:<4} {:>10.3} {:>7.1}% {:>7.1}% {:>7.1}% {:>6.3} {:>5} {:>4} {:>8} {:>8} {:>7} {:>7}\n",
            f.seq,
            ms(f.sampled_at_ns),
            100.0 * f.util_avg(),
            100.0 * f.util_min,
            100.0 * f.util_max,
            f.util_sigma(),
            f.queue_depth,
            f.queue_depth_max,
            q(&f.exec, 0.5),
            q(&f.exec, 0.99),
            q(&f.latency, 0.5),
            q(&f.latency, 0.99),
        ));
    }
    let last = frames.last().expect("non-empty");
    if !last.top.is_empty() {
        out.push_str(&format!("\nhot chares (final frame, top {top_n}):\n"));
        for t in last.top.iter().take(top_n) {
            out.push_str(&format!(
                "  {:<24} {:>10.3} ms (+/- {:.3})\n",
                t.label,
                ms(t.weight),
                ms(t.err),
            ));
        }
    }
    out
}

/// Chrome-trace report: per-track span totals plus the entry ranking and
/// capture-health metadata.
pub fn chrome_report(profile: &ChromeProfile, top_n: usize) -> String {
    let mut out = String::from("PE  entry_ms  idle_ms  dropped slab_hit\n");
    for t in &profile.tracks {
        out.push_str(&format!(
            "{:<3} {:>8.3} {:>8.3} {:>8} {:>7.1}%\n",
            t.tid,
            t.entry_us / 1e3,
            t.idle_us / 1e3,
            t.events_dropped,
            100.0 * t.slab_hit_rate,
        ));
    }
    if !profile.entries.is_empty() {
        out.push_str(&format!("\nentries by total time (top {top_n}):\n"));
        for (name, dur, count) in profile.entries.iter().take(top_n) {
            out.push_str(&format!("  {name:<32} {:>10.3} ms  x{count}\n", dur / 1e3));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> String {
        concat!(
            "charm-summary v1\n",
            "pe 0 wall_ns=3000 quantum_ns=1000 merges=0 bins=3 busy_ns=1500 idle_ns=900 overhead_ns=600\n",
            "bin 0 busy_ns=1000 idle_ns=0 overhead_ns=0 entries=2 msgs=2 bytes=64\n",
            "bin 1 busy_ns=500 idle_ns=400 overhead_ns=100 entries=1 msgs=1 bytes=32\n",
            "bin 2 busy_ns=0 idle_ns=500 overhead_ns=500 entries=0 msgs=0 bytes=0\n",
            "pe 1 wall_ns=3000 quantum_ns=1000 merges=1 bins=1 busy_ns=3000 idle_ns=0 overhead_ns=0\n",
            "bin 0 busy_ns=3000 idle_ns=0 overhead_ns=0 entries=4 msgs=4 bytes=128\n",
        )
        .to_string()
    }

    #[test]
    fn summary_round_trip_and_totals() {
        let pes = parse_summary(&sample_summary()).expect("parses");
        assert_eq!(pes.len(), 2);
        assert_eq!(pes[0].bins.len(), 3);
        assert_eq!(pes[0].bin_totals(), (1500, 900, 600));
        assert_eq!(pes[1].merges, 1);
        let report = summary_report(&pes);
        assert!(report.contains("exact"), "totals cross-check: {report}");
        assert!(!report.contains("MISMATCH"));
        assert!(report.contains("lambda"));
        assert!(report.contains("timeline"));
    }

    #[test]
    fn summary_rejects_corruption() {
        assert!(parse_summary("nope\n").is_err());
        let mut bad = sample_summary();
        bad.push_str("mystery 1 2 3\n");
        assert!(parse_summary(&bad)
            .unwrap_err()
            .contains("unknown line head"));
        let gap =
            "charm-summary v1\nbin 0 busy_ns=1 idle_ns=0 overhead_ns=0 entries=0 msgs=0 bytes=0\n";
        assert!(parse_summary(gap).unwrap_err().contains("before any pe"));
    }

    #[test]
    fn summary_report_flags_total_mismatch() {
        let mut pes = parse_summary(&sample_summary()).expect("parses");
        pes[0].busy_ns += 1;
        assert!(summary_report(&pes).contains("MISMATCH"));
    }

    #[test]
    fn telemetry_round_trip_via_trace_writer() {
        use charm_trace::MetricFrame;
        let mut f = MetricFrame {
            seq: 3,
            pes: 4,
            busy_ns: 1000,
            util_min: 0.25,
            util_max: 0.75,
            util_sum: 2.0,
            util_sumsq: 1.125,
            queue_depth: 7,
            ..MetricFrame::default()
        };
        for v in [10, 100, 1000, 10_000] {
            f.exec.record(v);
        }
        f.top.push(charm_trace::TopItem {
            label: "Worker[3]".into(),
            weight: 900,
            err: 0,
        });
        let text = charm_trace::frames_artifact(&[f.clone()]);
        let frames = parse_telemetry(&text).expect("parses");
        assert_eq!(frames.len(), 1);
        let r = &frames[0];
        assert_eq!((r.seq, r.pes, r.busy_ns, r.queue_depth), (3, 4, 1000, 7));
        assert!((r.util_avg() - 0.5).abs() < 1e-9);
        assert_eq!(r.exec.count(), 4);
        // Replayed bucket lows stay within the recorded relative error.
        let p50 = r.exec.quantile(0.5).expect("quantile") as f64;
        let orig = f.exec.quantile(0.5).expect("quantile") as f64;
        let tol = f.exec.max_rel_error() * 2.0;
        assert!((p50 - orig).abs() <= orig * tol + 1.0, "{p50} vs {orig}");
        assert_eq!(r.top, f.top);
        let report = telemetry_report(&frames, 5);
        assert!(report.contains("Worker[3]"));
        assert!(report.contains("exec_p50"));
    }

    #[test]
    fn telemetry_rejects_corruption() {
        assert!(parse_telemetry("charm-summary v1\n").is_err());
        let orphan = "charm-telemetry v1\nhist exec sub_bits=5 0:1\n";
        assert!(parse_telemetry(orphan)
            .unwrap_err()
            .contains("before any frame"));
        let text = charm_trace::frames_artifact(&[charm_trace::MetricFrame::default()]);
        let broken = text.replace("busy_ns=", "busy_ns=x");
        assert!(parse_telemetry(&broken).is_err());
    }

    #[test]
    fn chrome_profile_sums_spans_and_reads_stats() {
        let trace = r#"[
            {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"PE 0"}},
            {"ph":"M","pid":1,"tid":0,"name":"charm_stats","args":{"events_dropped":5,"slab_hit_rate":0.8}},
            {"ph":"X","pid":1,"tid":0,"ts":0.0,"dur":10.5,"name":"Worker::receive","cat":"entry"},
            {"ph":"X","pid":1,"tid":0,"ts":20.0,"dur":4.5,"name":"Worker::receive","cat":"entry"},
            {"ph":"X","pid":1,"tid":0,"ts":30.0,"dur":7.0,"name":"idle","cat":"idle"},
            {"ph":"i","pid":1,"tid":0,"ts":40.0,"s":"t","name":"mark","cat":"mark"}
        ]"#;
        let p = parse_chrome(trace).expect("parses");
        assert_eq!(p.tracks.len(), 1);
        let t = &p.tracks[0];
        assert!((t.entry_us - 15.0).abs() < 1e-9);
        assert!((t.idle_us - 7.0).abs() < 1e-9);
        assert_eq!(t.events_dropped, 5);
        assert_eq!(p.entries, vec![("Worker::receive".to_string(), 15.0, 2)]);
        let report = chrome_report(&p, 3);
        assert!(report.contains("Worker::receive"));
        assert!(report.contains("80.0%"));
        assert!(parse_chrome("{}").is_err());
    }

    #[test]
    fn timeline_glyphs_cover_the_ramp() {
        assert_eq!(util_glyph(0.0), ' ');
        assert_eq!(util_glyph(0.55), '+');
        assert_eq!(util_glyph(1.0), '@');
    }

    #[test]
    fn chrome_is_strict_about_the_fields_it_reads() {
        // Each is well-formed JSON that the tree-walking parser took (with
        // a phantom PE 0 track for the first three).
        for (bad, names) in [
            ("[1,2,3]", "not an object"),
            ("[[]]", "not an object"),
            ("[null]", "not an object"),
            (r#"[{"tid":"0"}]"#, "`tid`"),
            (r#"[{"ph":"X","dur":"1.5"}]"#, "`dur`"),
            (r#"[{"ph":"X","dur":null}]"#, "`dur`"),
            (r#"[{"ph":1}]"#, "`ph`"),
            (r#"[{"name":["a"]}]"#, "`name`"),
            (r#"[{"ph":"X","cat":true}]"#, "`cat`"),
            (r#"[{"ph":"M","name":"charm_stats","args":7}]"#, "`args`"),
            (r#"[{"args":[1],"name":"charm_stats","ph":"M"}]"#, "`args`"),
            (
                r#"[{"ph":"M","name":"charm_stats","args":{"events_dropped":"3"}}]"#,
                "`events_dropped`",
            ),
        ] {
            let err = parse_chrome(bad).expect_err(bad);
            assert!(err.contains(names) && err.contains("byte"), "{bad}: {err}");
        }
        // Absent optional fields keep their defaults; unknown members and
        // the `args` of other events may hold anything well-formed.
        let p = parse_chrome(
            r#"[{}, {"ph":"X","cat":"entry"}, {"ph":"i","args":7,"extra":[{"deep":[1,2]}]},
                {"ph":"M","name":"charm_stats","tid":2},
                {"ph":"M","name":"charm_stats","tid":3,"args":{}}]"#,
        )
        .expect("parses");
        assert_eq!(p.tracks.len(), 3);
        assert_eq!(p.entries, vec![(String::new(), 0.0, 1)]);
        assert!(p.tracks.iter().all(|t| t.events_dropped == 0));
        // ... but must be well-formed.
        assert!(parse_chrome(r#"[{"ph":"i","extra":[1,]}]"#).is_err());
        assert!(parse_chrome(r#"[{"ph":"i","args":{"a":01}}]"#).is_err());
        assert!(parse_chrome("[{}] x").is_err());
        assert!(parse_chrome("[{}").is_err());
    }

    #[test]
    fn chrome_duplicate_keys_resolve_as_in_the_tree() {
        use charm_trace::json::{self, Value};
        let doc = r#"[
            {"ph":"i","ph":"X","cat":"idle","cat":"entry","name":"a","name":"b",
             "dur":1.0,"dur":2.5,"tid":9,"tid":1},
            {"ph":"M","name":"charm_stats","tid":1,
             "args":{"events_dropped":1},
             "args":{"events_dropped":4,"events_dropped":6,"slab_hit_rate":0.5}}
        ]"#;
        let p = parse_chrome(doc).expect("parses");
        assert_eq!(p.entries, vec![("b".to_string(), 2.5, 1)]);
        assert_eq!(p.tracks.len(), 1);
        let t = &p.tracks[0];
        assert_eq!((t.tid, t.entry_us, t.idle_us), (1, 2.5, 0.0));
        assert_eq!((t.events_dropped, t.slab_hit_rate), (6, 0.5));
        // The tree says the same of the same text.
        let tree = json::parse(doc).expect("parses");
        let evs = tree.as_arr().expect("array");
        let f = |ev: &Value, k: &str| ev.get(k).and_then(Value::as_f64);
        assert_eq!(evs[0].get("name").and_then(Value::as_str), Some("b"));
        assert_eq!(evs[0].get("cat").and_then(Value::as_str), Some("entry"));
        assert_eq!(evs[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            (f(&evs[0], "dur"), f(&evs[0], "tid")),
            (Some(2.5), Some(1.0))
        );
        let args = evs[1].get("args").expect("args");
        assert_eq!(f(args, "events_dropped"), Some(6.0));
        assert_eq!(f(args, "slab_hit_rate"), Some(0.5));
    }

    #[test]
    fn summary_counts_bins_against_the_header() {
        let good = sample_summary();
        // Cut at a line boundary inside a block, and at its end.
        let lines: Vec<&str> = good.lines().collect();
        let upto = |n: usize| lines[..n].join("\n") + "\n";
        assert!(parse_summary(&upto(3)).unwrap_err().contains("bins=3"));
        assert!(parse_summary(&upto(5)).is_ok(), "a whole block");
        assert!(parse_summary(&upto(6)).unwrap_err().contains("bins=1"));
        // One bin more than declared.
        let extra =
            good.clone() + "bin 1 busy_ns=0 idle_ns=0 overhead_ns=0 entries=0 msgs=0 bytes=0\n";
        assert!(parse_summary(&extra).is_err());
        // A lying header sizes nothing.
        let lying = good.replace("bins=3", "bins=18446744073709551615");
        assert!(parse_summary(&lying).unwrap_err().contains("declares"));
    }

    #[test]
    fn telemetry_frames_need_both_hists_and_finite_moments() {
        let text = charm_trace::frames_artifact(&vec![charm_trace::MetricFrame::default(); 2]);
        assert_eq!(parse_telemetry(&text).expect("parses").len(), 2);
        let lines: Vec<&str> = text.lines().collect();
        for keep in [2, 3, 5, 6] {
            let cut = lines[..keep].join("\n") + "\n";
            let err = parse_telemetry(&cut).expect_err("a frame without both hists");
            assert!(err.contains("without both"), "{keep}: {err}");
        }
        let twice = text.replacen("hist latency", "hist exec", 1);
        assert!(parse_telemetry(&twice).unwrap_err().contains("second hist"));
        for lie in ["NaN", "inf", "-inf", "1e999"] {
            let bad = text.replacen("util_sum=0.000000", &format!("util_sum={lie}"), 1);
            assert!(
                parse_telemetry(&bad).unwrap_err().contains("non-finite"),
                "{lie}"
            );
        }
        // Counts from a file saturate instead of overflowing.
        let big = text.replacen(
            "hist exec sub_bits=5",
            "hist exec sub_bits=5 64:18446744073709551615 64:1 65:7",
            1,
        );
        let frames = parse_telemetry(&big).expect("parses");
        assert_eq!(frames[0].exec.count(), u64::MAX);
    }
}
