//! The `trace_pipeline` workload: no sockets. A seeded synthetic run is
//! recorded into `PeTracer`s the way a PE scheduler drives them (hot path,
//! per message), then taken through every exporter and back through every
//! `charm-perf` parser and report (cold path, per run).

use std::time::Instant;

use charm_trace::{
    frames_artifact, EntryKind, EventKind, Hist, MetricFrame, PeTracer, SpaceSaving, TopItem,
    TraceConfig, TraceLevel, TraceReport, WorkClass, DEFAULT_TOP_K,
};

use crate::checks::Checks;
use crate::spans::SpanLog;
use crate::stats::Rng;

/// PEs in the synthetic run.
pub const PES: usize = 4;
/// Telemetry sweeps; each merges one leaf frame per PE pairwise.
pub const SWEEPS: usize = 64;
/// Chare types the synthetic entries are spread over.
const CTYPES: u32 = 6;

/// What the scheduler would tell the tracer about one delivered message.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Idle wait before the message arrived (0 for most).
    idle_ns: u32,
    recv_bytes: u32,
    latency_ns: u32,
    /// Decode/dispatch overhead charged before the entry runs.
    overhead_ns: u32,
    entry_ns: u32,
    ctype: u32,
    send_bytes: u32,
    remote: bool,
}

/// The seeded input: per-PE op streams and the telemetry leaf frames a
/// runtime sampling those PEs would have reduced.
pub struct Input {
    pub ops: Vec<Vec<Op>>,
    /// `leaves[sweep][pe]`.
    leaves: Vec<Vec<MetricFrame>>,
}

impl Input {
    pub fn msgs(&self) -> u64 {
        self.ops.iter().map(|o| o.len() as u64).sum()
    }
}

pub fn generate(seed: u64, msgs_per_pe: usize) -> Input {
    let mut rng = Rng::new(seed);
    let ops: Vec<Vec<Op>> = (0..PES)
        .map(|_| {
            (0..msgs_per_pe)
                .map(|_| Op {
                    idle_ns: if rng.next().is_multiple_of(16) {
                        rng.range(1_000, 200_000) as u32
                    } else {
                        0
                    },
                    recv_bytes: rng.range(16, 4_096) as u32,
                    latency_ns: rng.range(2_000, 400_000) as u32,
                    overhead_ns: rng.range(100, 2_000) as u32,
                    entry_ns: rng.range(500, 60_000) as u32,
                    ctype: (rng.next() % u64::from(CTYPES)) as u32,
                    send_bytes: rng.range(16, 4_096) as u32,
                    remote: !rng.next().is_multiple_of(4),
                })
                .collect()
        })
        .collect();
    let per_sweep = msgs_per_pe.div_ceil(SWEEPS).max(1);
    let leaves = (0..SWEEPS)
        .map(|sweep| {
            ops.iter()
                .enumerate()
                .map(|(pe, ops)| leaf_frame(sweep, pe, ops, per_sweep))
                .collect()
        })
        .collect();
    Input { ops, leaves }
}

/// One PE's metric frame for one sweep, over its slice of the op stream.
fn leaf_frame(sweep: usize, pe: usize, ops: &[Op], per_sweep: usize) -> MetricFrame {
    let lo = (sweep * per_sweep).min(ops.len());
    let hi = ((sweep + 1) * per_sweep).min(ops.len());
    let mut f = MetricFrame {
        seq: sweep as u64,
        pes: 1,
        top_cap: DEFAULT_TOP_K,
        ..MetricFrame::default()
    };
    let mut hot: SpaceSaving<u32> = SpaceSaving::new(DEFAULT_TOP_K);
    for (i, op) in ops[lo..hi].iter().enumerate() {
        f.busy_ns += u64::from(op.entry_ns);
        f.idle_ns += u64::from(op.idle_ns);
        f.overhead_ns += u64::from(op.overhead_ns);
        f.msgs_sent += 1;
        f.msgs_processed += 1;
        f.entries += 1;
        if op.remote {
            f.bytes_remote += u64::from(op.send_bytes);
        }
        f.exec.record(u64::from(op.entry_ns));
        f.latency.record(u64::from(op.latency_ns));
        hot.observe(&(op.ctype * 16 + (i % 16) as u32), u64::from(op.entry_ns));
    }
    let clock = f.busy_ns + f.idle_ns + f.overhead_ns;
    f.sampled_at_ns = clock * (sweep as u64 + 1);
    let util = if clock == 0 {
        0.0
    } else {
        f.busy_ns as f64 / clock as f64
    };
    (f.util_min, f.util_max, f.util_sum, f.util_sumsq) = (util, util, util, util * util);
    f.queue_depth = (hi - lo) as u64 % 7;
    f.queue_depth_max = f.queue_depth;
    f.top = hot
        .items()
        .into_iter()
        .map(|(id, weight, err)| TopItem {
            label: format!("Chare{}[{}]@{pe}", id / 16, id % 16),
            weight,
            err,
        })
        .collect();
    f
}

/// Drive one tracer through one PE's op stream exactly as the scheduler's
/// hooks do (`core/src/pe.rs`: emit, charge_work, handle); returns the
/// PE's final clock.
pub fn record(t: &mut PeTracer, ops: &[Op]) -> u64 {
    let mut clock = 0u64;
    for op in ops {
        if op.idle_ns > 0 {
            t.idle(clock, clock + u64::from(op.idle_ns));
            clock += u64::from(op.idle_ns);
        }
        t.counters.processed += 1;
        if t.enabled() {
            t.msg_recv(u64::from(op.recv_bytes));
            t.latency(u64::from(op.latency_ns));
            if t.full() {
                t.push(
                    clock,
                    EventKind::MsgRecv {
                        bytes: op.recv_bytes,
                    },
                );
            }
        }
        clock += u64::from(op.overhead_ns);
        if t.summary_on() {
            t.work_at(WorkClass::Overhead, u64::from(op.overhead_ns), clock);
        } else {
            t.work(WorkClass::Overhead, u64::from(op.overhead_ns));
        }
        let begin = clock;
        clock += u64::from(op.entry_ns);
        if t.summary_on() {
            t.work_at(WorkClass::Entry, u64::from(op.entry_ns), clock);
        } else {
            t.work(WorkClass::Entry, u64::from(op.entry_ns));
        }
        t.counters.entries += 1;
        if t.enabled() {
            t.entry(
                begin,
                clock,
                u64::from(op.entry_ns),
                op.ctype,
                EntryKind::Receive,
            );
        }
        t.counters.sent += 1;
        if op.remote {
            t.counters.bytes += u64::from(op.send_bytes);
        }
        if op.remote || t.enabled() {
            t.msg_send(u64::from(op.send_bytes), op.remote);
            t.summary_msg(clock, 1, u64::from(op.send_bytes));
            if t.full() {
                t.push(
                    clock,
                    EventKind::MsgSend {
                        bytes: op.send_bytes,
                        remote: op.remote,
                    },
                );
            }
        }
    }
    clock
}

/// Tracer configuration for `level`, the ring sized so nothing drops (at
/// most six events per message).
pub fn config(level: TraceLevel, msgs_per_pe: usize) -> TraceConfig {
    match level {
        TraceLevel::Off => TraceConfig::off(),
        TraceLevel::Counters => TraceConfig::counters(),
        TraceLevel::Summary => TraceConfig::summary(),
        TraceLevel::Full => TraceConfig::full().ring_capacity(msgs_per_pe * 6),
    }
}

/// Record every PE at `level` and finish into a report.
fn capture(input: &Input, level: TraceLevel, log: &mut SpanLog, rep: u64) -> TraceReport {
    let (rec_name, fin_name) = match level {
        TraceLevel::Full => ("tracer.record_full", "tracer.finish_full"),
        _ => ("tracer.record_summary", "tracer.finish_summary"),
    };
    let pes = input
        .ops
        .iter()
        .enumerate()
        .map(|(pe, ops)| {
            let mut t = PeTracer::new(&config(level, ops.len()));
            let s = log.begin(rec_name, rep);
            let wall = record(&mut t, ops);
            log.end(s);
            let s = log.begin(fin_name, rep);
            let trace = t.finish(pe, wall, 0, |ct| format!("Chare{ct}"));
            log.end(s);
            trace
        })
        .collect();
    TraceReport { pes }
}

/// Identity of one rep's outputs; equal across reps of one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    latency: u64,
    telemetry: u64,
    chrome_bytes: usize,
}

/// What one record-to-report chain produced.
pub struct RepOut {
    pub wall_ns: u64,
    /// Artifact text exported and parsed back (Chrome + summary +
    /// telemetry).
    pub artifact_bytes: usize,
    pub chrome: String,
    pub ring_dropped: u64,
    pub digest: Digest,
    /// The chain itself plus its output checks.
    pub checks: Checks,
}

/// One whole chain. Each call into a layer sits in its own span.
pub fn run_once(input: &Input, log: &mut SpanLog, rep: u64) -> RepOut {
    let mut checks = Checks {
        attempted: 1,
        ..Checks::default()
    };
    let mut check = |ok: bool, what: &str| checks.check(ok, || what.to_string());
    let start = Instant::now();
    let s_rep = log.begin("pipeline.rep", rep);

    // Hot path at both capture levels.
    let full = capture(input, TraceLevel::Full, log, rep);
    let summ = capture(input, TraceLevel::Summary, log, rep);

    // Export.
    let s = log.begin("report.validate", rep);
    let valid = full.validate();
    log.end(s);
    check(valid.is_ok(), "TraceReport::validate");
    let s = log.begin("report.chrome_json", rep);
    let chrome = full.chrome_json();
    log.end(s);
    let s = log.begin("report.summary_text", rep);
    let text = full.summary();
    log.end(s);
    check(text.lines().count() > PES, "summary table has a row per PE");
    let s = log.begin("report.summary_artifact", rep);
    let artifact = summ.summary_artifact();
    log.end(s);

    // Parse back and report.
    let s = log.begin("perf.parse_chrome", rep);
    let profile = charm_perf::parse_chrome(&chrome);
    log.end(s);
    match &profile {
        Ok(p) => {
            let spans: u64 = p.entries.iter().map(|e| e.2).sum();
            check(
                spans == input.msgs(),
                "parsed Chrome entry spans = entries recorded",
            );
            check(p.tracks.len() == PES, "parsed Chrome tracks = PEs");
            let s = log.begin("perf.chrome_report", rep);
            let r = charm_perf::chrome_report(p, 10);
            log.end(s);
            check(!r.is_empty(), "chrome report");
        }
        Err(_) => check(false, "parse_chrome"),
    }
    let s = log.begin("perf.parse_summary", rep);
    let parsed = charm_perf::parse_summary(&artifact);
    log.end(s);
    match &parsed {
        Ok(pes) => {
            let same = pes.len() == PES
                && pes.iter().zip(&summ.pes).all(|(got, want)| {
                    let p = &want.perf;
                    (got.busy_ns, got.idle_ns, got.overhead_ns)
                        == (p.busy_ns, p.idle_ns, p.overhead_ns)
                        && got.bin_totals() == (p.busy_ns, p.idle_ns, p.overhead_ns)
                        && got.wall_ns == p.wall_ns
                });
            check(same, "parsed summary totals = PePerf totals");
            let s = log.begin("perf.summary_report", rep);
            let r = charm_perf::summary_report(pes);
            log.end(s);
            check(!r.is_empty(), "summary report");
        }
        Err(_) => check(false, "parse_summary"),
    }

    // Telemetry: reduce each sweep's leaves pairwise, export, parse, report.
    let s = log.begin("telemetry.merge", rep);
    let merged: Vec<MetricFrame> = input
        .leaves
        .iter()
        .map(|leaves| {
            let mut level: Vec<MetricFrame> = leaves.clone();
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|pair| {
                        let mut m = pair[0].clone();
                        if let Some(other) = pair.get(1) {
                            m.merge(other);
                        }
                        m
                    })
                    .collect();
            }
            level.pop().unwrap_or_default()
        })
        .collect();
    log.end(s);
    let s = log.begin("telemetry.frames_artifact", rep);
    let tel = frames_artifact(&merged);
    log.end(s);
    let s = log.begin("perf.parse_telemetry", rep);
    let frames = charm_perf::parse_telemetry(&tel);
    log.end(s);
    match &frames {
        Ok(frames) => {
            let same = frames.len() == SWEEPS
                && frames.iter().zip(&merged).all(|(got, want)| {
                    got.msgs_sent == want.msgs_sent
                        && got.pes == PES as u64
                        && got.exec.digest() == want.exec.digest()
                });
            check(same, "parsed telemetry frames = merged frames");
            let s = log.begin("perf.telemetry_report", rep);
            let r = charm_perf::telemetry_report(frames, 10);
            log.end(s);
            check(!r.is_empty(), "telemetry report");
        }
        Err(_) => check(false, "parse_telemetry"),
    }
    log.end(s_rep);
    let wall_ns = start.elapsed().as_nanos() as u64;

    let ring_dropped: u64 = full.pes.iter().map(|t| t.perf.events_dropped).sum();
    check(ring_dropped == 0, "full-capture ring dropped nothing");
    let mut latency = Hist::default();
    for t in &full.pes {
        latency.merge(&t.latency);
    }
    let telemetry = merged
        .iter()
        .fold(0u64, |acc, f| acc.rotate_left(7) ^ f.logical_digest());
    RepOut {
        wall_ns,
        artifact_bytes: chrome.len() + artifact.len() + tel.len(),
        digest: Digest {
            latency: latency.digest(),
            telemetry,
            chrome_bytes: chrome.len(),
        },
        chrome,
        ring_dropped,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_outputs_and_every_check_passes() {
        let input = generate(5, 300);
        let a = run_once(&input, &mut SpanLog::off(), 0);
        let b = run_once(&generate(5, 300), &mut SpanLog::off(), 1);
        assert_eq!(a.checks.errors, Vec::<String>::new());
        assert!(a.checks.attempted >= 10 && a.checks.failed == 0);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.chrome, b.chrome);
        let c = run_once(&generate(6, 300), &mut SpanLog::off(), 0);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn counters_survive_every_level_and_levels_cost_what_they_record() {
        let input = generate(1, 200);
        for level in [
            TraceLevel::Off,
            TraceLevel::Counters,
            TraceLevel::Summary,
            TraceLevel::Full,
        ] {
            let mut t = PeTracer::new(&config(level, 200));
            let wall = record(&mut t, &input.ops[0]);
            let trace = t.finish(0, wall, 0, |_| String::new());
            assert_eq!(trace.perf.msgs_processed, 200);
            assert_eq!(trace.perf.msgs_sent, 200);
            assert_eq!(trace.events.is_empty(), level != TraceLevel::Full);
            assert_eq!(trace.summary.is_some(), level >= TraceLevel::Summary);
            if level >= TraceLevel::Counters {
                let p = &trace.perf;
                assert_eq!(p.busy_ns + p.idle_ns + p.overhead_ns, p.wall_ns);
            }
        }
    }
}
