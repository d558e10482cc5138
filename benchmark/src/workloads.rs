//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer ones.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::checks::Checks;
use crate::layers::{self, Values};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::net::{self, Flow, FLOOD_64B, PINGPONG_64B, STREAM_1MIB};
use crate::pipeline::{self, Digest};
use crate::spans::{self, SpanLog, SPAN_CAP};
use crate::stats::{median, percentile};

/// Set-ups per untraced run, `setup_s` being their median. A `net_*` run
/// builds this many meshes and measures one repetition on each, so thread
/// placement is drawn that often and each metric is the median over
/// meshes; a `trace_pipeline` run generates its input this many times.
const SETUPS: usize = 20;
/// Messages per PE in the synthetic trace. Small on purpose: at 250 a
/// chain (~9 ms, ~0.3 MB of Chrome text, ~13 MB resident) ran no slower
/// beside a memory-bandwidth hog on the other core, at 500 and above 11-13 %
/// slower, and this VM's neighbours come and go. A run holds ~2,000 chains.
pub const MSGS_PER_PE: usize = 250;
/// Fewest timed chains in a phase, however short it is asked to be.
const MIN_CHAINS: usize = 3;

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Values,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// The value of `name`; a metric nothing measured reads 0.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1e3)
}

/// CPU time (user + system) of this process so far, us. Linux reports it
/// in clock ticks; every Linux ABI Rust targets fixes `USER_HZ` at 100.
fn cpu_us() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the line.
            let rest = s.rsplit_once(") ")?.1;
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) * 1e4)
        })
        .unwrap_or(0.0)
}

fn flow_of(workload: &str) -> Option<Flow> {
    match workload {
        "net_pingpong_64B" => Some(PINGPONG_64B),
        "net_flood_64B" => Some(FLOOD_64B),
        "net_stream_1MiB" => Some(STREAM_1MIB),
        _ => None,
    }
}

fn off() -> [SpanLog; 2] {
    [SpanLog::off(), SpanLog::off()]
}

fn net_untraced(flow: Flow, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let per_mesh = seconds / SETUPS as f64;
    let warm = secs(per_mesh / 10.0);
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    for i in 0..SETUPS {
        let mut r = net::run_flow(flow, seed, warm, 1, secs(per_mesh) - warm, &mut off());
        out.checks.absorb(std::mem::take(&mut r.checks));
        setups.push(r.setup_ns as f64 / 1e9);
        if let Some(rep) = r.reps.pop() {
            eprintln!(
                "rep {i}: p50 {:.3} us, p90 {:.3} us, {:.1} ops/s, n {}",
                rep.lat_us(0.5),
                rep.lat_us(0.9),
                rep.ops_per_s(),
                rep.lat_ns.len()
            );
            reps.push(rep);
        }
    }
    out.checks.check(reps.len() == SETUPS, || {
        format!("only {} of {SETUPS} meshes completed their rep", reps.len())
    });
    let over = |f: fn(&net::Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let ops_per_s = over(net::Rep::ops_per_s);
    out.metrics = vec![
        ("op_us_p50", over(|r| r.lat_us(0.5))),
        ("op_us_p90", over(|r| r.lat_us(0.9))),
        ("ops_per_s", ops_per_s),
        ("goodput_MBps", ops_per_s * flow.size as f64 / 1e6),
        ("peak_rss_MB", peak_rss_mb()),
        ("setup_s", median(&setups)),
    ];
    out
}

/// What [`run_chains`] measured.
struct Chains {
    /// Wall time of each chain, ascending.
    wall_ns: Vec<u64>,
    artifact_bytes: usize,
    chrome: String,
    ring_dropped: u64,
}

/// Chains run back to back for `dur` (at least [`MIN_CHAINS`], at most
/// until the span log fills), after one warm-up chain; every chain's
/// digests must equal the warm-up's.
fn run_chains(
    input: &pipeline::Input,
    dur: Duration,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Chains {
    let first: Digest = pipeline::run_once(input, &mut SpanLog::off(), 0).digest;
    let mut chains = Chains {
        wall_ns: Vec::new(),
        artifact_bytes: 0,
        chrome: String::new(),
        ring_dropped: 0,
    };
    let start = Instant::now();
    while chains.wall_ns.len() < MIN_CHAINS || (start.elapsed() < dur && !log.full()) {
        let rep = pipeline::run_once(input, log, chains.wall_ns.len() as u64);
        out.checks.absorb(rep.checks);
        out.checks.check(first == rep.digest, || {
            "same-seed digests differ across reps".to_string()
        });
        chains.wall_ns.push(rep.wall_ns);
        chains.artifact_bytes = rep.artifact_bytes;
        chains.ring_dropped += rep.ring_dropped;
        chains.chrome = rep.chrome;
    }
    chains.wall_ns.sort_unstable();
    chains
}

fn pipeline_untraced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut input = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        input = Some(pipeline::generate(seed, MSGS_PER_PE));
        setups.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("SETUPS > 0");
    let chains = run_chains(&input, secs(seconds), &mut SpanLog::off(), &mut out);
    let p50 = percentile(&chains.wall_ns, 0.5) as f64;
    out.metrics = vec![
        ("op_us_p50", p50 / 1e3),
        ("op_us_p90", percentile(&chains.wall_ns, 0.9) as f64 / 1e3),
        ("ops_per_s", 1e9 / p50),
        (
            "goodput_MBps",
            chains.artifact_bytes as f64 / 1e6 / (p50 / 1e9),
        ),
        ("peak_rss_MB", peak_rss_mb()),
        ("setup_s", median(&setups)),
    ];
    out
}

/// Median duration (ns) of the spans called `name`.
fn span_p50(log: &SpanLog, name: &str) -> f64 {
    percentile(&log.durations(name), 0.5) as f64
}

/// Per-layer values of the export/parse/report stages, from the spans
/// around them, plus `json::parse` alone on the last Chrome text.
fn chain_layers(log: &SpanLog, chains: &Chains, vals: &mut Values) {
    let mb = chains.chrome.len() as f64 / 1e6;
    let mbps = |ns: f64| if ns > 0.0 { mb / (ns / 1e9) } else { 0.0 };
    let t = Instant::now();
    let parsed = charm_trace::json::parse(&chains.chrome);
    let json_ns = t.elapsed().as_nanos() as f64;
    drop(parsed);
    let finish = span_p50(log, "tracer.finish_full") + span_p50(log, "tracer.finish_summary");
    let merges = (pipeline::SWEEPS * (pipeline::PES - 1)) as f64;
    let frames = pipeline::SWEEPS as f64;
    vals.extend([
        ("tracer.finish_ms", finish / 1e6),
        ("tracer.ring_dropped", chains.ring_dropped as f64),
        ("report.chrome_json_bytes", chains.chrome.len() as f64),
        ("json.parse_MBps", mbps(json_ns)),
    ]);
    for (name, span) in [
        ("report.chrome_json_MBps", "report.chrome_json"),
        ("perf.parse_chrome_MBps", "perf.parse_chrome"),
    ] {
        vals.push((name, mbps(span_p50(log, span))));
    }
    // `(metric, span, ns per unit of the metric)`.
    for (name, span, ns_per) in [
        ("telemetry.merge_us", "telemetry.merge", merges * 1e3),
        (
            "telemetry.frames_artifact_us_per_frame",
            "telemetry.frames_artifact",
            frames * 1e3,
        ),
        ("report.summary_artifact_us", "report.summary_artifact", 1e3),
        ("report.summary_text_us", "report.summary_text", 1e3),
        ("report.validate_ms", "report.validate", 1e6),
        ("perf.chrome_report_ms", "perf.chrome_report", 1e6),
        ("perf.parse_summary_us", "perf.parse_summary", 1e3),
        ("perf.summary_report_us", "perf.summary_report", 1e3),
        (
            "perf.parse_telemetry_us_per_frame",
            "perf.parse_telemetry",
            frames * 1e3,
        ),
        ("perf.telemetry_report_us", "perf.telemetry_report", 1e3),
    ] {
        vals.push((name, span_p50(log, span) / ns_per));
    }
}

/// Workload-independent references on fresh meshes and bare sockets: the
/// ping-pong size sweep, the 1 MiB stream, and both over raw TCP.
fn references(seed: u64, each: Duration, out: &mut Outcome, vals: &mut Values) {
    let warm = each / 10;
    let flow = |flow: Flow, out: &mut Outcome| {
        let mut r = net::run_flow(flow, seed, warm, 1, each, &mut off());
        out.checks.absorb(std::mem::take(&mut r.checks));
        r.reps.pop()
    };
    let sweep = [
        ("node.rtt_us_p50_64B", 64),
        ("node.rtt_us_p50_4KiB", 4 << 10),
        ("node.rtt_us_p50_64KiB", 64 << 10),
    ]
    .map(|(name, size)| {
        let rep = flow(Flow::pingpong(size), out);
        (name, rep.map_or(0.0, |r| r.lat_us(0.5)))
    });
    let rtt_64b = sweep[0].1;
    vals.extend(sweep);
    let stream =
        flow(STREAM_1MIB, out).map_or(0.0, |r| r.ops_per_s() * STREAM_1MIB.size as f64 / 1e6);
    vals.push(("node.stream_MBps_1MiB", stream));
    let raw = net::rawtcp(each);
    out.checks.check(raw.is_ok(), || format!("{raw:?}"));
    let (raw_rtt, raw_mbps) = raw.unwrap_or((0.0, 0.0));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vals.extend([
        ("rawtcp.rtt_us_p50_64B", raw_rtt),
        ("rawtcp.stream_MBps_1MiB", raw_mbps),
        ("node.rtt_over_rawtcp", ratio(rtt_64b, raw_rtt)),
        ("node.goodput_over_rawtcp", ratio(stream, raw_mbps)),
    ]);
}

/// The workload's own mesh, untraced then traced: in-situ `node.*` values
/// from the spans and counters, and what the spans cost.
fn net_in_situ(
    flow: Flow,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    vals: &mut Values,
) -> [SpanLog; 2] {
    // Short fixed warm-up on both phases: a traced warm-up would spend the
    // span log before the phase it is for.
    let warm = secs((seconds / 20.0).min(0.05));
    let cpu0 = cpu_us();
    let mut base = net::run_flow(flow, seed, warm, 1, secs(seconds / 8.0), &mut off());
    let cpu = cpu_us() - cpu0;
    out.checks.absorb(std::mem::take(&mut base.checks));
    let t0 = Instant::now();
    let mut logs = [SpanLog::on(t0, 0, SPAN_CAP), SpanLog::on(t0, 1, SPAN_CAP)];
    let mut traced = net::run_flow(flow, seed, warm, 1, secs(seconds / 4.0), &mut logs);
    out.checks.absorb(std::mem::take(&mut traced.checks));
    let (Some(base_rep), Some(traced_rep)) = (base.reps.first(), traced.reps.first()) else {
        out.checks
            .check(false, || "in-situ phases did not complete".to_string());
        return logs;
    };
    let sends = logs[0].durations("node.send_payload");
    let blocked = sends.iter().filter(|&&ns| ns >= 1_000_000).count();
    let c = traced.counters;
    let per = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let base_p50 = base_rep.lat_us(0.5);
    vals.extend([
        ("node.send_call_ns_p50", percentile(&sends, 0.5) as f64),
        ("node.send_call_ns_p99", percentile(&sends, 0.99) as f64),
        (
            "node.send_blocked_share",
            100.0 * per(blocked as u64, sends.len() as u64),
        ),
        (
            "node.recv_wait_ns_p50",
            span_p50(&logs[0], "node.events_recv"),
        ),
        ("node.rendezvous_ms", traced.rendezvous_ns as f64 / 1e6),
        ("node.drain_ms", traced.drain_ns as f64 / 1e6),
        ("node.op_us_p99", base_rep.lat_us(0.99)),
        ("node.op_us_p999", base_rep.lat_us(0.999)),
        ("node.frames_per_msg", per(c.frames_sent, traced.msgs)),
        (
            "node.wire_bytes_per_payload_byte",
            per(c.bytes_sent, traced.payload_bytes),
        ),
        ("node.pings_sent", c.pings_sent as f64),
        ("node.corrupt_frames", c.corrupt_frames as f64),
        ("node.proto_errors", c.proto_errors as f64),
        ("node.disconnects", c.disconnects as f64),
        ("node.reconnects", c.reconnects as f64),
        ("proc.cpu_us_per_op", cpu / base_rep.ops.max(1) as f64),
        (
            "bench.trace_overhead_ratio",
            if base_p50 > 0.0 {
                traced_rep.lat_us(0.5) / base_p50
            } else {
                0.0
            },
        ),
    ]);
    logs
}

fn traced(workload: &str, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut vals = layers::isolated(seed, secs(seconds / 200.0));
    references(seed, secs(seconds / 20.0), &mut out, &mut vals);
    let input = pipeline::generate(seed, MSGS_PER_PE);
    let t0 = Instant::now();
    let mut logs = Vec::new();
    match flow_of(workload) {
        Some(flow) => {
            // The chain stages still get their reference numbers.
            let mut log = SpanLog::on(t0, 2, SPAN_CAP);
            let chains = run_chains(&input, Duration::ZERO, &mut log, &mut out);
            chain_layers(&log, &chains, &mut vals);
            logs.extend(net_in_situ(flow, seed, seconds, &mut out, &mut vals));
            logs.push(log);
        }
        None => {
            let cpu0 = cpu_us();
            let base = run_chains(&input, secs(seconds / 8.0), &mut SpanLog::off(), &mut out);
            let cpu = cpu_us() - cpu0;
            let mut log = SpanLog::on(t0, 0, SPAN_CAP);
            let chains = run_chains(&input, secs(seconds / 4.0), &mut log, &mut out);
            chain_layers(&log, &chains, &mut vals);
            let p50 = |c: &Chains| percentile(&c.wall_ns, 0.5) as f64;
            vals.extend([
                // One warm-up chain ran before the timed ones.
                ("proc.cpu_us_per_op", cpu / (base.wall_ns.len() + 1) as f64),
                ("bench.trace_overhead_ratio", p50(&chains) / p50(&base)),
            ]);
            logs.push(log);
        }
    }
    let recorded: usize = logs.iter().map(|l| l.spans.len()).sum();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vals.extend([
        ("bench.spans_recorded", recorded as f64),
        ("bench.available_parallelism", cores as f64),
    ]);
    let path = out_dir.join("trace.json");
    let wrote = spans::write_chrome(&path, &logs);
    out.checks.check(wrote.is_ok(), || {
        format!("writing {}: {wrote:?}", path.display())
    });
    eprintln!(
        "{:<28} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in spans::totals(&logs) {
        eprintln!(
            "{name:<28} {count:>9} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    out.metrics = vals;
    out
}

/// Run `workload` once. Untraced runs report the end-to-end metrics,
/// traced runs the per-layer ones.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("unknown workload `{workload}`; one of {names:?}"));
    }
    let mut out = match (trace, flow_of(workload)) {
        (true, _) => traced(workload, seed, seconds, out_dir),
        (false, Some(flow)) => net_untraced(flow, seed, seconds),
        (false, None) => pipeline_untraced(seed, seconds),
    };
    // Report in registry order; every end-to-end value must be a real,
    // non-zero measurement.
    let registry = if trace { PER_LAYER } else { END_TO_END };
    let ordered: Values = registry
        .iter()
        .map(|m| (m.name, out.value(m.name)))
        .collect();
    for &(name, v) in &ordered {
        let ok = v.is_finite() && (trace || v > 0.0);
        out.checks
            .check(ok, || format!("metric {name} has no usable value ({v})"));
    }
    out.metrics = ordered;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 0.2 s smoke of each workload, untraced: correct, and every
    /// end-to-end metric present and positive.
    #[test]
    fn smoke_untraced_each_workload() {
        for (name, _) in WORKLOADS {
            let out = run(name, 11, 0.2, false, Path::new("unused")).expect(name);
            assert!(out.correct(), "{name}: {:?}", out.checks.errors);
            assert_eq!(out.metrics.len(), END_TO_END.len());
            assert!(
                out.metrics.iter().all(|(_, v)| *v > 0.0),
                "{name}: {:?}",
                out.metrics
            );
        }
    }

    /// A traced smoke on a mesh workload and on the chain: every per-layer
    /// metric reported, the in-situ ones live, and `trace.json` parses with
    /// spans from both driver threads.
    #[test]
    fn smoke_traced_writes_spans_and_every_per_layer_metric() {
        for name in ["net_flood_64B", "trace_pipeline"] {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-traced-{name}-{}", std::process::id()));
            let out = run(name, 5, 0.2, true, &dir).expect(name);
            assert!(out.correct(), "{name}: {:?}", out.checks.errors);
            let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            let mesh = name != "trace_pipeline";
            assert_eq!(out.value("node.send_call_ns_p50") > 0.0, mesh);
            assert_eq!(out.value("node.frames_per_msg") > 0.0, mesh);
            assert!(out.value("perf.parse_chrome_MBps") > 0.0);
            assert!(out.value("bench.trace_overhead_ratio") > 0.0);
            assert_eq!(out.value("frame.rejects"), 5.0);
            let text = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
            let doc = charm_trace::json::parse(&text).expect("trace.json parses");
            let spans = doc.as_arr().expect("array");
            assert_eq!(spans.len() as f64, out.value("bench.spans_recorded"));
            let tids: std::collections::BTreeSet<u64> = spans
                .iter()
                .filter_map(|s| s.get("tid")?.as_f64())
                .map(|t| t as u64)
                .collect();
            assert_eq!(tids.len(), if mesh { 3 } else { 1 });
            std::fs::remove_dir_all(&dir).expect("remove test output");
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(run("nope", 1, 0.1, false, Path::new("unused")).is_err());
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0);
        }
        assert!(cpu_us() > 0.0);
    }
}
