//! The metric and workload registry. `BENCHMARK.json` states the same
//! names, units, directions and bounds for the driver; a test holds the
//! two together.

use charm_trace::json::escape;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression; 0 for per-layer metrics, which have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0)
}

/// `(name, why)`. One operation is: a 64 B round trip; a 64 B one-way
/// message; a 1 MiB one-way message; one whole record-to-report chain.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "net_pingpong_64B",
        "one 64 B message outstanding on a 2-node loopback mesh: per-message fixed cost only (wake-ups, syscalls, small allocs); per-byte code idle",
    ),
    (
        "net_flood_64B",
        "one-way 64 B under a 256-credit window: same layer for rate not latency, so writer burst-drain and send enqueue dominate; batching trades show against pingpong",
    ),
    (
        "net_stream_1MiB",
        "one-way 1 MiB, window 8: per-byte cost only (byte-at-a-time fnv1a both ends, encode_from/read_frame/decode_from copies); bypasses per-message cost",
    ),
    (
        "trace_pipeline",
        "no sockets: seeded 4-PE run recorded at Full and Summary, exported, parsed and reported by charm-perf; the observability stack works here and nowhere in net_*",
    ),
];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e("op_us_p50", "us", Better::Lower, 0.25),
    e2e("op_us_p90", "us", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("goodput_MBps", "MB/s", Better::Higher, 0.25),
    e2e("peak_rss_MB", "MB", Better::Lower, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single layers. A layer the workload does not touch reads 0.
pub const PER_LAYER: &[Metric] = &[
    // frame: isolated call loops on a seeded buffer.
    hi("frame.fnv1a_MBps", "MB/s"),
    hi("frame.write_frame_MBps_1MiB", "MB/s"),
    hi("frame.read_frame_MBps_1MiB", "MB/s"),
    lo("frame.encode_header_ns_64B", "ns"),
    lo("frame.write_frame_ns_64B", "ns"),
    lo("frame.read_frame_ns_64B", "ns"),
    lo("frame.reject_ns", "ns"),
    hi("frame.rejects", "count"),
    // proto: isolated.
    lo("proto.encode_from_ns_64B", "ns"),
    lo("proto.decode_from_ns_64B", "ns"),
    hi("proto.encode_from_MBps_1MiB", "MB/s"),
    hi("proto.decode_from_MBps_1MiB", "MB/s"),
    lo("proto.hello_roundtrip_ns", "ns"),
    lo("proto.table_roundtrip_ns_64pe", "ns"),
    // node: in situ, from the workload's own mesh.
    lo("node.send_call_ns_p50", "ns"),
    lo("node.send_call_ns_p99", "ns"),
    lo("node.send_blocked_share", "%"),
    lo("node.recv_wait_ns_p50", "ns"),
    lo("node.rendezvous_ms", "ms"),
    lo("node.drain_ms", "ms"),
    lo("node.op_us_p99", "us"),
    lo("node.op_us_p999", "us"),
    lo("node.frames_per_msg", "count"),
    lo("node.wire_bytes_per_payload_byte", "count"),
    lo("node.pings_sent", "count"),
    lo("node.corrupt_frames", "count"),
    lo("node.proto_errors", "count"),
    lo("node.disconnects", "count"),
    lo("node.reconnects", "count"),
    // node: size sweep and stream on reference meshes, every traced run.
    lo("node.rtt_us_p50_64B", "us"),
    lo("node.rtt_us_p50_4KiB", "us"),
    lo("node.rtt_us_p50_64KiB", "us"),
    hi("node.stream_MBps_1MiB", "MB/s"),
    // rawtcp: bare std sockets in the same run, and the ratios to them.
    lo("rawtcp.rtt_us_p50_64B", "us"),
    hi("rawtcp.stream_MBps_1MiB", "MB/s"),
    lo("node.rtt_over_rawtcp", "ratio"),
    hi("node.goodput_over_rawtcp", "ratio"),
    lo("proc.cpu_us_per_op", "us"),
    // tracer: record path per message at each level (isolated), finish and
    // ring health from the chain.
    lo("tracer.record_ns_per_msg_off", "ns"),
    lo("tracer.record_ns_per_msg_counters", "ns"),
    lo("tracer.record_ns_per_msg_summary", "ns"),
    lo("tracer.record_ns_per_msg_full", "ns"),
    lo("tracer.finish_ms", "ms"),
    lo("tracer.ring_dropped", "count"),
    lo("hist.record_ns", "ns"),
    lo("hist.merge_us", "us"),
    lo("hist.quantile_ns", "ns"),
    lo("summary.span_ns", "ns"),
    lo("telemetry.merge_us", "us"),
    lo("telemetry.space_saving_observe_ns", "ns"),
    lo("telemetry.frames_artifact_us_per_frame", "us"),
    // report / json / perf: from the spans around each stage of the chain.
    hi("report.chrome_json_MBps", "MB/s"),
    lo("report.chrome_json_bytes", "count"),
    lo("report.summary_artifact_us", "us"),
    lo("report.summary_text_us", "us"),
    lo("report.validate_ms", "ms"),
    hi("json.parse_MBps", "MB/s"),
    hi("perf.parse_chrome_MBps", "MB/s"),
    lo("perf.chrome_report_ms", "ms"),
    lo("perf.parse_summary_us", "us"),
    lo("perf.summary_report_us", "us"),
    lo("perf.parse_telemetry_us_per_frame", "us"),
    lo("perf.telemetry_report_us", "us"),
    // The harness itself.
    lo("bench.trace_overhead_ratio", "ratio"),
    lo("bench.spans_recorded", "count"),
    lo("bench.available_parallelism", "count"),
];

/// The unit `registry` states for `name` (empty if it has no such metric).
pub fn unit_of(registry: &[Metric], name: &str) -> &'static str {
    registry
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// How long one driver run measures.
pub const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json`, as this registry states it (`charm-benchmark manifest`).
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!(r#"    {{"name": "{name}", "why": "{}"}}"#, escape(why)))
        .collect();
    let row = |m: &Metric| {
        let bound = if m.bound > 0.0 {
            format!(r#", "bound": {}"#, m.bound)
        } else {
            String::new()
        };
        format!(
            r#"    {{"name": "{}", "unit": "{}", "better": "{}"{bound}}}"#,
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let rows = |ms: &[Metric]| ms.iter().map(row).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        rows(END_TO_END),
        rows(PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_trace::json::parse;

    /// `BENCHMARK.json` at the repo root must state exactly this registry.
    #[test]
    fn benchmark_json_states_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(
            parse(&committed).expect("json"),
            parse(&manifest()).expect("json")
        );
    }

    #[test]
    fn registry_is_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        let units = END_TO_END.iter().chain(PER_LAYER).map(|m| m.unit);
        assert!({ units }.all(|u| u.len() <= 16 && u.chars().all(unit_ok)));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| m.bound == 0.0));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "set-up has the largest bound"
        );
        assert!(manifest().len() <= 64 << 10);
    }
}
