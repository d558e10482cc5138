//! Acceptance test for the tracing subsystem (ISSUE: observability):
//! a 2-PE stencil3d run under full capture must yield a parseable Chrome
//! trace with one track per PE and a rich event mix, and the per-PE
//! busy/idle/overhead decomposition must account for the wall clock.

use charm_apps::stencil3d::{charm::run_charm, StencilParams};
use charm_core::{Runtime, TraceConfig};
use charm_sim::MachineModel;
use charm_trace::json::{parse, Value};

const NPES: usize = 2;

fn traced_stencil() -> charm_core::RunReport {
    let mut params = StencilParams::new([8, 8, 8], [2, 2, 1], 4);
    // The sim's clock reads no host time: charge the ledger's nominal
    // kernel (100 µs per 4,096 cells) for each 128-cell block.
    params.nominal_kernel_s = Some(128.0 * 100e-6 / 4096.0);
    let rt = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .trace(TraceConfig::full());
    run_charm(params, rt).report
}

#[test]
fn stencil_trace_decomposes_and_exports() {
    let report = traced_stencil();
    assert!(report.clean_exit);

    // --- decomposition: busy + idle + overhead within 5% of wall, per PE.
    assert_eq!(report.pe_stats.len(), NPES);
    for p in &report.pe_stats {
        assert!(p.wall_ns > 0, "PE {} never ticked", p.pe);
        let sum = p.busy_ns + p.idle_ns + p.overhead_ns;
        let gap = (sum as i128 - p.wall_ns as i128).unsigned_abs() as u64;
        assert!(
            gap * 20 <= p.wall_ns,
            "PE {}: busy {} + idle {} + overhead {} = {} strays >5% from wall {}",
            p.pe,
            p.busy_ns,
            p.idle_ns,
            p.overhead_ns,
            sum,
            p.wall_ns
        );
        assert!(
            p.busy_ns > 0,
            "PE {} ran stencil steps, busy must be > 0",
            p.pe
        );
    }

    // --- event rings are well-formed and varied.
    let trace = report.trace.expect("full capture must carry a trace");
    trace.validate().expect("event rings must be well-formed");
    let kinds = trace.event_kind_names();
    assert!(
        kinds.len() >= 6,
        "expected ≥6 distinct event kinds in a stencil run, got {kinds:?}"
    );

    // --- Chrome export parses and names one track per PE.
    let doc = parse(&trace.chrome_json()).expect("exporter must emit valid JSON");
    let arr = doc.as_arr().expect("top level is an array");
    let track_names: Vec<&str> = arr
        .iter()
        .filter(|o| o.get("name").and_then(Value::as_str) == Some("thread_name"))
        .filter_map(|o| {
            o.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
        })
        .collect();
    assert_eq!(track_names.len(), NPES, "one metadata track per PE");
    for pe in 0..NPES {
        assert!(track_names.contains(&format!("PE {pe}").as_str()));
    }
    // Entry spans are complete events on some PE's track.
    assert!(arr.iter().any(|o| {
        o.get("ph").and_then(Value::as_str) == Some("X")
            && o.get("cat").and_then(Value::as_str) == Some("entry")
    }));
}

#[test]
fn summary_reports_every_pe_and_an_entry_table() {
    let report = traced_stencil();
    let trace = report.trace.expect("full capture must carry a trace");
    let text = trace.summary();
    for pe in 0..NPES {
        let row = format!("\n{pe:>4}  ");
        assert!(text.contains(&row), "summary lacks a row for PE {pe}");
    }
    assert!(
        text.contains("Block") || text.contains("stencil"),
        "entry table should name the stencil chare type:\n{text}"
    );
}
