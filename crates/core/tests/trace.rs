//! Tracing & metrics integration tests (DESIGN.md §7).
//!
//! Drives real runs on the sim backend at each trace level and checks the
//! `RunReport` surface: counters are populated even with tracing off, full
//! capture yields well-formed event rings whose busy/idle/overhead
//! decomposition accounts for the whole wall clock, a tiny ring drops the
//! oldest events (and says so), user marks flow end to end, and the Chrome
//! exporter's output survives the crate's own strict JSON parser.

use charm_core::prelude::*;
use charm_sim::MachineModel;
use charm_trace::json::{parse, Value};

// ---------------------------------------------------------------------------
// Workload: a counter on PE 1, bumped from main on PE 0 — every bump is a
// remote send, so both PEs see traffic, entries, and idle gaps.
// ---------------------------------------------------------------------------

struct Counter {
    total: i64,
}

enum CounterMsg {
    Bump(i64),
    Total,
}
wire_enum! { CounterMsg { Bump(a), Total } }

impl Chare for Counter {
    type Msg = CounterMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Counter { total: 0 }
    }
    fn receive(&mut self, msg: CounterMsg, ctx: &mut Ctx) {
        match msg {
            CounterMsg::Bump(v) => {
                self.total += v;
                // The sim's clock reads no host time: a nominal charge
                // makes each bump busy time.
                ctx.charge(std::time::Duration::from_micros(1));
            }
            CounterMsg::Total => ctx.reply(self.total),
        }
    }
}

fn run_with(trace: TraceConfig, bumps: i64) -> RunReport {
    Runtime::new(2)
        .simulated(MachineModel::local(2))
        .trace(trace)
        .register::<Counter>()
        .run(move |co| {
            co.ctx().trace_mark("phase:bump");
            let c = co.ctx().create_chare::<Counter>((), Some(1));
            for i in 0..bumps {
                c.send(co.ctx(), CounterMsg::Bump(i));
            }
            co.ctx().trace_mark("phase:collect");
            let f = c.call::<i64>(co.ctx(), CounterMsg::Total);
            assert_eq!(co.get(&f), (0..bumps).sum::<i64>());
            co.ctx().exit();
        })
}

#[test]
fn counters_populate_report_even_when_tracing_off() {
    let r = run_with(TraceConfig::off(), 8);
    assert!(r.clean_exit);
    assert!(r.trace.is_none(), "level Off must not carry a trace");
    assert_eq!(r.pe_stats.len(), 2, "one PePerf block per PE, always");
    let sent: u64 = r.pe_stats.iter().map(|p| p.msgs_sent).sum();
    let processed: u64 = r.pe_stats.iter().map(|p| p.msgs_processed).sum();
    assert!(sent >= 8, "bumps must be counted, got {sent}");
    assert_eq!(sent, processed, "clean exit ⇒ send/process balance");
    assert!(r.msgs >= 8 && r.entries >= 8);
    assert!(
        r.pe_stats.iter().any(|p| p.bytes_sent_remote > 0),
        "cross-PE bumps move bytes"
    );
    assert!(r.bytes > 0 && r.time.as_nanos() > 0);
}

#[test]
fn full_capture_validates_and_decomposition_sums_to_wall() {
    let r = run_with(TraceConfig::full(), 32);
    assert!(r.clean_exit);
    let trace = r.trace.expect("full level must carry a trace");
    trace.validate().expect("event rings must be well-formed");
    for p in &r.pe_stats {
        assert!(p.wall_ns > 0, "PE {} never ticked", p.pe);
        let sum = p.busy_ns + p.idle_ns + p.overhead_ns;
        // The sim backend attributes every virtual ns at charge time, so
        // the decomposition is exact — not just within the 5% budget.
        assert_eq!(
            sum, p.wall_ns,
            "PE {}: busy {} + idle {} + overhead {} != wall {}",
            p.pe, p.busy_ns, p.idle_ns, p.overhead_ns, p.wall_ns
        );
    }
    assert!(
        r.pe_stats.iter().any(|p| p.busy_ns > 0),
        "somebody executed entries"
    );
    assert!(
        r.pe_stats.iter().any(|p| p.idle_ns > 0),
        "a 2-PE ping workload must leave idle gaps"
    );
}

#[test]
fn tiny_ring_drops_oldest_and_reports_the_count() {
    let cfg = TraceConfig::full().ring_capacity(8);
    let r = run_with(cfg, 100);
    let trace = r.trace.expect("full level must carry a trace");
    trace
        .validate()
        .expect("a wrapped ring is still well-formed");
    let total_events: usize = trace.pes.iter().map(|t| t.events.len()).sum();
    assert!(total_events > 0, "the tail must survive the wrap");
    for t in &trace.pes {
        assert!(
            t.events.len() <= 8,
            "PE {} kept {} events in a ring of 8",
            t.perf.pe,
            t.events.len()
        );
    }
    let dropped: u64 = trace.pes.iter().map(|t| t.perf.events_dropped).sum();
    assert!(dropped > 0, "100 bumps must overflow an 8-slot ring");
    // What survives is the newest tail: the first retained event on the
    // busiest PE must start later than a fresh ring's first event would.
    let full = run_with(TraceConfig::full(), 100)
        .trace
        .expect("reference run");
    for (wrapped, complete) in trace.pes.iter().zip(&full.pes) {
        if wrapped.perf.events_dropped > 0 {
            let first_kept = wrapped.events.first().map(|e| e.ts_ns).unwrap_or(0);
            let first_ever = complete.events.first().map(|e| e.ts_ns).unwrap_or(0);
            assert!(
                first_kept >= first_ever,
                "PE {}: wraparound must discard from the front",
                wrapped.perf.pe
            );
        }
    }
}

#[test]
fn trace_marks_flow_into_the_event_stream() {
    let r = run_with(TraceConfig::full(), 4);
    let trace = r.trace.expect("full level must carry a trace");
    let marks: Vec<&str> = trace
        .pes
        .iter()
        .flat_map(|t| &t.events)
        .filter_map(|e| match &e.kind {
            charm_trace::EventKind::Mark { label } => Some(label.as_str()),
            _ => None,
        })
        .collect();
    assert!(marks.contains(&"phase:bump") && marks.contains(&"phase:collect"));
    // Counters level must not record marks (no ring exists).
    let r = run_with(TraceConfig::counters(), 4);
    let trace = r.trace.expect("counters level still reports aggregates");
    assert!(trace.pes.iter().all(|t| t.events.is_empty()));
}

#[test]
fn chrome_export_round_trips_through_the_strict_parser() {
    let r = run_with(TraceConfig::full(), 16);
    let trace = r.trace.expect("full level must carry a trace");
    let doc = parse(&trace.chrome_json()).expect("exporter must emit valid JSON");
    let arr = doc.as_arr().expect("top level is an array");
    // One named track per PE.
    let tracks: Vec<&Value> = arr
        .iter()
        .filter(|o| o.get("name").and_then(Value::as_str) == Some("thread_name"))
        .collect();
    assert_eq!(tracks.len(), 2);
    // Every row is a well-formed trace event: a phase plus track ids.
    for o in arr {
        assert!(o.get("ph").and_then(Value::as_str).is_some());
        assert!(o.get("pid").and_then(Value::as_f64).is_some());
        assert!(o.get("tid").and_then(Value::as_f64).is_some());
    }
    // Entry spans made it out as complete events with µs durations.
    assert!(arr.iter().any(|o| {
        o.get("ph").and_then(Value::as_str) == Some("X")
            && o.get("cat").and_then(Value::as_str) == Some("entry")
            && o.get("dur").and_then(Value::as_f64).is_some()
    }));
    // The user marks survived export.
    assert!(arr
        .iter()
        .any(|o| o.get("name").and_then(Value::as_str) == Some("phase:bump")));
}
