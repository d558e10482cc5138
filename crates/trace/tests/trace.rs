//! End-to-end exercises of the public charm-trace API: record on a fake
//! two-PE "scheduler", wrap the ring, export, parse, validate.

use charm_trace::json::{parse, Value};
use charm_trace::{EntryKind, EventKind, PeTracer, TraceConfig, TraceReport, WorkClass};

/// Drive one fake PE: alternate idle gaps and entry activations, with a
/// few message/guard/reduction events in between.
fn drive(pe: usize, cfg: &TraceConfig, steps: u64) -> charm_trace::PeTrace {
    let mut t = PeTracer::new(cfg);
    let mut now = 0u64;
    for s in 0..steps {
        // Idle while "waiting" for the next message.
        let wake = now + 50;
        t.idle(now, wake);
        now = wake;
        // Receive, run an entry, send a ghost to the neighbour.
        t.counters.processed += 1;
        t.msg_recv(128);
        if t.full() {
            t.push(now, EventKind::MsgRecv { bytes: 128 });
        }
        let dur = 100 + (s % 3) * 10;
        t.counters.entries += 1;
        t.work(WorkClass::Entry, dur);
        t.entry(now, now + dur, dur, 1, EntryKind::Receive);
        now += dur;
        t.counters.sent += 1;
        t.counters.bytes += 64;
        t.msg_send(64, true);
        if t.full() {
            t.push(
                now,
                EventKind::MsgSend {
                    bytes: 64,
                    remote: true,
                },
            );
        }
        if s % 4 == 0 {
            t.red_contributes += 1;
            if t.full() {
                t.push(now, EventKind::RedContribute);
            }
        }
    }
    t.finish(pe, now, 64 * steps, |ct| format!("fake::Chare{ct}"))
}

fn report(cfg: &TraceConfig, steps: u64) -> TraceReport {
    TraceReport {
        pes: (0..2).map(|pe| drive(pe, cfg, steps)).collect(),
    }
}

#[test]
fn full_capture_validates_and_decomposes() {
    let rep = report(&TraceConfig::full(), 40);
    rep.validate().expect("well-formed events");
    for t in &rep.pes {
        assert!(t.captured);
        let p = &t.perf;
        // Exact decomposition: everything was charged or idled.
        assert_eq!(p.busy_ns + p.idle_ns + p.overhead_ns, p.wall_ns);
        assert_eq!(p.msgs_processed, 40);
        assert_eq!(p.bytes_sent_remote, 64 * 40);
        assert_eq!(p.events_dropped, 0);
    }
    assert!(rep.event_kind_names().len() >= 5);
}

#[test]
fn ring_wraparound_drops_oldest_and_counts() {
    let cfg = TraceConfig::full().ring_capacity(16);
    let rep = report(&cfg, 50);
    for t in &rep.pes {
        assert_eq!(t.events.len(), 16);
        assert!(t.perf.events_dropped > 0);
        // Oldest events gone: the first kept timestamp is well past 0.
        assert!(t.events.first().map(|e| e.ts_ns).unwrap_or(0) > 1_000);
    }
    // A cut ring stays monotone; orphan ends are tolerated at the cut.
    rep.validate().expect("wrapped ring still validates");
}

#[test]
fn counters_level_skips_events_keeps_stats() {
    let rep = report(&TraceConfig::counters(), 10);
    for t in &rep.pes {
        assert!(t.enabled && !t.captured);
        assert!(t.events.is_empty());
        assert_eq!(t.entries.len(), 1);
        assert_eq!(t.entries[0].stat.calls, 10);
        assert_eq!(t.entries[0].name, "fake::Chare1");
        assert_eq!(
            t.perf.busy_ns + t.perf.idle_ns + t.perf.overhead_ns,
            t.perf.wall_ns
        );
    }
}

#[test]
fn off_level_keeps_raw_counters() {
    let rep = report(&TraceConfig::off(), 10);
    for t in &rep.pes {
        assert!(!t.enabled);
        assert_eq!(t.perf.msgs_sent, 10);
        assert_eq!(t.perf.msgs_processed, 10);
        assert_eq!(t.perf.bytes_sent_remote, 640);
        assert!(t.entries.is_empty() && t.events.is_empty());
    }
}

#[test]
fn chrome_export_round_trips_with_one_track_per_pe() {
    let rep = report(&TraceConfig::full(), 20);
    let doc = parse(&rep.chrome_json()).expect("valid JSON");
    let arr = doc.as_arr().expect("array form");
    let mut tracks = std::collections::BTreeSet::new();
    let mut kinds = std::collections::BTreeSet::new();
    for o in arr {
        let name = o.get("name").and_then(Value::as_str).unwrap_or_default();
        // Metadata rows (`"ph":"M"`: process/thread names, `charm_stats`)
        // carry no timestamp.
        if o.get("ph").and_then(Value::as_str) == Some("M") {
            if name == "thread_name" {
                tracks.insert(o.get("tid").and_then(Value::as_f64).unwrap_or(-1.0) as i64);
            }
        } else {
            kinds.insert(name.to_string());
            // Every real event sits on a PE track with a µs timestamp.
            assert!(o.get("ts").and_then(Value::as_f64).is_some());
        }
    }
    assert_eq!(tracks.len(), rep.pes.len());
    assert!(kinds.len() >= 4, "kinds seen: {kinds:?}");
}
