//! Isolated per-layer numbers: a timed call loop on a fixed, seeded buffer
//! for each public function a message or a trace record passes through.
//! They say what a layer costs alone; the spans of the traced phase say
//! what it costs in place.

use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use charm_net::frame::{self, FrameError};
use charm_net::proto::{self, Hello, Table, TableEntry, K_PAYLOAD};
use charm_trace::summary::{BinClass, SummaryRec};
use charm_trace::{Hist, PeTracer, SpaceSaving, TraceLevel};

use crate::pipeline;
use crate::stats::{median, Rng};

/// Named values, in the order measured.
pub type Values = Vec<(&'static str, f64)>;

/// Nanoseconds per call of `f`: batches sized to a tenth of `budget`, the
/// median of five batches.
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let slice = budget / 10;
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        if t.elapsed() >= slice || n >= 1 << 40 {
            break;
        }
        n *= 2;
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&batches)
}

/// Like [`ns_per_call`] for an `f` that consumes its input: `make` builds
/// a batch outside the timed region.
fn ns_per_consumed<T>(budget: Duration, batch: usize, make: impl Fn() -> T, f: impl Fn(T)) -> f64 {
    let deadline = Instant::now() + budget;
    let mut per_call = Vec::new();
    while per_call.len() < 5 || (Instant::now() < deadline && per_call.len() < 50) {
        let inputs: Vec<T> = (0..batch).map(|_| make()).collect();
        let t = Instant::now();
        for x in inputs {
            f(x);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call)
}

fn mbps(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

fn seeded_bytes(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next() as u8).collect()
}

/// One malformed frame per typed rejection: the bytes, the reader's cap,
/// and the check that the error is that rejection.
type Malformed = (Vec<u8>, usize, fn(&FrameError) -> bool);

fn malformed(payload: &[u8]) -> Vec<Malformed> {
    let mut good = Vec::new();
    frame::write_frame(&mut good, K_PAYLOAD, payload).expect("write to a Vec");
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    let mut bad_hdr_crc = good.clone();
    bad_hdr_crc[8] ^= 1;
    let mut bad_payload_crc = good.clone();
    bad_payload_crc[frame::HDR_LEN] ^= 1;
    let torn = good[..good.len() - 1].to_vec();
    let cap = frame::DEFAULT_MAX_FRAME;
    vec![
        (bad_magic, cap, |e| matches!(e, FrameError::BadMagic { .. })),
        (bad_hdr_crc, cap, |e| {
            matches!(e, FrameError::BadHeaderCrc { .. })
        }),
        (bad_payload_crc, cap, |e| {
            matches!(e, FrameError::BadPayloadCrc { .. })
        }),
        (good, payload.len() - 1, |e| {
            matches!(e, FrameError::TooLarge { .. })
        }),
        (torn, cap, |e| matches!(e, FrameError::Torn { .. })),
    ]
}

/// `(write_frame, read_frame)` nanoseconds per call on `payload`.
fn frame_write_read(budget: Duration, payload: &[u8]) -> (f64, f64) {
    let mut wire = Vec::with_capacity(payload.len() + frame::HDR_LEN);
    let write = ns_per_call(budget, || {
        wire.clear();
        frame::write_frame(&mut wire, K_PAYLOAD, black_box(payload)).expect("write to a Vec");
    });
    let read = ns_per_call(budget, || {
        let got = frame::read_frame(&mut Cursor::new(black_box(&wire)), frame::DEFAULT_MAX_FRAME);
        black_box(got.expect("well-formed frame"));
    });
    (write, read)
}

/// Every isolated metric, each loop given about `budget`.
pub fn isolated(seed: u64, budget: Duration) -> Values {
    let mut rng = Rng::new(seed);
    let mut out: Values = Vec::new();
    let small = seeded_bytes(&mut rng, 64);
    let big = seeded_bytes(&mut rng, 1 << 20);

    // frame
    let ns = ns_per_call(budget, || {
        black_box(frame::fnv1a(black_box(&big)));
    });
    out.push(("frame.fnv1a_MBps", mbps(big.len(), ns)));
    let ns = ns_per_call(budget, || {
        black_box(frame::encode_header(K_PAYLOAD, black_box(&small)));
    });
    out.push(("frame.encode_header_ns_64B", ns));
    let (write, read) = frame_write_read(budget, &small);
    out.push(("frame.write_frame_ns_64B", write));
    out.push(("frame.read_frame_ns_64B", read));
    let (write, read) = frame_write_read(budget, &big);
    out.push(("frame.write_frame_MBps_1MiB", mbps(big.len(), write)));
    out.push(("frame.read_frame_MBps_1MiB", mbps(big.len(), read)));
    let cases = malformed(&small);
    let rejects = cases
        .iter()
        .filter(|(bytes, cap, is_expected)| {
            matches!(frame::read_frame(&mut Cursor::new(bytes), *cap), Err(e) if is_expected(&e))
        })
        .count();
    let ns = ns_per_call(budget, || {
        for (bytes, cap, _) in &cases {
            black_box(frame::read_frame(&mut Cursor::new(black_box(bytes)), *cap).is_err());
        }
    });
    out.push(("frame.reject_ns", ns / cases.len() as f64));
    out.push(("frame.rejects", rejects as f64));

    // proto
    let ns = ns_per_call(budget, || {
        black_box(proto::encode_from(1, black_box(&small)));
    });
    out.push(("proto.encode_from_ns_64B", ns));
    let ns = ns_per_call(budget, || {
        black_box(proto::encode_from(1, black_box(&big)));
    });
    out.push(("proto.encode_from_MBps_1MiB", mbps(big.len(), ns)));
    let framed_small = proto::encode_from(1, &small);
    let ns = ns_per_consumed(
        budget,
        4096,
        || framed_small.clone(),
        |b| {
            black_box(proto::decode_from(b).expect("src-prefixed payload"));
        },
    );
    out.push(("proto.decode_from_ns_64B", ns));
    let framed_big = proto::encode_from(1, &big);
    let ns = ns_per_consumed(
        budget,
        8,
        || framed_big.clone(),
        |b| {
            black_box(proto::decode_from(b).expect("src-prefixed payload"));
        },
    );
    out.push(("proto.decode_from_MBps_1MiB", mbps(big.len(), ns)));
    let hello = Hello {
        pe: 1,
        npes: 2,
        epoch: 0,
        nonce: rng.next(),
        listen_port: 40_000,
    };
    let ns = ns_per_call(budget, || {
        black_box(Hello::decode(&black_box(&hello).encode()).expect("hello"));
    });
    out.push(("proto.hello_roundtrip_ns", ns));
    let table = Table {
        epoch: 0,
        entries: (0..64u32)
            .map(|pe| TableEntry {
                pe,
                epoch: 0,
                addr: std::net::SocketAddr::from(([127, 0, 0, 1], 40_000 + pe as u16)),
            })
            .collect(),
    };
    let ns = ns_per_call(budget, || {
        black_box(Table::decode(&black_box(&table).encode()).expect("table"));
    });
    out.push(("proto.table_roundtrip_ns_64pe", ns));

    // hist
    let samples: Vec<u64> = (0..4096).map(|_| rng.range(100, 5_000_000)).collect();
    let mut h = Hist::default();
    let mut i = 0;
    let ns = ns_per_call(budget, || {
        h.record(samples[i & 4095]);
        i += 1;
    });
    out.push(("hist.record_ns", ns));
    let mut other = Hist::default();
    samples.iter().for_each(|&v| other.record(v / 3));
    let ns = ns_per_call(budget, || {
        h.merge(black_box(&other));
    });
    out.push(("hist.merge_us", ns / 1e3));
    let ns = ns_per_call(budget, || {
        black_box(h.quantile(black_box(0.99)));
    });
    out.push(("hist.quantile_ns", ns));

    // summary: spans of 0.5-60 us marching through 1 ms quanta, so most
    // land in one bin, some split, and the bin budget compresses now and
    // then.
    let mut rec = SummaryRec::new(
        charm_trace::DEFAULT_QUANTUM_NS,
        charm_trace::DEFAULT_MAX_BINS,
    );
    let mut clock = 0u64;
    let mut i = 0;
    let ns = ns_per_call(budget, || {
        let d = samples[i & 4095] % 60_000 + 500;
        rec.span(BinClass::Busy, clock, clock + d);
        clock += d;
        i += 1;
    });
    black_box(rec.totals());
    out.push(("summary.span_ns", ns));

    // telemetry: a stream with more keys than the sketch tracks.
    let mut hot: SpaceSaving<u32> = SpaceSaving::new(charm_trace::DEFAULT_TOP_K);
    let mut i = 0;
    let ns = ns_per_call(budget, || {
        let v = samples[i & 4095];
        hot.observe(&((v % 24) as u32), v);
        i += 1;
    });
    black_box(hot.items());
    out.push(("telemetry.space_saving_observe_ns", ns));

    // tracer: the per-message record path at each level, on one PE's
    // seeded op stream, a fresh tracer per pass as at the start of a run.
    let input = pipeline::generate(seed, 8192);
    let ops = &input.ops[0];
    for (name, level) in [
        ("tracer.record_ns_per_msg_off", TraceLevel::Off),
        ("tracer.record_ns_per_msg_counters", TraceLevel::Counters),
        ("tracer.record_ns_per_msg_summary", TraceLevel::Summary),
        ("tracer.record_ns_per_msg_full", TraceLevel::Full),
    ] {
        let cfg = pipeline::config(level, ops.len());
        let ns = ns_per_call(budget, || {
            let mut t = PeTracer::new(&cfg);
            black_box(pipeline::record(&mut t, black_box(ops)));
            black_box(t.counters.sent);
        });
        out.push((name, ns / ops.len() as f64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_malformed_frame_gets_its_typed_rejection() {
        for (bytes, cap, is_expected) in malformed(&[7u8; 64]) {
            let got = frame::read_frame(&mut Cursor::new(&bytes), cap);
            assert!(matches!(&got, Err(e) if is_expected(e)), "{got:?}");
        }
    }

    #[test]
    fn isolated_loops_report_finite_positive_numbers_once_each() {
        let vals = isolated(3, Duration::from_millis(2));
        let mut names: Vec<&str> = vals.iter().map(|(n, _)| *n).collect();
        assert!(
            vals.iter().all(|(_, v)| v.is_finite() && *v > 0.0),
            "{vals:?}"
        );
        assert!(vals.contains(&("frame.rejects", 5.0)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), vals.len());
    }
}
