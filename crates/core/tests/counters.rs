//! The counter table (`charm_trace::counters`) end to end. Every row of
//! every record is set to a distinct non-zero value and must survive the
//! record's wire words under both codecs, its own merge rule, and — for the
//! two records with an artifact line — the exporter and `charm-perf`'s
//! parser. The tests walk `NAMES`/`ROWS`, so a new row is covered with no
//! edit here. Then hostile input against the two decoders the table feeds:
//! a `TelemetryFrame` envelope and `PePerf::from_words`, under a counting
//! allocator.

#[path = "../../trace/tests/common/counting_alloc.rs"]
mod counting_alloc;

use charm_core::msg::{EnvKind, Envelope, SweepMsg, TelemetryBody};
use charm_trace::counters::{Merge, Row, WrongLen};
use charm_trace::{MetricFrame, PePerf, PeSummary, PeTrace, SummaryBin, TopItem, TraceReport};
use charm_wire::Codec;
use counting_alloc::measure;

const CODECS: [Codec; 2] = [Codec::Fast, Codec::Pickle];

/// No input here is longer than a few hundred bytes: nothing a decoder
/// allocates on its behalf may come near this.
const ALLOC_BOUND: usize = 64 << 10;

/// Words giving row `i` a distinct non-zero value, `base` apart between
/// the two samples a test merges, except a `Same` row: it names the record,
/// and records that merge agree on it. Floats are quarters, so an
/// artifact's six decimals hold them exactly.
fn words(rows: &[Row], base: u64) -> Vec<u64> {
    (0..rows.len() as u64)
        .map(|i| {
            // Alternate which sample is larger, so each of `Min` and `Max`
            // keeps the other sample's value in one merge order.
            let v = match rows[i as usize].merge {
                Merge::Same => i + 1,
                _ if i % 2 == 0 => base + i + 1,
                _ => 1_000 - base - i,
            };
            if rows[i as usize].float {
                (v as f64 / 4.0).to_bits()
            } else {
                v
            }
        })
        .collect()
}

/// What merging `b` into `a` must give for one row.
fn merged(row: &Row, a: u64, b: u64) -> u64 {
    if row.float {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let v = match row.merge {
            Merge::Sum => x + y,
            Merge::Max => x.max(y),
            Merge::Min => x.min(y),
            Merge::Same => x,
        };
        v.to_bits()
    } else {
        match row.merge {
            Merge::Sum => a + b,
            Merge::Max => a.max(b),
            Merge::Min => a.min(b),
            Merge::Same => a,
        }
    }
}

/// Wire words and merge rule of one record type, row by row.
macro_rules! check_record {
    ($rec:ty) => {{
        let rows = <$rec>::ROWS;
        assert_eq!(<$rec>::NAMES.len(), rows.len());
        for (name, row) in <$rec>::NAMES.iter().zip(&rows) {
            assert_eq!(*name, row.name);
        }
        let (wa, wb) = (words(&rows, 0), words(&rows, 100));
        let a = <$rec>::from_words(&wa).expect("one word a row");
        let b = <$rec>::from_words(&wb).expect("one word a row");
        assert_eq!(a.to_words(), wa, "{}: words round trip", stringify!($rec));
        for codec in CODECS {
            let bytes = codec.encode(&a.to_words());
            let back = <$rec>::from_words(&codec.decode::<Vec<u64>>(&bytes).unwrap()).unwrap();
            assert_eq!(back.to_words(), wa, "{}: {codec:?}", stringify!($rec));
        }
        for (x, y, wx, wy) in [(&a, &b, &wa, &wb), (&b, &a, &wb, &wa)] {
            let mut m = x.clone();
            m.merge(y);
            for (i, (got, row)) in m.to_words().into_iter().zip(&rows).enumerate() {
                let want = merged(row, wx[i], wy[i]);
                assert_eq!(
                    got,
                    want,
                    "{}::{} ({:?})",
                    stringify!($rec),
                    row.name,
                    row.merge
                );
            }
        }
        (a, b)
    }};
}

#[test]
fn every_row_survives_its_wire_words_and_its_merge_rule() {
    check_record!(PePerf);
    check_record!(SummaryBin);
    let (mut a, b) = check_record!(MetricFrame);
    // The frame's rest merges beside the rows.
    a.exec.record(7);
    a.merge(&b);
    assert_eq!(a.exec.count(), 1);
}

#[test]
fn every_row_of_the_artifact_records_survives_export_and_parse() {
    let (frame, _) = check_record!(MetricFrame);
    let text = charm_trace::frames_artifact(std::slice::from_ref(&frame));
    for row in MetricFrame::ROWS {
        assert!(text.contains(&format!(" {}=", row.key)), "{}", row.name);
    }
    let parsed = charm_perf::parse_telemetry(&text).expect("the artifact parses");
    assert_eq!(parsed.len(), 1);
    assert_eq!(parsed[0].to_words(), frame.to_words());

    let (bin, other) = check_record!(SummaryBin);
    let report = TraceReport {
        pes: vec![PeTrace {
            summary: Some(PeSummary {
                quantum_ns: 1_000,
                merges: 0,
                bins: vec![bin, other],
            }),
            ..PeTrace::default()
        }],
    };
    let parsed = charm_perf::parse_summary(&report.summary_artifact()).expect("parses");
    let back: Vec<Vec<u64>> = parsed[0].bins.iter().map(SummaryBin::to_words).collect();
    assert_eq!(back, [bin.to_words(), other.to_words()]);
}

/// A telemetry envelope with every row, both histograms and the top-K
/// list populated.
fn telemetry_envelope() -> Envelope {
    let mut frame = MetricFrame::from_words(&words(&MetricFrame::ROWS, 0)).unwrap();
    for v in [3, 40, 40, 90] {
        frame.exec.record(v);
    }
    frame.latency.record_n(900, 4);
    frame.top = ["Ring[3]", "Ring[0]"]
        .iter()
        .map(|l| TopItem {
            label: l.to_string(),
            weight: 77,
            err: 1,
        })
        .collect();
    frame.top_cap = 8;
    let mut env = Envelope::new(
        2,
        EnvKind::Sweep(SweepMsg::TelemetryFrame {
            seq: 5,
            frame: TelemetryBody(Box::new(frame)),
        }),
    );
    env.epoch = 1;
    env
}

/// Decode `bytes`: an error is fine (`Envelope::decode` returns a typed
/// `WireError`). A value must be a fixed point of the codec: its encoding
/// decodes to a value with the same encoding. (Not always `bytes` itself:
/// both layouts read an overlong varint, and the self-describing one takes
/// struct and enum names as informational, so a corrupted byte there
/// decodes to a value that re-encodes canonically.) Nothing may panic or
/// hold more than [`ALLOC_BOUND`] at once.
fn judge(codec: Codec, bytes: &[u8], what: &str) {
    let (result, heap) = measure(|| codec.decode::<Envelope>(bytes));
    assert!(heap.peak < ALLOC_BOUND, "{codec:?} {what}: {heap:?}");
    if let Ok(env) = result {
        let again = codec.encode(&env);
        let back: Envelope = codec.decode(&again).expect(what);
        assert_eq!(codec.encode(&back), again, "{codec:?} {what}");
    }
}

#[test]
fn a_telemetry_envelope_cut_or_corrupted_is_an_error_or_a_value() {
    let env = telemetry_envelope();
    for codec in CODECS {
        let bytes = codec.encode(&env);
        assert_eq!(
            codec.encode(&codec.decode::<Envelope>(&bytes).unwrap()),
            bytes
        );
        for cut in 0..bytes.len() {
            let (result, heap) = measure(|| codec.decode::<Envelope>(&bytes[..cut]));
            assert!(heap.peak < ALLOC_BOUND, "{codec:?} cut {cut}: {heap:?}");
            assert!(result.is_err(), "{codec:?} cut {cut} decodes");
        }
        for at in 0..bytes.len() {
            for v in 0..=u8::MAX {
                let mut bad = bytes.clone();
                bad[at] = v;
                judge(codec, &bad, &format!("byte {at} = {v:#04x}"));
            }
        }
    }
}

#[test]
fn pe_perf_words_of_any_other_length_are_refused() {
    let good = words(&PePerf::ROWS, 0);
    let expected = PePerf::LEN;
    for found in 0..=2 * expected + 1 {
        let w: Vec<u64> = (0..found).map(|i| good[i % expected]).collect();
        let (result, heap) = measure(|| PePerf::from_words(&w));
        assert!(heap.peak < ALLOC_BOUND);
        match result {
            Ok(perf) => {
                assert_eq!(found, expected);
                assert_eq!(perf.to_words(), w);
            }
            Err(e) => assert_eq!(e, WrongLen { expected, found }),
        }
    }
    // The same words through a codec, cut anywhere: a typed error at one
    // layer or the other.
    for codec in CODECS {
        let bytes = codec.encode(&good);
        for cut in 0..bytes.len() {
            let (words, heap) = measure(|| codec.decode::<Vec<u64>>(&bytes[..cut]));
            assert!(heap.peak < ALLOC_BOUND);
            if let Ok(w) = words {
                assert!(PePerf::from_words(&w).is_err(), "{codec:?} cut {cut}");
            }
        }
    }
}
