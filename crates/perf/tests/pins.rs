//! Pins: the three report texts over artifacts parsed back from the real
//! exporters, recorded before the data-plane rewrite (pull JSON reader,
//! windowed histograms) and required to survive it byte for byte. The
//! small artifacts are `charm-trace`'s own pinned exporter outputs; the
//! large ones come from the same seeded generator and are pinned by length
//! and FNV-1a, with the parsed floats pinned bit for bit (sums must stay in
//! document order).

#[path = "../../trace/tests/common/synthetic.rs"]
mod synthetic;

use charm_perf::{
    chrome_report, parse_chrome, parse_summary, parse_telemetry, summary_report, telemetry_report,
};
use charm_trace::fnv::Fnv;
use synthetic::fnv;

#[test]
fn small_artifacts_report_byte_exact() {
    let profile = parse_chrome(include_str!("../../trace/tests/pins/small.chrome.json"))
        .expect("pinned Chrome text parses");
    assert_eq!(
        chrome_report(&profile, 10),
        include_str!("pins/small.chrome_report.txt")
    );
    let pes = parse_summary(include_str!(
        "../../trace/tests/pins/small.summary_artifact.txt"
    ))
    .expect("pinned summary artifact parses");
    assert_eq!(
        summary_report(&pes),
        include_str!("pins/small.summary_report.txt")
    );
    let frames = parse_telemetry(include_str!("../../trace/tests/pins/small.frames.txt"))
        .expect("pinned telemetry artifact parses");
    assert_eq!(
        telemetry_report(&frames, 3),
        include_str!("pins/small.telemetry_report.txt")
    );
}

#[test]
fn large_artifacts_report_with_the_same_length_fnv_and_float_bits() {
    let rep = synthetic::report(0xb16, 2_000);
    let profile = parse_chrome(&rep.chrome_json()).expect("Chrome text parses");
    let mut bits = Fnv::new();
    for t in &profile.tracks {
        bits.eat_u64(t.tid);
        bits.eat_u64(t.entry_us.to_bits());
        bits.eat_u64(t.idle_us.to_bits());
        bits.eat_u64(t.events_dropped);
        bits.eat_u64(t.slab_hit_rate.to_bits());
    }
    for (name, dur, count) in &profile.entries {
        bits.eat_str(name);
        bits.eat_u64(dur.to_bits());
        bits.eat_u64(*count);
    }
    let pes = parse_summary(&rep.summary_artifact()).expect("summary artifact parses");
    let series = synthetic::frames(0xb16, 40);
    let frames = parse_telemetry(&charm_trace::frames_artifact(&series)).expect("telemetry parses");
    for (got, want) in frames.iter().zip(&series) {
        assert_eq!(got.exec.digest(), want.exec.digest(), "seq {}", want.seq);
        assert_eq!(got.latency.digest(), want.latency.digest());
    }
    let texts = [
        chrome_report(&profile, 10),
        summary_report(&pes),
        telemetry_report(&frames, 10),
    ];
    let got: Vec<(usize, u64)> = texts.iter().map(|t| (t.len(), fnv(t.as_bytes()))).collect();
    assert_eq!((bits.finish(), got), (LARGE_PROFILE_BITS, LARGE.to_vec()));
}

const LARGE_PROFILE_BITS: u64 = 5_156_961_788_108_659_060;
const LARGE: [(usize, u64); 3] = [
    (737, 2_612_117_282_555_065_978),
    (630, 9_369_443_516_820_744_093),
    (4238, 16_548_893_526_221_443_528),
];
