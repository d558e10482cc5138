//! Hostile input against the analyzer's three decoders (and `json::parse`
//! under them): every malformed text ends in an `Err`, never a panic, a
//! stack overflow or an allocation the input has not paid for. Same method
//! as `crates/wire/tests/hostile.rs`: truncate real artifacts at every
//! offset, then lie in the fields that size or count something, all under
//! an allocator that watches this thread's peak.

#[path = "../../trace/tests/common/counting_alloc.rs"]
mod counting_alloc;
#[path = "../../trace/tests/common/synthetic.rs"]
mod synthetic;

use charm_perf::{parse_chrome, parse_summary, parse_telemetry};
use charm_trace::json;
use counting_alloc::measure;

/// What a decoder may hold at its peak for an input of `len` bytes: a
/// small multiple of the text plus room for its fixed-size first
/// allocations. (The tree `json::parse` builds is the hungriest: 32 bytes
/// a `Value`, in vectors that double.)
fn heap_bound(len: usize) -> usize {
    64 * len + 4096
}

/// Run `decode` on `text` and on every prefix of it, under the watching
/// allocator. Nothing may panic or outgrow [`heap_bound`]; returns the
/// cuts (byte lengths below `text.len()`) that decoded without error, for
/// the caller to judge.
fn attack<T>(text: &str, decode: impl Fn(&str) -> Result<T, String>) -> Vec<usize> {
    let mut accepted = Vec::new();
    for cut in (0..=text.len()).filter(|&c| text.is_char_boundary(c)) {
        let input = &text[..cut];
        let (result, heap) = measure(|| decode(input).is_ok());
        assert!(
            heap.peak <= heap_bound(cut),
            "cut {cut}: peak {} bytes for {cut} of input",
            heap.peak
        );
        if cut == text.len() {
            assert!(result, "the whole artifact decodes");
        } else if result {
            accepted.push(cut);
        }
    }
    accepted
}

/// One lying input: it must be refused (`Err`) or, where the lie is one a
/// decoder cannot see, accepted; either way inside `bound` bytes of heap.
fn lie<T>(
    input: &str,
    bound: usize,
    decode: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    let (result, heap) = measure(|| decode(input));
    assert!(
        heap.peak <= bound,
        "peak {} bytes for {} of input: {:.60}",
        heap.peak,
        input.len(),
        input
    );
    result
}

/// `text` with the value of the first ` key=` (or line-leading `key=`)
/// replaced by `value`.
fn with_field(text: &str, key: &str, value: &str) -> String {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("{key} is in the artifact"))
        + key.len();
    let end = at
        + text[at..]
            .find([' ', '\n'])
            .expect("a field ends its token");
    format!("{}{value}{}", &text[..at], &text[end..])
}

/// The generator's telemetry series on the default grid only. A window
/// spans what its samples span: on the finest grid a few wide-ranging
/// samples legitimately open hundreds of KiB (the last test below prices
/// that), which would drown the bound the other attacks are held to.
fn telemetry_text() -> String {
    let frames: Vec<_> = synthetic::frames(0x5eed, 7)
        .into_iter()
        .filter(|f| f.exec.sub_bits() == 5)
        .collect();
    assert_eq!(frames.len(), 3);
    charm_trace::frames_artifact(&frames)
}

/// The line after a cut at a line boundary (`None` at the end of `text`).
fn next_line(text: &str, cut: usize) -> Option<&str> {
    text[cut..].lines().next()
}

#[test]
fn chrome_truncated_anywhere_is_an_error() {
    let text = synthetic::report(0x5eed, 24).chrome_json();
    // Only the final newline may go unnoticed.
    assert_eq!(attack(&text, parse_chrome), [text.len() - 1]);
    assert_eq!(attack(&text, json::parse), [text.len() - 1]);
}

#[test]
fn summary_truncated_at_a_line_boundary_inside_a_block_is_an_error() {
    let text = synthetic::report(0x5eed, 24).summary_artifact();
    let accepted = attack(&text, parse_summary);
    // The format has no trailer, so a prefix that ends on a whole block is
    // an artifact in its own right, and a cut inside a line's last number
    // only shortens the number. What must not pass is a cut that drops
    // lines a header promised.
    for cut in (1..text.len()).filter(|&c| text.as_bytes()[c - 1] == b'\n') {
        let whole_blocks = next_line(&text, cut).is_some_and(|l| l.starts_with("pe "));
        assert_eq!(accepted.contains(&cut), whole_blocks, "cut {cut}");
    }
    assert!(
        accepted.len() < text.len() / 20,
        "{} cuts accepted",
        accepted.len()
    );
}

#[test]
fn telemetry_truncated_before_a_frame_has_both_hists_is_an_error() {
    let text = telemetry_text();
    let accepted = attack(&text, parse_telemetry);
    // As for the summary: whole frames (both `hist` lines present, any
    // number of `top` lines) are an artifact; anything less is not.
    for cut in (1..text.len()).filter(|&c| text.as_bytes()[c - 1] == b'\n') {
        let whole_frames =
            next_line(&text, cut).is_some_and(|l| l.starts_with("frame ") || l.starts_with("top "));
        assert_eq!(accepted.contains(&cut), whole_frames, "cut {cut}");
    }
    // Mid-line cuts pass only inside the second `hist` line (a shorter
    // bucket list) or a `top` line's last number; the magic line alone is
    // an artifact of no frames.
    for &cut in &accepted {
        let line = text[..cut].lines().last().unwrap_or("");
        assert!(
            ["hist latency ", "top ", "charm-telemetry v1"]
                .iter()
                .any(|head| line.starts_with(head)),
            "cut {cut} accepted inside {line:.40?}"
        );
    }
}

#[test]
fn json_nesting_and_numbers_cannot_hurt_the_reader() {
    let small = heap_bound(0);
    // Two million brackets: parent recursion overflowed the stack here.
    let deep = "[".repeat(2_000_000);
    assert!(lie(&deep, small, json::parse)
        .unwrap_err()
        .contains("nesting"));
    assert!(lie(&deep, small, parse_chrome).is_err());
    // The same inside values `parse_chrome` reads past.
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let nest = open.repeat(200) + "1" + &close.repeat(200);
        let skipped = format!("[{{\"ph\":\"i\",\"extra\":{nest}}}]");
        assert!(lie(&skipped, small, parse_chrome)
            .unwrap_err()
            .contains("nesting"));
        let args = format!("[{{\"ph\":\"i\",\"args\":{nest}}}]");
        assert!(lie(&args, small, parse_chrome)
            .unwrap_err()
            .contains("nesting"));
        let just_fits = open.repeat(126) + "1" + &close.repeat(126);
        let ok = format!("[{{\"ph\":\"i\",\"extra\":{just_fits}}}]");
        assert!(lie(&ok, small, parse_chrome).is_ok());
    }
    for bad in ["01", "1.", "1.e5", "-01.5", "-", "1e", "1e400"] {
        assert!(lie(bad, small, json::parse).is_err(), "{bad}");
        for member in ["dur", "ts", "extra"] {
            let doc = format!("[{{\"ph\":\"X\",\"{member}\":{bad}}}]");
            assert!(lie(&doc, small, parse_chrome).is_err(), "{doc}");
        }
    }
    for good in ["-0", "1e-400"] {
        assert!(lie(good, small, json::parse).is_ok(), "{good}");
    }
}

#[test]
fn chrome_track_ids_and_drop_counts_must_be_whole_numbers_an_f64_holds() {
    let small = heap_bound(0);
    // The parent cast these: -1.5 joined track 0, 1e300 became u64::MAX.
    for bad in [
        "-1",
        "-1.5",
        "0.5",
        "1e300",
        "9007199254740994",
        "1.7976931348623157e308",
    ] {
        let doc = format!("[{{\"ph\":\"X\",\"tid\":{bad}}}]");
        let err = lie(&doc, small, parse_chrome).expect_err(&doc);
        assert_eq!(
            err, "`tid` at byte 17 is not a whole number in 0..=2^53",
            "{doc}"
        );
        let doc = format!(
            "[{{\"ph\":\"M\",\"name\":\"charm_stats\",\"args\":{{\"events_dropped\":{bad}}}}}]"
        );
        let err = lie(&doc, small, parse_chrome).expect_err(&doc);
        assert_eq!(
            err, "`events_dropped` at byte 57 is not a whole number in 0..=2^53",
            "{doc}"
        );
    }
    for (good, tid) in [
        ("-0", 0),
        ("2.0", 2),
        ("3e2", 300),
        ("9007199254740992", 1 << 53),
    ] {
        let doc = format!(
            "[{{\"ph\":\"M\",\"name\":\"charm_stats\",\"tid\":{good},\"args\":{{\"events_dropped\":{good}}}}}]"
        );
        let p = lie(&doc, small, parse_chrome).expect(&doc);
        assert_eq!((p.tracks[0].tid, p.tracks[0].events_dropped), (tid, tid));
    }
}

#[test]
fn summary_lengths_that_lie_size_nothing() {
    let text = synthetic::report(0x5eed, 24).summary_artifact();
    let bound = heap_bound(text.len());
    assert!(text.contains(" bins=3 "), "the generator's first block");
    for claim in ["18446744073709551615", "4", "2", "0"] {
        let lying = with_field(&text, " bins=", claim);
        let err = lie(&lying, bound, parse_summary).expect_err(claim);
        assert!(err.contains("bin"), "{claim}: {err}");
    }
    for (key, value) in [
        (" bins=", "18446744073709551616"),
        (" bins=", "-1"),
        (" wall_ns=", "1e3"),
        ("\nbin ", "18446744073709551615"),
    ] {
        let lying = with_field(&text, key, value);
        assert!(lie(&lying, bound, parse_summary).is_err(), "{key}{value}");
    }
    // The parent reserved for the header's word before reading a bin.
    let alone = "charm-summary v1\npe 0 wall_ns=1 quantum_ns=1 merges=0 bins=18446744073709551615 \
                 busy_ns=0 idle_ns=0 overhead_ns=0\n";
    assert!(lie(alone, heap_bound(alone.len()), parse_summary).is_err());
}

#[test]
fn telemetry_counts_that_lie_saturate_and_size_nothing() {
    let text = telemetry_text();
    let bound = heap_bound(text.len());
    // A count of u64::MAX and one more in the same bucket: the parent
    // overflowed `total` here (a panic in debug, a wrap in release).
    let lying = text.replacen(
        "hist exec sub_bits=5",
        "hist exec sub_bits=5 0:18446744073709551615 0:1",
        1,
    );
    let frames = lie(&lying, bound, parse_telemetry).expect("saturates");
    assert_eq!(frames[0].exec.count(), u64::MAX);
    for (key, value) in [
        (" sub_bits=", "4294967296"),
        (" pes=", "-1"),
        (" util_min=", "NaN"),
        (" util_max=", "inf"),
        (" util_sum=", "-infinity"),
        (" util_sumsq=", "1e999"),
        (" weight=", "18446744073709551616"),
    ] {
        let lying = with_field(&text, key, value);
        assert!(lie(&lying, bound, parse_telemetry).is_err(), "{key}{value}");
    }
    // A `hist` line allocates for the buckets it lists, not for its grid:
    // the finest one was 450 KiB a line when histograms were dense.
    let head = "charm-telemetry v1\nframe seq=0 pes=1 at_ns=0 busy_ns=0 idle_ns=0 overhead_ns=0 \
                util_min=0 util_max=0 util_sum=0 util_sumsq=0 msgs_sent=0 msgs_processed=0 \
                entries=0 bytes_remote=0 queue=0 queue_max=0\n";
    let empty = format!("{head}hist exec sub_bits=10\nhist latency sub_bits=4294967295\n");
    assert!(lie(&empty, heap_bound(empty.len()), parse_telemetry).is_ok());
    // What a line can still buy is the span between the buckets it names:
    // two of them at the ends of the finest grid open the whole window,
    // 8 bytes a bucket, and no more than that.
    let ends = format!(
        "{head}hist exec sub_bits=10 0:1 18446744073709551615:1\nhist latency sub_bits=10\n"
    );
    let grid_bytes = 8 * ((64 - 10 + 1) << 10);
    assert!(lie(
        &ends,
        heap_bound(ends.len()) + 2 * grid_bytes,
        parse_telemetry
    )
    .is_ok());
}
