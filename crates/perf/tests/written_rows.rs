//! `parse_chrome` reads a row spelled as the exporter spells it in one pass
//! (`report::written_row`) and every other element with the JSON reader's
//! token calls. The two must not be told apart: on the same document,
//! re-spelled so that every row takes the token path, the profile is the
//! same bit for bit, and so is the outcome (accepted, or the exact error
//! text) of every prefix and of a substitution at every position.
//!
//! ```text
//! cargo test -p charm-perf --test written_rows
//! ```

#[path = "../../trace/tests/common/synthetic.rs"]
mod synthetic;

use charm_perf::{parse_chrome, ChromeProfile};
use charm_trace::report::written_row;

const PIN: &str = include_str!("../../trace/tests/pins/small.chrome.json");

/// A profile's tracks and entries with every float as its bits: equal only
/// if the two walks summed the same values in the same order.
fn bits(p: &ChromeProfile) -> Vec<String> {
    let tracks = p.tracks.iter().map(|t| {
        format!(
            "track {} {:#x} {:#x} {} {:#x}",
            t.tid,
            t.entry_us.to_bits(),
            t.idle_us.to_bits(),
            t.events_dropped,
            t.slab_hit_rate.to_bits()
        )
    });
    let entries = p
        .entries
        .iter()
        .map(|(name, dur, n)| format!("entry {name:?} {:#x} {n}", dur.to_bits()));
    tracks.chain(entries).collect()
}

/// The outcome of `parse_chrome` on `text`: the profile's bits, or the
/// error text.
fn outcome(text: &str) -> Result<Vec<String>, String> {
    parse_chrome(text).map(|p| bits(&p))
}

/// The documents: the committed pin and seeded synthetic reports, whose
/// rows cover every event kind, names that need an escape and times past
/// 2^53 ns (rows the one-pass reader leaves to the token path).
fn documents() -> Vec<String> {
    let mut docs = vec![PIN.to_string()];
    for (seed, events) in [(0x5eed, 24), (0xb16, 400), (7, 2_000)] {
        docs.push(synthetic::report(seed, events).chrome_json());
    }
    docs
}

/// How many elements of `text` the one-pass reader takes.
fn written(text: &str) -> usize {
    text.match_indices("\n{")
        .filter(|&(at, _)| written_row(text, at + 1).is_some())
        .count()
}

/// A space after the `{` that opens each element: the same JSON, which no
/// element's one-pass read accepts.
fn spaced(text: &str) -> String {
    text.replace("\n{", "\n{ ")
}

/// `"pid":2` for `"pid":1`: the same length, so every prefix and every
/// position lines up with the original, and a member `parse_chrome` skips,
/// so the profile is the same; but no row is spelled as written any more.
fn renumbered(text: &str) -> String {
    text.replace("\"pid\":1,", "\"pid\":2,")
}

#[test]
fn respelled_rows_read_through_the_reader_give_the_same_profile() {
    for doc in documents() {
        let rows = written(&doc);
        assert!(
            rows > doc.matches("\n{").count() / 2,
            "{rows} rows read in one pass"
        );
        let want = outcome(&doc).expect("the exporter's text parses");
        for other in [spaced(&doc), renumbered(&doc)] {
            assert_eq!(written(&other), 0, "every row takes the token path");
            assert_eq!(outcome(&other), Ok(want.clone()));
        }
    }
}

#[test]
fn every_prefix_has_the_same_outcome_on_both_paths() {
    for doc in documents().iter().take(2) {
        let other = renumbered(doc);
        for cut in (0..=doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            assert_eq!(outcome(&doc[..cut]), outcome(&other[..cut]), "cut {cut}");
        }
    }
}

#[test]
fn every_substitution_has_the_same_outcome_on_both_paths() {
    // Bytes that mean something to JSON or to a number, drawn in turn.
    const ALPHABET: &[u8] = b"\"\\,:[]{}-.e0 \t9X";
    for doc in documents().iter().take(2) {
        let (mut a, mut b) = (doc.as_bytes().to_vec(), renumbered(doc).into_bytes());
        for at in 0..a.len() {
            let was = (a[at], b[at]);
            if !was.0.is_ascii() {
                continue;
            }
            for &sub in ALPHABET.iter().skip(at % 4).step_by(4) {
                a[at] = sub;
                b[at] = sub;
                let (x, y) = (std::str::from_utf8(&a), std::str::from_utf8(&b));
                let (x, y) = (x.expect("ASCII for ASCII"), y.expect("ASCII for ASCII"));
                assert_eq!(outcome(x), outcome(y), "byte {at} as {:?}", char::from(sub));
            }
            (a[at], b[at]) = was;
        }
    }
}

#[test]
fn times_past_the_one_pass_bound_keep_the_readers_value() {
    // Microseconds whose nanoseconds pass 2^53, or overflow a `u64` only
    // once the fraction is added: the one-pass reader refuses the row, so
    // the duration is the literal's value as the JSON reader reads it.
    let row = |ts: &str, dur: &str| {
        format!("[\n{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{ts},\"dur\":{dur},\"name\":\"e\",\"cat\":\"entry\"}}\n]\n")
    };
    for big in [
        "9007199254740.993",
        "18446744073709551.615",
        "18446744073709551.999",
    ] {
        for (doc, dur) in [(row(big, "1.000"), "1.000"), (row("0.000", big), big)] {
            assert_eq!(written(&doc), 0, "{doc}");
            let want: f64 = dur.parse().expect("a number");
            let p = parse_chrome(&doc).expect("valid JSON");
            assert_eq!(p.tracks[0].entry_us.to_bits(), want.to_bits(), "{doc}");
            assert_eq!(p.entries, vec![("e".to_string(), want, 1)], "{doc}");
            assert_eq!(outcome(&doc), outcome(&spaced(&doc)));
        }
    }
}
