//! Every prefix and one single-byte substitution at every ASCII position of
//! the committed artifact pins, fed to the parsers that read them, with one
//! FNV-1a digest over the outcomes. An outcome is "accepted" or the exact
//! error text, so a parser that starts accepting what it refused, refusing
//! what it accepted, or naming a different byte or line moves the digest.
//!
//! The Chrome pin goes through `json::Reader::skip` + `finish`,
//! `json::parse` and `parse_chrome`; the summary artifact through
//! `parse_summary`; the telemetry frames through `parse_telemetry`.
//! Prefixes end at every char boundary. The substituted byte is drawn by a
//! seeded generator from an alphabet of the bytes that mean something to
//! one of the grammars, so every variant is still UTF-8 and the same on
//! every run. (All fifteen bytes at every position would be ~600,000
//! parses, minutes in a debug build.)
//!
//! ```text
//! cargo test -p charm-perf --test pin_variants -- --nocapture
//! ```
//!
//! prints the per-parser counts and digests behind the pinned one.

use charm_perf::{parse_chrome, parse_summary, parse_telemetry};
use charm_trace::fnv::Fnv;
use charm_trace::json::{self, Reader};

const CHROME: &str = include_str!("../../trace/tests/pins/small.chrome.json");
const FRAMES: &str = include_str!("../../trace/tests/pins/small.frames.txt");
const SUMMARY: &str = include_str!("../../trace/tests/pins/small.summary_artifact.txt");

/// Bytes significant to JSON, to the `key=value` text formats, or to a
/// number in either.
const ALPHABET: &[u8] = b"\"\\,:[]{}-.e0 \t=";

const SEED: u64 = 0x5eed_0036;

/// The next byte of [`ALPHABET`] other than `was`, drawn by SplitMix64.
fn draw(state: &mut u64, was: u8) -> u8 {
    loop {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let b = ALPHABET[((z ^ (z >> 31)) % ALPHABET.len() as u64) as usize];
        if b != was {
            return b;
        }
    }
}

type Parser = fn(&str) -> Result<(), String>;

fn skip(text: &str) -> Result<(), String> {
    let mut r = Reader::new(text);
    r.skip()?;
    r.finish()
}

fn tree(text: &str) -> Result<(), String> {
    json::parse(text).map(drop)
}

fn chrome(text: &str) -> Result<(), String> {
    parse_chrome(text).map(drop)
}

fn summary(text: &str) -> Result<(), String> {
    parse_summary(text).map(drop)
}

fn telemetry(text: &str) -> Result<(), String> {
    parse_telemetry(text).map(drop)
}

/// Outcome counts of one parser over one pin's variants.
#[derive(Debug, Default)]
struct Tally {
    variants: u64,
    accepted: u64,
}

/// Feed `parser` every prefix of `pin` and one drawn substitution at every
/// ASCII position; the digest of the outcomes, in that order.
fn run(name: &str, pin: &str, parser: Parser) -> u64 {
    let mut d = Fnv::new();
    let mut tally = Tally::default();
    let mut eat = |case: u64, outcome: Result<(), String>| {
        tally.variants += 1;
        d.eat_u64(case);
        match outcome {
            Ok(()) => {
                tally.accepted += 1;
                d.eat_str("accepted");
            }
            Err(e) => d.eat_str(&e),
        }
    };
    for cut in (0..=pin.len()).filter(|&i| pin.is_char_boundary(i)) {
        eat(cut as u64, parser(&pin[..cut]));
    }
    let mut seed = SEED;
    let mut bytes = pin.as_bytes().to_vec();
    for at in 0..bytes.len() {
        let was = bytes[at];
        if !was.is_ascii() {
            continue;
        }
        let b = draw(&mut seed, was);
        bytes[at] = b;
        let text = std::str::from_utf8(&bytes).expect("an ASCII byte for an ASCII byte");
        eat((at as u64) << 8 | u64::from(b), parser(text));
        bytes[at] = was;
    }
    let digest = d.finish();
    println!("{name}: {tally:?}, digest {digest:#018x}");
    digest
}

#[test]
fn every_prefix_and_a_substitution_at_every_position_of_the_pins_has_a_pinned_outcome() {
    let cases: [(&str, &str, Parser); 5] = [
        ("chrome/skip", CHROME, skip),
        ("chrome/tree", CHROME, tree),
        ("chrome/parse_chrome", CHROME, chrome),
        ("summary/parse_summary", SUMMARY, summary),
        ("frames/parse_telemetry", FRAMES, telemetry),
    ];
    // A thread a parser; the pinned digest folds theirs in a fixed order.
    let digests: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = cases
            .iter()
            .map(|&(name, pin, parser)| s.spawn(move || run(name, pin, parser)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no parser panics"))
            .collect()
    });
    let mut d = Fnv::new();
    digests.iter().for_each(|&x| d.eat_u64(x));
    assert_eq!(
        d.finish(),
        0xcda1_1850_cc7e_640a,
        "per parser: {digests:#018x?}"
    );
}
