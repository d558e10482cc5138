//! The counter table: each count a trace record carries is declared once,
//! as a row giving its field, type, merge rule ([`Merge`]), artifact key
//! (the field name unless the row names another) and doc. From a record's
//! rows `counters!` generates the struct itself, so it is complete by
//! construction, and with it `NAMES`/`ROWS`, the wire words
//! (`to_words`/`from_words`: a `u64` a row, an `f64` as its bits), `merge`
//! and the artifact fields (`write_fields`/`read_fields`, ` key=value` in
//! row order). Three records are declared here: [`PePerf`], the scalar rows
//! of [`MetricFrame`] and [`SummaryBin`]. **A new count is one row.**
//!
//! Pinned from outside: the benchmark crate under `benchmark/` builds
//! against this crate by path and reads `PePerf` and `MetricFrame` fields
//! by name (`bytes_remote` included); those names stay.

use std::ops::Add;

use crate::hist::Hist;
use crate::telemetry::TopItem;
use crate::text::{push_dec, push_fixed};

/// How two records' values of one row combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Add: a count or a time total.
    Sum,
    /// Keep the larger: a peak or a latest clock.
    Max,
    /// Keep the smaller.
    Min,
    /// Keep the receiving record's value: the row names the record (a PE
    /// number, a sweep sequence) instead of counting something.
    Same,
}

/// One row of a record's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The field name.
    pub name: &'static str,
    /// The artifact key.
    pub key: &'static str,
    /// How the row merges.
    pub merge: Merge,
    /// The row is an `f64` (its word is the float's bits).
    pub float: bool,
}

/// A word vector whose length is not its record's row count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrongLen {
    /// The record's row count.
    pub expected: usize,
    /// The vector's length.
    pub found: usize,
}

/// The tokens of one artifact line: its runs of bytes between blanks. A
/// blank is ASCII whitespace as `u8::is_ascii_whitespace` defines it
/// (space, tab, line feed, form feed, carriage return), the one set the
/// artifact readers split on and [`push_token`] folds, so a token a writer
/// emits is one token when read back. Any other byte, Unicode spaces
/// included, is part of a token.
pub fn tokens(line: &str) -> std::str::SplitAsciiWhitespace<'_> {
    line.split_ascii_whitespace()
}

/// Append `text` as one token: each blank (see [`tokens`]) becomes `_`.
pub fn push_token(out: &mut String, mut text: &str) {
    // Blanks are ASCII, so the cuts around one are char boundaries.
    while let Some(i) = text.bytes().position(|b| b.is_ascii_whitespace()) {
        out.push_str(&text[..i]);
        out.push('_');
        text = &text[i + 1..];
    }
    out.push_str(text);
}

/// The value of a `key=value` token, or an error naming what was expected.
pub fn field<'a>(tok: &'a str, key: &str) -> Result<&'a str, String> {
    // Keys hold no `=`, so this is the text after the first one.
    match tok.strip_prefix(key).and_then(|v| v.strip_prefix('=')) {
        Some(v) => Ok(v),
        None => Err(format!("expected `{key}=...`, got `{tok}`")),
    }
}

/// A decimal integer: exactly what `u64::from_str` accepts (an optional
/// `+`, then ASCII digits, no overflow), read without its generic path.
pub fn dec(s: &str) -> Option<u64> {
    let digits = s.strip_prefix('+').unwrap_or(s).as_bytes();
    if digits.is_empty() {
        return None;
    }
    let digit = |b: u8| {
        Some(b.wrapping_sub(b'0'))
            .filter(|&d| d <= 9)
            .map(u64::from)
    };
    // Nineteen digits stay below `u64::MAX`: no overflow test needed.
    if digits.len() <= 19 {
        digits.iter().try_fold(0, |n, &b| Some(n * 10 + digit(b)?))
    } else {
        digits
            .iter()
            .try_fold(0u64, |n, &b| n.checked_mul(10)?.checked_add(digit(b)?))
    }
}

/// The number at `*at` of `bytes` as the writers spell one: 1..=19 ASCII
/// digits (below `10^19`, so no overflow check), whose value is what
/// [`dec`] reads from them; `*at` moves past them. `None` for any other
/// spelling.
#[inline]
pub fn written_dec(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let start = *at;
    let mut n = 0u64;
    while let Some(&b) = bytes.get(*at) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        n = n.wrapping_mul(10).wrapping_add(u64::from(d));
        *at += 1;
    }
    (1..=19).contains(&(*at - start)).then_some(n)
}

/// The integer in a `key=value` token.
pub fn num<T: TryFrom<u64>>(tok: &str, key: &str) -> Result<T, String> {
    dec(field(tok, key)?)
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("bad numeric field `{tok}`"))
}

/// A row's value type: its wire word and its artifact text.
trait Word: Copy + PartialOrd + Add<Output = Self> {
    /// The word is an `f64`'s bits.
    const FLOAT: bool;
    fn to_word(self) -> u64;
    fn from_word(w: u64) -> Self;
    fn put(self, out: &mut String);
    fn parse(tok: &str, key: &str) -> Result<Self, String>;
    /// The value at `*at` as `put` spells it, or `None` (see
    /// `read_written`).
    fn written(bytes: &[u8], at: &mut usize) -> Option<Self>;
}

/// Fold `b` into `a` by `rule`.
fn merge<T: Word>(a: &mut T, b: T, rule: Merge) {
    match rule {
        Merge::Sum => *a = *a + b,
        Merge::Max if b > *a => *a = b,
        Merge::Min if b < *a => *a = b,
        _ => {}
    }
}

macro_rules! int_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const FLOAT: bool = false;
            fn to_word(self) -> u64 {
                self as u64
            }
            fn from_word(w: u64) -> $t {
                w as $t
            }
            fn put(self, out: &mut String) {
                push_dec(out, self as u64);
            }
            fn parse(tok: &str, key: &str) -> Result<$t, String> {
                num(tok, key)
            }
            fn written(bytes: &[u8], at: &mut usize) -> Option<$t> {
                written_dec(bytes, at)?.try_into().ok()
            }
        }
    )*};
}
int_word!(u64, usize);

impl Word for f64 {
    const FLOAT: bool = true;
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    fn from_word(w: u64) -> f64 {
        f64::from_bits(w)
    }
    /// Six decimals: a utilization moment needs no more.
    fn put(self, out: &mut String) {
        push_fixed(out, self, 6);
    }
    /// Must be finite: `NaN` and `inf` parse as `f64` but would poison
    /// every average a report derives from them.
    fn parse(tok: &str, key: &str) -> Result<f64, String> {
        match field(tok, key)?.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            Ok(_) => Err(format!("non-finite field `{tok}`")),
            Err(_) => Err(format!("bad numeric field `{tok}`")),
        }
    }
    /// Digits, `.`, digits, 19 digits at most in all, forming an integer
    /// `m <= 2^53`: then `m / 10^k` is one correctly rounded division of
    /// two exact doubles, which is what `str::parse` returns (Clinger's
    /// fast path).
    fn written(bytes: &[u8], at: &mut usize) -> Option<f64> {
        let start = *at;
        let int = written_dec(bytes, at)?;
        (bytes.get(*at) == Some(&b'.')).then(|| *at += 1)?;
        let point = *at;
        let frac = written_dec(bytes, at)?;
        if *at - start > 20 {
            return None;
        }
        // Nineteen digits in all: `m` stays below `10^19`.
        let scale = 10u64.pow((*at - point) as u32);
        let m = int * scale + frac;
        (m <= 1 << 53).then(|| m as f64 / scale as f64)
    }
}

/// A row's artifact key: the field name, or the row's own key.
macro_rules! row_key {
    ($f:ident) => {
        stringify!($f)
    };
    ($f:ident, $key:literal) => {
        $key
    };
}

/// Declare a record: `/// doc` then `field: type = Rule;` (or
/// `= Rule, "key";`) a row. Fields in an optional `rest(hook) { .. }` are
/// not rows: `from_words`/`read_fields` leave them at their defaults, and
/// `merge` hands them to the record's method `hook`.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$doc:meta])* $f:ident: $t:ty = $rule:ident $(, $key:literal)?; )*
        }
        $( rest($hook:ident) { $( $(#[$rdoc:meta])* $rf:ident: $rt:ty, )* } )?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$doc])* pub $f: $t, )*
            $($( $(#[$rdoc])* pub $rf: $rt, )*)?
        }

        impl $name {
            /// Row count: the length of the record's word vector.
            pub const LEN: usize = [$(stringify!($f)),*].len();

            /// Field names, in row order.
            pub const NAMES: [&'static str; Self::LEN] = [$(stringify!($f)),*];

            /// The rows, in order.
            pub const ROWS: [Row; Self::LEN] = [$(Row {
                name: stringify!($f),
                key: row_key!($f $(, $key)?),
                merge: Merge::$rule,
                float: <$t as Word>::FLOAT,
            }),*];

            /// The rows as wire words, in row order (an `f64` as its bits).
            pub fn to_words(&self) -> Vec<u64> {
                vec![$(Word::to_word(self.$f)),*]
            }

            /// The record from its wire words: exactly [`Self::LEN`] of them.
            pub fn from_words(words: &[u64]) -> Result<Self, WrongLen> {
                let [$($f),*] = <[u64; Self::LEN]>::try_from(words).map_err(|_| WrongLen {
                    expected: Self::LEN,
                    found: words.len(),
                })?;
                Ok($name {
                    $($f: Word::from_word($f),)*
                    $($($rf: Default::default(),)*)?
                })
            }

            /// Fold `other` into `self`, each row by its merge rule.
            pub fn merge(&mut self, other: &$name) {
                $(merge(&mut self.$f, other.$f, Merge::$rule);)*
                $(self.$hook(other);)?
            }

            /// Append every row as ` key=value`, in row order.
            pub fn write_fields(&self, out: &mut String) {
                $(
                    out.push(' ');
                    out.push_str(row_key!($f $(, $key)?));
                    out.push('=');
                    Word::put(self.$f, out);
                )*
            }

            /// The record from the rest of a line written by
            /// [`Self::write_fields`] as it spells it: every row as
            /// ` key=value`, in order, one space apart, nothing after.
            /// `None` for any other spelling, which [`Self::read_fields`]
            /// then reads as before; on a spelling both accept the two
            /// give the same record.
            pub fn read_written(line: &[u8]) -> Option<Self> {
                let mut at = 0;
                $(
                    let key = concat!(" ", row_key!($f $(, $key)?), "=").as_bytes();
                    line[at..].starts_with(key).then(|| at += key.len())?;
                    let $f = <$t as Word>::written(line, &mut at)?;
                )*
                (at == line.len()).then(|| $name {
                    $($f,)*
                    $($($rf: Default::default(),)*)?
                })
            }

            /// Read the rows from the next `key=value` tokens; the error
            /// names the first one that is missing, misnamed or malformed.
            pub fn read_fields<'a>(
                tokens: &mut impl Iterator<Item = &'a str>,
            ) -> Result<Self, String> {
                Ok($name {
                    $($f: Word::parse(tokens.next().unwrap_or(""), row_key!($f $(, $key)?))?,)*
                    $($($rf: Default::default(),)*)?
                })
            }
        }
    };
}

counters! {
    /// Cheap per-PE performance counters — always present in `RunReport`,
    /// whatever the trace level. Merged across PEs, each row follows its
    /// rule: the merged `pe` is the first record's, `wall_ns` the longest.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct PePerf {
        /// Which PE this block describes.
        pe: usize = Same;
        /// Scheduler lifetime in ns (virtual time under the sim backend).
        wall_ns: u64 = Max;
        /// Entry-method / coroutine execution time.
        busy_ns: u64 = Sum;
        /// Time spent waiting for work.
        idle_ns: u64 = Sum;
        /// Runtime bookkeeping, codec work, and unattributed scheduler time.
        overhead_ns: u64 = Sum;
        /// QD-counted envelopes emitted.
        msgs_sent: u64 = Sum;
        /// QD-counted envelopes handled.
        msgs_processed: u64 = Sum;
        /// Cross-PE envelopes emitted (trace-level ≥ counters).
        sent_remote: u64 = Sum;
        /// Same-PE envelopes emitted (trace-level ≥ counters).
        sent_local: u64 = Sum;
        /// Bytes shipped to other PEs.
        bytes_sent_remote: u64 = Sum;
        /// Bytes of same-PE sends (delivered by reference).
        bytes_sent_local: u64 = Sum;
        /// Bytes received by this scheduler.
        bytes_recv: u64 = Sum;
        /// Bytes produced by this PE's wire-encode pool.
        bytes_encoded: u64 = Sum;
        /// Entry-method activations.
        entries: u64 = Sum;
        /// Chares migrated away.
        migrations: u64 = Sum;
        /// Messages buffered behind a when-guard.
        guard_buffered: u64 = Sum;
        /// Buffered messages later drained.
        guard_drained: u64 = Sum;
        /// Reduction contributions.
        red_contributes: u64 = Sum;
        /// Reductions delivered at a root here.
        red_delivers: u64 = Sum;
        /// Broadcasts relayed down the spanning tree.
        bcast_relays: u64 = Sum;
        /// Checkpoint bytes written.
        ckpt_bytes: u64 = Sum;
        /// Envelopes from a previous recovery epoch discarded by this PE.
        stale_discarded: u64 = Sum;
        /// Aggregation batch frames flushed — physical envelopes, vs. the
        /// logical per-message `sent_remote`/`msgs_sent` counts (which are
        /// unaffected by batching).
        batches_sent: u64 = Sum;
        /// Logical messages carried inside those batches.
        batch_msgs: u64 = Sum;
        /// Encode-scratch takes served from the per-PE envelope slab (the
        /// `EncodePool` freelist) without allocating.
        slab_hits: u64 = Sum;
        /// Encode-scratch takes that had to allocate a fresh buffer.
        slab_misses: u64 = Sum;
        /// Payloads published inline inside the envelope (< 64 B), skipping
        /// the shared allocation entirely.
        inline_payloads: u64 = Sum;
        /// Events overwritten in the full-capture ring.
        events_dropped: u64 = Sum;
        /// Entry messages this PE forwarded through a migration stub (the
        /// chare lived here and moved on). Bounded per chain by the runtime's
        /// forwarding-trail collapse.
        fwd_hops: u64 = Sum;
        /// Peak load-balancing chare-stat records materialized on this PE at
        /// once. A one-level LB tree (group size `npes`) gathers all O(nchares)
        /// on its root; a deeper tree bounds this by the group size.
        lb_peak_stats: u64 = Max;
        /// Load-balancing epochs this PE completed as the LB tree's root
        /// (PE 0; zero elsewhere, so the sum over PEs is the run's count).
        lb_epochs: u64 = Sum;
    }
}

counters! {
    /// One PE's (or, after merging, one subtree's) metrics snapshot. The
    /// scalar rows merge by their rules; the histograms merge bucket-wise
    /// and the top-K list keeps the heaviest `top_cap` (`merge_rest`).
    #[derive(Debug, Clone, Default)]
    pub struct MetricFrame {
        /// Telemetry sweep sequence number.
        seq: u64 = Same;
        /// PEs merged into this frame.
        pes: u64 = Sum;
        /// Latest contributing PE clock (ns) — the sample's time coordinate.
        sampled_at_ns: u64 = Max, "at_ns";
        /// Σ entry-execution nanoseconds (deterministic under charged work).
        busy_ns: u64 = Sum;
        /// Σ idle nanoseconds (wall-derived).
        idle_ns: u64 = Sum;
        /// Σ overhead nanoseconds (wall-derived).
        overhead_ns: u64 = Sum;
        /// Min per-PE utilization (busy/clock) among contributors.
        util_min: f64 = Min;
        /// Max per-PE utilization among contributors.
        util_max: f64 = Max;
        /// Σ utilization — avg is `util_sum / pes`.
        util_sum: f64 = Sum;
        /// Σ utilization² — with `util_sum` this yields the imbalance σ.
        util_sumsq: f64 = Sum;
        /// Σ QD-counted messages emitted.
        msgs_sent: u64 = Sum;
        /// Σ QD-counted messages handled.
        msgs_processed: u64 = Sum;
        /// Σ entry activations.
        entries: u64 = Sum;
        /// Σ bytes shipped cross-PE.
        bytes_remote: u64 = Sum;
        /// Σ messages parked behind when-guards or pending placement.
        queue_depth: u64 = Sum, "queue";
        /// Max per-PE parked-message count among contributors.
        queue_depth_max: u64 = Max, "queue_max";
    }
    rest(merge_rest) {
        /// Merged entry-execution-time histogram.
        exec: Hist,
        /// Merged send→deliver latency histogram (wall-derived).
        latency: Hist,
        /// Hot chares by charged execution time, heaviest first, at most K.
        top: Vec<TopItem>,
        /// The top-K capacity the merge keeps.
        top_cap: usize,
    }
}

counters! {
    /// One wall-clock quantum of a PE's activity.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SummaryBin {
        /// Entry-method execution nanoseconds inside this quantum.
        busy_ns: u64 = Sum;
        /// Idle nanoseconds.
        idle_ns: u64 = Sum;
        /// Runtime-overhead nanoseconds.
        overhead_ns: u64 = Sum;
        /// Entry activations that *ended* in this quantum.
        entries: u64 = Sum;
        /// Messages emitted in this quantum.
        msgs: u64 = Sum;
        /// Payload bytes emitted in this quantum.
        bytes: u64 = Sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dec_accepts_exactly_what_from_str_accepts() {
        let mut cases: Vec<String> = [
            "",
            "+",
            "-",
            "-0",
            "+0",
            "0",
            "00",
            "++1",
            "+-1",
            "1+",
            " 1",
            "1 ",
            "1_0",
            "٣",
            "1e3",
            "0x10",
            "18446744073709551615",
            "18446744073709551616",
            "+18446744073709551615",
            "000000000000000000000018446744073709551615",
            "99999999999999999999",
            "9999999999999999999",
            "10000000000000000000",
        ]
        .map(String::from)
        .to_vec();
        // Every byte in every position of a few numbers.
        for base in ["7", "4096", "18446744073709551615"] {
            for at in 0..=base.len() {
                for b in 0..=127u8 {
                    let mut s = base.as_bytes().to_vec();
                    s.insert(at, b);
                    cases.push(String::from_utf8(s).unwrap());
                }
            }
        }
        for v in [u64::MAX, u64::MAX / 10, 1 << 63, 10u64.pow(19)] {
            for d in 0..20 {
                cases.push((v - d).to_string());
                cases.push(format!("+{}", v - d));
            }
        }
        for s in &cases {
            assert_eq!(dec(s), s.parse::<u64>().ok(), "{s:?}");
        }
        assert_eq!(
            num::<u32>("b=4294967296", "b"),
            Err("bad numeric field `b=4294967296`".into())
        );
        assert_eq!(num::<u32>("b=+42", "b"), Ok(42));
    }
}
