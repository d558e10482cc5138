//! In-band telemetry: mergeable per-PE metric frames and the space-saving
//! top-K sketch that feeds them.
//!
//! A [`MetricFrame`] is one PE's metrics snapshot, shaped so frames merge
//! associatively up a spanning tree: sums for counters, min/max/Σ/Σ² for
//! the utilization moments (enough for max/avg and the imbalance σ at any
//! fan-in), bucket-wise [`Hist`](crate::Hist) merges for the execution-time and
//! message-latency distributions, and a bounded top-K merge for the hot
//! chares. The runtime reduces frames over its PE tree to PE 0 at a
//! quiescence-round cadence; every field is O(1) or O(K) in run length, so
//! a frame costs the same at 4 PEs and 10^5.
//!
//! [`MetricFrame::logical_digest`] fingerprints only the *logical* fields —
//! message/entry counts, queue depths, deterministically-charged work,
//! histogram bucket contents, top-K identities — and excludes wall-clock
//! derived values (idle/overhead, utilization moments, latency, sample
//! clock) plus remote byte counts (control-traffic polling is
//! schedule-dependent). Under the sim backend with metering off, the digest is a pure
//! function of the program, which is what the permuted-schedule and
//! exhaustive-exploration suites assert.

use crate::counters::push_token;
pub use crate::counters::MetricFrame;
use crate::fnv::Fnv;
use crate::text::push_dec;

/// A space-saving heavy-hitters sketch: tracks at most `cap` keys with
/// their (over-)estimated weights. The classic Metwally/Agrawal/El Abbadi
/// guarantee applies: a key's true weight is within `err` of `weight`, and
/// any key with true weight above the minimum tracked weight is present.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K: Ord + Clone> {
    cap: usize,
    items: Vec<(K, u64, u64)>, // (key, weight, err)
}

impl<K: Ord + Clone> SpaceSaving<K> {
    /// Track at most `cap` keys (clamped ≥ 1).
    pub fn new(cap: usize) -> SpaceSaving<K> {
        SpaceSaving {
            cap: cap.max(1),
            items: Vec::new(),
        }
    }

    /// Add `weight` to `key`, evicting the lightest tracked key if the
    /// sketch is full (the newcomer inherits its weight as error bound).
    pub fn observe(&mut self, key: &K, weight: u64) {
        if weight == 0 {
            return;
        }
        if let Some(it) = self.items.iter_mut().find(|(k, ..)| k == key) {
            it.1 += weight;
            return;
        }
        if self.items.len() < self.cap {
            self.items.push((key.clone(), weight, 0));
            return;
        }
        // invariant: cap >= 1 and the sketch is full, so a minimum exists
        let min = self
            .items
            .iter_mut()
            .min_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)))
            .unwrap();
        let floor = min.1;
        *min = (key.clone(), floor + weight, floor);
    }

    /// Tracked keys as `(key, weight, err)`, heaviest first (ties broken
    /// by key order, so the output is deterministic).
    pub fn items(&self) -> Vec<(K, u64, u64)> {
        let mut v = self.items.clone();
        v.sort_by(|a, b| (b.1, &a.0).cmp(&(a.1, &b.0)));
        v
    }
}

/// One labeled heavy hitter inside a [`MetricFrame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopItem {
    /// Display label (chare id rendered at sample time).
    pub label: String,
    /// Estimated weight (charged execution nanoseconds).
    pub weight: u64,
    /// Over-estimation bound inherited from sketch evictions and merges.
    pub err: u64,
}

/// Default number of hot chares a frame carries.
pub const DEFAULT_TOP_K: usize = 8;

/// The top-K order: heavier first, ties by label.
fn heavier(a: &TopItem, b: &TopItem) -> std::cmp::Ordering {
    (b.weight, &a.label).cmp(&(a.weight, &b.label))
}

/// Label equality compared from the last byte: labels are ids whose
/// distinguishing digits come last, so two different ones of one length
/// mostly part at once.
fn same_label(a: &str, b: &str) -> bool {
    a.len() == b.len() && a.bytes().rev().eq(b.bytes().rev())
}

impl MetricFrame {
    /// The generated `merge`'s hook for what is not a row: histograms merge
    /// bucket-wise; top-K items with the same label add, and the heaviest
    /// `top_cap` stay, heaviest first. Labels are unique within a frame (a
    /// sketch tracks each key once), so a label of `other` not found here
    /// is new. The list here is kept sorted throughout: a summed item moves
    /// up into place, and a new one that makes the cut goes in where it
    /// belongs, into the buffer of the entry it pushes out when the list is
    /// full. Nothing allocates but a label longer than the one it replaces,
    /// or one the list had no room for.
    pub(crate) fn merge_rest(&mut self, other: &MetricFrame) {
        debug_assert_eq!(self.seq, other.seq);
        self.exec.merge(&other.exec);
        self.latency.merge(&other.latency);
        let cap = self.top_cap.max(other.top_cap).max(1);
        self.top_cap = cap;
        let top = &mut self.top;
        // Labels are unique, so the order is total and needs no stability.
        if !top.is_sorted_by(|a, b| heavier(a, b).is_lt()) {
            top.sort_unstable_by(heavier);
        }
        // Shared labels add first: an item that would fall below the cut
        // now may yet stay once its other half is added. Bit `i` marks
        // `other.top[i]` as added (the few past 64 are looked up again).
        let mut added = 0u64;
        for (i, it) in other.top.iter().enumerate() {
            if let Some(mut at) = top.iter().position(|t| same_label(&t.label, &it.label)) {
                top[at].weight += it.weight;
                top[at].err += it.err;
                // Heavier now: it moves towards the front.
                while at > 0 && heavier(&top[at], &top[at - 1]).is_lt() {
                    top.swap(at, at - 1);
                    at -= 1;
                }
                added |= 1u64.checked_shl(i as u32).unwrap_or(0);
            }
        }
        top.truncate(cap);
        for (i, it) in other.top.iter().enumerate() {
            // Past bit 63, a label still listed was added above. One added
            // but pushed out since is not heavier than what pushed it out,
            // so the test below drops it again.
            let done = match 1u64.checked_shl(i as u32) {
                Some(bit) => added & bit != 0,
                None => top.iter().any(|t| same_label(&t.label, &it.label)),
            };
            if done || top.len() == cap && heavier(it, &top[cap - 1]).is_ge() {
                continue;
            }
            let at = top.partition_point(|t| heavier(t, it).is_lt());
            if top.len() == cap {
                // The last entry drops out; its buffer takes the new label.
                let out = &mut top[cap - 1];
                out.label.clone_from(&it.label);
                (out.weight, out.err) = (it.weight, it.err);
            } else {
                top.push(it.clone());
            }
            top[at..].rotate_right(1);
        }
    }

    /// Mean per-PE utilization.
    pub fn util_avg(&self) -> f64 {
        if self.pes == 0 {
            0.0
        } else {
            self.util_sum / self.pes as f64
        }
    }

    /// Population standard deviation of per-PE utilization — the load
    /// imbalance number (0 = perfectly balanced).
    pub fn util_sigma(&self) -> f64 {
        if self.pes == 0 {
            return 0.0;
        }
        let n = self.pes as f64;
        let var = (self.util_sumsq / n) - (self.util_sum / n).powi(2);
        var.max(0.0).sqrt()
    }

    /// Fingerprint of the schedule-independent fields only (see the module
    /// docs for what qualifies).
    pub fn logical_digest(&self) -> u64 {
        let mut d = Fnv::new();
        d.eat_u64(self.seq);
        d.eat_u64(self.pes);
        d.eat_u64(self.busy_ns);
        d.eat_u64(self.msgs_sent);
        d.eat_u64(self.msgs_processed);
        d.eat_u64(self.entries);
        // `bytes_remote` is deliberately absent: remote bytes include
        // control traffic (QD probes re-poll until two samples agree), and
        // the number of polling rounds is schedule-dependent even when the
        // application is fully deterministic.
        d.eat_u64(self.queue_depth);
        d.eat_u64(self.queue_depth_max);
        d.eat_u64(self.exec.digest());
        for it in &self.top {
            d.eat_str(&it.label);
            d.eat_u64(it.weight);
        }
        d.finish()
    }
}

/// Render a telemetry time series as a `charm-telemetry v1` artifact
/// (line-oriented text; `charm-perf telemetry` parses it back).
pub fn frames_artifact(frames: &[MetricFrame]) -> String {
    // ~300 bytes a `frame` line and its two `hist` heads, up to ~24 a
    // bucket (two 10-digit numbers), ~64 a `top` line. The buckets are
    // bounded, not counted: the count is a walk of every window.
    let size: usize = frames
        .iter()
        .map(|f| 384 + 24 * (f.exec.buckets_bound() + f.latency.buckets_bound()) + 64 * f.top.len())
        .sum();
    let mut out = String::with_capacity(size + 32);
    out.push_str("charm-telemetry v1\n");
    for f in frames {
        out.push_str("frame");
        f.write_fields(&mut out);
        out.push('\n');
        for (name, h) in [("exec", &f.exec), ("latency", &f.latency)] {
            out.push_str("hist ");
            out.push_str(name);
            out.push_str(" sub_bits=");
            push_dec(&mut out, u64::from(h.sub_bits()));
            for (lo, _hi, n) in h.buckets() {
                out.push(' ');
                push_dec(&mut out, lo);
                out.push(':');
                push_dec(&mut out, n);
            }
            out.push('\n');
        }
        for t in &f.top {
            out.push_str("top label=");
            // Labels are single tokens by construction (chare ids); blanks
            // are folded so the line format stays splittable.
            push_token(&mut out, &t.label);
            out.push_str(" weight=");
            push_dec(&mut out, t.weight);
            out.push_str(" err=");
            push_dec(&mut out, t.err);
            out.push('\n');
        }
    }
    out
}

/// Write the telemetry artifact to `path`.
pub fn write_frames(path: &std::path::Path, frames: &[MetricFrame]) -> std::io::Result<()> {
    std::fs::write(path, frames_artifact(frames))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_saving_tracks_heavy_hitters() {
        let mut s: SpaceSaving<u32> = SpaceSaving::new(2);
        for _ in 0..100 {
            s.observe(&1, 10);
        }
        for _ in 0..50 {
            s.observe(&2, 10);
        }
        for k in 10..30u32 {
            s.observe(&k, 1);
        }
        let items = s.items();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].0, 1);
        assert!(
            items[0].1 >= 1_000,
            "heavy key weight is never undercounted"
        );
        // The guarantee: true weight <= reported weight <= true + err.
        assert!(items[0].1 - items[0].2 <= 1_000);
    }

    fn frame(seq: u64, busy: u64, util: f64) -> MetricFrame {
        MetricFrame {
            seq,
            pes: 1,
            busy_ns: busy,
            util_min: util,
            util_max: util,
            util_sum: util,
            util_sumsq: util * util,
            top_cap: 4,
            ..MetricFrame::default()
        }
    }

    #[test]
    fn merge_moments_give_avg_max_sigma() {
        let mut a = frame(1, 100, 0.2);
        a.merge(&frame(1, 300, 0.8));
        assert_eq!(a.pes, 2);
        assert_eq!(a.busy_ns, 400);
        assert!((a.util_avg() - 0.5).abs() < 1e-9);
        assert!((a.util_max - 0.8).abs() < 1e-9);
        assert!((a.util_sigma() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn merge_is_associative_on_digests() {
        let mk = |seq, busy, label: &str| {
            let mut f = frame(seq, busy, 0.5);
            f.msgs_sent = busy / 10;
            f.top.push(TopItem {
                label: label.into(),
                weight: busy,
                err: 0,
            });
            f
        };
        let (a, b, c) = (mk(3, 100, "x"), mk(3, 200, "y"), mk(3, 300, "x"));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.logical_digest(), right.logical_digest());
    }

    #[test]
    fn logical_digest_ignores_timing_fields() {
        let mut a = frame(1, 100, 0.25);
        let mut b = frame(1, 100, 0.75);
        a.idle_ns = 5;
        b.idle_ns = 500_000;
        a.sampled_at_ns = 1;
        b.sampled_at_ns = 99;
        b.latency.record(123);
        // Remote bytes carry schedule-dependent control traffic.
        b.bytes_remote = 777;
        assert_eq!(a.logical_digest(), b.logical_digest());
        b.msgs_sent += 1;
        assert_ne!(a.logical_digest(), b.logical_digest());
    }

    #[test]
    fn artifact_round_trip_shape() {
        let mut f = frame(2, 50, 0.5);
        f.exec.record(1_000);
        f.latency.record(2_000);
        f.top.push(TopItem {
            label: "Chare[3]".into(),
            weight: 50,
            err: 0,
        });
        let text = frames_artifact(&[f]);
        assert!(text.starts_with("charm-telemetry v1\n"));
        assert!(text.contains("frame seq=2"));
        assert!(text.contains("hist exec"));
        assert!(text.contains("top label=Chare[3] weight=50"));
    }
}
