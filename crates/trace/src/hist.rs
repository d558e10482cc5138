//! HDR-style log-linear histograms with bounded-relative-error quantiles.
//!
//! A [`Hist`] buckets `u64` samples (nanoseconds, in this crate's use) on a
//! log-linear grid: values below `2^sub_bits` get one exact bucket each;
//! above that, every power-of-two range is split into `2^sub_bits` linear
//! sub-buckets. A bucket's bounds therefore differ by at most a factor of
//! `1 + 2^-sub_bits`, so [`Hist::quantile`] — which returns the midpoint of
//! the bucket holding the requested rank — is off from the true rank
//! statistic by at most [`Hist::max_rel_error`] (relative), independent of
//! the sample distribution. Histograms with equal `sub_bits` merge by
//! bucket-wise addition (exact); unequal grids merge by re-bucketing
//! midpoints, which only widens the error by one grid step.
//!
//! The grid has `(64 - sub_bits + 1) * 2^sub_bits` buckets (1,920 at the
//! default `sub_bits = 5`), but a histogram stores only a *window* over it:
//! the counts from its lowest to its highest occupied bucket, grown by the
//! exact missing range when a sample lands outside. An empty histogram owns
//! no heap; 64 bytes inline plus 8 per bucket of the occupied range
//! otherwise, so clone, merge, quantile and export cost what the samples
//! span, not what the grid could hold. `record` on a bucket inside the
//! window is two shifts, one bounds test and an add: cheap enough to sit on
//! the per-delivery and per-entry paths. The memory bound is O(1) in the
//! sample count — the property the cluster-scale telemetry layer needs.
//!
//! The window is always exactly `[lowest, highest]` occupied bucket (both
//! end counts are non-zero, an empty histogram has no window), so two
//! histograms that hold the same samples are `==` and have equal
//! [`Hist::digest`]s whatever the record order or merge-tree shape.
//!
//! Every accumulator saturates: bucket counts, [`Hist::count`] and
//! [`Hist::sum`] stop at `u64::MAX` instead of wrapping or panicking, so
//! counts read from a file (or merged up from 10^5 PEs) cannot overflow.

/// Default sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave,
/// giving a worst-case quantile error of 1/32 ≈ 3.1% (midpoint estimates
/// halve that in practice).
pub const DEFAULT_SUB_BITS: u32 = 5;

/// A mergeable log-linear histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    sub_bits: u32,
    /// Grid index of `counts[0]` (0 while empty, so `==` stays structural).
    base: u32,
    /// The occupied bucket range; first and last are non-zero.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new(DEFAULT_SUB_BITS)
    }
}

/// Grid index of the bucket holding `v`.
#[inline]
fn index_of(b: u32, v: u64) -> usize {
    if v < (1 << b) {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let sub = ((v >> (e - b)) as usize) & ((1 << b) - 1);
        // At most `((64 - b) << b) | (2^b - 1)`: the grid's last bucket.
        (((e - b + 1) as usize) << b) | sub
    }
}

/// `[lower, upper]` value bounds of grid bucket `idx`.
fn bounds(b: u32, idx: usize) -> (u64, u64) {
    if idx < (1 << b) {
        (idx as u64, idx as u64)
    } else {
        let octave = (idx >> b) as u32 + b - 1;
        let sub = (idx & ((1 << b) - 1)) as u64;
        let width = 1u64 << (octave - b);
        let lo = ((1u64 << b) + sub) << (octave - b);
        // `width - 1` first: the top bucket's upper bound is exactly
        // `u64::MAX`, so `lo + width` would wrap.
        (lo, lo + (width - 1))
    }
}

impl Hist {
    /// Build a histogram with `2^sub_bits` sub-buckets per octave
    /// (clamped to `1..=10`). Allocates nothing until a sample arrives.
    pub fn new(sub_bits: u32) -> Hist {
        Hist {
            sub_bits: sub_bits.clamp(1, 10),
            base: 0,
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The configured sub-bucket resolution.
    pub fn sub_bits(&self) -> u32 {
        self.sub_bits
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact (saturating) sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.total).unwrap_or(0)
    }

    /// Worst-case relative error of [`Hist::quantile`] against the true
    /// rank statistic: one bucket width over the bucket's lower bound,
    /// i.e. `2^-sub_bits`.
    pub fn max_rel_error(&self) -> f64 {
        1.0 / (1u64 << self.sub_bits) as f64
    }

    /// Add `n` to grid bucket `idx`, widening the window if it lies outside.
    #[inline]
    fn add_at(&mut self, idx: usize, n: u64) {
        // Below the window the subtraction wraps and fails the bounds test
        // with everything above it.
        match self.counts.get_mut(idx.wrapping_sub(self.base as usize)) {
            Some(c) => *c = c.saturating_add(n),
            None => self.widen_and_add(idx, n),
        }
    }

    /// Grow the window by exactly the range between it and `idx`, then add.
    /// Growth at the front shifts the counts; it is off the hit path.
    #[cold]
    fn widen_and_add(&mut self, idx: usize, n: u64) {
        let base = self.base as usize;
        if self.counts.is_empty() {
            self.base = idx as u32;
            self.counts.push(n);
        } else if idx < base {
            self.counts.splice(0..0, std::iter::repeat_n(0, base - idx));
            self.base = idx as u32;
            self.counts[0] = n;
        } else {
            self.counts.resize(idx - base + 1, 0);
            self.counts[idx - base] = n;
        }
    }

    /// Grow the window once so that it also spans grid buckets
    /// `lo..=hi`, with one allocation at most. The buckets it gains hold 0,
    /// so the caller must then add to `lo` and `hi` to keep the window
    /// tight.
    fn span(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.base = lo as u32;
            self.counts = vec![0; hi - lo + 1];
            return;
        }
        let base = self.base as usize;
        let end = base + self.counts.len() - 1;
        if lo >= base {
            if hi > end {
                self.counts.reserve_exact(hi - end);
                self.counts.resize(hi - base + 1, 0);
            }
        } else {
            // Growth at the front moves every count: build the union once.
            let mut counts = Vec::with_capacity(hi.max(end) - lo + 1);
            counts.resize(base - lo, 0);
            counts.extend_from_slice(&self.counts);
            counts.resize(hi.max(end) - lo + 1, 0);
            self.counts = counts;
            self.base = lo as u32;
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.add_at(index_of(self.sub_bits, v), n);
        self.total = self.total.saturating_add(n);
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record `n` samples of `v` for each `(v, n)` pair, growing the window
    /// at most once: a reader that meets a histogram's lowest and highest
    /// buckets first sizes its window with them.
    pub fn record_pair(&mut self, a: (u64, u64), b: (u64, u64)) {
        let at = |(v, n): (u64, u64)| (n > 0).then(|| index_of(self.sub_bits, v));
        if let (Some(i), Some(j)) = (at(a), at(b)) {
            self.span(i.min(j), i.max(j));
        }
        self.record_n(a.0, a.1);
        self.record_n(b.0, b.1);
    }

    /// Merge another histogram into this one. Equal grids add bucket-wise
    /// (exact); a different grid is folded in by re-bucketing midpoints.
    pub fn merge(&mut self, other: &Hist) {
        if other.total == 0 {
            return;
        }
        if other.sub_bits == self.sub_bits {
            if self.counts.is_empty() {
                self.base = other.base;
                self.counts.extend_from_slice(&other.counts);
            } else {
                // Both windows end on occupied buckets, so their union is
                // tight once the other's counts are added.
                let lo = other.base as usize;
                self.span(lo, lo + other.counts.len() - 1);
                let dst = &mut self.counts[lo - self.base as usize..];
                // Until a total saturates, each side's buckets sum to its
                // total: if the totals add without overflow, so does every
                // bucket, and the plain loop vectorizes.
                if self.total.checked_add(other.total).is_some() {
                    for (d, &s) in dst.iter_mut().zip(&other.counts) {
                        *d = d.wrapping_add(s);
                    }
                } else {
                    for (d, &s) in dst.iter_mut().zip(&other.counts) {
                        *d = d.saturating_add(s);
                    }
                }
            }
            self.total = self.total.saturating_add(other.total);
        } else {
            for (idx, &n) in other.counts.iter().enumerate() {
                if n > 0 {
                    let (lo, hi) = bounds(other.sub_bits, other.base as usize + idx);
                    let mid = lo + (hi - lo) / 2;
                    self.add_at(index_of(self.sub_bits, mid), n);
                    self.total = self.total.saturating_add(n);
                }
            }
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (nearest-rank, `0.0 ..= 1.0`) as the midpoint of
    /// the bucket containing that rank; `None` when empty. The estimate is
    /// within [`Hist::max_rel_error`] of the true rank statistic.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        // The extreme ranks are tracked exactly — answer them exactly.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.total {
            return Some(self.max);
        }
        // Ranks at or above the requested one. While the total has not
        // saturated the buckets sum to it exactly, so the bucket holding
        // the rank is the same counted from either end: scan from the
        // nearer one (p99 then reads the top few buckets, not the window).
        let above = self.total - rank + 1;
        let mut seen = 0u64;
        let found = if above < rank && self.total < u64::MAX {
            self.counts.iter().rposition(|&n| {
                seen = seen.saturating_add(n);
                seen >= above
            })
        } else {
            // Buckets can sum past `u64::MAX` once the total has saturated;
            // an overflow here is past every rank.
            self.counts.iter().position(|&n| match seen.checked_add(n) {
                Some(s) if s < rank => {
                    seen = s;
                    false
                }
                _ => true,
            })
        };
        Some(match found {
            Some(i) => {
                let (lo, hi) = bounds(self.sub_bits, self.base as usize + i);
                // Clamp to the exact extremes: the top and bottom buckets
                // may extend past anything actually recorded.
                (lo + (hi - lo) / 2).clamp(self.min, self.max)
            }
            None => self.max,
        })
    }

    /// At least the number of non-empty buckets, found without a walk: the
    /// window's length, or the sample count if that is smaller.
    pub(crate) fn buckets_bound(&self) -> usize {
        self.counts
            .len()
            .min(usize::try_from(self.total).unwrap_or(usize::MAX))
    }

    /// Non-empty buckets as `(grid index, count)`, in value order.
    fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let base = self.base as usize;
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(move |(i, &n)| (base + i, n))
    }

    /// Non-empty buckets as `(lower, upper, count)`, in value order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.occupied().map(|(idx, n)| {
            let (lo, hi) = bounds(self.sub_bits, idx);
            (lo, hi, n)
        })
    }

    /// The stored state as words: `sub_bits`, the grid index of the first
    /// stored bucket, `total`, `sum`, `min`, `max`, then the stored counts
    /// (the wire form; [`Hist::from_words`] reads it back).
    pub fn to_words(&self) -> Vec<u64> {
        let (b, base) = (u64::from(self.sub_bits), u64::from(self.base));
        let head = [b, base, self.total, self.sum, self.min, self.max];
        [&head[..], &self.counts].concat()
    }

    /// A histogram from its [`Hist::to_words`] form, checked: `sub_bits`
    /// in `1..=10`; an empty histogram exactly as [`Hist::new`] builds it;
    /// otherwise a stored range inside the grid whose end counts are
    /// non-zero, `total` equal to the (saturating) sum of the counts, and
    /// `min <= max <= sum` (a merge across grids re-buckets midpoints, so
    /// `min` and `max` need not lie in the end buckets).
    pub fn from_words(words: &[u64]) -> Result<Hist, &'static str> {
        let [sub_bits, base, total, sum, min, max, ref counts @ ..] = *words else {
            return Err("histogram words end before their head");
        };
        let b = sub_bits.clamp(1, 10) as u32;
        let grid = u64::from(65 - b) << b;
        let summed = counts.iter().fold(0u64, |s, &n| s.saturating_add(n));
        let bad = match (counts.first(), counts.last()) {
            _ if u64::from(b) != sub_bits => Some("histogram sub_bits outside 1..=10"),
            (None, _) if (base, total, sum, min, max) == (0, 0, 0, u64::MAX, 0) => None,
            (None, _) => Some("empty histogram with samples"),
            (Some(0), _) | (_, Some(0)) => Some("histogram range does not end on occupied buckets"),
            _ if base.saturating_add(counts.len() as u64) > grid => {
                Some("histogram range outside its grid")
            }
            _ if summed != total => Some("histogram total is not the sum of its counts"),
            _ if min > max || max > sum => Some("histogram min, max and sum disagree"),
            _ => None,
        };
        if let Some(why) = bad {
            return Err(why);
        }
        Ok(Hist {
            sub_bits: b,
            base: base as u32,
            counts: counts.to_vec(),
            total,
            sum,
            min,
            max,
        })
    }

    /// Order-sensitive FNV-1a digest over the bucket contents (grid,
    /// non-empty buckets, total) — the logical-identity fingerprint the
    /// telemetry determinism suites compare. Timing-free only if the
    /// recorded samples themselves are deterministic.
    pub fn digest(&self) -> u64 {
        let mut d = crate::fnv::Fnv::new();
        d.eat_u64(u64::from(self.sub_bits));
        d.eat_u64(self.total);
        for (idx, n) in self.occupied() {
            d.eat_u64(idx as u64);
            d.eat_u64(n);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new(5);
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        for v in 0..32u64 {
            let (lo, hi, n) = h.buckets().nth(v as usize).unwrap();
            assert_eq!((lo, hi, n), (v, v, 1));
        }
    }

    #[test]
    fn quantile_bounds_and_extremes() {
        let mut h = Hist::default();
        for v in [10, 20, 30, 40, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(10));
        let q = h.quantile(1.0).unwrap() as f64;
        assert!((q - 1e6).abs() <= 1e6 * h.max_rel_error());
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1_000_000);
        assert!(Hist::default().quantile(0.5).is_none());
    }

    #[test]
    fn merge_equal_grids_is_exact() {
        let mut a = Hist::new(5);
        let mut b = Hist::new(5);
        for v in [1u64, 100, 10_000] {
            a.record(v);
            b.record(v * 3);
        }
        let mut all = Hist::new(5);
        for v in [1u64, 100, 10_000, 3, 300, 30_000] {
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.digest(), all.digest());
        assert_eq!(a.sum(), all.sum());
    }

    #[test]
    fn merge_unequal_grids_rebuckets() {
        let mut coarse = Hist::new(2);
        coarse.record(1_000);
        let mut fine = Hist::new(5);
        fine.record(5);
        fine.merge(&coarse);
        assert_eq!(fine.count(), 2);
        let q = fine.quantile(1.0).unwrap();
        // One extra grid step of slack for the re-bucketing.
        assert!((q as f64 - 1_000.0).abs() <= 1_000.0 * 2.0 * coarse.max_rel_error());
    }

    #[test]
    fn top_bucket_saturates() {
        let mut h = Hist::new(5);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(0.5).is_some());
    }

    /// The window invariant `==` and `digest()` lean on: no heap while
    /// empty, otherwise exactly `[lowest, highest]` occupied bucket.
    fn assert_tight(h: &Hist) {
        if h.total == 0 {
            assert!(h.counts.is_empty() && h.base == 0);
            assert_eq!(h.counts.capacity(), 0);
        } else {
            assert_ne!(h.counts[0], 0);
            assert_ne!(h.counts[h.counts.len() - 1], 0);
        }
    }

    #[test]
    fn window_is_exactly_the_occupied_range() {
        let mut h = Hist::new(5);
        assert_tight(&h);
        h.record_n(9, 0);
        assert_tight(&h);
        // Opens in the middle, grows at the back, then at the front.
        h.record(1_000);
        assert_eq!((h.base as usize, h.counts.len()), (index_of(5, 1_000), 1));
        h.record(1_000_000);
        h.record(3);
        assert_tight(&h);
        assert_eq!(h.base, 3);
        assert_eq!(h.counts.len(), index_of(5, 1_000_000) - 3 + 1);
        // Merging a disjoint window on either side grows to the union.
        let mut low = Hist::new(5);
        low.record(1);
        let mut high = Hist::new(5);
        high.record(u64::MAX);
        for other in [&low, &high, &Hist::new(5)] {
            h.merge(other);
            assert_tight(&h);
        }
        assert_eq!(h.base, 1);
        assert_eq!(h.base as usize + h.counts.len(), 60 << 5, "the whole grid");
        // An empty destination takes the other's window as it is.
        let mut fresh = Hist::new(5);
        fresh.merge(&h);
        assert_eq!(fresh, h);
        // A different grid re-buckets into a tight window too.
        let mut coarse = Hist::new(2);
        coarse.merge(&h);
        assert_tight(&coarse);
        assert_eq!(coarse.count(), h.count());
    }

    #[test]
    fn every_value_lands_inside_the_grid() {
        for b in 1..=10u32 {
            let buckets = ((64 - b + 1) as usize) << b;
            assert_eq!(index_of(b, u64::MAX), buckets - 1);
            assert_eq!(bounds(b, buckets - 1).1, u64::MAX);
            for shift in 0..64 {
                let v = 1u64 << shift;
                for v in [v - 1, v, v + (v >> 1)] {
                    let (lo, hi) = bounds(b, index_of(b, v));
                    assert!(lo <= v && v <= hi, "b={b} v={v}: [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn words_round_trip_and_refuse_an_inconsistent_state() {
        let mut cross = Hist::new(5);
        cross.merge(&{
            let mut h = Hist::new(1);
            h.record_n(11, 2);
            h
        });
        let mut top = Hist::new(10);
        top.record(u64::MAX);
        top.record_n(3, u64::MAX);
        for h in [Hist::new(3), cross, top] {
            assert_eq!(Hist::from_words(&h.to_words()), Ok(h));
        }
        let mut h = Hist::new(5);
        h.record(40);
        h.record(4_000);
        let good = h.to_words();
        let with = |i: usize, v: u64| {
            let mut w = good.clone();
            w[i] = v;
            Hist::from_words(&w)
        };
        assert!(Hist::from_words(&good[..5]).is_err(), "short head");
        assert!(with(0, 0).is_err() && with(0, 11).is_err(), "sub_bits");
        assert!(with(1, (60 << 5) - 1).is_err(), "range past the grid");
        assert!(with(1, u64::MAX).is_err(), "range past the grid");
        assert!(with(2, 3).is_err(), "total");
        assert!(with(4, 4_001).is_err(), "min above max");
        assert!(with(5, 1 << 20).is_err(), "max above sum");
        assert!(with(6, 0).is_err(), "a range starting on an empty bucket");
        assert!(with(good.len() - 1, 0).is_err(), "ending on one");
        let mut empty = Hist::new(5).to_words();
        assert_eq!(Hist::from_words(&empty), Ok(Hist::new(5)));
        empty[3] = 1;
        assert!(Hist::from_words(&empty).is_err(), "empty with a sum");
    }
}
