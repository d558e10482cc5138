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
//! The bucket array is dense and fixed-size (`(64 - sub_bits + 1) *
//! 2^sub_bits` slots — 15 KiB at the default `sub_bits = 5`), so `record`
//! is two shifts and an add: cheap enough to sit on the per-delivery and
//! per-entry paths, and the memory bound is O(1) in the sample count —
//! the property the cluster-scale telemetry layer needs.

/// Default sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave,
/// giving a worst-case quantile error of 1/32 ≈ 3.1% (midpoint estimates
/// halve that in practice).
pub const DEFAULT_SUB_BITS: u32 = 5;

/// A mergeable log-linear histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    sub_bits: u32,
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

impl Hist {
    /// Build a histogram with `2^sub_bits` sub-buckets per octave
    /// (clamped to `1..=10`).
    pub fn new(sub_bits: u32) -> Hist {
        let b = sub_bits.clamp(1, 10);
        let buckets = ((64 - b + 1) as usize) << b;
        Hist {
            sub_bits: b,
            counts: vec![0; buckets],
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

    fn index_of(&self, v: u64) -> usize {
        let b = self.sub_bits;
        if v < (1 << b) {
            v as usize
        } else {
            let e = 63 - v.leading_zeros();
            let sub = ((v >> (e - b)) as usize) & ((1 << b) - 1);
            ((((e - b + 1) as usize) << b) | sub).min(self.counts.len() - 1)
        }
    }

    /// `[lower, upper]` value bounds of bucket `idx`.
    fn bounds(&self, idx: usize) -> (u64, u64) {
        let b = self.sub_bits;
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
        let idx = self.index_of(v);
        self.counts[idx] += n;
        self.total += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merge another histogram into this one. Equal grids add bucket-wise
    /// (exact); a different grid is folded in by re-bucketing midpoints.
    pub fn merge(&mut self, other: &Hist) {
        if other.total == 0 {
            return;
        }
        if other.sub_bits == self.sub_bits {
            for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
                *dst += src;
            }
            self.total += other.total;
        } else {
            for (idx, &n) in other.counts.iter().enumerate() {
                if n > 0 {
                    let (lo, hi) = other.bounds(idx);
                    let mid = lo + (hi - lo) / 2;
                    let i = self.index_of(mid);
                    self.counts[i] += n;
                    self.total += n;
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
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = self.bounds(idx);
                // Clamp to the exact extremes: the top and bottom buckets
                // may extend past anything actually recorded.
                return Some((lo + (hi - lo) / 2).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(lower, upper, count)`, in value order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = self.bounds(i);
                (lo, hi, n)
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
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                d.eat_u64(i as u64);
                d.eat_u64(n);
            }
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
}
