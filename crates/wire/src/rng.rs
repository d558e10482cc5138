//! The workspace's one seeded PRNG.
//!
//! Everything that needs reproducible pseudo-randomness — load-balancer
//! tie-breaks, schedule permutation, synthetic workloads, the seeded
//! property tests — draws from this SplitMix64, so a seed means the same
//! stream everywhere.

/// Weyl-sequence increment (2^64 / golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele, Lea & Flood): 64 bits of state, one add and one
/// mix per draw, every seed valid.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`). Plain modulo: the bias is below
    /// 2^-32 for every `n` the workspace uses.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stateless form: the first draw of a generator seeded with `x`. Used as
/// a deterministic hash-like mixer (Task Bench task values).
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream() {
        // First three outputs for seed 1234567 from the reference C
        // implementation (Vigna, prng.di.unimi.it/splitmix64.c).
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
        assert_eq!(g.next_u64(), 9817491932198370423);
    }

    #[test]
    fn stateless_form_is_the_first_draw() {
        assert_eq!(splitmix64(42), SplitMix64::new(42).next_u64());
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(g.below(13) < 13);
            let f = g.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
