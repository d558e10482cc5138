//! Exponential backoff with deterministic jitter.
//!
//! Reconnect storms are the classic failure amplifier: every survivor of a
//! peer death redialing on the same schedule turns one failure into a
//! synchronized connection flood. The schedule here doubles from `base` to
//! `cap` and then spreads attempts with ±`jitter_pct`% of deterministic,
//! seed-derived jitter — deterministic because the runtime's whole test
//! story is reproducibility: given the same seed the schedule is a pure
//! function, no wall clock or OS entropy involved. The jitter comes from
//! the workspace's one PRNG ([`SplitMix64`]).

use std::time::Duration;

use crate::rng::SplitMix64;

/// Backoff schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffCfg {
    /// First retry delay.
    pub base: Duration,
    /// Ceiling the exponential growth clamps to.
    pub cap: Duration,
    /// Attempts before giving up entirely.
    pub retries: u32,
    /// Jitter amplitude as a percentage of the nominal delay (0–100).
    pub jitter_pct: u8,
}

impl Default for BackoffCfg {
    fn default() -> BackoffCfg {
        BackoffCfg {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(1),
            retries: 6,
            jitter_pct: 30,
        }
    }
}

impl BackoffCfg {
    /// A schedule with `retries` attempts between `base` and `cap`.
    pub fn new(base: Duration, cap: Duration, retries: u32) -> BackoffCfg {
        BackoffCfg {
            base,
            cap,
            retries,
            ..BackoffCfg::default()
        }
    }
}

/// One peer's reconnect schedule: an iterator of delays, `None` when the
/// retry budget is spent.
#[derive(Debug, Clone)]
pub struct Backoff {
    cfg: BackoffCfg,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    /// Start a schedule; `seed` decorrelates concurrent reconnectors
    /// (derive it from the dialer's PE and connection generation).
    pub fn new(cfg: BackoffCfg, seed: u64) -> Backoff {
        Backoff {
            cfg,
            attempt: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Attempts taken so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next delay to sleep before redialing, or `None` once the retry
    /// budget is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.cfg.retries {
            return None;
        }
        let shift = self.attempt.min(20);
        self.attempt += 1;
        let nominal = self
            .cfg
            .base
            .saturating_mul(1u32 << shift)
            .min(self.cfg.cap)
            .max(Duration::from_micros(1));
        let nominal_ns = nominal.as_nanos() as u64;
        let amp = nominal_ns / 100 * self.cfg.jitter_pct.min(100) as u64;
        if amp == 0 {
            return Some(nominal);
        }
        // Uniform in [-amp, +amp] around the nominal delay.
        let r = self.rng.below(2 * amp + 1);
        let jittered = nominal_ns - amp + r;
        Some(Duration::from_nanos(jittered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BackoffCfg {
        BackoffCfg {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            retries: 8,
            jitter_pct: 20,
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a: Vec<_> = std::iter::from_fn({
            let mut b = Backoff::new(cfg(), 42);
            move || b.next_delay()
        })
        .collect();
        let b: Vec<_> = std::iter::from_fn({
            let mut b = Backoff::new(cfg(), 42);
            move || b.next_delay()
        })
        .collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = Backoff::new(cfg(), 1);
        let mut b = Backoff::new(cfg(), 2);
        let da: Vec<_> = std::iter::from_fn(|| a.next_delay()).collect();
        let db: Vec<_> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn grows_to_cap_within_jitter_bounds() {
        let c = cfg();
        let mut b = Backoff::new(c, 7);
        let mut prev_nominal = Duration::ZERO;
        for i in 0..c.retries {
            let d = b.next_delay().unwrap();
            let nominal = c.base.saturating_mul(1 << i).min(c.cap);
            assert!(nominal >= prev_nominal);
            let amp = nominal.as_nanos() as u64 / 100 * c.jitter_pct as u64;
            let lo = Duration::from_nanos(nominal.as_nanos() as u64 - amp);
            let hi = Duration::from_nanos(nominal.as_nanos() as u64 + amp);
            assert!(
                d >= lo && d <= hi,
                "attempt {i}: {d:?} not in [{lo:?}, {hi:?}]"
            );
            prev_nominal = nominal;
        }
        assert_eq!(b.next_delay(), None, "budget must be capped");
        assert_eq!(b.next_delay(), None, "exhaustion is stable");
    }

    #[test]
    fn zero_jitter_is_exact() {
        let c = BackoffCfg {
            jitter_pct: 0,
            ..cfg()
        };
        let mut b = Backoff::new(c, 9);
        assert_eq!(b.next_delay(), Some(Duration::from_millis(10)));
        assert_eq!(b.next_delay(), Some(Duration::from_millis(20)));
        assert_eq!(b.next_delay(), Some(Duration::from_millis(40)));
    }
}
