//! Schedule permutation: deterministic jitter on message delivery times.
//!
//! The dynamic race detector (charm-core `--features analyze`, DESIGN.md
//! §6) replays one program under many delivery orders and diffs the final
//! state. This module supplies the delivery-order permutation: a seeded
//! [`SplitMix64`] stream jitters each message's arrival time, while a
//! per-channel clamp keeps every (src → dst) channel FIFO — the ordering
//! real interconnects (and the threads backend's per-PE queues) guarantee,
//! so only *legal* reorderings are explored: cross-channel interleavings
//! and the arrival order of concurrent messages at one PE.

use std::collections::HashMap;

use charm_wire::SplitMix64;

use crate::time::VTime;

/// Maximum jitter added to a delivery, in nanoseconds (50 µs — large next
/// to per-message network deltas, so seeds genuinely reorder concurrent
/// messages, small next to end-to-end run times).
const MAX_JITTER_NS: u64 = 50_000;

/// Deterministic, FIFO-preserving delivery-time permuter.
pub struct PermuteSchedule {
    rng: SplitMix64,
    /// Latest arrival time handed out per (src, dst) channel.
    last: HashMap<(usize, usize), u64>,
}

impl PermuteSchedule {
    /// A permuter for one seed; distinct seeds give distinct schedules.
    pub fn new(seed: u64) -> PermuteSchedule {
        PermuteSchedule {
            rng: SplitMix64::new(seed),
            last: HashMap::new(),
        }
    }

    /// Jittered arrival time for a message on `(src → dst)` nominally
    /// arriving at `nominal`: adds up to [`MAX_JITTER_NS`], then clamps to
    /// strictly after the channel's previous arrival so per-channel FIFO
    /// order is preserved.
    pub fn delivery_time(&mut self, src: usize, dst: usize, nominal: VTime) -> VTime {
        let jitter = self.rng.below(MAX_JITTER_NS);
        let mut t = nominal.as_nanos() + jitter;
        let last = self.last.entry((src, dst)).or_insert(0);
        if t <= *last {
            t = *last + 1;
        }
        *last = t;
        VTime::from_nanos(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = PermuteSchedule::new(7);
        let mut b = PermuteSchedule::new(7);
        for i in 0..100 {
            let n = VTime::from_nanos(i * 1000);
            assert_eq!(
                a.delivery_time(0, 1, n).as_nanos(),
                b.delivery_time(0, 1, n).as_nanos()
            );
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = PermuteSchedule::new(1);
        let mut b = PermuteSchedule::new(2);
        let n = VTime::from_nanos(1_000_000);
        let ta: Vec<u64> = (0..10)
            .map(|_| a.delivery_time(0, 1, n).as_nanos())
            .collect();
        let tb: Vec<u64> = (0..10)
            .map(|_| b.delivery_time(0, 1, n).as_nanos())
            .collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn per_channel_fifo_is_preserved() {
        let mut p = PermuteSchedule::new(42);
        let mut prev = 0;
        for i in 0..1000 {
            // Nominal times increase slowly; jitter would reorder freely.
            let t = p.delivery_time(2, 3, VTime::from_nanos(i * 10)).as_nanos();
            assert!(t > prev, "channel went backwards at step {i}");
            prev = t;
        }
    }

    #[test]
    fn channels_are_independent() {
        let mut p = PermuteSchedule::new(9);
        // Channel (0 → 1) is far in the future...
        let a = p
            .delivery_time(0, 1, VTime::from_nanos(10_000_000))
            .as_nanos();
        // ...yet a later send on a different channel lands at its own
        // nominal time plus jitter, below `a`: only same-channel order is
        // pinned, the clamp does not couple channels.
        let b = p.delivery_time(1, 0, VTime::from_nanos(50)).as_nanos();
        assert!(b < 50 + MAX_JITTER_NS, "first arrival was clamped: {b}");
        assert!(b < a);
        let c = p.delivery_time(1, 0, VTime::from_nanos(51)).as_nanos();
        assert!(c > b);
    }
}
