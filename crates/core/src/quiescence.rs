//! Quiescence detection.
//!
//! Charm++-style double-probe detection: PE 0 broadcasts a probe down the
//! spanning tree; every PE answers with its (sent, processed) application
//! message counters, combined up the tree. The system is quiescent when two
//! consecutive probe rounds return identical counter sums with
//! `sent == processed` — which rules out both in-flight messages and
//! activity between the probes.
//!
//! This module is the rule; the probe wave that feeds it (and why a probe
//! first flushes the PE's aggregation buffers) is `sweep.rs`.

use crate::ids::FutureId;

/// PE 0 coordinator state.
#[derive(Default)]
pub struct QdCentral {
    /// Futures to complete when quiescence is reached.
    pub waiters: Vec<FutureId>,
    /// Current probe round number.
    pub round: u64,
    /// Counters from the previous completed round.
    pub last: Option<(u64, u64)>,
    /// Whether detection is in progress.
    pub active: bool,
}

impl QdCentral {
    /// Feed a completed round; returns `true` if quiescence is established.
    pub fn round_complete(&mut self, sent: u64, done: u64) -> bool {
        let quiescent = sent == done && self.last == Some((sent, done));
        self.last = Some((sent, done));
        quiescent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_two_identical_rounds() {
        let mut c = QdCentral::default();
        assert!(!c.round_complete(10, 10)); // first sighting: not enough
        assert!(c.round_complete(10, 10)); // stable: quiescent
    }

    #[test]
    fn inflight_messages_block_detection() {
        let mut c = QdCentral::default();
        assert!(!c.round_complete(10, 8));
        assert!(!c.round_complete(10, 8)); // stable but sent != done
        assert!(!c.round_complete(10, 10)); // changed since last round
        assert!(c.round_complete(10, 10));
    }

    #[test]
    fn activity_between_rounds_resets() {
        let mut c = QdCentral::default();
        assert!(!c.round_complete(5, 5));
        assert!(!c.round_complete(7, 7)); // counters moved: keep probing
        assert!(c.round_complete(7, 7));
    }
}
