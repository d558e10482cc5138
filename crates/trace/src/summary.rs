//! Streaming summary mode: Projections-style bounded time-bin profiles.
//!
//! [`TraceLevel::Summary`](crate::TraceLevel::Summary) replaces the
//! O(events) full-capture ring with a fixed budget of wall-clock *quanta*:
//! each bin accumulates busy/idle/overhead nanoseconds plus entry, message
//! and byte counts for one `quantum_ns`-wide window of the PE's clock.
//! When a timestamp lands past the last affordable bin, adjacent bins are
//! merged pairwise and the quantum doubles (exactly Projections' summary
//! compression), so memory stays O(`max_bins`) for any run length while
//! the profile keeps covering the whole run.
//!
//! Two conservation laws make the artifact trustworthy:
//!
//! * **Exact time**: spans are split across quantum boundaries with integer
//!   nanosecond arithmetic, so the per-class sum over bins equals the
//!   recorded busy/idle/overhead totals *exactly* (`charm-perf` checks its
//!   parse against `RunReport::pe_stats` on this).
//! * **Exact counts**: entry/msg/byte counts are binned at their event
//!   timestamp and never rescaled by merging.

pub use crate::counters::SummaryBin;

/// Which per-class accumulator a span charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinClass {
    /// Entry-method / coroutine execution.
    Busy,
    /// Waiting for work.
    Idle,
    /// Runtime bookkeeping.
    Overhead,
}

/// The live recorder owned by a `PeTracer` at summary level.
#[derive(Debug, Clone)]
pub struct SummaryRec {
    quantum_ns: u64,
    max_bins: usize,
    bins: Vec<SummaryBin>,
    merges: u32,
}

impl SummaryRec {
    /// Build a recorder with the given initial quantum width and bin
    /// budget (both clamped to sane minimums).
    pub fn new(quantum_ns: u64, max_bins: usize) -> SummaryRec {
        SummaryRec {
            quantum_ns: quantum_ns.max(1),
            max_bins: max_bins.max(2),
            bins: Vec::new(),
            merges: 0,
        }
    }

    /// Current quantum width (doubles on each pairwise merge).
    pub fn quantum_ns(&self) -> u64 {
        self.quantum_ns
    }

    /// Ensure the bin containing `ts_ns` exists, compressing first if the
    /// budget would overflow.
    fn bin_mut(&mut self, ts_ns: u64) -> &mut SummaryBin {
        while ts_ns / self.quantum_ns >= self.max_bins as u64 {
            // Pairwise merge: bins 2i and 2i+1 collapse into bin i, and the
            // quantum doubles. Counts and nanoseconds are summed, never
            // rescaled, so every conservation law survives compression.
            let merged: Vec<SummaryBin> = self
                .bins
                .chunks(2)
                .map(|pair| {
                    let mut m = pair[0];
                    if let Some(b) = pair.get(1) {
                        m.merge(b);
                    }
                    m
                })
                .collect();
            self.bins = merged;
            self.quantum_ns *= 2;
            self.merges += 1;
        }
        let idx = (ts_ns / self.quantum_ns) as usize;
        if self.bins.len() <= idx {
            self.bins.resize(idx + 1, SummaryBin::default());
        }
        &mut self.bins[idx]
    }

    /// Charge the span `[begin_ns, end_ns)` to `class`, split exactly
    /// across quantum boundaries (the total charged equals
    /// `end_ns - begin_ns` to the nanosecond).
    pub fn span(&mut self, class: BinClass, begin_ns: u64, end_ns: u64) {
        let mut at = begin_ns.min(end_ns);
        let end = end_ns.max(begin_ns);
        if at == end {
            return;
        }
        // Touch the last bin first so compression (which changes the
        // quantum) happens before any partial charge is placed.
        self.bin_mut(end - 1);
        while at < end {
            let q = self.quantum_ns;
            let next = (at / q + 1) * q;
            let stop = next.min(end);
            let d = stop - at;
            let bin = self.bin_mut(at);
            match class {
                BinClass::Busy => bin.busy_ns += d,
                BinClass::Idle => bin.idle_ns += d,
                BinClass::Overhead => bin.overhead_ns += d,
            }
            at = stop;
        }
    }

    /// Bin point counts (entry activations, messages, bytes) at `ts_ns`.
    pub fn count(&mut self, ts_ns: u64, entries: u64, msgs: u64, bytes: u64) {
        let bin = self.bin_mut(ts_ns);
        bin.entries += entries;
        bin.msgs += msgs;
        bin.bytes += bytes;
    }

    /// Per-class nanosecond totals `(busy, idle, overhead)` binned so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.bins.iter().fold((0, 0, 0), |(b, i, o), bin| {
            (b + bin.busy_ns, i + bin.idle_ns, o + bin.overhead_ns)
        })
    }

    /// Charge `ns` of `class` entirely into the bin containing `ts_ns`,
    /// without span splitting — the end-of-run reconciliation hook that
    /// folds any not-individually-binned remainder into the tail so the
    /// summary's per-class totals equal the tracer's counters exactly.
    pub fn charge_point(&mut self, class: BinClass, ns: u64, ts_ns: u64) {
        if ns == 0 {
            return;
        }
        let bin = self.bin_mut(ts_ns);
        match class {
            BinClass::Busy => bin.busy_ns += ns,
            BinClass::Idle => bin.idle_ns += ns,
            BinClass::Overhead => bin.overhead_ns += ns,
        }
    }

    /// Freeze into the end-of-run artifact.
    pub fn finish(self) -> PeSummary {
        PeSummary {
            quantum_ns: self.quantum_ns,
            merges: self.merges,
            bins: self.bins,
        }
    }
}

/// One PE's frozen summary profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeSummary {
    /// Final quantum width in nanoseconds.
    pub quantum_ns: u64,
    /// How many pairwise compressions ran (0 = the run fit the budget).
    pub merges: u32,
    /// The time bins, in clock order from t=0.
    pub bins: Vec<SummaryBin>,
}

impl PeSummary {
    /// Per-class totals `(busy, idle, overhead)` summed over all bins.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.bins.iter().fold((0, 0, 0), |(b, i, o), bin| {
            (b + bin.busy_ns, i + bin.idle_ns, o + bin.overhead_ns)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_split_exactly_across_quanta() {
        let mut r = SummaryRec::new(100, 16);
        r.span(BinClass::Busy, 50, 250);
        let s = r.finish();
        assert_eq!(s.bins.len(), 3);
        assert_eq!(s.bins[0].busy_ns, 50);
        assert_eq!(s.bins[1].busy_ns, 100);
        assert_eq!(s.bins[2].busy_ns, 50);
        assert_eq!(s.totals().0, 200);
    }

    #[test]
    fn overflow_merges_pairwise_and_conserves() {
        let mut r = SummaryRec::new(10, 4);
        for i in 0..64 {
            r.span(BinClass::Idle, i * 10, i * 10 + 5);
        }
        let s = r.finish();
        assert!(s.bins.len() <= 4, "bins stayed within budget");
        assert!(s.merges >= 4, "the quantum doubled repeatedly");
        assert_eq!(s.quantum_ns, 10 << s.merges);
        assert_eq!(s.totals().1, 64 * 5, "idle time conserved exactly");
    }

    #[test]
    fn counts_survive_compression() {
        let mut r = SummaryRec::new(10, 2);
        for i in 0..100 {
            r.count(i * 7, 1, 2, 64);
        }
        let s = r.finish();
        let (e, m, b) = s.bins.iter().fold((0, 0, 0), |(e, m, b), x| {
            (e + x.entries, m + x.msgs, b + x.bytes)
        });
        assert_eq!((e, m, b), (100, 200, 6_400));
        assert!(s.bins.len() <= 2);
    }

    #[test]
    fn memory_is_bounded_by_budget() {
        let mut r = SummaryRec::new(1, 8);
        for i in 0..10_000u64 {
            r.span(BinClass::Overhead, i, i + 1);
        }
        let s = r.finish();
        assert!(s.bins.len() <= 8);
        assert_eq!(s.totals().2, 10_000);
    }

    #[test]
    fn empty_and_reversed_spans_are_noops() {
        let mut r = SummaryRec::new(100, 4);
        r.span(BinClass::Busy, 50, 50);
        let mut r2 = SummaryRec::new(100, 4);
        r2.span(BinClass::Busy, 80, 30);
        assert_eq!(r.finish().totals().0, 0);
        assert_eq!(r2.finish().totals().0, 50, "reversed bounds are normalized");
    }
}
