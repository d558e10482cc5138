//! # charm-trace — Projections-style tracing & metrics
//!
//! Charm++ ships Projections, a tracing tool that attributes every PE's
//! time to entry-method execution, communication overhead, and idle waiting
//! (the paper's §IV evaluation is built on exactly that breakdown). This
//! crate is the charm-rs equivalent:
//!
//! * **Always-on counters** ([`Counters`]) — messages sent/processed,
//!   remote bytes, entry activations, migrations. These feed quiescence
//!   detection and the end-of-run `RunReport`, so they are maintained even
//!   at [`TraceLevel::Off`].
//! * **Cheap aggregates** ([`TraceLevel::Counters`], the default) — busy /
//!   idle / overhead nanoseconds, per-entry call counts with log-linear time
//!   histograms, bytes by path (same-PE vs remote), when-guard buffer and
//!   reduction tallies. A handful of adds per scheduler step.
//! * **Streaming summaries** ([`TraceLevel::Summary`]) — busy/idle/
//!   overhead time plus entry/msg/byte counts binned into bounded
//!   wall-clock quanta ([`summary`]), O(bin budget) memory per PE for any
//!   run length; the Projections summary mode for cluster-scale runs.
//! * **Full event capture** ([`TraceLevel::Full`]) — every scheduler
//!   boundary pushes a timestamped [`Event`] into a fixed-capacity per-PE
//!   [`Ring`](event::Ring) that overwrites its oldest entry when full (the
//!   drop count is reported, never silent).
//!
//! Two cluster-scale companions ride along: [`hist`] provides mergeable
//! log-linear quantile histograms (entry execution time and send→deliver
//! latency, p50/p99/p999 with bounded relative error), and [`telemetry`]
//! defines the mergeable [`MetricFrame`] the runtime reduces over its PE
//! spanning tree at a quiescence cadence (`Runtime::telemetry`).
//!
//! [`counters`] is the counter table: each count of [`PePerf`],
//! [`MetricFrame`] and [`SummaryBin`] is declared there once, as a row, and
//! the records' structs, wire words, merges and artifact fields are
//! generated from the rows.
//!
//! Two exporters live in [`report`]: [`TraceReport::chrome_json`] emits
//! Chrome trace-event JSON (load it in Perfetto or `chrome://tracing`; one
//! track per PE) and [`TraceReport::summary`] prints a plain-text
//! utilization + entry-method table. [`json`] is the tree's one strict JSON
//! lexer: the exporter's escaper, the pull reader `charm-perf` reads Chrome
//! traces with, and a `Value` tree on top for the round-trip tests. This
//! crate has no dependencies.
//!
//! Timestamps are nanoseconds on the owning PE's scheduler clock: real
//! elapsed time on the threads backend, virtual `clock + charged work`
//! under the sim backend, so traces line up with `MachineModel` makespans.

#![forbid(unsafe_code)]

pub mod counters;
pub mod event;
pub mod fnv;
pub mod hist;
pub mod json;
pub mod report;
pub mod summary;
pub mod telemetry;
pub mod text;
pub mod tracer;

pub use event::{EntryKind, Event, EventKind};
pub use hist::Hist;
pub use report::{EntrySummary, PePerf, PeTrace, TraceReport};
pub use summary::{BinClass, PeSummary, SummaryBin, SummaryRec};
pub use telemetry::{
    frames_artifact, write_frames, MetricFrame, SpaceSaving, TopItem, DEFAULT_TOP_K,
};
pub use tracer::{Counters, EntryStat, PeTracer, WorkClass};

/// Default full-capture ring capacity (events per PE).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Default summary-mode quantum width (1 ms of PE clock per bin).
pub const DEFAULT_QUANTUM_NS: u64 = 1_000_000;

/// Default summary-mode bin budget per PE.
pub const DEFAULT_MAX_BINS: usize = 512;

/// How much the tracer records. Ordered: each level includes the previous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Baseline [`Counters`] only (they can never be disabled — quiescence
    /// detection reads them). Exists as the overhead-bench baseline.
    Off,
    /// Counters plus cheap aggregates: utilization breakdown, per-entry
    /// stats, byte paths. The default.
    #[default]
    Counters,
    /// Everything above plus a bounded time-binned profile
    /// ([`summary::PeSummary`]): O(bin budget) memory per PE regardless of
    /// run length — the cluster-scale alternative to full capture.
    Summary,
    /// Everything above plus the per-PE timestamped event ring.
    Full,
}

/// Tracer configuration, passed to `Runtime::trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Capture level.
    pub level: TraceLevel,
    /// Event-ring capacity per PE (only used at [`TraceLevel::Full`]).
    pub ring_capacity: usize,
    /// Summary-bin quantum width in ns (level ≥ [`TraceLevel::Summary`]).
    pub quantum_ns: u64,
    /// Summary-bin budget per PE (level ≥ [`TraceLevel::Summary`]).
    pub max_bins: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::counters()
    }
}

impl TraceConfig {
    /// Counters only — the overhead-bench baseline.
    pub fn off() -> TraceConfig {
        TraceConfig {
            level: TraceLevel::Off,
            ring_capacity: 0,
            quantum_ns: DEFAULT_QUANTUM_NS,
            max_bins: DEFAULT_MAX_BINS,
        }
    }

    /// Counters + cheap aggregates (default).
    pub fn counters() -> TraceConfig {
        TraceConfig {
            level: TraceLevel::Counters,
            ..TraceConfig::off()
        }
    }

    /// Bounded time-binned profile (Projections summary mode): busy/idle/
    /// overhead plus entry/msg/byte counts per quantum, O(`max_bins`)
    /// memory per PE.
    pub fn summary() -> TraceConfig {
        TraceConfig {
            level: TraceLevel::Summary,
            ..TraceConfig::off()
        }
    }

    /// Full event capture with the default ring capacity.
    pub fn full() -> TraceConfig {
        TraceConfig {
            level: TraceLevel::Full,
            ring_capacity: DEFAULT_RING_CAPACITY,
            ..TraceConfig::off()
        }
    }

    /// Override the per-PE event-ring capacity (min 1).
    pub fn ring_capacity(mut self, cap: usize) -> TraceConfig {
        self.ring_capacity = cap.max(1);
        self
    }

    /// Override the summary quantum width in nanoseconds (min 1).
    pub fn quantum_ns(mut self, ns: u64) -> TraceConfig {
        self.quantum_ns = ns.max(1);
        self
    }

    /// Override the per-PE summary bin budget (min 2).
    pub fn max_bins(mut self, bins: usize) -> TraceConfig {
        self.max_bins = bins.max(2);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(TraceLevel::Off < TraceLevel::Counters);
        assert!(TraceLevel::Counters < TraceLevel::Summary);
        assert!(TraceLevel::Summary < TraceLevel::Full);
        assert_eq!(TraceLevel::default(), TraceLevel::Counters);
    }

    #[test]
    fn config_builders() {
        assert_eq!(TraceConfig::default(), TraceConfig::counters());
        assert_eq!(TraceConfig::full().ring_capacity, DEFAULT_RING_CAPACITY);
        assert_eq!(TraceConfig::full().ring_capacity(8).ring_capacity, 8);
        assert_eq!(TraceConfig::full().ring_capacity(0).ring_capacity, 1);
        assert_eq!(TraceConfig::off().level, TraceLevel::Off);
        assert_eq!(TraceConfig::summary().level, TraceLevel::Summary);
        assert_eq!(TraceConfig::summary().quantum_ns, DEFAULT_QUANTUM_NS);
        assert_eq!(TraceConfig::summary().quantum_ns(0).quantum_ns, 1);
        assert_eq!(TraceConfig::summary().max_bins(1).max_bins, 2);
    }
}
