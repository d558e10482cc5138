//! # Dynamic race/protocol detector (`--features analyze`)
//!
//! Layer 2 of the correctness tooling (DESIGN.md §6): with the `analyze`
//! feature enabled, every [`Envelope`](crate::msg::Envelope) carries an
//! [`EnvTrace`] — a globally unique id plus the sending PE's vector clock —
//! and every PE scheduler owns a [`Detector`] that checks happens-before
//! invariants as messages flow:
//!
//! * **No double delivery** — each traced envelope id enters a PE's
//!   delivered-set at most once (and, across the whole sim run, at most one
//!   PE's delivered-set).
//! * **Per-channel FIFO** — the sender component of successive clocks
//!   arriving on one (src → dst) channel is strictly increasing. Every send
//!   ticks the sender's own component, so out-of-order delivery on a
//!   channel is visible as a non-monotonic stamp. (The modeled network clamps
//!   per-channel delivery times under this feature so it
//!   provides the FIFO channels the threads backend and Charm++ both
//!   guarantee.)
//! * **Per-chare serialized execution** — entering an entry method for a
//!   chare already marked executing is reported.
//! * **Send/deliver balance at quiescence** — when a sim run drains its
//!   event queue (true quiescence: nothing in flight), the union of
//!   sent-sets must equal the union of delivered-sets; a sent-but-never-
//!   delivered id is a lost envelope.
//! * **FIFO when-guard drains** — the scheduler must always hand the
//!   *earliest* deliverable buffered message to a chare; skipping a ready
//!   message is reported (hook in `after_state_change`).
//! * **Bounded forwarding** — an envelope chasing a migrated chare through
//!   location records never takes more than `MAX_FWD_HOPS` hops plus one
//!   per migration the chare made meanwhile (the growth of the records'
//!   `seq` along the chain). A chain that keeps hopping while `seq` stands
//!   still is bouncing between stale records; it is reported and cut.
//!
//! Violations go to the run's [`FaultProbe`] when one is installed (the
//! fault-injection tests read it), and panic with an `analyze:` prefix
//! otherwise, so CI runs of the ordinary suite fail loudly on a real race.
//!
//! [`InjectFault`] is the test-only fault injector driven by the sim
//! backend: it duplicates or drops the Nth application envelope at the
//! network layer, which the detector must then report.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use crate::ids::{ChareId, Pe};

/// Per-envelope trace: unique id + the sender's vector clock at send time.
///
/// `id == 0` marks an untraced envelope (the bootstrap event, internally
/// re-parked envelopes, and aggregation batch frames — whose constituents
/// carry their own traces); untraced envelopes are exempt from accounting.
///
/// Serializable so batch records (`msg::push_batch_record`) can carry the
/// constituent's trace through the wire frame: batching must be invisible
/// to the detector, so the trace minted at emit time travels with the
/// record and is restored verbatim on split.
#[derive(Debug, Clone, Default)]
pub struct EnvTrace {
    /// Globally unique envelope id:
    /// `epoch << 56 | (pe + 1) << 40 | seq` (epoch 0 — no recovery yet —
    /// keeps the original `(pe + 1) << 40 | seq` layout).
    pub id: u64,
    /// Sender's vector clock (length = npes) at the moment of send.
    pub clock: Vec<u64>,
    /// Location-record forwards on the chain that led to this envelope (0
    /// for one sent by its originator).
    pub fwd_hops: u64,
    /// The record `seq` the first of those forwards followed.
    pub fwd_first_seq: u64,
}
charm_wire::wire_struct! { EnvTrace { id, clock, fwd_hops, fwd_first_seq } }

/// Shared sink for detector findings. Installed via
/// `Runtime::analyze_probe`/`analyze_inject`; when present, violations are
/// collected here instead of panicking, so negative tests can assert on
/// them.
#[derive(Clone, Default)]
pub struct FaultProbe {
    findings: Arc<Mutex<Vec<String>>>,
}

#[expect(clippy::disallowed_methods, reason = "blocking: one push or one clone")]
impl FaultProbe {
    /// A fresh, empty probe.
    pub fn new() -> FaultProbe {
        FaultProbe::default()
    }

    /// Record one violation.
    pub fn report(&self, msg: String) {
        if let Ok(mut v) = self.findings.lock() {
            v.push(msg);
        }
    }

    /// Snapshot the findings recorded so far.
    pub fn findings(&self) -> Vec<String> {
        self.findings.lock().map(|v| v.clone()).unwrap_or_default()
    }

    /// Whether any finding's text contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        self.findings().iter().any(|f| f.contains(needle))
    }
}

impl std::fmt::Debug for FaultProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FaultProbe({} findings)", self.findings().len())
    }
}

/// A fault injected for tests: the Nth (0-based) QD-counted envelope
/// shipped through the modeled network (sim, check) is duplicated or
/// dropped — or, on any backend, a whole PE is killed on its Nth delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectFault {
    /// Deliver the Nth application envelope twice.
    DuplicateNth(u64),
    /// Silently drop the Nth application envelope.
    DropNth(u64),
    /// Kill PE `pe` just as it is about to handle its `after_nth` (0-based)
    /// QD-counted envelope. The envelope is lost and the PE's state
    /// (with its in-memory checkpoint images) discarded: dropped in place
    /// under sim and check, a PE thread that stops under threads, a
    /// process that SIGKILLs itself under Net. The fault fires only in the
    /// first incarnation, so the recovery attempt is not re-killed.
    KillPe {
        /// Victim PE.
        pe: Pe,
        /// 0-based count of QD-counted envelopes the victim handles first.
        after_nth: u64,
    },
}

/// Per-PE happens-before state: a vector clock plus send/deliver
/// accounting. One lives inside every `PeState` when the feature is on.
pub struct Detector {
    pe: Pe,
    /// Recovery epoch this detector audits. Embedded in every minted id;
    /// a delivered id minted under a different epoch is a violation (the
    /// scheduler must have discarded it as stale before the detector sees
    /// it). Restarts build fresh detectors, so epoch-0 ids keep the
    /// original `(pe + 1) << 40 | seq` format.
    epoch: u64,
    clock: Vec<u64>,
    next_seq: u64,
    sent: HashSet<u64>,
    delivered: HashSet<u64>,
    /// Last sender-component stamp seen per source PE (FIFO channel check).
    last_from: HashMap<Pe, u64>,
    executing: HashSet<ChareId>,
    /// `(fwd_hops, fwd_first_seq)` of the envelope being dispatched.
    chain: (u64, u64),
    /// The chain the next minted trace continues (set by `on_forward`).
    forwarding: Option<(u64, u64)>,
    probe: Option<FaultProbe>,
}

impl Detector {
    pub fn new(pe: Pe, npes: usize, epoch: u64, probe: Option<FaultProbe>) -> Detector {
        Detector {
            pe,
            epoch,
            clock: vec![0; npes],
            next_seq: 0,
            sent: HashSet::new(),
            delivered: HashSet::new(),
            last_from: HashMap::new(),
            executing: HashSet::new(),
            chain: (0, 0),
            forwarding: None,
            probe,
        }
    }

    /// Report a violation: into the probe when installed, else panic so the
    /// failure cannot be missed.
    pub fn violation(&self, msg: String) {
        match &self.probe {
            Some(p) => p.report(msg),
            None => panic!("analyze: {msg}"),
        }
    }

    /// A send event: tick this PE's clock component, mint a trace.
    pub fn on_send(&mut self) -> EnvTrace {
        self.clock[self.pe] += 1;
        self.next_seq += 1;
        let id = (self.epoch << 56) | ((self.pe as u64 + 1) << 40) | self.next_seq;
        self.sent.insert(id);
        let (fwd_hops, fwd_first_seq) = self.forwarding.take().unwrap_or_default();
        EnvTrace {
            id,
            clock: self.clock.clone(),
            fwd_hops,
            fwd_first_seq,
        }
    }

    /// Dispatch of an envelope begins (a fresh delivery or a parked one
    /// re-entering): remember the forwarding chain it arrived on.
    pub fn on_dispatch(&mut self, trace: &EnvTrace) {
        self.chain = (trace.fwd_hops, trace.fwd_first_seq);
    }

    /// The envelope being dispatched is about to be forwarded to where the
    /// `seq`-th migration took chare `id`; the next minted trace continues
    /// its chain. Returns `false` — after reporting — when the chain broke
    /// the bound, so the scheduler stops chasing and the run can end.
    pub fn on_forward(&mut self, id: &ChareId, seq: u64) -> bool {
        let (hops, first) = self.chain;
        let (hops, first) = (hops + 1, if hops == 0 { seq } else { first });
        let bound = crate::location::MAX_FWD_HOPS as u64 + seq.saturating_sub(first);
        if hops > bound {
            self.violation(format!(
                "forwarding chain for chare {id} reached {hops} hops on PE {} while its location \
                 records only advanced from migration {first} to {seq} — envelopes are bouncing \
                 between stale records",
                self.pe
            ));
            return false;
        }
        self.forwarding = Some((hops, first));
        true
    }

    /// A delivery event: epoch check, dedup-check, per-channel FIFO check,
    /// clock join.
    pub fn on_deliver(&mut self, src: Pe, trace: &EnvTrace) {
        if trace.id == 0 {
            return; // untraced (bootstrap / re-parked)
        }
        if trace.id >> 56 != self.epoch {
            self.violation(format!(
                "stale-epoch envelope {:#x} (epoch {}) delivered on PE {} running epoch {} — \
                 the scheduler must discard pre-recovery traffic",
                trace.id,
                trace.id >> 56,
                self.pe,
                self.epoch
            ));
            return;
        }
        if !self.delivered.insert(trace.id) {
            self.violation(format!(
                "double-delivered envelope {:#x} from PE {src} on PE {}",
                trace.id, self.pe
            ));
        }
        // FIFO per (src → this PE) channel: the sender ticks its own clock
        // component on every send, so stamps arriving here from `src` must
        // be strictly increasing.
        let stamp = trace.clock.get(src).copied().unwrap_or(0);
        if let Some(&last) = self.last_from.get(&src) {
            if stamp <= last {
                self.violation(format!(
                    "per-channel FIFO violated on PE {}: envelope {:#x} from PE {src} \
                     carries stamp {stamp} after stamp {last} was already delivered",
                    self.pe, trace.id
                ));
            }
        }
        self.last_from.insert(src, stamp);
        // Happens-before join, then tick for the local delivery event.
        for (mine, theirs) in self.clock.iter_mut().zip(&trace.clock) {
            *mine = (*mine).max(*theirs);
        }
        self.clock[self.pe] += 1;
    }

    /// Entering an entry method on `id`; overlap means broken serialization.
    pub fn enter_chare(&mut self, id: &ChareId) {
        if !self.executing.insert(*id) {
            self.violation(format!(
                "overlapping entry-method execution on chare {id} (PE {})",
                self.pe
            ));
        }
    }

    /// Leaving the entry method on `id`.
    pub fn exit_chare(&mut self, id: &ChareId) {
        self.executing.remove(id);
    }

    /// This PE's current vector clock. The model checker snapshots it after
    /// every delivery: the post-handler clock is both the delivery event's
    /// clock and the send clock of every envelope the handler emitted
    /// (handlers are atomic transitions, so emit-time granularity finer
    /// than the handler would claim concurrency no schedule can realize).
    pub fn clock(&self) -> &[u64] {
        &self.clock
    }

    /// Send/deliver accounting for the end-of-run balance check:
    /// `(sent ids, delivered ids)`.
    pub fn summary(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.sent.iter().copied().collect(),
            self.delivered.iter().copied().collect(),
        )
    }
}

/// Cross-PE balance check, run once a virtual-time machine (sim, check)
/// has finished.
///
/// `drained` is true when the run ended because the event queue emptied —
/// true quiescence, at which every sent envelope must have been delivered.
/// After a clean `exit()` messages may legitimately still be in flight, so
/// only the duplicate check applies.
pub fn check_balance(
    summaries: Vec<(Vec<u64>, Vec<u64>)>,
    drained: bool,
    probe: Option<&FaultProbe>,
) {
    let mut sent: HashSet<u64> = HashSet::new();
    let mut delivered: HashSet<u64> = HashSet::new();
    let report = |msg: String| match probe {
        Some(p) => p.report(msg),
        None => panic!("analyze: {msg}"),
    };
    for (s, d) in summaries {
        sent.extend(s);
        for id in d {
            if !delivered.insert(id) {
                report(format!(
                    "envelope {id:#x} delivered on more than one PE (double delivery across the machine)"
                ));
            }
        }
    }
    if drained {
        let mut lost: Vec<u64> = sent.difference(&delivered).copied().collect();
        lost.sort_unstable();
        for id in lost {
            report(format!(
                "lost envelope {id:#x}: sent but never delivered, yet the machine reached quiescence"
            ));
        }
    }
}

/// The trace counters' version of [`check_balance`]: at true quiescence the
/// machine-wide QD-counted sends must equal the handles. `totals` is one
/// `(sent, processed)` pair per PE.
pub fn check_counter_balance(totals: &[(u64, u64)], drained: bool, probe: Option<&FaultProbe>) {
    if !drained {
        return; // after exit() messages may legitimately be in flight
    }
    let sent: u64 = totals.iter().map(|(s, _)| s).sum();
    let processed: u64 = totals.iter().map(|(_, p)| p).sum();
    if sent != processed {
        let msg =
            format!("trace counter imbalance at quiescence: {sent} sent vs {processed} processed");
        match probe {
            Some(p) => p.report(msg),
            None => panic!("analyze: {msg}"),
        }
    }
}
