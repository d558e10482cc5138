//! The load-balancing framework (paper §II-J).
//!
//! Chares created with `use_lb` participate in AtSync load balancing: each
//! calls `ctx.at_sync()` at a convenient point; once all local participants
//! have, the PE ships measured per-chare loads to PE 0, which runs the
//! configured [`LbStrategy`], broadcasts migration orders, waits for every
//! migrant to land, and finally resumes all participants via
//! `resume_from_sync` — exactly the Charm++ protocol shape.
//!
//! Strategies themselves live in the `charm-lb` crate; this module defines
//! the interface and the per-PE/central protocol state.

use charm_wire::wire_struct;

use std::collections::HashMap;

use crate::ids::{ChareId, Pe};
use crate::msg::EnvKind;
use crate::pe::{Invoke, PeState};
use crate::tree::TreeShape;

/// How AtSync load balancing is coordinated across PEs
/// (`Runtime::lb_mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LbMode {
    /// Every PE ships its full per-chare stats to PE 0, which runs the
    /// configured [`LbStrategy`] over the global picture — the Charm++
    /// CentralLB shape. Simple and optimal-information, but PE 0
    /// materializes O(nchares) stats: fine to ~10^3 PEs, a serialization
    /// point beyond.
    #[default]
    Central,
    /// Hierarchical GreedyRefine: PEs reduce stats up a `group_size`-ary
    /// spanning tree; each interior node refines placement *within its
    /// subtree* (issuing migration orders directly) and passes only
    /// bounded residual spill and a bounded acceptor list upward, so no
    /// PE ever holds more than O(nchares/npes · group_size) stats.
    /// `Tree { group_size: npes }` degenerates to a flat tree whose root
    /// sees everything — it reproduces `Central` with charm-lb's
    /// `GreedyRefineLb` migration-for-migration.
    Tree {
        /// Fan-in of the LB reduction tree (≥ 2 to be hierarchical).
        group_size: usize,
    },
}

impl LbMode {
    /// The LB reduction tree for this mode: a flat `group_size`-ary tree
    /// rooted at PE 0 (distinct from the broadcast tree, whose shape the
    /// user picks independently).
    pub fn tree_shape(&self) -> TreeShape {
        let arity = match *self {
            LbMode::Central => 4,
            LbMode::Tree { group_size } => group_size.max(1),
        };
        TreeShape {
            arity,
            cores_per_node: None,
        }
    }
}

/// Measured load of one chare over the last LB epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct LbChareStat {
    /// Which chare.
    pub id: ChareId,
    /// Current PE.
    pub pe: Pe,
    /// Accumulated entry-method time since the last epoch, nanoseconds.
    pub load_ns: u64,
    /// Whether the runtime can move it (registered migratable).
    pub migratable: bool,
}
wire_struct! { LbChareStat { id, pe, load_ns, migratable } }

/// The global picture handed to a strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct LbStats {
    /// Number of PEs.
    pub npes: usize,
    /// Every participating chare in the system.
    pub chares: Vec<LbChareStat>,
}
wire_struct! { LbStats { npes, chares } }

impl LbStats {
    /// Per-PE total load implied by current placement, seconds.
    pub fn pe_loads(&self) -> Vec<f64> {
        let mut loads = Vec::new();
        self.pe_loads_into(&mut loads);
        loads
    }

    /// [`LbStats::pe_loads`] into a caller-owned buffer — the strategy
    /// hot path reuses one buffer across epochs instead of allocating
    /// an `npes`-sized vector per call.
    pub fn pe_loads_into(&self, loads: &mut Vec<f64>) {
        loads.clear();
        loads.resize(self.npes, 0.0);
        for c in &self.chares {
            loads[c.pe] += c.load_ns as f64 / 1e9;
        }
    }

    /// Max/avg PE load ratio — 1.0 is perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let loads = self.pe_loads();
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let avg = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        if avg > 0.0 {
            max / avg
        } else {
            1.0
        }
    }
}

/// A centralized load-balancing strategy: maps measured loads to a set of
/// migrations. Implementations must only move chares with
/// `migratable == true` and must return destinations `< npes`.
pub trait LbStrategy: Send + Sync {
    /// Compute migrations as `(chare, new_pe)` pairs; chares not listed
    /// stay put.
    fn assign(&self, stats: &LbStats) -> Vec<(ChareId, Pe)>;

    /// Strategy name for logs and reports.
    fn name(&self) -> &'static str {
        "unnamed-lb"
    }
}

/// Per-PE protocol state for one LB epoch.
#[derive(Default)]
pub struct LbPeState {
    /// Local participants that called `at_sync` this epoch.
    pub at_sync_count: u64,
    /// Whether this PE already shipped its stats (central) or its tree
    /// report (hierarchical).
    pub stats_sent: bool,
}

/// Central (PE 0) protocol state.
#[derive(Default)]
pub struct LbCentral {
    /// Stats received so far, folded flat on arrival (in arrival order —
    /// the same order the old one-batch-per-PE drain produced). The
    /// buffer's capacity is reused across epochs.
    pub chares: Vec<LbChareStat>,
    /// PEs heard from.
    pub pes_reported: usize,
    /// Migrations ordered in the current epoch.
    pub migrations_pending: u64,
    /// Migrations that have landed (`LbMigrated` received). Kept as a
    /// separate counter rather than decrementing `migrations_pending`
    /// so completions may arrive *before* the total is known — which
    /// happens under [`LbMode::Tree`], where interior nodes issue orders
    /// before the root has finished its own merge.
    pub migrations_done: u64,
    /// Whether an epoch is currently running.
    pub in_epoch: bool,
    /// Completed LB epochs (reported in `RunReport`).
    pub epochs_done: u64,
    /// Clock stamp of the current epoch's first stats arrival (traces the
    /// epoch duration).
    pub epoch_start_ns: u64,
}

/// One subtree's residual picture, reduced up the LB tree
/// ([`LbMode::Tree`]). Everything a parent needs: subtree totals for the
/// average, a bounded list of placement targets, and the bounded spill of
/// chares the subtree could not place under the limit.
#[derive(Debug, Clone, PartialEq)]
pub struct LbTreeReport {
    /// PEs in the subtree (drives the load average).
    pub pe_count: u64,
    /// Migratable candidates seen in the subtree (drives the spill cap).
    pub chare_count: u64,
    /// Total measured load in the subtree, migratable or not.
    pub total_load_ns: u64,
    /// Migration orders already issued inside the subtree.
    pub ordered: u64,
    /// Bounded (pe, load) placement targets, least-loaded retained.
    pub acceptors: Vec<(Pe, u64)>,
    /// Bounded residual candidates; loads are *not* included in any
    /// acceptor entry (they are "lifted" until an ancestor places them
    /// or the root lets them stay put).
    pub spill: Vec<LbChareStat>,
}
wire_struct! { LbTreeReport { pe_count, chare_count, total_load_ns, ordered, acceptors, spill } }

/// Per-PE protocol state for one hierarchical LB epoch. Buffers are
/// cleared, not dropped, between epochs.
#[derive(Default)]
pub struct LbTreePe {
    /// This PE has seen the epoch's `LbTreePoll`.
    pub polled: bool,
    /// This PE already sent its `LbKick` to the root this epoch.
    pub kicked: bool,
    /// LB-tree children this PE relayed the epoch's poll to (and so owes
    /// reports from before it can report itself).
    pub children_expected: usize,
    /// Child reports folded in so far.
    pub children_seen: usize,
    /// Folded accumulator over child reports (plus own contribution at
    /// report time).
    pub pe_count: u64,
    /// See [`LbTreeReport::chare_count`].
    pub chare_count: u64,
    /// See [`LbTreeReport::total_load_ns`].
    pub total_load_ns: u64,
    /// Orders issued in this PE's subtree so far.
    pub ordered: u64,
    /// Folded child acceptors (own entry added at report time).
    pub acceptors: Vec<(Pe, u64)>,
    /// Folded child spill (own candidates added at report time).
    pub spill: Vec<LbChareStat>,
    /// Peak candidate-stat count materialized on this PE this run — the
    /// O(nchares/npes · group_size) bound the scale tests assert.
    pub peak_stats: u64,
    /// LB epochs completed from this PE's point of view (resumes seen).
    /// Tags kicks so the root can discard stragglers from finished
    /// epochs; survives [`LbTreePe::reset`].
    pub epoch: u64,
    /// A next-epoch poll that outran this PE's `LbResume` (the poll wave
    /// and the resume broadcast travel different trees). Replayed right
    /// after the resume lands; survives [`LbTreePe::reset`].
    pub pending_poll: Option<(u64, Pe)>,
}

impl LbTreePe {
    /// Reset for the next epoch, keeping buffer capacity.
    pub fn reset(&mut self) {
        self.polled = false;
        self.kicked = false;
        self.children_expected = 0;
        self.children_seen = 0;
        self.pe_count = 0;
        self.chare_count = 0;
        self.total_load_ns = 0;
        self.ordered = 0;
        self.acceptors.clear();
        self.spill.clear();
    }

    /// Fold one child report into the accumulator.
    pub fn fold(&mut self, r: LbTreeReport) {
        self.children_seen += 1;
        self.pe_count += r.pe_count;
        self.chare_count += r.chare_count;
        self.total_load_ns += r.total_load_ns;
        self.ordered += r.ordered;
        self.acceptors.extend(r.acceptors);
        self.spill.extend(r.spill);
    }
}

/// Overload threshold shared by the hierarchical refine pass and
/// `charm-lb`'s `GreedyRefineLb`: a PE is an eligible target while its
/// load stays ≤ `avg · 1.05` (Charm++'s RefineLB default tolerance).
pub const REFINE_THRESHOLD_PERMILLE: u64 = 1050;

/// Per-PE load limit for a refine pass: `threshold/1000 · total/pe_count`
/// in exact integer arithmetic (u128 intermediate, no float drift between
/// PEs computing the same subtree).
pub fn refine_limit(total_load_ns: u64, pe_count: u64, threshold_permille: u64) -> u64 {
    if pe_count == 0 {
        return 0;
    }
    let limit = (total_load_ns as u128 * threshold_permille as u128) / (1000 * pe_count as u128);
    limit.min(u64::MAX as u128) as u64
}

/// Spill cap for one upward report: proportional to the subtree's
/// chares-per-PE density so the per-PE stat bound holds, with a floor so
/// leaves (pe_count 1) always pass *all* their candidates — required for
/// `Tree { group_size: npes }` to reproduce `Central` exactly.
pub fn spill_cap(chare_count: u64, pe_count: u64) -> usize {
    (2 * chare_count.div_ceil(pe_count.max(1))).max(16) as usize
}

/// Result of one [`greedy_refine_place`] pass.
#[derive(Debug, Default, PartialEq)]
pub struct RefineOutcome {
    /// Migration orders `(chare, current pe, destination)`; destination
    /// always differs from the current pe.
    pub moves: Vec<(ChareId, Pe, Pe)>,
    /// Candidates no acceptor could take under the limit; they stay
    /// lifted (spilled upward, or left in place at the root).
    pub leftover: Vec<LbChareStat>,
}

/// The shared GreedyRefine placement core: place `candidates` (whose
/// loads are counted in **no** acceptor entry) onto `acceptors` without
/// pushing any acceptor past `limit`. Deterministic in its *set* of
/// inputs — both lists are fully sorted internally, so arrival order
/// (batch order at PE 0, child-report order at a tree node) cannot leak
/// into the outcome. Heaviest candidates place first; each prefers its
/// current PE when that PE is a listed acceptor with room (zero moves on
/// a balanced system), else takes the least-loaded acceptor by
/// `(load, pe)`. `acceptors` is updated in place with the placed loads.
pub fn greedy_refine_place(
    acceptors: &mut [(Pe, u64)],
    mut candidates: Vec<LbChareStat>,
    limit: u64,
) -> RefineOutcome {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    acceptors.sort_unstable_by_key(|&(pe, _)| pe);
    candidates.sort_unstable_by(|a, b| b.load_ns.cmp(&a.load_ns).then(a.id.cmp(&b.id)));
    // Min-heap of (load, pe, index); entries go stale when an acceptor
    // takes a chare and are skipped lazily.
    let mut heap: BinaryHeap<Reverse<(u64, Pe, usize)>> = acceptors
        .iter()
        .enumerate()
        .map(|(i, &(pe, load))| Reverse((load, pe, i)))
        .collect();
    let mut out = RefineOutcome::default();
    for c in candidates {
        // Prefer staying put: the current PE keeps the chare while it has
        // room under the limit.
        if let Ok(i) = acceptors.binary_search_by_key(&c.pe, |&(pe, _)| pe) {
            let new = acceptors[i].1.saturating_add(c.load_ns);
            if new <= limit {
                acceptors[i].1 = new;
                heap.push(Reverse((new, c.pe, i)));
                continue;
            }
        }
        // Least-loaded acceptor with room, skipping stale heap entries.
        let mut placed = false;
        while let Some(&Reverse((load, pe, i))) = heap.peek() {
            if acceptors[i].1 != load {
                heap.pop();
                continue;
            }
            let new = load.saturating_add(c.load_ns);
            if new > limit {
                break;
            }
            heap.pop();
            acceptors[i].1 = new;
            heap.push(Reverse((new, pe, i)));
            if pe != c.pe {
                out.moves.push((c.id, c.pe, pe));
            }
            placed = true;
            break;
        }
        if !placed {
            out.leftover.push(c);
        }
    }
    out
}

/// Truncate an upward report's acceptor list to the `cap` least-loaded
/// entries (by `(load, pe)`), dropping the rest — their PEs simply take
/// no further chares from ancestors.
pub fn truncate_acceptors(acceptors: &mut Vec<(Pe, u64)>, cap: usize) {
    if acceptors.len() > cap {
        acceptors.sort_unstable_by_key(|&(pe, load)| (load, pe));
        acceptors.truncate(cap);
    }
}

/// Truncate an upward report's spill to the `cap` heaviest candidates
/// (by `(load desc, id)`); the rest stay put on their current PEs.
pub fn truncate_spill(spill: &mut Vec<LbChareStat>, cap: usize) {
    if spill.len() > cap {
        spill.sort_unstable_by(|a, b| b.load_ns.cmp(&a.load_ns).then(a.id.cmp(&b.id)));
        spill.truncate(cap);
    }
}

/// One PE's load-balancing state: its own epoch progress, PE 0's
/// coordinator state, and the hierarchical mode's per-epoch accumulator.
#[derive(Default)]
pub(crate) struct Lb {
    pe: LbPeState,
    central: LbCentral,
    tree: LbTreePe,
}

impl Lb {
    /// Local participants waiting at their sync point.
    pub(crate) fn at_sync_count(&self) -> u64 {
        self.pe.at_sync_count
    }

    /// Peak LB stat records this PE ever held (`PePerf::lb_peak_stats`).
    pub(crate) fn peak_stats(&self) -> u64 {
        self.tree.peak_stats
    }
}

impl PeState {
    /// The load-balancing slice of the dispatch switch.
    pub(crate) fn on_lb(&mut self, kind: EnvKind) {
        match kind {
            EnvKind::LbPoll => {
                // Only PEs without participants answer; everyone else will
                // (or already did) report via their own at-sync trigger.
                if !self.lb.pe.stats_sent && self.lb_participants().is_empty() {
                    self.lb.pe.stats_sent = true;
                    self.emit(
                        0,
                        EnvKind::LbStats {
                            stats: Vec::new(),
                            at_sync: 0,
                        },
                    );
                }
            }
            EnvKind::LbStats { stats, at_sync } => self.lb_central_stats(stats, at_sync),
            EnvKind::LbDoMigrate { moves, total: _ } => {
                // (The ordering PE tracks the epoch's completion count.)
                for (id, dst) in moves {
                    self.migrate_out(id, dst, true);
                }
            }
            EnvKind::LbMigrated => {
                // A counter rather than a decrement: under `LbMode::Tree`,
                // interior nodes issue orders before the root knows the
                // epoch's total, so completions may arrive first.
                self.lb.central.migrations_done += 1;
                self.lb_maybe_finish_epoch();
            }
            EnvKind::LbKick { epoch } => self.lb_tree_kick(epoch),
            EnvKind::LbTreePoll { epoch, root } => self.lb_tree_poll(epoch, root),
            EnvKind::LbTreeReport { report } => self.lb_tree_report_in(*report),
            EnvKind::LbResume { root } => {
                let tree = self.cfg.tree;
                tree.children_for_each(self.pe, root, self.npes, |child| {
                    self.emit(child, EnvKind::LbResume { root });
                });
                self.lb_resume_local();
            }
            // analyze: allow(panic, "dispatch hands this module only the eight kinds above")
            other => unreachable!("not a load-balancing envelope: {other:?}"),
        }
    }

    /// `ctx.at_sync()`: park `id` at its sync point and report once every
    /// local participant has.
    pub(crate) fn at_sync(&mut self, id: ChareId) {
        if let Some(slot) = self.chares.get_mut(&id) {
            if !slot.at_sync {
                slot.at_sync = true;
                self.lb.pe.at_sync_count += 1;
            }
        }
        self.lb_check_ready();
    }

    /// An LB migrant landed here: it counts as parked at its sync point
    /// (it resumes with everyone else), and the LB root counts the landing.
    pub(crate) fn lb_migrant_arrived(&mut self) {
        self.lb.pe.at_sync_count += 1;
        self.emit(0, EnvKind::LbMigrated);
    }

    pub(crate) fn lb_participants(&self) -> Vec<ChareId> {
        let mut v: Vec<ChareId> = self
            .chares
            // analyze: allow(nondeterminism, "hash order erased by the sort below")
            .keys()
            .filter(|id| {
                self.colls
                    .get(&id.coll)
                    .map(|c| c.spec.use_lb)
                    .unwrap_or(false)
            })
            .copied()
            .collect();
        v.sort();
        v
    }

    pub(crate) fn lb_check_ready(&mut self) {
        if self.lb.pe.stats_sent {
            return;
        }
        let participants = self.lb_participants();
        if participants.is_empty() || self.lb.pe.at_sync_count < participants.len() as u64 {
            return;
        }
        match self.cfg.lb_mode {
            LbMode::Central => self.lb_send_central_stats(&participants),
            LbMode::Tree { .. } => {
                // Nudge the root to start the epoch's poll wave (once per
                // PE per epoch); report up as soon as we are polled.
                if !self.lb.tree.kicked {
                    self.lb.tree.kicked = true;
                    let epoch = self.lb.tree.epoch;
                    self.emit(0, EnvKind::LbKick { epoch });
                }
                self.lb_tree_try_report();
            }
        }
    }

    pub(crate) fn lb_send_central_stats(&mut self, participants: &[ChareId]) {
        let stats: Vec<LbChareStat> = participants
            .iter()
            .map(|id| {
                // analyze: allow(panic, "LB stats walk this PE's own chare map keys")
                let slot = &self.chares[id];
                let migratable = self
                    .registry
                    // analyze: allow(panic, "a chare's collection spec exists wherever the chare lives")
                    .vtable(self.colls.get(&id.coll).unwrap().spec.ctype)
                    .migratable;
                LbChareStat {
                    id: *id,
                    pe: self.pe,
                    load_ns: slot.load_ns,
                    migratable,
                }
            })
            .collect();
        // Loads reset at the epoch boundary.
        for id in participants {
            // analyze: allow(panic, "participants are keys of self.chares collected above")
            self.chares.get_mut(id).unwrap().load_ns = 0;
        }
        self.lb.pe.stats_sent = true;
        let at_sync = self.lb.pe.at_sync_count;
        self.emit(0, EnvKind::LbStats { stats, at_sync });
    }

    pub(crate) fn lb_central_stats(&mut self, stats: Vec<LbChareStat>, _at_sync: u64) {
        debug_assert_eq!(self.pe, 0, "LB stats routed to non-central PE");
        // Fold each batch on arrival (same concatenation order the old
        // per-batch buffer produced, without holding npes Vec headers).
        self.lb.central.chares.extend(stats);
        self.lb.tree.peak_stats = self
            .lb
            .tree
            .peak_stats
            .max(self.lb.central.chares.len() as u64);
        self.lb.central.pes_reported += 1;
        if self.lb.central.pes_reported == 1 {
            // Epoch begins: stamp it for the trace, then poll every PE so
            // ones without participants still report (they have no at-sync
            // trigger of their own).
            self.lb.central.epoch_start_ns = self.now_ns();
            for pe in 0..self.npes {
                self.emit(pe, EnvKind::LbPoll);
            }
        }
        if self.lb.central.pes_reported < self.npes {
            return;
        }
        let chares = std::mem::take(&mut self.lb.central.chares);
        self.lb.central.pes_reported = 0;
        self.lb.central.in_epoch = true;
        let mut stats = LbStats {
            npes: self.npes,
            chares,
        };
        let assigned = self.cfg.lb.as_ref().map(|s| s.assign(&stats));
        // The strategy has seen the stats in arrival order; sorted by id
        // they are this epoch's lookup index (a stable sort, so a lookup
        // finds what a front-to-back scan would).
        stats.chares.sort_by_key(|c| c.id);
        let mut per_pe: HashMap<Pe, Vec<(ChareId, Pe)>> = HashMap::new();
        let mut total = 0u64;
        for (id, dst) in assigned.unwrap_or_default() {
            // A strategy returning a move for a chare absent from its own
            // input stats is a strategy bug; skip that move instead of
            // panicking the PE mid-epoch.
            let first = stats.chares.partition_point(|c| c.id < id);
            let Some(c) = stats.chares.get(first).filter(|c| c.id == id) else {
                continue;
            };
            if c.migratable && c.pe != dst && dst < self.npes {
                total += 1;
                per_pe.entry(c.pe).or_default().push((id, dst));
            }
        }
        // Reclaim the stat buffer's capacity for the next epoch.
        let mut buf = stats.chares;
        buf.clear();
        self.lb.central.chares = buf;
        if total == 0 {
            self.lb_finish_epoch();
            return;
        }
        self.lb.central.migrations_pending = total;
        self.lb.central.migrations_done = 0;
        for (owner, moves) in per_pe {
            self.emit(owner, EnvKind::LbDoMigrate { moves, total });
        }
    }

    // ---------------------------------------------------------------------
    // Hierarchical load balancing (`LbMode::Tree`)
    //
    // PEs fold chare stats up a group tree; interior nodes refine placement
    // within their subtree, issue migration orders directly, and pass only
    // a bounded residual (truncated acceptor list + capped spill) upward.
    // No PE ever materializes the global stat vector. Orders flow as normal
    // `LbDoMigrate`s; completion is counted at the root (`LbMigrated`),
    // which finishes the epoch once every ordered migration landed.
    // ---------------------------------------------------------------------

    pub(crate) fn lb_tree_kick(&mut self, epoch: u64) {
        debug_assert_eq!(self.pe, 0, "LbKick routed to non-root PE");
        // Redundant kicks for a running epoch and stragglers from finished
        // ones are both dropped; only a kick for the current epoch starts
        // the wave.
        if self.lb.central.in_epoch || epoch != self.lb.central.epochs_done {
            return;
        }
        self.lb.central.in_epoch = true;
        self.lb.central.epoch_start_ns = self.now_ns();
        // The order total is unknown until the root's own merge runs;
        // block lb_maybe_finish_epoch until then.
        self.lb.central.migrations_pending = u64::MAX;
        self.lb.central.migrations_done = 0;
        self.lb_tree_poll(epoch, 0);
    }

    pub(crate) fn lb_tree_poll(&mut self, epoch: u64, root: Pe) {
        debug_assert!(
            epoch <= self.lb.tree.epoch + 1,
            "LB poll wave more than one epoch ahead"
        );
        if epoch == self.lb.tree.epoch + 1 {
            // Next epoch's wave outran this PE's resume; hold it.
            self.lb.tree.pending_poll = Some((epoch, root));
            return;
        }
        if epoch != self.lb.tree.epoch || self.lb.tree.polled {
            return; // straggler or duplicate
        }
        self.lb.tree.polled = true;
        let tree = self.cfg.lb_mode.tree_shape();
        let mut expected = 0usize;
        tree.children_for_each(self.pe, root, self.npes, |child| {
            expected += 1;
            self.emit(child, EnvKind::LbTreePoll { epoch, root });
        });
        self.lb.tree.children_expected = expected;
        self.lb_tree_try_report();
    }

    pub(crate) fn lb_tree_report_in(&mut self, report: LbTreeReport) {
        // A child reports only after we polled it, and we cannot resume
        // (reset) before our whole subtree reported — so a report always
        // lands in its own epoch.
        debug_assert!(self.lb.tree.polled, "LB tree report before poll");
        self.lb.tree.fold(report);
        let held = self.lb.tree.spill.len() as u64;
        self.lb.tree.peak_stats = self.lb.tree.peak_stats.max(held);
        self.lb_tree_try_report();
    }

    /// Report readiness check, run after every event that could complete
    /// this PE's subtree: polled, every relayed child reported, and every
    /// local participant reached at-sync.
    pub(crate) fn lb_tree_try_report(&mut self) {
        if !self.lb.tree.polled || self.lb.pe.stats_sent {
            return;
        }
        if self.lb.tree.children_seen < self.lb.tree.children_expected {
            return;
        }
        let participants = self.lb_participants();
        if !participants.is_empty() && self.lb.pe.at_sync_count < participants.len() as u64 {
            return;
        }
        let LbMode::Tree { group_size } = self.cfg.lb_mode else {
            debug_assert!(false, "tree report in central mode");
            return;
        };
        // Merge this PE's own contribution: migratable participants become
        // placement candidates; everything pinned is this PE's fixed load.
        let mut fixed = 0u64;
        for id in &participants {
            // analyze: allow(panic, "LB stats walk this PE's own chare map keys")
            let slot = &self.chares[id];
            let migratable = self
                .registry
                // analyze: allow(panic, "a chare's collection spec exists wherever the chare lives")
                .vtable(self.colls.get(&id.coll).unwrap().spec.ctype)
                .migratable;
            self.lb.tree.total_load_ns += slot.load_ns;
            if migratable {
                self.lb.tree.chare_count += 1;
                self.lb.tree.spill.push(LbChareStat {
                    id: *id,
                    pe: self.pe,
                    load_ns: slot.load_ns,
                    migratable: true,
                });
            } else {
                fixed += slot.load_ns;
            }
        }
        // Loads reset at the epoch boundary, as in central mode.
        for id in &participants {
            // analyze: allow(panic, "participants are keys of self.chares collected above")
            self.chares.get_mut(id).unwrap().load_ns = 0;
        }
        self.lb.tree.pe_count += 1;
        self.lb.tree.acceptors.push((self.pe, fixed));
        self.lb.pe.stats_sent = true;
        let held = self.lb.tree.spill.len() as u64;
        self.lb.tree.peak_stats = self.lb.tree.peak_stats.max(held);

        let is_root = self.pe == 0;
        if is_root || self.lb.tree.children_expected > 0 {
            // Interior (or root) node: refine placement within the subtree
            // and issue orders directly. Leaves skip this — refining a
            // single PE against its own average would keep every chare
            // local and starve the upper levels of candidates.
            let limit = refine_limit(
                self.lb.tree.total_load_ns,
                self.lb.tree.pe_count,
                REFINE_THRESHOLD_PERMILLE,
            );
            let mut acceptors = std::mem::take(&mut self.lb.tree.acceptors);
            let candidates = std::mem::take(&mut self.lb.tree.spill);
            let outcome = greedy_refine_place(&mut acceptors, candidates, limit);
            let mut per_pe: HashMap<Pe, Vec<(ChareId, Pe)>> = HashMap::new();
            for (id, from, dst) in outcome.moves {
                self.lb.tree.ordered += 1;
                per_pe.entry(from).or_default().push((id, dst));
            }
            for (owner, moves) in per_pe {
                let total = moves.len() as u64;
                self.emit(owner, EnvKind::LbDoMigrate { moves, total });
            }
            self.lb.tree.acceptors = acceptors;
            self.lb.tree.spill = outcome.leftover;
        }
        if is_root {
            // Residual candidates stay put. The epoch's order total is now
            // final; the epoch ends when that many LbMigrateds landed.
            self.lb.central.migrations_pending = self.lb.tree.ordered;
            self.lb_maybe_finish_epoch();
        } else {
            truncate_acceptors(&mut self.lb.tree.acceptors, group_size.max(16));
            let cap = spill_cap(self.lb.tree.chare_count, self.lb.tree.pe_count);
            truncate_spill(&mut self.lb.tree.spill, cap);
            let tree = self.cfg.lb_mode.tree_shape();
            let parent = tree.parent(self.pe, 0, self.npes);
            // analyze: allow(panic, "every non-root PE has an LB tree parent")
            let parent = parent.expect("non-root has parent");
            let report = LbTreeReport {
                pe_count: self.lb.tree.pe_count,
                chare_count: self.lb.tree.chare_count,
                total_load_ns: self.lb.tree.total_load_ns,
                ordered: self.lb.tree.ordered,
                acceptors: std::mem::take(&mut self.lb.tree.acceptors),
                spill: std::mem::take(&mut self.lb.tree.spill),
            };
            self.emit(
                parent,
                EnvKind::LbTreeReport {
                    report: Box::new(report),
                },
            );
        }
    }

    /// Close the epoch once every ordered migration has landed. `pending`
    /// holds `u64::MAX` from kick until the root's merge fixes the total,
    /// so a completion arriving early can never finish the epoch.
    pub(crate) fn lb_maybe_finish_epoch(&mut self) {
        if self.lb.central.in_epoch
            && self.lb.central.migrations_done >= self.lb.central.migrations_pending
        {
            self.lb_finish_epoch();
        }
    }

    pub(crate) fn lb_finish_epoch(&mut self) {
        self.lb.central.in_epoch = false;
        self.lb.central.migrations_pending = 0;
        self.lb.central.migrations_done = 0;
        self.lb.central.epochs_done += 1;
        if self.tracer.full() {
            let now = self.now_ns();
            let dur = now.saturating_sub(self.lb.central.epoch_start_ns);
            self.tracer
                .push(now, charm_trace::EventKind::LbEpoch { dur_ns: dur });
        }
        self.emit(0, EnvKind::LbResume { root: 0 });
    }

    pub(crate) fn lb_resume_local(&mut self) {
        self.lb.pe.at_sync_count = 0;
        self.lb.pe.stats_sent = false;
        self.lb.tree.reset();
        self.lb.tree.epoch += 1;
        // A buffered next-epoch poll (its wave outran this resume) can run
        // now that the epoch counter caught up.
        if let Some((epoch, root)) = self.lb.tree.pending_poll.take() {
            self.lb_tree_poll(epoch, root);
        }
        let resumed: Vec<ChareId> = self
            .chares
            .iter()
            .filter(|(_, s)| s.at_sync)
            .map(|(id, _)| *id)
            .collect();
        let mut ids = resumed;
        ids.sort();
        for id in ids {
            if let Some(slot) = self.chares.get_mut(&id) {
                slot.at_sync = false;
            }
            self.invoke(id, Invoke::ResumeFromSync);
        }
    }

    /// LB epochs completed (read by the driver for the report; PE 0 only).
    pub(crate) fn lb_epochs(&self) -> u64 {
        self.lb.central.epochs_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CollectionId, Index};

    fn stat(pe: Pe, load_ms: u64) -> LbChareStat {
        LbChareStat {
            id: ChareId {
                coll: CollectionId { creator: 0, seq: 0 },
                index: Index::from(pe as i32),
            },
            pe,
            load_ns: load_ms * 1_000_000,
            migratable: true,
        }
    }

    #[test]
    fn pe_loads_aggregate() {
        let s = LbStats {
            npes: 3,
            chares: vec![stat(0, 10), stat(0, 20), stat(2, 30)],
        };
        let loads = s.pe_loads();
        assert!((loads[0] - 0.030).abs() < 1e-12);
        assert_eq!(loads[1], 0.0);
        assert!((loads[2] - 0.030).abs() < 1e-12);
    }

    #[test]
    fn imbalance_ratio() {
        let balanced = LbStats {
            npes: 2,
            chares: vec![stat(0, 10), stat(1, 10)],
        };
        assert!((balanced.imbalance() - 1.0).abs() < 1e-9);
        let skewed = LbStats {
            npes: 2,
            chares: vec![stat(0, 30), stat(1, 10)],
        };
        assert!((skewed.imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn imbalance_of_empty_system_is_one() {
        let s = LbStats {
            npes: 4,
            chares: vec![],
        };
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn pe_loads_into_reuses_buffer() {
        let s = LbStats {
            npes: 3,
            chares: vec![stat(0, 10), stat(2, 30)],
        };
        let mut buf = vec![9.0; 7];
        s.pe_loads_into(&mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf, s.pe_loads());
    }

    fn cand(pe: Pe, seq: u32, load_ms: u64) -> LbChareStat {
        LbChareStat {
            id: ChareId {
                coll: CollectionId { creator: 0, seq },
                index: Index::from(pe as i32),
            },
            pe,
            load_ns: load_ms * 1_000_000,
            migratable: true,
        }
    }

    #[test]
    fn refine_limit_integer_math() {
        assert_eq!(refine_limit(1000, 4, 1050), 262);
        assert_eq!(refine_limit(0, 4, 1050), 0);
        assert_eq!(refine_limit(100, 0, 1050), 0);
        // Saturates instead of wrapping near u64::MAX totals.
        assert_eq!(refine_limit(u64::MAX, 1, 1050), u64::MAX);
    }

    #[test]
    fn refine_place_balanced_input_stays_put() {
        let mut acc = vec![(0, 0u64), (1, 0u64)];
        let cands = vec![cand(0, 0, 50), cand(1, 1, 50)];
        let limit = refine_limit(100_000_000, 2, REFINE_THRESHOLD_PERMILLE);
        let out = greedy_refine_place(&mut acc, cands, limit);
        assert!(out.moves.is_empty());
        assert!(out.leftover.is_empty());
        assert_eq!(acc[0].1, 50_000_000);
    }

    #[test]
    fn refine_place_moves_off_overloaded_pe() {
        // All load on PE 0; two PEs. avg=50ms, limit=52.5ms.
        let mut acc = vec![(0, 0u64), (1, 0u64)];
        let cands = vec![cand(0, 0, 50), cand(0, 1, 50)];
        let limit = refine_limit(100_000_000, 2, REFINE_THRESHOLD_PERMILLE);
        let out = greedy_refine_place(&mut acc, cands, limit);
        assert_eq!(out.moves.len(), 1);
        assert_eq!(out.moves[0].1, 0, "moved off its current PE");
        assert_eq!(out.moves[0].2, 1, "onto the idle PE");
        assert!(out.leftover.is_empty());
    }

    #[test]
    fn refine_place_is_input_order_independent() {
        let mut a1 = vec![(2, 10u64), (0, 500u64), (1, 0u64)];
        let mut a2 = vec![(0, 500u64), (1, 0u64), (2, 10u64)];
        let c1 = vec![cand(0, 0, 5), cand(0, 1, 3), cand(2, 2, 1)];
        let c2 = vec![cand(2, 2, 1), cand(0, 1, 3), cand(0, 0, 5)];
        let o1 = greedy_refine_place(&mut a1, c1, 3_000_000);
        let o2 = greedy_refine_place(&mut a2, c2, 3_000_000);
        assert_eq!(o1, o2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn refine_place_spills_what_cannot_fit() {
        let mut acc = vec![(0, 0u64), (1, 0u64)];
        // One chare heavier than the limit and foreign to both acceptors.
        let cands = vec![cand(2, 0, 100)];
        let out = greedy_refine_place(&mut acc, cands, 10);
        assert!(out.moves.is_empty());
        assert_eq!(out.leftover.len(), 1);
        assert_eq!(out.leftover[0].pe, 2);
    }

    #[test]
    fn spill_cap_floors_at_leaves() {
        // A leaf (pe_count 1) must pass everything it has.
        assert!(spill_cap(100, 1) >= 100);
        assert!(spill_cap(3, 1) >= 3);
        // Dense subtree: proportional to chares per PE, not total chares.
        assert_eq!(spill_cap(1_000_000, 1_000), 2_000);
    }

    #[test]
    fn truncation_keeps_least_loaded_acceptors_and_heaviest_spill() {
        let mut acc = vec![(0, 30u64), (1, 10u64), (2, 20u64)];
        truncate_acceptors(&mut acc, 2);
        assert_eq!(acc, vec![(1, 10), (2, 20)]);
        let mut spill = vec![cand(0, 0, 1), cand(1, 1, 9), cand(2, 2, 5)];
        truncate_spill(&mut spill, 2);
        assert_eq!(spill.len(), 2);
        assert_eq!(spill[0].load_ns, 9_000_000);
        assert_eq!(spill[1].load_ns, 5_000_000);
    }

    #[test]
    fn tree_report_fold_accumulates() {
        let mut t = LbTreePe::default();
        t.fold(LbTreeReport {
            pe_count: 3,
            chare_count: 4,
            total_load_ns: 100,
            ordered: 2,
            acceptors: vec![(1, 10)],
            spill: vec![cand(1, 0, 1)],
        });
        t.fold(LbTreeReport {
            pe_count: 2,
            chare_count: 1,
            total_load_ns: 50,
            ordered: 0,
            acceptors: vec![(4, 0)],
            spill: vec![],
        });
        assert_eq!(t.children_seen, 2);
        assert_eq!(t.pe_count, 5);
        assert_eq!(t.chare_count, 5);
        assert_eq!(t.total_load_ns, 150);
        assert_eq!(t.ordered, 2);
        assert_eq!(t.acceptors.len(), 2);
        assert_eq!(t.spill.len(), 1);
        let cap = t.acceptors.capacity();
        t.reset();
        assert_eq!(t.acceptors.capacity(), cap, "reset keeps capacity");
        assert!(!t.polled && t.pe_count == 0);
    }

    #[test]
    fn lb_mode_tree_shape_matches_group_size() {
        let m = LbMode::Tree { group_size: 8 };
        let shape = m.tree_shape();
        assert_eq!(shape.arity, 8);
        assert_eq!(shape.cores_per_node, None);
        // group_size == npes degenerates to a flat tree: all PEs are
        // direct children of root 0 (the Central-equivalence shape).
        let flat = LbMode::Tree { group_size: 16 }.tree_shape();
        assert_eq!(flat.children(0, 0, 16).len(), 15);
    }
}
