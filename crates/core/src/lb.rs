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

use std::collections::BTreeMap;

use crate::ids::{ChareId, Pe};
use crate::msg::EnvKind;
use crate::pe::{Invoke, PeState};
use crate::sweep::Wave;
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

/// One subtree's residual picture, reduced up the LB tree
/// ([`LbMode::Tree`]). Everything a parent needs: subtree totals for the
/// average, a bounded list of placement targets, and the bounded spill of
/// chares the subtree could not place under the limit. A tree node's own
/// accumulator for an epoch is one of these too: child reports fold into
/// it, the node adds itself, and what is left after its refine pass is
/// what it sends up.
#[derive(Debug, Clone, Default, PartialEq)]
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

impl LbTreeReport {
    /// Fold one child subtree's report into this accumulator.
    pub fn fold(&mut self, r: LbTreeReport) {
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

/// The epoch coordinator's state (PE 0, both modes).
#[derive(Default)]
struct LbRoot {
    /// Central mode: stats received so far, folded flat in arrival order.
    /// The buffer's capacity is reused across epochs.
    chares: Vec<LbChareStat>,
    /// Central mode: PEs heard from.
    pes_reported: usize,
    /// Migrations ordered in the current epoch. Tree mode holds `u64::MAX`
    /// from the kick until the root's own merge fixes the total.
    migrations_pending: u64,
    /// Migrations that have landed (`LbMigrated` received). A counter of
    /// its own rather than a decrement of `migrations_pending`, so
    /// completions may arrive *before* the total is known — which happens
    /// under [`LbMode::Tree`], where interior nodes issue orders before the
    /// root has finished its own merge.
    migrations_done: u64,
    /// Whether an epoch is currently running.
    in_epoch: bool,
    /// Completed LB epochs (reported in `RunReport`).
    epochs_done: u64,
    /// Clock stamp of the epoch's start (traces the epoch duration).
    epoch_start_ns: u64,
}

/// One PE's load-balancing state.
///
/// **Envelopes:** `LbPoll`, `LbStats`, `LbDoMigrate`, `LbMigrated`,
/// `LbResume`, `LbKick`, `LbTreePoll`, `LbTreeReport`
/// ([`PeState::on_lb`]). **Invariants:** a PE reports once per epoch
/// (`stats_sent`), and only when every local participant sits at its sync
/// point; measured loads restart from zero in the same step. The tree
/// mode's poll wave and the resume broadcast travel different trees, so a
/// poll may be one epoch ahead of this PE's resume, never more: it waits in
/// `pending_poll`. A tree node reports up only after it was polled and
/// every child it relayed the poll to has reported, so a report always
/// lands in its own epoch and needs no tag. The epoch ends at the root when
/// as many `LbMigrated` landed as migrations were ordered.
#[derive(Default)]
pub(crate) struct Lb {
    /// Local participants parked at their sync point this epoch.
    at_sync_count: u64,
    /// Whether this PE already shipped its stats (central) or its subtree
    /// report (tree) this epoch.
    stats_sent: bool,
    /// LB epochs completed from this PE's point of view (resumes seen).
    /// Tags kicks and polls so stragglers from finished epochs are dropped.
    epoch: u64,
    /// Tree mode: the epoch's poll wave as it crosses this PE, folding the
    /// child subtrees' reports.
    wave: Wave<LbTreeReport>,
    /// Tree mode: this PE already sent its `LbKick` to the root this epoch.
    kicked: bool,
    /// Tree mode: a next-epoch poll that outran this PE's `LbResume`,
    /// replayed right after the resume lands.
    pending_poll: Option<(u64, Pe)>,
    /// Peak candidate-stat count materialized on this PE this run — the
    /// O(nchares/npes · group_size) bound the scale tests assert.
    peak_stats: u64,
    root: LbRoot,
}

impl Lb {
    /// Local participants waiting at their sync point.
    pub(crate) fn at_sync_count(&self) -> u64 {
        self.at_sync_count
    }

    /// Peak LB stat records this PE ever held (`PePerf::lb_peak_stats`).
    pub(crate) fn peak_stats(&self) -> u64 {
        self.peak_stats
    }

    fn saw_stats(&mut self, held: usize) {
        self.peak_stats = self.peak_stats.max(held as u64);
    }
}

impl PeState {
    /// The load-balancing slice of the dispatch switch.
    pub(crate) fn on_lb(&mut self, kind: EnvKind) {
        match kind {
            EnvKind::LbPoll => {
                // Only PEs without participants answer; everyone else will
                // (or already did) report via their own at-sync trigger.
                if !self.lb.stats_sent && self.lb_participants().is_empty() {
                    self.lb_send_central_stats(&[]);
                }
            }
            EnvKind::LbStats { stats } => self.lb_central_stats(stats),
            EnvKind::LbDoMigrate { moves } => {
                for (id, dst) in moves {
                    self.migrate_out(id, dst, true);
                }
            }
            EnvKind::LbMigrated => {
                self.lb.root.migrations_done += 1;
                self.lb_maybe_finish_epoch();
            }
            EnvKind::LbKick { epoch } => self.lb_tree_kick(epoch),
            EnvKind::LbTreePoll { epoch, root } => self.lb_tree_poll(epoch, root),
            EnvKind::LbTreeReport { report } => self.lb_tree_report_in(*report),
            EnvKind::LbResume { root } => {
                self.relay(self.cfg.tree, root, || EnvKind::LbResume { root });
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
                self.lb.at_sync_count += 1;
            }
        }
        if self.lb.stats_sent {
            return;
        }
        let participants = self.lb_participants();
        if participants.is_empty() || self.lb.at_sync_count < participants.len() as u64 {
            return;
        }
        match self.cfg.lb_mode {
            LbMode::Central => self.lb_send_central_stats(&participants),
            LbMode::Tree { .. } => {
                // Nudge the root to start the epoch's poll wave (once per
                // PE per epoch); report up as soon as we are polled.
                if !self.lb.kicked {
                    self.lb.kicked = true;
                    let epoch = self.lb.epoch;
                    self.emit(0, EnvKind::LbKick { epoch });
                }
                self.lb_tree_try_report();
            }
        }
    }

    /// An LB migrant landed here: it counts as parked at its sync point
    /// (it resumes with everyone else), and the LB root counts the landing.
    pub(crate) fn lb_migrant_arrived(&mut self) {
        self.lb.at_sync_count += 1;
        self.emit(0, EnvKind::LbMigrated);
    }

    fn lb_participants(&self) -> Vec<ChareId> {
        self.sorted_chares(|id| self.colls.get(id.coll).is_some_and(|c| c.spec.use_lb))
    }

    /// This PE's `participants` with the loads measured since the last
    /// epoch — which restart from zero here: this is the epoch boundary.
    fn lb_take_local_stats(&mut self, participants: &[ChareId]) -> Vec<LbChareStat> {
        let stat = |id: &ChareId| LbChareStat {
            id: *id,
            pe: self.pe,
            load_ns: std::mem::take(&mut self.slot_mut(id).load_ns),
            migratable: self.vtable_of(id.coll).migratable,
        };
        participants.iter().map(stat).collect()
    }

    fn lb_send_central_stats(&mut self, participants: &[ChareId]) {
        let stats = self.lb_take_local_stats(participants);
        self.lb.stats_sent = true;
        self.emit(0, EnvKind::LbStats { stats });
    }

    /// Group `(chare, from, to)` moves into one `LbDoMigrate` per owner,
    /// in PE order; returns how many moves were ordered.
    fn lb_order_moves(&mut self, moves: Vec<(ChareId, Pe, Pe)>) -> u64 {
        let mut per_pe: BTreeMap<Pe, Vec<(ChareId, Pe)>> = BTreeMap::new();
        let mut ordered = 0;
        for (id, from, to) in moves {
            ordered += 1;
            per_pe.entry(from).or_default().push((id, to));
        }
        for (owner, moves) in per_pe {
            self.emit(owner, EnvKind::LbDoMigrate { moves });
        }
        ordered
    }

    fn lb_central_stats(&mut self, stats: Vec<LbChareStat>) {
        debug_assert_eq!(self.pe, 0, "LB stats routed to non-central PE");
        let root = &mut self.lb.root;
        root.chares.extend(stats);
        let held = root.chares.len();
        root.pes_reported += 1;
        let first = root.pes_reported == 1;
        self.lb.saw_stats(held);
        if first {
            // Epoch begins: stamp it for the trace, then poll every PE so
            // ones without participants still report (they have no at-sync
            // trigger of their own).
            self.lb.root.epoch_start_ns = self.now_ns();
            for pe in 0..self.npes {
                self.emit(pe, EnvKind::LbPoll);
            }
        }
        if self.lb.root.pes_reported < self.npes {
            return;
        }
        let root = &mut self.lb.root;
        root.pes_reported = 0;
        root.in_epoch = true;
        let mut stats = LbStats {
            npes: self.npes,
            chares: std::mem::take(&mut root.chares),
        };
        let assigned = self.cfg.lb.as_ref().map(|s| s.assign(&stats));
        // The strategy has seen the stats in arrival order; sorted by id
        // they are this epoch's lookup index (a stable sort, so a lookup
        // finds what a front-to-back scan would).
        stats.chares.sort_by_key(|c| c.id);
        let npes = self.npes;
        let moves = assigned
            .unwrap_or_default()
            .into_iter()
            .filter_map(|(id, dst)| {
                // A strategy returning a move for a chare absent from its own
                // input stats is a strategy bug; skip that move instead of
                // panicking the PE mid-epoch.
                let first = stats.chares.partition_point(|c| c.id < id);
                let c = stats.chares.get(first).filter(|c| c.id == id)?;
                (c.migratable && c.pe != dst && dst < npes).then_some((id, c.pe, dst))
            });
        let total = self.lb_order_moves(moves.collect());
        // Reclaim the stat buffer's capacity for the next epoch.
        stats.chares.clear();
        self.lb.root.chares = stats.chares;
        self.lb.root.migrations_pending = total;
        self.lb.root.migrations_done = 0;
        self.lb_maybe_finish_epoch();
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

    fn lb_tree_kick(&mut self, epoch: u64) {
        debug_assert_eq!(self.pe, 0, "LbKick routed to non-root PE");
        // Redundant kicks for a running epoch and stragglers from finished
        // ones are both dropped; only a kick for the current epoch starts
        // the wave.
        let root = &mut self.lb.root;
        if root.in_epoch || epoch != root.epochs_done {
            return;
        }
        root.in_epoch = true;
        // The order total is unknown until the root's own merge runs;
        // block lb_maybe_finish_epoch until then.
        root.migrations_pending = u64::MAX;
        root.migrations_done = 0;
        self.lb.root.epoch_start_ns = self.now_ns();
        self.lb_tree_poll(epoch, 0);
    }

    fn lb_tree_poll(&mut self, epoch: u64, root: Pe) {
        debug_assert!(
            epoch <= self.lb.epoch + 1,
            "LB poll wave more than one epoch ahead"
        );
        if epoch == self.lb.epoch + 1 {
            // Next epoch's wave outran this PE's resume; hold it.
            self.lb.pending_poll = Some((epoch, root));
            return;
        }
        if epoch != self.lb.epoch || self.lb.wave.is_open() || self.lb.stats_sent {
            return; // straggler or duplicate
        }
        let tree = self.cfg.lb_mode.tree_shape();
        let owed = self.relay(tree, root, || EnvKind::LbTreePoll { epoch, root });
        self.lb
            .wave
            .open(epoch, root, owed, LbTreeReport::default());
        self.lb_tree_try_report();
    }

    fn lb_tree_report_in(&mut self, report: LbTreeReport) {
        let epoch = self.lb.epoch;
        let Some(acc) = self.lb.wave.answer(epoch) else {
            debug_assert!(false, "LB tree report before poll");
            return;
        };
        acc.fold(report);
        let held = acc.spill.len();
        self.lb.saw_stats(held);
        self.lb_tree_try_report();
    }

    /// Report readiness check, run after every event that could complete
    /// this PE's subtree: polled, every relayed child reported, and every
    /// local participant reached at-sync.
    fn lb_tree_try_report(&mut self) {
        if self.lb.stats_sent || !self.lb.wave.ready() {
            return;
        }
        let participants = self.lb_participants();
        if !participants.is_empty() && self.lb.at_sync_count < participants.len() as u64 {
            return;
        }
        let LbMode::Tree { group_size } = self.cfg.lb_mode else {
            debug_assert!(false, "tree report in central mode");
            return;
        };
        let Some((_, root, mut acc)) = self.lb.wave.finish() else {
            return;
        };
        // A child subtree reported into the accumulator: an interior node.
        let interior = acc.pe_count > 0;
        // Merge this PE's own contribution: migratable participants become
        // placement candidates; everything pinned is this PE's fixed load.
        let mut fixed = 0u64;
        for stat in self.lb_take_local_stats(&participants) {
            acc.total_load_ns += stat.load_ns;
            if stat.migratable {
                acc.chare_count += 1;
                acc.spill.push(stat);
            } else {
                fixed += stat.load_ns;
            }
        }
        acc.pe_count += 1;
        acc.acceptors.push((self.pe, fixed));
        self.lb.stats_sent = true;
        self.lb.saw_stats(acc.spill.len());

        let parent = self
            .cfg
            .lb_mode
            .tree_shape()
            .parent(self.pe, root, self.npes);
        if parent.is_none() || interior {
            // Interior (or root) node: refine placement within the subtree
            // and issue orders directly. Leaves skip this — refining a
            // single PE against its own average would keep every chare
            // local and starve the upper levels of candidates.
            let limit = refine_limit(acc.total_load_ns, acc.pe_count, REFINE_THRESHOLD_PERMILLE);
            let candidates = std::mem::take(&mut acc.spill);
            let outcome = greedy_refine_place(&mut acc.acceptors, candidates, limit);
            acc.ordered += self.lb_order_moves(outcome.moves);
            acc.spill = outcome.leftover;
        }
        match parent {
            // Residual candidates stay put. The epoch's order total is now
            // final; the epoch ends when that many LbMigrateds landed.
            None => {
                self.lb.root.migrations_pending = acc.ordered;
                self.lb_maybe_finish_epoch();
            }
            Some(parent) => {
                truncate_acceptors(&mut acc.acceptors, group_size.max(16));
                let cap = spill_cap(acc.chare_count, acc.pe_count);
                truncate_spill(&mut acc.spill, cap);
                let report = Box::new(acc);
                self.emit(parent, EnvKind::LbTreeReport { report });
            }
        }
    }

    /// Close the epoch once every ordered migration has landed. `pending`
    /// holds `u64::MAX` from kick until the root's merge fixes the total,
    /// so a completion arriving early can never finish the epoch.
    fn lb_maybe_finish_epoch(&mut self) {
        let root = &mut self.lb.root;
        if !root.in_epoch || root.migrations_done < root.migrations_pending {
            return;
        }
        root.in_epoch = false;
        root.migrations_pending = 0;
        root.migrations_done = 0;
        root.epochs_done += 1;
        let start = root.epoch_start_ns;
        self.trace_event(|s| charm_trace::EventKind::LbEpoch {
            dur_ns: s.now_ns().saturating_sub(start),
        });
        self.emit(0, EnvKind::LbResume { root: 0 });
    }

    fn lb_resume_local(&mut self) {
        self.lb.at_sync_count = 0;
        self.lb.stats_sent = false;
        self.lb.wave.reset();
        self.lb.kicked = false;
        self.lb.epoch += 1;
        // A buffered next-epoch poll (its wave outran this resume) can run
        // now that the epoch counter caught up.
        if let Some((epoch, root)) = self.lb.pending_poll.take() {
            self.lb_tree_poll(epoch, root);
        }
        for id in self.sorted_chares(|id| self.slot(id).at_sync) {
            // (A resume handler may migrate a later chare's neighbour away,
            // never the later chare itself; `invoke` re-checks anyway.)
            if let Some(slot) = self.chares.get_mut(&id) {
                slot.at_sync = false;
            }
            self.invoke(id, Invoke::ResumeFromSync);
        }
    }

    /// LB epochs completed (read by the driver for the report; PE 0 only).
    pub fn lb_epochs(&self) -> u64 {
        self.lb.root.epochs_done
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
        let mut t = LbTreeReport::default();
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
        assert_eq!(t.pe_count, 5);
        assert_eq!(t.chare_count, 5);
        assert_eq!(t.total_load_ns, 150);
        assert_eq!(t.ordered, 2);
        assert_eq!(t.acceptors.len(), 2);
        assert_eq!(t.spill.len(), 1);
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
