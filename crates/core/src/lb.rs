//! The load-balancing framework (paper §II-J).
//!
//! Chares created with `use_lb` participate in AtSync load balancing: each
//! calls `ctx.at_sync()` at a convenient point. Their measured loads then
//! travel up a `group_size`-ary LB tree rooted at PE 0
//! (`Runtime::lb_group_size`; the default, `npes`, is one level, so the
//! root sees every stat). Interior nodes refine placement within their
//! subtree and order the moves they settle; the root runs the configured
//! [`LbStrategy`] over what reaches it, waits for every migrant to land,
//! and resumes all participants via `resume_from_sync`. This is the shape
//! of Charm++'s hierarchical balancers (Zheng et al., IJHPCA 2011).
//!
//! The default strategy, [`GreedyRefineLb`], is the refine pass interior
//! nodes run; the other strategies live in the `charm-lb` crate.

use charm_wire::wire_struct;

use std::collections::BTreeMap;

use crate::ids::{ChareId, Pe};
use crate::msg::EnvKind;
use crate::pe::{Invoke, PeState};
use crate::sweep::Wave;
use crate::tree::TreeShape;

/// The LB reduction tree: flat, `group_size`-ary (capped at `npes`),
/// rooted at PE 0, and distinct from the broadcast tree, whose shape the
/// user picks independently.
fn lb_tree(group_size: usize, npes: usize) -> TreeShape {
    TreeShape {
        arity: group_size.min(npes),
        cores_per_node: None,
    }
}

/// Measured load of one placement candidate (a participant the runtime
/// can migrate) over the last LB epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct LbChareStat {
    /// Which chare.
    pub id: ChareId,
    /// Current PE.
    pub pe: Pe,
    /// Accumulated entry-method time since the last epoch, nanoseconds.
    pub load_ns: u64,
}
wire_struct! { LbChareStat { id, pe, load_ns } }

/// What reached the LB root, handed to its strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct LbStats {
    /// Number of PEs.
    pub npes: usize,
    /// Measured load of every participant, candidate or not.
    pub total_load_ns: u64,
    /// `(pe, committed load)` for each PE the root may place onto, sorted
    /// by PE: its non-migratable participants plus what interior nodes
    /// already settled there. The default one-level tree lists every PE.
    pub loads: Vec<(Pe, u64)>,
    /// The movable candidates, sorted by id; their loads are in no `loads`
    /// entry.
    pub chares: Vec<LbChareStat>,
}

impl LbStats {
    /// Per-PE total load implied by current placement, seconds.
    pub fn pe_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.npes];
        let candidates = self.chares.iter().map(|c| (c.pe, c.load_ns));
        for (pe, load_ns) in self.loads.iter().copied().chain(candidates) {
            loads[pe] += load_ns as f64 / 1e9;
        }
        loads
    }
}

/// A load-balancing strategy: maps what reached the LB root to a set of
/// migrations. Destinations must be `< npes`; the root skips any move for
/// a chare not in `chares`, off the machine, or onto the chare's own PE.
pub trait LbStrategy: Send + Sync {
    /// Compute migrations as `(chare, new_pe)` pairs; chares not listed
    /// stay put.
    fn assign(&self, stats: &LbStats) -> Vec<(ChareId, Pe)>;

    /// Strategy name for logs and reports.
    fn name(&self) -> &'static str {
        "unnamed-lb"
    }
}

/// GreedyRefineLB, the default strategy: heaviest candidates first, each
/// staying on its PE while that PE fits under `avg · 1.05`, else going to
/// the least-loaded listed PE (Charm++'s `GreedyRefineLB`). This is the
/// [`greedy_refine_place`] call every interior LB tree node makes, so with
/// it installed the root is one more such node, the one whose pass is
/// final.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyRefineLb;

impl LbStrategy for GreedyRefineLb {
    fn assign(&self, stats: &LbStats) -> Vec<(ChareId, Pe)> {
        let mut acceptors = stats.loads.clone();
        let limit = refine_limit(
            stats.total_load_ns,
            stats.npes as u64,
            REFINE_THRESHOLD_PERMILLE,
        );
        greedy_refine_place(&mut acceptors, stats.chares.clone(), limit, true)
            .moves
            .into_iter()
            .map(|(id, _, to)| (id, to))
            .collect()
    }
    fn name(&self) -> &'static str {
        "GreedyRefineLB"
    }
}

/// One subtree's residual picture, reduced up the LB tree. Everything a
/// parent needs: subtree totals for the average, a bounded list of
/// placement targets, and the bounded spill of chares the subtree could
/// not place under the limit. A tree node's own accumulator for an epoch
/// is one of these too: child reports fold into it, the node adds itself,
/// and what is left after its refine pass is what it sends up.
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

/// Overload threshold of the refine pass: a PE is an eligible target while
/// its load stays ≤ `avg · 1.05` (Charm++'s RefineLB default tolerance).
const REFINE_THRESHOLD_PERMILLE: u64 = 1050;

/// Per-PE load limit for a refine pass: `threshold/1000 · total/pe_count`
/// in exact integer arithmetic (u128 intermediate, no float drift between
/// PEs computing the same subtree).
fn refine_limit(total_load_ns: u64, pe_count: u64, threshold_permille: u64) -> u64 {
    if pe_count == 0 {
        return 0;
    }
    let limit = (total_load_ns as u128 * threshold_permille as u128) / (1000 * pe_count as u128);
    limit.min(u64::MAX as u128) as u64
}

/// Spill cap for one upward report: proportional to the subtree's
/// chares-per-PE density so the per-PE stat bound holds, with a floor so
/// leaves (pe_count 1) always pass *all* their candidates.
fn spill_cap(chare_count: u64, pe_count: u64) -> usize {
    (2 * chare_count.div_ceil(pe_count.max(1))).max(16) as usize
}

/// Result of one [`greedy_refine_place`] pass.
#[derive(Debug, Default, PartialEq)]
struct RefineOutcome {
    /// Migration orders `(chare, current pe, destination)`; destination
    /// always differs from the current pe.
    moves: Vec<(ChareId, Pe, Pe)>,
    /// Candidates no acceptor could take under the limit; they stay lifted
    /// (spilled upward, or left in place at the root).
    leftover: Vec<LbChareStat>,
}

/// The GreedyRefine placement core: place `candidates` (whose loads are
/// counted in **no** acceptor entry) onto `acceptors` without pushing any
/// acceptor past `limit`. Deterministic in its *set* of inputs — both
/// lists are fully sorted internally, so child-report arrival order cannot
/// leak into the outcome. Heaviest candidates place first; each prefers
/// its current PE when that PE is a listed acceptor with room (zero moves
/// on a balanced system), else takes the least-loaded acceptor by
/// `(load, pe)`. `acceptors` is updated in place with the placed loads.
///
/// A candidate no acceptor can take is a leftover. An interior node
/// (`final_pass == false`) spills it up, where an ancestor may place it
/// on another subtree's PE. The root's pass is final: the leftover stays
/// where it runs, so its load is charged to its PE's acceptor when that
/// PE is listed, and lighter candidates are not moved onto a PE that
/// only looks idle.
fn greedy_refine_place(
    acceptors: &mut [(Pe, u64)],
    mut candidates: Vec<LbChareStat>,
    limit: u64,
    final_pass: bool,
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
        let home = acceptors.binary_search_by_key(&c.pe, |&(pe, _)| pe).ok();
        // Prefer staying put: the current PE keeps the chare while it has
        // room under the limit.
        let mut target = home.filter(|&i| acceptors[i].1.saturating_add(c.load_ns) <= limit);
        // Else the least-loaded acceptor with room, skipping stale heap
        // entries.
        while target.is_none() {
            let Some(&Reverse((load, _, i))) = heap.peek() else {
                break;
            };
            if acceptors[i].1 != load {
                heap.pop();
                continue;
            }
            if load.saturating_add(c.load_ns) > limit {
                break;
            }
            target = Some(i);
        }
        if final_pass {
            target = target.or(home);
        }
        let Some(i) = target else {
            out.leftover.push(c);
            continue;
        };
        let (pe, load) = &mut acceptors[i];
        *load = load.saturating_add(c.load_ns);
        heap.push(Reverse((*load, *pe, i)));
        if *pe != c.pe {
            out.moves.push((c.id, c.pe, *pe));
        }
    }
    out
}

/// Truncate an upward report's acceptor list to the `cap` least-loaded
/// entries (by `(load, pe)`), dropping the rest — their PEs simply take
/// no further chares from ancestors.
fn truncate_acceptors(acceptors: &mut Vec<(Pe, u64)>, cap: usize) {
    if acceptors.len() > cap {
        acceptors.sort_unstable_by_key(|&(pe, load)| (load, pe));
        acceptors.truncate(cap);
    }
}

/// Truncate an upward report's spill to the `cap` heaviest candidates
/// (by `(load desc, id)`); the rest stay put on their current PEs.
fn truncate_spill(spill: &mut Vec<LbChareStat>, cap: usize) {
    if spill.len() > cap {
        spill.sort_unstable_by(|a, b| b.load_ns.cmp(&a.load_ns).then(a.id.cmp(&b.id)));
        spill.truncate(cap);
    }
}

/// The epoch coordinator's state (PE 0).
#[derive(Default)]
struct LbRoot {
    /// Migrations ordered in the current epoch. Holds `u64::MAX` from the
    /// kick until the root's own decision fixes the total.
    migrations_pending: u64,
    /// Migrations that have landed (`LbMsg::Migrated` received). A counter of
    /// its own rather than a decrement of `migrations_pending`, so
    /// completions may arrive *before* the total is known: interior nodes
    /// issue orders before the root has decided.
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
/// **Envelopes:** [`LbMsg`] ([`PeState::on_lb`]). **Invariants:** a PE
/// reports once per epoch (`stats_sent`), and only after it was polled,
/// every child it relayed the poll to has reported, and every local
/// participant sits at its sync point; measured loads restart from zero in
/// the same step. So a report always lands in its own epoch and needs no
/// tag. The poll wave and the resume broadcast travel different trees, so
/// a poll may be one epoch ahead of this PE's resume, never more: it waits
/// in `pending_poll`. The epoch ends at the root when as many `Migrated`
/// landed as migrations were ordered.
#[derive(Default)]
pub(crate) struct Lb {
    /// Local participants parked at their sync point this epoch.
    at_sync_count: u64,
    /// Whether this PE already sent its subtree report this epoch.
    stats_sent: bool,
    /// LB epochs completed from this PE's point of view (resumes seen).
    /// Tags kicks and polls so stragglers from finished epochs are dropped.
    epoch: u64,
    /// The epoch's poll wave as it crosses this PE, folding the child
    /// subtrees' reports.
    wave: Wave<LbTreeReport>,
    /// This PE already sent its `Kick` to the root this epoch.
    kicked: bool,
    /// A next-epoch poll that outran this PE's `Resume`, replayed right
    /// after the resume lands.
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

    /// LB epochs completed with this PE as the root (`PePerf::lb_epochs`).
    pub(crate) fn epochs_done(&self) -> u64 {
        self.root.epochs_done
    }

    fn saw_stats(&mut self, held: usize) {
        self.peak_stats = self.peak_stats.max(held as u64);
    }
}

/// The messages [`PeState::on_lb`] takes.
#[derive(Debug)]
pub enum LbMsg {
    /// An LB tree node (interior or root) instructs a PE to emigrate the
    /// listed chares.
    DoMigrate {
        /// `(chare, destination)` pairs owned by the receiving PE. (The
        /// ordering PE tracks the epoch's completion count.)
        moves: Vec<(ChareId, Pe)>,
    },
    /// A migrated chare arrived somewhere (destination → PE 0).
    Migrated,
    /// LB epoch complete: every PE resumes its at-sync chares.
    Resume {
        /// Tree root of the relay (PE 0).
        root: Pe,
    },
    /// A PE whose local LB participants all reached at-sync nudges the LB
    /// root to start the epoch's poll wave. At most one per PE per epoch;
    /// the root starts the wave on the first matching kick and drops the
    /// rest.
    Kick {
        /// The sender's LB epoch number (resumes seen); the root ignores
        /// kicks from any epoch but its current one, so a kick that
        /// arrives after its epoch completed cannot start a bogus wave.
        epoch: u64,
    },
    /// LB poll wave relayed down the LB group tree. A PE reports up only
    /// after it has been polled, so child reports can never race ahead of
    /// the epoch start.
    TreePoll {
        /// LB epoch this wave belongs to. A PE that receives next epoch's
        /// poll before its own `Resume` (the two travel different trees)
        /// parks the poll until the resume lands.
        epoch: u64,
        /// LB tree root (PE 0).
        root: Pe,
    },
    /// A subtree's folded, bounded LB summary flowing up the LB group tree
    /// (boxed — it carries three vectors).
    TreeReport {
        /// The subtree summary.
        report: Box<LbTreeReport>,
    },
}

// Scheduler code wherever it sits: the hot-path rules (DESIGN.md §6).
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing, clippy::disallowed_types)]
#[deny(clippy::iter_over_hash_type)]
impl PeState {
    /// The load-balancing slice of the dispatch switch.
    pub(crate) fn on_lb(&mut self, msg: LbMsg) {
        match msg {
            LbMsg::DoMigrate { moves } => {
                for (id, dst) in moves {
                    self.migrate_out(id, dst, true);
                }
            }
            LbMsg::Migrated => {
                self.lb.root.migrations_done += 1;
                self.lb_maybe_finish_epoch();
            }
            LbMsg::Kick { epoch } => self.lb_kick(epoch),
            LbMsg::TreePoll { epoch, root } => self.lb_poll(epoch, root),
            LbMsg::TreeReport { report } => self.lb_report_in(*report),
            LbMsg::Resume { root } => {
                self.relay(self.cfg.tree, root, || EnvKind::Lb(LbMsg::Resume { root }));
                self.lb_resume_local();
            }
        }
    }

    /// `ctx.at_sync()`: park `id` at its sync point; once every local
    /// participant has, nudge the root to start the epoch's poll wave
    /// (once per PE per epoch) and report up as soon as this PE is polled.
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
        if !self.lb.kicked {
            self.lb.kicked = true;
            let epoch = self.lb.epoch;
            self.emit(0, EnvKind::Lb(LbMsg::Kick { epoch }));
        }
        self.lb_try_report();
    }

    /// An LB migrant landed here: it counts as parked at its sync point
    /// (it resumes with everyone else), and the LB root counts the landing.
    pub(crate) fn lb_migrant_arrived(&mut self) {
        self.lb.at_sync_count += 1;
        self.emit(0, EnvKind::Lb(LbMsg::Migrated));
    }

    fn lb_participants(&self) -> Vec<ChareId> {
        self.sorted_chares(|id| self.colls.get(id.coll).is_some_and(|c| c.spec.use_lb))
    }

    /// Group `(chare, from, to)` moves into one `DoMigrate` per owner,
    /// in PE order; returns how many moves were ordered.
    fn lb_order_moves(&mut self, moves: Vec<(ChareId, Pe, Pe)>) -> u64 {
        let mut per_pe: BTreeMap<Pe, Vec<(ChareId, Pe)>> = BTreeMap::new();
        let mut ordered = 0;
        for (id, from, to) in moves {
            ordered += 1;
            per_pe.entry(from).or_default().push((id, to));
        }
        for (owner, moves) in per_pe {
            self.emit(owner, EnvKind::Lb(LbMsg::DoMigrate { moves }));
        }
        ordered
    }

    fn lb_kick(&mut self, epoch: u64) {
        debug_assert_eq!(self.pe, 0, "LB kick routed to non-root PE");
        // Redundant kicks for a running epoch and stragglers from finished
        // ones are both dropped; only a kick for the current epoch starts
        // the wave.
        let root = &mut self.lb.root;
        if root.in_epoch || epoch != root.epochs_done {
            return;
        }
        root.in_epoch = true;
        // The order total is unknown until the root has decided; block
        // lb_maybe_finish_epoch until then.
        root.migrations_pending = u64::MAX;
        root.migrations_done = 0;
        self.lb.root.epoch_start_ns = self.now_ns();
        self.lb_poll(epoch, 0);
    }

    fn lb_poll(&mut self, epoch: u64, root: Pe) {
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
        let tree = lb_tree(self.cfg.lb_group_size, self.npes);
        let owed = self.relay(tree, root, || EnvKind::Lb(LbMsg::TreePoll { epoch, root }));
        self.lb
            .wave
            .open(epoch, root, owed, LbTreeReport::default());
        self.lb_try_report();
    }

    fn lb_report_in(&mut self, report: LbTreeReport) {
        let epoch = self.lb.epoch;
        let Some(acc) = self.lb.wave.answer(epoch) else {
            debug_assert!(false, "LB tree report before poll");
            return;
        };
        acc.fold(report);
        let held = acc.spill.len();
        self.lb.saw_stats(held);
        self.lb_try_report();
    }

    /// Report readiness check, run after every event that could complete
    /// this PE's subtree: polled, every relayed child reported, and every
    /// local participant reached at-sync.
    fn lb_try_report(&mut self) {
        if self.lb.stats_sent || !self.lb.wave.ready() {
            return;
        }
        let participants = self.lb_participants();
        if self.lb.at_sync_count < participants.len() as u64 {
            return;
        }
        let Some((_, root, mut acc)) = self.lb.wave.finish() else {
            return;
        };
        // A child subtree reported into the accumulator: an interior node.
        let interior = acc.pe_count > 0;
        // Merge this PE's own contribution, whose loads restart from zero
        // here: migratable participants become placement candidates;
        // everything pinned is this PE's committed load.
        let mut fixed = 0u64;
        for id in participants {
            let load_ns = std::mem::take(&mut self.slot_mut(&id).load_ns);
            acc.total_load_ns += load_ns;
            if self.vtable_of(id.coll).migratable {
                acc.chare_count += 1;
                acc.spill.push(LbChareStat {
                    id,
                    pe: self.pe,
                    load_ns,
                });
            } else {
                fixed += load_ns;
            }
        }
        acc.pe_count += 1;
        acc.acceptors.push((self.pe, fixed));
        self.lb.stats_sent = true;
        self.lb.saw_stats(acc.spill.len());

        let tree = lb_tree(self.cfg.lb_group_size, self.npes);
        let Some(parent) = tree.parent(self.pe, root, self.npes) else {
            return self.lb_decide(acc);
        };
        if interior {
            // Refine placement within the subtree and issue orders
            // directly. Leaves skip this: refining a single PE against its
            // own average would keep every chare local and starve the
            // upper levels of candidates.
            let limit = refine_limit(acc.total_load_ns, acc.pe_count, REFINE_THRESHOLD_PERMILLE);
            let candidates = std::mem::take(&mut acc.spill);
            let outcome = greedy_refine_place(&mut acc.acceptors, candidates, limit, false);
            acc.ordered += self.lb_order_moves(outcome.moves);
            acc.spill = outcome.leftover;
        }
        truncate_acceptors(&mut acc.acceptors, tree.arity.max(16));
        truncate_spill(&mut acc.spill, spill_cap(acc.chare_count, acc.pe_count));
        let report = Box::new(acc);
        self.emit(parent, EnvKind::Lb(LbMsg::TreeReport { report }));
    }

    /// The root's decision: run the configured strategy over what reached
    /// the root and order its moves. Residual candidates stay put, and the
    /// epoch's order total is now final.
    fn lb_decide(&mut self, acc: LbTreeReport) {
        let LbTreeReport {
            total_load_ns,
            ordered,
            mut acceptors,
            spill: mut chares,
            ..
        } = acc;
        // Canonical input whatever order the reports arrived in; the
        // sorted candidates are also the lookup index for the moves.
        acceptors.sort_unstable_by_key(|&(pe, _)| pe);
        chares.sort_unstable_by_key(|c| c.id);
        let stats = LbStats {
            npes: self.npes,
            total_load_ns,
            loads: acceptors,
            chares,
        };
        let npes = self.npes;
        let valid = |(id, dst): (ChareId, Pe)| {
            // A move for a chare that is no candidate (absent from the
            // strategy's own input, or pinned), off the machine, or onto its
            // own PE is a strategy bug: skip it instead of panicking the PE
            // mid-epoch.
            let i = stats.chares.binary_search_by_key(&id, |c| c.id).ok()?;
            let pe = stats.chares.get(i)?.pe;
            (pe != dst && dst < npes).then_some((id, pe, dst))
        };
        let moves = self.cfg.lb.assign(&stats).into_iter().filter_map(valid);
        let moves = moves.collect();
        self.lb.root.migrations_pending = ordered + self.lb_order_moves(moves);
        self.lb_maybe_finish_epoch();
    }

    /// Close the epoch once every ordered migration has landed. `pending`
    /// holds `u64::MAX` from kick until the root's decision fixes the
    /// total, so a completion arriving early can never finish the epoch.
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
        self.emit(0, EnvKind::Lb(LbMsg::Resume { root: 0 }));
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
            self.lb_poll(epoch, root);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CollectionId, Index};

    #[test]
    fn pe_loads_aggregate() {
        // Committed loads and candidates both count on their PE.
        let s = LbStats {
            npes: 3,
            total_load_ns: 65_000_000,
            loads: vec![(0, 0), (1, 5_000_000), (2, 0)],
            chares: vec![cand(0, 0, 10), cand(0, 1, 20), cand(2, 2, 30)],
        };
        let loads = s.pe_loads();
        assert!((loads[0] - 0.030).abs() < 1e-12);
        assert!((loads[1] - 0.005).abs() < 1e-12);
        assert!((loads[2] - 0.030).abs() < 1e-12);
    }

    fn cand(pe: Pe, seq: u32, load_ms: u64) -> LbChareStat {
        LbChareStat {
            id: ChareId {
                coll: CollectionId { creator: 0, seq },
                index: Index::from(pe as i32),
            },
            pe,
            load_ns: load_ms * 1_000_000,
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
        let out = greedy_refine_place(&mut acc, cands, limit, false);
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
        let out = greedy_refine_place(&mut acc, cands, limit, false);
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
        let o1 = greedy_refine_place(&mut a1, c1, 3_000_000, false);
        let o2 = greedy_refine_place(&mut a2, c2, 3_000_000, false);
        assert_eq!(o1, o2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn refine_place_spills_what_cannot_fit() {
        let mut acc = vec![(0, 0u64), (1, 0u64)];
        // One chare heavier than the limit and foreign to both acceptors.
        let cands = vec![cand(2, 0, 100)];
        let out = greedy_refine_place(&mut acc, cands, 10, true);
        assert!(out.moves.is_empty());
        assert_eq!(out.leftover.len(), 1);
        assert_eq!(out.leftover[0].pe, 2);
        // Chare 0 fits nowhere, on its own listed PE included: an interior
        // pass spills it up uncharged, the final pass charges it to PE 0.
        for final_pass in [false, true] {
            let mut acc = vec![(0, 0u64), (1, 0u64)];
            let cands = vec![cand(0, 0, 100), cand(1, 1, 10)];
            let out = greedy_refine_place(&mut acc, cands, 50_000_000, final_pass);
            assert!(out.moves.is_empty());
            assert_eq!(out.leftover.len(), usize::from(!final_pass));
            let pe0 = if final_pass { 100_000_000 } else { 0 };
            assert_eq!(acc, vec![(0, pe0), (1, 10_000_000)]);
        }
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
    fn lb_tree_shape_matches_group_size() {
        let shape = lb_tree(8, 64);
        assert_eq!(shape.arity, 8);
        assert_eq!(shape.cores_per_node, None);
        // group_size == npes (the default) is a flat tree: all PEs are
        // direct children of root 0, and a larger group size is the same.
        for group_size in [16, usize::MAX] {
            let flat = lb_tree(group_size, 16);
            assert_eq!(flat.children(0, 0, 16).len(), 15);
        }
    }
}
