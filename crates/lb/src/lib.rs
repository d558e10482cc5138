//! # charm-lb — load balancing strategies for charm-rs
//!
//! Strategies in the spirit of Charm++'s LB suite (paper §II-J): the
//! runtime measures per-chare loads, gathers them up its LB tree at an
//! AtSync point, and the configured strategy computes a new assignment at
//! the root (`Runtime::lb_strategy`).
//!
//! * [`GreedyLb`] — classic `GreedyLB`: heaviest chare onto the currently
//!   least-loaded PE. Strong balance, unbounded migration count.
//! * [`RefineLb`] — `RefineLB`: migrate only enough chares away from
//!   overloaded PEs to bring them under a threshold; minimizes migrations.
//! * [`GreedyRefineLb`] — the runtime's default (re-exported from
//!   `charm-core`): the integer-exact refine pass every interior LB tree
//!   node runs; prefers keeping chares where they are.
//! * [`RotateLb`] — moves every chare to the next PE; a correctness-testing
//!   strategy, like Charm++'s rotate balancer.
//! * [`RandLb`] — seeded random placement, a baseline for benchmarks.

#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub use charm_core::GreedyRefineLb;
use charm_core::{ChareId, LbStats, LbStrategy, Pe};
use charm_wire::SplitMix64;

/// GreedyLB: longest-processing-time-first onto least-loaded PEs.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyLb;

impl LbStrategy for GreedyLb {
    fn assign(&self, stats: &LbStats) -> Vec<(ChareId, Pe)> {
        // Min-heap of (committed load, pe) over the PEs the root may place
        // onto.
        let mut heap: BinaryHeap<Reverse<(u64, Pe)>> = stats
            .loads
            .iter()
            .map(|&(pe, load)| Reverse((load, pe)))
            .collect();
        let mut movable: Vec<_> = stats.chares.iter().collect();
        movable.sort_by(|a, b| b.load_ns.cmp(&a.load_ns).then(a.id.cmp(&b.id)));
        let mut moves = Vec::new();
        for c in movable {
            let Some(Reverse((load, pe))) = heap.pop() else {
                break;
            };
            if pe != c.pe {
                moves.push((c.id, pe));
            }
            heap.push(Reverse((load + c.load_ns, pe)));
        }
        moves
    }
    fn name(&self) -> &'static str {
        "GreedyLB"
    }
}

/// RefineLB: keep most chares in place; move the smallest adequate chares
/// off overloaded PEs until every PE is below `threshold × average`.
#[derive(Debug, Clone, Copy)]
pub struct RefineLb {
    /// Overload tolerance: a PE is overloaded above `threshold * avg`.
    pub threshold: f64,
}

impl Default for RefineLb {
    fn default() -> Self {
        RefineLb { threshold: 1.05 }
    }
}

impl LbStrategy for RefineLb {
    fn assign(&self, stats: &LbStats) -> Vec<(ChareId, Pe)> {
        let npes = stats.npes;
        let mut pe_load = stats.pe_loads();
        let avg = pe_load.iter().sum::<f64>() / npes as f64;
        if avg == 0.0 {
            return Vec::new();
        }
        let limit = self.threshold * avg;
        // Chares currently on each PE, lightest last (so `pop` takes the
        // heaviest candidate first, which converges faster).
        let mut on_pe: Vec<Vec<(u64, ChareId)>> = vec![Vec::new(); npes];
        for c in &stats.chares {
            on_pe[c.pe].push((c.load_ns, c.id));
        }
        for v in &mut on_pe {
            v.sort();
        }
        let mut moves = Vec::new();
        // Process overloaded PEs, heaviest first, deterministically.
        let mut order: Vec<Pe> = (0..npes).collect();
        order.sort_by(|&a, &b| pe_load[b].partial_cmp(&pe_load[a]).unwrap().then(a.cmp(&b)));
        for donor in order {
            while pe_load[donor] > limit {
                // Heaviest remaining chare on the donor.
                let Some((load_ns, id)) = on_pe[donor].pop() else {
                    break;
                };
                // Receiver: least-loaded PE.
                let recv = (0..npes)
                    .min_by(|&a, &b| pe_load[a].partial_cmp(&pe_load[b]).unwrap().then(a.cmp(&b)))
                    .unwrap();
                let load = load_ns as f64 / 1e9;
                if recv == donor || pe_load[recv] + load >= pe_load[donor] {
                    // Moving would not improve things; put it back and stop.
                    on_pe[donor].push((load_ns, id));
                    break;
                }
                pe_load[donor] -= load;
                pe_load[recv] += load;
                on_pe[recv].push((load_ns, id));
                moves.push((id, recv));
            }
        }
        moves
    }
    fn name(&self) -> &'static str {
        "RefineLB"
    }
}

/// RotateLB: every candidate moves to `(pe + 1) % npes`. Exists to
/// stress the migration machinery, exactly like Charm++'s RotateLB.
#[derive(Debug, Default, Clone, Copy)]
pub struct RotateLb;

impl LbStrategy for RotateLb {
    fn assign(&self, stats: &LbStats) -> Vec<(ChareId, Pe)> {
        stats
            .chares
            .iter()
            .map(|c| (c.id, (c.pe + 1) % stats.npes))
            .collect()
    }
    fn name(&self) -> &'static str {
        "RotateLB"
    }
}

/// RandLB: uniformly random placement from a fixed seed (deterministic per
/// epoch), as a do-something baseline.
#[derive(Debug, Clone, Copy)]
pub struct RandLb {
    /// RNG seed; combined with the stats to stay deterministic.
    pub seed: u64,
}

impl Default for RandLb {
    fn default() -> Self {
        RandLb { seed: 0x5eed }
    }
}

impl LbStrategy for RandLb {
    fn assign(&self, stats: &LbStats) -> Vec<(ChareId, Pe)> {
        let mut rng = SplitMix64::new(self.seed ^ stats.chares.len() as u64);
        stats
            .chares
            .iter()
            .map(|c| (c.id, rng.below(stats.npes as u64) as Pe))
            .collect()
    }
    fn name(&self) -> &'static str {
        "RandLB"
    }
}

/// Apply `moves` to `stats`, returning the resulting per-PE loads in
/// seconds — shared by tests and the ablation benches.
pub fn loads_after(stats: &LbStats, moves: &[(ChareId, Pe)]) -> Vec<f64> {
    let mut loads = vec![0.0; stats.npes];
    for &(pe, load_ns) in &stats.loads {
        loads[pe] += load_ns as f64 / 1e9;
    }
    for c in &stats.chares {
        let dest = moves
            .iter()
            .find(|(id, _)| *id == c.id)
            .map(|(_, pe)| *pe)
            .unwrap_or(c.pe);
        loads[dest] += c.load_ns as f64 / 1e9;
    }
    loads
}

/// Max/avg ratio of a load vector (1.0 = perfectly balanced).
pub fn imbalance_of(loads: &[f64]) -> f64 {
    let max = loads.iter().cloned().fold(0.0, f64::max);
    let avg = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    if avg > 0.0 {
        max / avg
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_core::{CollectionId, Index, LbChareStat};

    fn id(i: usize) -> ChareId {
        ChareId {
            coll: CollectionId { creator: 0, seq: 0 },
            index: Index::from(i as i32),
        }
    }

    /// What a one-level LB tree's root sees when chare `i` is
    /// `loads_ms[i]`: pinned loads are committed to their PE, migratable
    /// chares are candidates.
    fn mk_stats(npes: usize, loads_ms: &[(Pe, u64, bool)]) -> LbStats {
        let mut stats = LbStats {
            npes,
            total_load_ns: 0,
            loads: (0..npes).map(|pe| (pe, 0)).collect(),
            chares: Vec::new(),
        };
        for (i, &(pe, ms, migratable)) in loads_ms.iter().enumerate() {
            let load_ns = ms * 1_000_000;
            stats.total_load_ns += load_ns;
            if migratable {
                stats.chares.push(LbChareStat {
                    id: id(i),
                    pe,
                    load_ns,
                });
            } else {
                stats.loads[pe].1 += load_ns;
            }
        }
        stats
    }

    fn check_valid(stats: &LbStats, moves: &[(ChareId, Pe)]) {
        for (id, pe) in moves {
            assert!(*pe < stats.npes, "destination out of range");
            assert!(
                stats.chares.iter().any(|c| c.id == *id),
                "moved a chare that is no candidate"
            );
        }
        // No chare moved twice.
        let mut ids: Vec<_> = moves.iter().map(|(id, _)| id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), moves.len());
    }

    #[test]
    fn greedy_balances_skewed_load() {
        // All load initially on PE 0.
        let stats = mk_stats(
            4,
            &[
                (0, 100, true),
                (0, 90, true),
                (0, 80, true),
                (0, 70, true),
                (0, 10, true),
                (0, 10, true),
                (0, 10, true),
                (0, 10, true),
            ],
        );
        let moves = GreedyLb.assign(&stats);
        check_valid(&stats, &moves);
        let after = loads_after(&stats, &moves);
        let before = imbalance_of(&stats.pe_loads());
        let post = imbalance_of(&after);
        assert!(
            post < before,
            "greedy must improve imbalance: {before} -> {post}"
        );
        assert!(post < 1.3, "greedy should get close to balanced: {post}");
    }

    #[test]
    fn greedy_respects_non_migratable() {
        let stats = mk_stats(2, &[(0, 100, false), (0, 100, true), (1, 10, true)]);
        let moves = GreedyLb.assign(&stats);
        check_valid(&stats, &moves);
        assert!(
            !moves.iter().any(|(m, _)| *m == id(0)),
            "pinned chare must stay"
        );
    }

    #[test]
    fn greedy_on_balanced_input_stays_balanced() {
        let stats = mk_stats(2, &[(0, 50, true), (1, 50, true)]);
        let moves = GreedyLb.assign(&stats);
        check_valid(&stats, &moves);
        let after = loads_after(&stats, &moves);
        assert!((imbalance_of(&after) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn refine_reduces_max_load_and_moves_few() {
        let stats = mk_stats(
            4,
            &[
                (0, 40, true),
                (0, 40, true),
                (0, 40, true),
                (0, 40, true),
                (1, 40, true),
                (2, 40, true),
                (3, 40, true),
            ],
        );
        let moves = RefineLb::default().assign(&stats);
        check_valid(&stats, &moves);
        let before = stats.pe_loads();
        let after = loads_after(&stats, &moves);
        let max_before = before.iter().cloned().fold(0.0, f64::max);
        let max_after = after.iter().cloned().fold(0.0, f64::max);
        assert!(max_after < max_before, "{max_before} -> {max_after}");
        assert!(
            moves.len() <= 2,
            "refine should move few chares, moved {}",
            moves.len()
        );
    }

    #[test]
    fn refine_never_increases_max_load() {
        let stats = mk_stats(
            3,
            &[
                (0, 90, true),
                (0, 5, true),
                (1, 50, true),
                (2, 10, true),
                (2, 10, true),
            ],
        );
        let moves = RefineLb::default().assign(&stats);
        check_valid(&stats, &moves);
        let max_before = stats.pe_loads().iter().cloned().fold(0.0, f64::max);
        let max_after = loads_after(&stats, &moves)
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!(max_after <= max_before + 1e-9);
    }

    #[test]
    fn refine_no_moves_when_balanced() {
        let stats = mk_stats(3, &[(0, 30, true), (1, 30, true), (2, 30, true)]);
        assert!(RefineLb::default().assign(&stats).is_empty());
    }

    #[test]
    fn refine_handles_zero_load() {
        let stats = mk_stats(3, &[(0, 0, true), (1, 0, true)]);
        assert!(RefineLb::default().assign(&stats).is_empty());
    }

    #[test]
    fn greedy_refine_no_moves_when_balanced() {
        let stats = mk_stats(3, &[(0, 30, true), (1, 30, true), (2, 30, true)]);
        assert!(GreedyRefineLb.assign(&stats).is_empty());
    }

    #[test]
    fn greedy_refine_balances_skewed_load() {
        let stats = mk_stats(
            4,
            &[
                (0, 40, true),
                (0, 40, true),
                (0, 40, true),
                (0, 40, true),
                (1, 40, true),
                (2, 40, true),
                (3, 40, true),
            ],
        );
        let moves = GreedyRefineLb.assign(&stats);
        check_valid(&stats, &moves);
        let before = imbalance_of(&stats.pe_loads());
        let after = imbalance_of(&loads_after(&stats, &moves));
        assert!(after < before, "{before} -> {after}");
        // The 1.05 tolerance admits exactly one extra 40ms chare above the
        // 70ms average nowhere; a balanced outcome needs 3 moves off PE 0.
        assert!(moves.len() <= 3, "refine moves few: {}", moves.len());
    }

    #[test]
    fn greedy_refine_respects_non_migratable_and_is_deterministic() {
        let stats = mk_stats(2, &[(0, 100, false), (0, 100, true), (1, 10, true)]);
        let moves = GreedyRefineLb.assign(&stats);
        check_valid(&stats, &moves);
        assert!(!moves.iter().any(|(m, _)| *m == id(0)));
        assert_eq!(moves, GreedyRefineLb.assign(&stats));
    }

    #[test]
    fn imbalance_of_is_max_over_average() {
        assert!((imbalance_of(&[0.010, 0.010]) - 1.0).abs() < 1e-9);
        assert!((imbalance_of(&[0.030, 0.010]) - 1.5).abs() < 1e-9);
        // An empty or idle system counts as balanced.
        assert_eq!(imbalance_of(&[]), 1.0);
        assert_eq!(imbalance_of(&mk_stats(4, &[]).pe_loads()), 1.0);
    }

    #[test]
    fn greedy_refine_charges_a_leftover_to_its_own_pe() {
        // Chare 0 exceeds the limit (1.05 x 235/3 ms) everywhere, so it
        // stays on PE 0; its load must count there, or the lighter chare 2
        // is moved onto PE 0 as if PE 0 were idle.
        let stats = mk_stats(
            3,
            &[
                (0, 100, true),
                (1, 65, false),
                (1, 30, true),
                (2, 70, false),
            ],
        );
        let moves = GreedyRefineLb.assign(&stats);
        check_valid(&stats, &moves);
        let max = |loads: Vec<f64>| loads.into_iter().fold(0.0, f64::max);
        let before = max(stats.pe_loads());
        let after = max(loads_after(&stats, &moves));
        assert!(after <= before, "max PE load rose: {before} -> {after}");
    }

    #[test]
    fn rotate_moves_everything_one_step() {
        let stats = mk_stats(3, &[(0, 10, true), (1, 10, true), (2, 10, true)]);
        let moves = RotateLb.assign(&stats);
        check_valid(&stats, &moves);
        assert_eq!(moves.len(), 3);
        for (id, pe) in &moves {
            let c = stats.chares.iter().find(|c| c.id == *id).unwrap();
            assert_eq!(*pe, (c.pe + 1) % 3);
        }
    }

    #[test]
    fn rand_is_deterministic_and_in_range() {
        let stats = mk_stats(5, &[(0, 10, true), (1, 20, true), (2, 30, true)]);
        let a = RandLb::default().assign(&stats);
        let b = RandLb::default().assign(&stats);
        assert_eq!(a, b);
        check_valid(&stats, &a);
    }

    #[test]
    fn strategies_handle_empty_stats() {
        let stats = mk_stats(4, &[]);
        assert!(GreedyLb.assign(&stats).is_empty());
        assert!(GreedyRefineLb.assign(&stats).is_empty());
        assert!(RefineLb::default().assign(&stats).is_empty());
        assert!(RotateLb.assign(&stats).is_empty());
        assert!(RandLb::default().assign(&stats).is_empty());
    }

    #[test]
    fn greedy_is_deterministic() {
        let stats = mk_stats(
            3,
            &[
                (0, 7, true),
                (0, 7, true),
                (1, 7, true),
                (2, 7, true),
                (2, 7, true),
            ],
        );
        assert_eq!(GreedyLb.assign(&stats), GreedyLb.assign(&stats));
    }

    #[test]
    fn greedy_beats_the_paper_imbalance_ratio() {
        // The paper's synthetic imbalance yields max/avg ≈ 2.1; greedy on a
        // 4-chares-per-PE decomposition should bring it near 1.
        let mut spec = Vec::new();
        for pe in 0..8 {
            for k in 0..4 {
                // Alternate heavy and light blocks, skewed per PE.
                let ms = if !(2..=5).contains(&pe) {
                    10
                } else {
                    100 + 5 * k
                };
                spec.push((pe, ms, true));
            }
        }
        let stats = mk_stats(8, &spec);
        let before = imbalance_of(&stats.pe_loads());
        assert!(
            before > 1.5,
            "synthetic input should be imbalanced: {before}"
        );
        let after = imbalance_of(&loads_after(&stats, &GreedyLb.assign(&stats)));
        assert!(after < 1.2, "greedy result {after}");
    }
}
