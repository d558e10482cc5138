//! Seeded property tests of the LB strategies: validity invariants and
//! improvement guarantees over arbitrary load distributions. Every
//! assertion names its seed.

use charm_core::{ChareId, CollectionId, Index, LbChareStat, LbStats, LbStrategy, Pe};
use charm_lb::{loads_after, GreedyLb, RandLb, RefineLb, RotateLb};
use charm_wire::SplitMix64;

const CASES: u64 = 128;

/// What a one-level LB tree's root sees: pinned loads are committed to
/// their PE, migratable chares are candidates.
fn stats_from(npes: usize, chares: Vec<(Pe, u64, bool)>) -> LbStats {
    let mut stats = LbStats {
        npes,
        total_load_ns: 0,
        loads: (0..npes).map(|pe| (pe, 0)).collect(),
        chares: Vec::new(),
    };
    for (i, (pe, load_us, migratable)) in chares.into_iter().enumerate() {
        let (pe, load_ns) = (pe % npes, load_us * 1_000);
        stats.total_load_ns += load_ns;
        if migratable {
            stats.chares.push(LbChareStat {
                id: ChareId {
                    coll: CollectionId { creator: 0, seq: 0 },
                    index: Index::from(i as i32),
                },
                pe,
                load_ns,
            });
        } else {
            stats.loads[pe].1 += load_ns;
        }
    }
    stats
}

/// Arbitrary LB input: `npes` from `min_pes..9`, up to 40 chares with
/// loads from `min_load..10_000` µs, each migratable with probability
/// `movable_pct`%.
fn arb_stats(
    rng: &mut SplitMix64,
    min_pes: u64,
    min_chares: u64,
    min_load: u64,
    movable_pct: u64,
) -> LbStats {
    let npes = (min_pes + rng.below(9 - min_pes)) as usize;
    let n = min_chares + rng.below(40 - min_chares);
    let chares = (0..n)
        .map(|_| {
            (
                rng.below(8) as usize,
                min_load + rng.below(10_000 - min_load),
                rng.below(100) < movable_pct,
            )
        })
        .collect();
    stats_from(npes, chares)
}

fn check_valid(seed: u64, stats: &LbStats, moves: &[(ChareId, Pe)]) {
    let mut seen = std::collections::HashSet::new();
    for (id, pe) in moves {
        assert!(*pe < stats.npes, "seed {seed}: destination out of range");
        assert!(
            stats.chares.iter().any(|c| c.id == *id),
            "seed {seed}: moved a chare that is no candidate"
        );
        assert!(seen.insert(*id), "seed {seed}: chare moved twice");
    }
}

fn max_of(loads: &[f64]) -> f64 {
    loads.iter().cloned().fold(0.0f64, f64::max)
}

#[test]
fn all_strategies_produce_valid_moves() {
    for seed in 0..CASES {
        let stats = arb_stats(&mut SplitMix64::new(seed), 1, 0, 0, 50);
        for strategy in [
            &GreedyLb as &dyn LbStrategy,
            &RefineLb::default(),
            &RotateLb,
            &RandLb::default(),
        ] {
            check_valid(seed, &stats, &strategy.assign(&stats));
        }
    }
}

#[test]
fn greedy_meets_the_lpt_guarantee_with_pinned_loads() {
    for seed in 0..CASES {
        // LPT (greedy) is a 4/3-approximation, so it may be *slightly*
        // worse than a lucky status quo; its true guarantee is
        //   max_after <= max(pinned_max, avg + biggest_movable).
        let stats = arb_stats(&mut SplitMix64::new(seed), 2, 1, 1, 50);
        let npes = stats.npes;
        let moves = GreedyLb.assign(&stats);
        check_valid(seed, &stats, &moves);
        let after = loads_after(&stats, &moves);
        let max_after = max_of(&after);
        let total: f64 = after.iter().sum();
        let avg = total / npes as f64;
        let pinned: Vec<f64> = stats.loads.iter().map(|&(_, l)| l as f64 / 1e9).collect();
        let biggest_movable = stats
            .chares
            .iter()
            .map(|c| c.load_ns as f64 / 1e9)
            .fold(0.0f64, f64::max);
        let bound = (avg + biggest_movable).max(max_of(&pinned) + biggest_movable);
        assert!(
            max_after <= bound + 1e-9,
            "seed {seed}: max {max_after} > bound {bound}"
        );
    }
}

#[test]
fn refine_reduces_or_keeps_max_load() {
    for seed in 0..CASES {
        let stats = arb_stats(&mut SplitMix64::new(seed), 2, 1, 1, 80);
        let moves = RefineLb::default().assign(&stats);
        check_valid(seed, &stats, &moves);
        let max_before = max_of(&stats.pe_loads());
        let max_after = max_of(&loads_after(&stats, &moves));
        assert!(
            max_after <= max_before + 1e-9,
            "seed {seed}: {max_before} -> {max_after}"
        );
    }
}

#[test]
fn greedy_with_all_migratable_achieves_lpt_bound() {
    for seed in 0..CASES {
        // Classic LPT guarantee: max <= avg * (4/3 - 1/(3m)) ... we assert
        // the weaker, always-true bound max <= avg + largest_job.
        let mut rng = SplitMix64::new(seed);
        let npes = 2 + rng.below(5) as usize;
        let loads: Vec<u64> = (0..2 + rng.below(28))
            .map(|_| 1 + rng.below(9_999))
            .collect();
        let stats = stats_from(npes, loads.iter().map(|&l| (0, l, true)).collect());
        let moves = GreedyLb.assign(&stats);
        let after = loads_after(&stats, &moves);
        let total: f64 = after.iter().sum();
        let avg = total / npes as f64;
        let biggest = *loads.iter().max().unwrap() as f64 * 1e-6;
        let max = max_of(&after);
        assert!(
            max <= avg + biggest + 1e-9,
            "seed {seed}: max {max}, avg {avg}, big {biggest}"
        );
    }
}
