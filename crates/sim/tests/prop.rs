//! Seeded property tests of the simulation substrate: event-queue ordering
//! and topology metric laws. Every assertion names its seed.

use charm_sim::{EventQueue, MachineModel, Topology, VTime};
use charm_wire::SplitMix64;

const CASES: u64 = 128;

/// Run `check` once per seed with a generator for that seed.
fn for_each_seed(check: impl Fn(u64, &mut SplitMix64)) {
    for seed in 0..CASES {
        check(seed, &mut SplitMix64::new(seed));
    }
}

#[test]
fn queue_pops_sorted_stable() {
    for_each_seed(|seed, rng| {
        let times: Vec<u64> = (0..rng.below(200)).map(|_| rng.below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(VTime(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        assert_eq!(popped.len(), times.len(), "seed {seed}");
        // Sorted by time, FIFO within equal times.
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "seed {seed}");
            if w[0].0 == w[1].0 {
                assert!(
                    w[0].1 < w[1].1,
                    "seed {seed}: ties must pop in insertion order"
                );
            }
        }
    });
}

#[test]
fn torus_hops_is_a_metric() {
    for_each_seed(|seed, rng| {
        let mut dim = || 1 + rng.below(5) as usize;
        let dims = [dim(), dim(), dim()];
        let t = Topology::Torus3D { dims };
        let n = (dims[0] * dims[1] * dims[2]) as u64;
        let mut node = || rng.below(n) as usize;
        let (a, b, c) = (node(), node(), node());
        // Identity, symmetry, triangle inequality.
        assert_eq!(t.hops(a, a), 0, "seed {seed}");
        assert_eq!(t.hops(a, b), t.hops(b, a), "seed {seed}");
        assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c), "seed {seed}");
        if a != b {
            assert!(t.hops(a, b) >= 1, "seed {seed}");
        }
    });
}

#[test]
fn dragonfly_hops_is_a_metric() {
    for_each_seed(|seed, rng| {
        let t = Topology::Dragonfly {
            group_size: 1 + rng.below(11) as usize,
        };
        let mut node = || rng.below(500) as usize;
        let (a, b, c) = (node(), node(), node());
        assert_eq!(t.hops(a, a), 0, "seed {seed}");
        assert_eq!(t.hops(a, b), t.hops(b, a), "seed {seed}");
        assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c), "seed {seed}");
    });
}

#[test]
fn msg_delay_monotone_in_size() {
    let m = MachineModel::bluewaters(8);
    for_each_seed(|seed, rng| {
        let (src, dst) = (rng.below(64) as usize, rng.below(64) as usize);
        let (s1, s2) = (rng.below(100_000) as usize, rng.below(100_000) as usize);
        let (lo, hi) = (s1.min(s2), s1.max(s2));
        assert!(
            m.msg_delay(src, dst, lo) <= m.msg_delay(src, dst, hi),
            "seed {seed}"
        );
    });
}

#[test]
fn dynamic_overhead_monotone() {
    let m = MachineModel::cori_knl();
    for_each_seed(|seed, rng| {
        let (b1, b2) = (rng.below(1_000_000) as usize, rng.below(1_000_000) as usize);
        let (lo, hi) = (b1.min(b2), b1.max(b2));
        assert!(
            m.dynamic_overhead(lo) <= m.dynamic_overhead(hi),
            "seed {seed}"
        );
    });
}
