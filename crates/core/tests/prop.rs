//! Seeded property tests of core invariants: spanning trees, placement,
//! reduction algebra, index encoding, and simulated-backend determinism.

use charm_core::prelude::*;
use charm_core::reduction::{combine, CustomReducers};
use charm_core::Index;
use charm_sim::MachineModel;
use charm_wire::SplitMix64;

// ---------------------------------------------------------------------------
// Spanning trees
// ---------------------------------------------------------------------------

/// Run `check` once per seed with a generator for that seed.
fn for_each_seed(cases: u64, mut check: impl FnMut(u64, &mut SplitMix64)) {
    for seed in 0..cases {
        check(seed, &mut SplitMix64::new(seed));
    }
}

/// Uniform draw from `lo..hi`.
fn range(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
    lo + rng.below((hi - lo) as u64) as i64
}

#[test]
fn trees_span_and_agree() {
    for_each_seed(64, |seed, rng| {
        let arity = range(rng, 1, 9) as usize;
        let npes = range(rng, 1, 70) as usize;
        let root = rng.below(npes as u64) as usize;
        let cpn = (rng.below(2) == 1).then(|| range(rng, 1, 9) as usize);
        let shape = TreeShape {
            arity,
            cores_per_node: cpn,
        };
        // Every non-root has a parent that lists it as a child; sizes add up.
        let mut visited = 0usize;
        let mut stack = vec![root];
        while let Some(pe) = stack.pop() {
            visited += 1;
            for c in shape.children(pe, root, npes) {
                assert_eq!(shape.parent(c, root, npes), Some(pe), "seed {seed}");
                stack.push(c);
            }
        }
        assert_eq!(
            visited, npes,
            "seed {seed}: tree must span all PEs exactly once"
        );
        assert_eq!(shape.parent(root, root, npes), None, "seed {seed}");
    });
}

// ---------------------------------------------------------------------------
// Reduction algebra: tree combining in any grouping equals a flat fold.
// ---------------------------------------------------------------------------

#[test]
fn reduction_grouping_invariance() {
    for_each_seed(64, |seed, rng| {
        let values: Vec<i64> = (0..range(rng, 2, 24))
            .map(|_| range(rng, -1000, 1000))
            .collect();
        let ops = [Reducer::Sum, Reducer::Max, Reducer::Min, Reducer::Product];
        let op = ops[rng.below(4) as usize];
        let c = CustomReducers::default();
        let fold = |vs: &[i64]| combine(op, vs.iter().map(|&v| RedData::I64(v)).collect(), &c);
        // Split into two non-empty subtrees combined separately, then
        // merged — the shape the PE tree produces.
        let (a, b) = values.split_at(range(rng, 1, values.len() as i64) as usize);
        let tree = combine(op, vec![fold(a), fold(b)], &c);
        assert_eq!(fold(&values), tree, "seed {seed}");
    });
}

// ---------------------------------------------------------------------------
// Index
// ---------------------------------------------------------------------------

#[test]
fn index_roundtrips_and_orders() {
    for_each_seed(64, |seed, rng| {
        let coords: Vec<i32> = (0..rng.below(7))
            .map(|_| range(rng, -1000, 1000) as i32)
            .collect();
        let ix = Index::new(&coords);
        assert_eq!(ix.coords(), &coords[..], "seed {seed}");
        assert_eq!(ix.dims(), coords.len(), "seed {seed}");
        // Wire roundtrip under both codecs.
        for codec in [charm_wire::Codec::Fast, charm_wire::Codec::Pickle] {
            let bytes = codec.encode(&ix);
            let back: Index = codec.decode(&bytes).unwrap();
            assert_eq!(back, ix, "seed {seed} {codec:?}");
        }
        // Hash is deterministic.
        assert_eq!(
            ix.stable_hash(),
            Index::new(&coords).stable_hash(),
            "seed {seed}"
        );
    });
}

#[test]
fn index_ordering_is_lexicographic_on_equal_dims() {
    for_each_seed(64, |seed, rng| {
        let mut triple = || -> Vec<i32> { (0..3).map(|_| range(rng, -50, 50) as i32).collect() };
        let (a, b) = (triple(), triple());
        assert_eq!(
            Index::new(&a).cmp(&Index::new(&b)),
            a.cmp(&b),
            "seed {seed}"
        );
    });
}

// ---------------------------------------------------------------------------
// Simulated backend determinism under a randomized (but seeded) workload
// ---------------------------------------------------------------------------

struct Chaos {
    acc: u64,
}

enum ChaosMsg {
    Kick { hops: u32, seed: u64 },
    Tally { done: Future<RedData> },
}
wire_enum! { ChaosMsg { Kick { hops, seed }, Tally { done } } }

impl Chare for Chaos {
    type Msg = ChaosMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Chaos { acc: 0 }
    }
    fn receive(&mut self, msg: ChaosMsg, ctx: &mut Ctx) {
        match msg {
            ChaosMsg::Kick { hops, seed } => {
                self.acc = self.acc.wrapping_add(seed);
                if hops > 0 {
                    // Pseudo-random fan-out derived from the seed only.
                    let n = ctx.num_pes() as u64 * 4;
                    let next = (seed.wrapping_mul(6364136223846793005).wrapping_add(1)) % n;
                    let fan = 1 + (seed % 2) as u32;
                    let me = ctx.this_proxy::<Chaos>();
                    for k in 0..fan {
                        me.elem((next as i32 + k as i32) % n as i32).send(
                            ctx,
                            ChaosMsg::Kick {
                                hops: hops - 1,
                                seed: seed.wrapping_add(k as u64 + 1).wrapping_mul(2654435761),
                            },
                        );
                    }
                }
            }
            ChaosMsg::Tally { done } => ctx.contribute(
                RedData::I64(self.acc as i64),
                Reducer::Sum,
                RedTarget::Future(done.id()),
            ),
        }
    }
}

fn chaos_run(seed: u64) -> (i64, u64, u64) {
    let out = std::sync::Arc::new(std::sync::Mutex::new(0i64));
    let out2 = std::sync::Arc::clone(&out);
    let report = Runtime::new(4)
        .backend(Backend::Sim(MachineModel::local(4)))
        .register::<Chaos>()
        .run(move |co| {
            let arr = co.ctx().create_array::<Chaos>(&[16], ());
            for k in 0..6 {
                arr.elem(k).send(
                    co.ctx(),
                    ChaosMsg::Kick {
                        hops: 12,
                        seed: seed.wrapping_add(k as u64),
                    },
                );
            }
            let q = co.ctx().create_future::<()>();
            co.ctx().start_quiescence(&q);
            co.get(&q);
            let done = co.ctx().create_future::<RedData>();
            arr.send(co.ctx(), ChaosMsg::Tally { done });
            *out2.lock().unwrap() = co.get(&done).as_i64();
            co.ctx().exit();
        });
    let tally = *out.lock().unwrap();
    (tally, report.msgs, report.bytes)
}

#[test]
fn sim_chaos_is_bitwise_deterministic() {
    for seed in [1u64, 0xDEADBEEF, 42] {
        let a = chaos_run(seed);
        let b = chaos_run(seed);
        assert_eq!(a, b, "seed {seed}: identical runs must match exactly");
    }
    // Different seeds take different paths.
    assert_ne!(chaos_run(1).0, chaos_run(2).0);
}

#[test]
fn chaos_also_completes_on_threads_backend() {
    // Same workload, real threads: the tally is order-independent
    // (wrapping adds commute), so it must equal the sim result.
    let sim_tally = chaos_run(7).0;
    let out = std::sync::Arc::new(std::sync::Mutex::new(0i64));
    let out2 = std::sync::Arc::clone(&out);
    Runtime::new(4).register::<Chaos>().run(move |co| {
        let arr = co.ctx().create_array::<Chaos>(&[16], ());
        for k in 0..6 {
            arr.elem(k).send(
                co.ctx(),
                ChaosMsg::Kick {
                    hops: 12,
                    seed: 7u64.wrapping_add(k as u64),
                },
            );
        }
        let q = co.ctx().create_future::<()>();
        co.ctx().start_quiescence(&q);
        co.get(&q);
        let done = co.ctx().create_future::<RedData>();
        arr.send(co.ctx(), ChaosMsg::Tally { done });
        *out2.lock().unwrap() = co.get(&done).as_i64();
        co.ctx().exit();
    });
    let thr = *out.lock().unwrap();
    assert_eq!(thr, sim_tally, "backends must agree on the final state");
}
