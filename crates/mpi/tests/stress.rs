//! Randomized minimpi stress: a seeded all-pairs traffic pattern checked
//! against an arithmetic oracle, plus collective pipelines.

use charm_core::{Backend, RedData, Reducer, Runtime};
use charm_sim::MachineModel;
use charm_wire::SplitMix64;

fn rt(npes: usize, sim: bool) -> Runtime {
    let rt = Runtime::new(npes);
    if sim {
        rt.backend(Backend::Sim(MachineModel::local(npes)))
    } else {
        rt
    }
}

#[test]
fn random_all_pairs_traffic_matches_oracle() {
    for (seed, sim) in [(1u64, true), (2, true), (3, false)] {
        let n = 4usize;
        minimpi::run_on(rt(n, sim), move |rank| {
            let me = rank.rank();
            // Every rank derives the same global traffic plan from the seed:
            // a list of (src, dst, value) triples.
            let mut rng = SplitMix64::new(seed);
            let plan: Vec<(usize, usize, u64)> = (0..60)
                .map(|_| {
                    (
                        rng.below(n as u64) as usize,
                        rng.below(n as u64) as usize,
                        1 + rng.below(999),
                    )
                })
                .collect();
            // Sends in plan order (self-sends skipped for simplicity).
            for &(src, dst, v) in &plan {
                if src == me && dst != src {
                    rank.send(dst, 1, &v);
                }
            }
            // Receive exactly the expected multiset.
            let mut expected: Vec<u64> = plan
                .iter()
                .filter(|&&(src, dst, _)| dst == me && src != dst)
                .map(|&(_, _, v)| v)
                .collect();
            let mut got = Vec::new();
            for _ in 0..expected.len() {
                let (v, _) = rank.recv::<u64>(minimpi::ANY_SOURCE, Some(1));
                got.push(v);
            }
            expected.sort();
            got.sort();
            assert_eq!(got, expected, "rank {me}, seed {seed}");
            rank.barrier();
        });
    }
}

#[test]
fn pipelined_collectives_interleave_correctly() {
    minimpi::run_on(rt(4, true), |rank| {
        let me = rank.rank() as i64;
        // Alternate reductions and point-to-point without deadlock.
        for round in 0..10i64 {
            let s = rank.allreduce(RedData::I64(me + round), Reducer::Sum);
            assert_eq!(s.as_i64(), 6 + 4 * round);
            let my_rank = rank.rank();
            let peer = (my_rank + 1) % 4;
            rank.send(peer, round as i32, &(me * round));
            let (v, st) = rank.recv::<i64>(Some((my_rank + 3) % 4), Some(round as i32));
            assert_eq!(v, ((st.src) as i64) * round);
        }
    });
}

#[test]
fn heavy_fifo_burst_per_link() {
    minimpi::run_on(rt(3, false), |rank| {
        let me = rank.rank();
        let n = rank.size();
        let burst = 200u64;
        for dst in 0..n {
            if dst != me {
                for k in 0..burst {
                    rank.send(dst, 9, &(me as u64 * 10_000 + k));
                }
            }
        }
        // Per-source streams must arrive in order even when interleaved.
        let mut next = vec![0u64; n];
        for _ in 0..(burst as usize) * (n - 1) {
            let (v, st) = rank.recv::<u64>(minimpi::ANY_SOURCE, Some(9));
            let k = v % 10_000;
            assert_eq!(v / 10_000, st.src as u64);
            assert_eq!(k, next[st.src], "FIFO per link violated");
            next[st.src] += 1;
        }
    });
}

#[test]
fn mixed_collectives_roundtrip() {
    minimpi::run_on(rt(4, true), |rank| {
        let me = rank.rank();
        // scatter -> local transform -> gather -> bcast -> check.
        let seedv = (me == 1).then(|| vec![2u64, 3, 5, 7]);
        let mine = rank.scatter(1, seedv);
        let doubled = mine * 2;
        let all = rank.gather(&doubled);
        let expect = vec![4u64, 6, 10, 14];
        let got = rank.bcast(0, all);
        assert_eq!(got, expect);
    });
}
