//! Scale structures: 64k-PE home hashing, forwarding-chain collapse, and
//! cluster-size sim smoke runs (the CI `scale` job runs the 4,096-PE test;
//! the 65,536-PE weak-scaling check is `#[ignore]` — run it with
//! `cargo test -p charm-core --test scale -- --ignored`).

use std::time::Duration;

use charm_core::prelude::*;
use charm_core::Runtime;
use charm_sim::MachineModel;

// ---------------------------------------------------------------------------
// Home-PE hashing stays uniform at cluster scale
// ---------------------------------------------------------------------------

/// `home_pe` for dense/sparse elements is `stable_hash % npes`; location
/// management degrades to hot spots if the hash clumps. Bucketing 65,536
/// single-dim indices over 65,536 PEs into 256-PE groups, every group
/// must stay within ±40% of the Poisson mean.
#[test]
fn home_hash_spreads_uniformly_at_64k_pes() {
    let npes = 65_536u64;
    let groups = 256usize;
    let per_group = npes as usize / groups;
    let mut counts = vec![0u32; groups];
    for i in 0..npes {
        let pe = Index::from(i as i32).stable_hash() % npes;
        counts[pe as usize / per_group] += 1;
    }
    let mean = npes as f64 / groups as f64;
    for (g, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64) > mean * 0.6 && (c as f64) < mean * 1.4,
            "group {g} holds {c} homes (mean {mean}) — stable_hash clumps"
        );
    }
}

// ---------------------------------------------------------------------------
// Forwarding chains stay bounded across long migration tours
// ---------------------------------------------------------------------------

/// A chare that hops along a fixed tour of PEs. Each hop leaves a
/// forwarding stub behind; the self-sent `Tour` message chases the chare
/// through them, and the trail-collapse path (every `MAX_FWD_HOPS`
/// arrivals) rewrites the stale stubs.
struct Tourist {
    visits: u64,
}
wire_struct! { Tourist { visits } }

enum TouristMsg {
    Tour {
        stops: Vec<u64>,
        k: usize,
        done: Future<RedData>,
    },
    Ping,
}
wire_enum! { TouristMsg { Tour { stops, k, done }, Ping } }

impl Chare for Tourist {
    type Msg = TouristMsg;
    type Init = ();

    fn create(_: (), _: &mut Ctx) -> Self {
        Tourist { visits: 0 }
    }

    fn receive(&mut self, msg: TouristMsg, ctx: &mut Ctx) {
        match msg {
            TouristMsg::Tour { stops, k, done } => {
                self.visits += 1;
                if k < stops.len() {
                    let next = stops[k] as usize;
                    let me = ctx.this_elem::<Tourist>();
                    // Sent before the hop, delivered after it: every leg
                    // routes through at least one freshly-staled PE.
                    me.send(
                        ctx,
                        TouristMsg::Tour {
                            stops,
                            k: k + 1,
                            done,
                        },
                    );
                    ctx.migrate_me(next);
                } else {
                    ctx.contribute(
                        RedData::I64(self.visits as i64),
                        Reducer::Sum,
                        RedTarget::Future(done.id()),
                    );
                }
            }
            TouristMsg::Ping => ctx.reply((self.visits, ctx.my_pe() as u64)),
        }
    }
}

#[test]
fn forwarding_chains_collapse_on_long_tours() {
    let npes = 8usize;
    // 16 hops wrap the 8-PE ring twice — four collapse points at
    // MAX_FWD_HOPS = 4 — and never revisit the current PE consecutively.
    let stops: Vec<u64> = (1..=16).map(|i| i % npes as u64).collect();
    let last = *stops.last().unwrap();
    let hops = stops.len() as u64;
    let report = Runtime::new(npes)
        .backend(Backend::Sim(MachineModel::local(npes)))
        .register_migratable::<Tourist>()
        .run(move |co| {
            let arr = co.ctx().create_array::<Tourist>(&[1], ());
            let elem = arr.elem(0);
            let done = co.ctx().create_future::<RedData>();
            elem.send(co.ctx(), TouristMsg::Tour { stops, k: 0, done });
            assert_eq!(co.get(&done).as_i64(), hops as i64 + 1);
            // The ping (sent only after the tour completed) chases the
            // tour's stub chain; delivery proves routing stays correct
            // through every collapse.
            let f = elem.call::<(u64, u64)>(co.ctx(), TouristMsg::Ping);
            let (visits, pe) = co.get(&f);
            assert_eq!(visits, hops + 1, "tour legs lost or duplicated");
            assert_eq!(pe, last, "chare did not end on the last stop");
            co.ctx().exit();
        });
    assert_eq!(report.migrations, hops);
    let fwd: u64 = report.pe_stats.iter().map(|p| p.fwd_hops).sum();
    // Every tour leg and the final ping may chase stubs, but collapse
    // bounds each chase: without it a 16-leg tour's chains would compound
    // toward O(hops^2) stub traversals.
    assert!(
        fwd <= hops * 4,
        "forwarded {fwd} stub hops over a {hops}-leg tour — chains are not collapsing"
    );
}

// ---------------------------------------------------------------------------
// Cluster-scale sim smoke: hierarchical LB + migration wave at 4,096 PEs
// ---------------------------------------------------------------------------

/// AtSync worker whose load depends only on its index, heavy in the first
/// sixteenth of the index space (Block placement stacks those on the
/// first PEs, forcing a real migration wave).
struct Worker {
    nchares: u32,
    done: Option<Future<RedData>>,
}
wire_struct! { Worker { nchares, done } }

enum WorkerMsg {
    Go { done: Future<RedData> },
}
wire_enum! { WorkerMsg { Go { done } } }

impl Chare for Worker {
    type Msg = WorkerMsg;
    type Init = u32;

    fn create(nchares: u32, _: &mut Ctx) -> Self {
        Worker {
            nchares,
            done: None,
        }
    }

    fn receive(&mut self, WorkerMsg::Go { done }: WorkerMsg, ctx: &mut Ctx) {
        self.done = Some(done);
        let i = ctx.my_index().first() as u64;
        let heavy = i * 16 < self.nchares as u64;
        let ms = i % 7 + 1 + if heavy { 30 } else { 0 };
        ctx.charge(Duration::from_millis(ms));
        ctx.at_sync();
    }

    fn resume_from_sync(&mut self, ctx: &mut Ctx) {
        let done = self.done.take().expect("resumed without Go");
        ctx.contribute(RedData::I64(1), Reducer::Sum, RedTarget::Future(done.id()));
    }
}

fn lb_wave(npes: usize, nchares: u32, group_size: usize) -> charm_core::RunReport {
    let rt = Runtime::new(npes)
        .backend(Backend::Sim(MachineModel::bluewaters(
            npes.div_ceil(32).max(8),
        )))
        .register_migratable::<Worker>()
        .lb_group_size(group_size);
    rt.run(move |co| {
        let done = co.ctx().create_future::<RedData>();
        let arr = co.ctx().create_array_with::<Worker>(
            &[nchares as i32],
            nchares,
            ArrayOpts {
                placement: Placement::Block,
                use_lb: true,
            },
        );
        arr.send(co.ctx(), WorkerMsg::Go { done });
        assert_eq!(co.get(&done).as_i64(), nchares as i64);
        co.ctx().exit();
    })
}

/// The CI scale smoke: one hierarchical LB epoch over 4,096 simulated PEs
/// with twice as many chares, completing with a real migration wave and
/// bounded per-PE stat residency.
#[test]
fn sim_smoke_4096_pes_tree_lb() {
    let (npes, nchares) = (4_096, 8_192u32);
    let report = lb_wave(npes, nchares, 32);
    assert!(report.clean_exit);
    assert_eq!(report.lb_epochs, 1);
    assert!(report.migrations > 0, "skewed load produced no migrations");
    let peak = report
        .pe_stats
        .iter()
        .map(|p| p.lb_peak_stats)
        .max()
        .unwrap_or(0);
    assert!(peak > 0);
    assert!(
        peak <= nchares as u64 / 4,
        "peak stat residency {peak} is not o(nchares={nchares})"
    );
}

// ---------------------------------------------------------------------------
// 65,536-PE weak scaling (ignored: ~memory- and time-heavy; CI runs the
// 4,096-PE smoke above, EXPERIMENTS.md records the full-scale numbers)
// ---------------------------------------------------------------------------

/// Ring token group: every PE forwards `HOPS` tokens once around its
/// neighborhood; completion sums handled hops.
struct Ring {
    handled: u64,
    deaths: u32,
    done: Option<Future<RedData>>,
}
wire_struct! { Ring { handled, deaths, done } }

const RING_TOKENS: u32 = 1;
const RING_HOPS: u32 = 2;

enum RingMsg {
    Start { done: Future<RedData> },
    Token { ttl: u32 },
}
wire_enum! { RingMsg { Start { done }, Token { ttl } } }

impl Chare for Ring {
    type Msg = RingMsg;
    type Init = ();

    fn create(_: (), _: &mut Ctx) -> Self {
        Ring {
            handled: 0,
            deaths: 0,
            done: None,
        }
    }

    fn receive(&mut self, msg: RingMsg, ctx: &mut Ctx) {
        let me = ctx.this_proxy::<Ring>();
        let next = ((ctx.my_pe() + 1) % ctx.num_pes()) as i32;
        match msg {
            RingMsg::Start { done } => {
                self.done = Some(done);
                for _ in 0..RING_TOKENS {
                    me.elem(next)
                        .send(ctx, RingMsg::Token { ttl: RING_HOPS - 1 });
                }
            }
            RingMsg::Token { ttl } => {
                self.handled += 1;
                if ttl > 0 {
                    me.elem(next).send(ctx, RingMsg::Token { ttl: ttl - 1 });
                } else {
                    self.deaths += 1;
                }
                // Each seeded token dies `RING_HOPS` PEs to the right, so
                // every PE sees exactly `RING_TOKENS` deaths.
                if self.deaths == RING_TOKENS {
                    let done = self.done.take().expect("token before Start");
                    ctx.contribute(
                        RedData::I64(self.handled as i64),
                        Reducer::Sum,
                        RedTarget::Future(done.id()),
                    );
                }
            }
        }
    }
}

#[test]
#[ignore = "65,536 simulated PEs: minutes of wall time; run explicitly"]
fn weak_scaling_completes_at_65536_pes() {
    let npes = 65_536usize;
    let report = Runtime::new(npes)
        .backend(Backend::Sim(MachineModel::bluewaters(2_048)))
        .register::<Ring>()
        .run(move |co| {
            let grp = co.ctx().create_group::<Ring>(());
            let done = co.ctx().create_future::<RedData>();
            grp.send(co.ctx(), RingMsg::Start { done });
            let handled = co.get(&done).as_i64() as u64;
            assert_eq!(
                handled,
                npes as u64 * RING_TOKENS as u64 * RING_HOPS as u64,
                "lost or duplicated ring tokens at 65k PEs"
            );
            co.ctx().exit();
        });
    assert!(report.clean_exit);
    assert_eq!(report.pe_stats.len(), npes);
}
