//! Stress tests: message-count conservation, migration storms interleaved
//! with traffic, many concurrent reductions, coroutine swarms, and mixed
//! feature interaction under load.

use charm_core::prelude::*;
use charm_sim::MachineModel;

// ---------------------------------------------------------------------------
// Migration storm: chares hop around while being hammered with increments;
// nothing may be lost.
// ---------------------------------------------------------------------------

struct Nomad {
    count: i64,
}
wire_struct! { Nomad { count } }

enum NomadMsg {
    Inc,
    HopThenInc { to: usize, remaining: u32 },
    Total { done: Future<RedData> },
}
wire_enum! { NomadMsg { Inc, HopThenInc { to, remaining }, Total { done } } }

impl Chare for Nomad {
    type Msg = NomadMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Nomad { count: 0 }
    }
    fn receive(&mut self, msg: NomadMsg, ctx: &mut Ctx) {
        match msg {
            NomadMsg::Inc => self.count += 1,
            NomadMsg::HopThenInc { to, remaining } => {
                self.count += 1;
                if remaining > 0 {
                    let next = (to + 1) % ctx.num_pes();
                    ctx.this_elem::<Nomad>().send(
                        ctx,
                        NomadMsg::HopThenInc {
                            to: next,
                            remaining: remaining - 1,
                        },
                    );
                    ctx.migrate_me(to);
                }
            }
            NomadMsg::Total { done } => ctx.contribute(
                RedData::I64(self.count),
                Reducer::Sum,
                RedTarget::Future(done.id()),
            ),
        }
    }
}

/// One storm: 8 nomads on 4 PEs, each hopping 12 times while 25 plain
/// increments chase it. Returns the report and the summed count.
fn migration_storm(rt: Runtime) -> (RunReport, i64) {
    let hops = 12u32;
    let nomads = 8;
    let incs = 25;
    let out = std::sync::Arc::new(std::sync::Mutex::new(0i64));
    let out2 = std::sync::Arc::clone(&out);
    let report = rt.register_migratable::<Nomad>().run(move |co| {
        let arr = co.ctx().create_array::<Nomad>(&[nomads], ());
        // Kick every nomad into a hop chain while also spraying
        // plain increments that must chase them around.
        for k in 0..nomads {
            arr.elem(k).send(
                co.ctx(),
                NomadMsg::HopThenInc {
                    to: (k as usize) % 4,
                    remaining: hops,
                },
            );
            for _ in 0..incs {
                arr.elem(k).send(co.ctx(), NomadMsg::Inc);
            }
        }
        let q = co.ctx().create_future::<()>();
        co.ctx().start_quiescence(&q);
        co.get(&q);
        let done = co.ctx().create_future::<RedData>();
        arr.send(co.ctx(), NomadMsg::Total { done });
        *out2.lock().unwrap() = co.get(&done).as_i64();
        co.ctx().exit();
    });
    let total = *out.lock().unwrap();
    assert_eq!(
        total,
        nomads as i64 * (incs as i64 + hops as i64 + 1),
        "every increment must land exactly once"
    );
    assert!(report.migrations >= (hops as u64) * nomads as u64 / 2);
    (report, total)
}

#[test]
fn migration_storm_loses_nothing() {
    for backend in [Backend::Threads, Backend::Sim(MachineModel::local(4))] {
        migration_storm(Runtime::new(4).backend(backend));
    }
}

/// `(messages, migrations, fwd_hops, final total)` of the storm on the
/// deterministic sim: moving location management must not move how far
/// messages chase.
const GOLD_STORM_SIM: (u64, u64, u64, i64) = (807, 94, 125, 304);

#[test]
fn migration_storm_sim_golden() {
    let rt = Runtime::new(4).backend(Backend::Sim(MachineModel::local(4)));
    let (report, total) = migration_storm(rt);
    let fwd_hops: u64 = report.pe_stats.iter().map(|p| p.fwd_hops).sum();
    assert_eq!(
        (report.msgs, report.migrations, fwd_hops, total),
        GOLD_STORM_SIM,
        "the sim migration storm's message or forwarding counts moved"
    );
}

// ---------------------------------------------------------------------------
// Many reductions in flight on one collection (paper §II-F: "multiple
// reductions in flight, even for the same collection").
// ---------------------------------------------------------------------------

struct Pipeliner;

enum PipeMsg {
    Burst { count: u32, base: Future<RedData> },
}
wire_enum! { PipeMsg { Burst { count, base } } }

impl Chare for Pipeliner {
    type Msg = PipeMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Pipeliner
    }
    fn receive(&mut self, msg: PipeMsg, ctx: &mut Ctx) {
        let PipeMsg::Burst { count, base } = msg;
        // Fire `count` reductions back-to-back without waiting; they must
        // complete in order k=0.. because members contribute in sequence.
        for k in 0..count {
            let fid = charm_core::FutureId {
                pe: base.id().pe,
                seq: base.id().seq + k as u64,
            };
            ctx.contribute(RedData::I64(k as i64), Reducer::Sum, RedTarget::Future(fid));
        }
    }
}

#[test]
fn many_reductions_in_flight_complete_in_order() {
    for backend in [Backend::Threads, Backend::Sim(MachineModel::local(3))] {
        Runtime::new(3)
            .backend(backend)
            .register::<Pipeliner>()
            .run(|co| {
                let n = 40u32;
                let members = 9i64;
                let arr = co.ctx().create_array::<Pipeliner>(&[9], ());
                // Reserve a contiguous run of future ids.
                let base = co.ctx().create_future::<RedData>();
                for _ in 1..n {
                    let _: Future<RedData> = co.ctx().create_future::<RedData>();
                }
                arr.send(co.ctx(), PipeMsg::Burst { count: n, base });
                for k in 0..n {
                    let f: Future<RedData> = Future::from_raw(charm_core::FutureId {
                        pe: base.id().pe,
                        seq: base.id().seq + k as u64,
                    });
                    assert_eq!(co.get(&f).as_i64(), k as i64 * members);
                }
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Coroutine swarm: every member runs a waiting coroutine simultaneously.
// ---------------------------------------------------------------------------

struct Swarm {
    tokens: usize,
}

enum SwarmMsg {
    Go { done: Future<RedData> },
    Token,
}
wire_enum! { SwarmMsg { Go { done }, Token } }

impl Chare for Swarm {
    type Msg = SwarmMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Swarm { tokens: 0 }
    }
    fn receive(&mut self, msg: SwarmMsg, ctx: &mut Ctx) {
        match msg {
            SwarmMsg::Go { done } => {
                // Send a token to the next member, then wait for my own.
                let n = 24;
                let me = ctx.my_index().first();
                ctx.this_proxy::<Swarm>()
                    .elem((me + 1) % n)
                    .send(ctx, SwarmMsg::Token);
                ctx.go::<Swarm>(move |co| {
                    co.wait(|s: &Swarm| s.tokens >= 1);
                    co.ctx().contribute_barrier(RedTarget::Future(done.id()));
                });
            }
            SwarmMsg::Token => self.tokens += 1,
        }
    }
}

#[test]
fn coroutine_swarm_all_wake() {
    for backend in [Backend::Threads, Backend::Sim(MachineModel::local(4))] {
        Runtime::new(4)
            .backend(backend)
            .register::<Swarm>()
            .run(|co| {
                let arr = co.ctx().create_array::<Swarm>(&[24], ());
                let done = co.ctx().create_future::<RedData>();
                arr.send(co.ctx(), SwarmMsg::Go { done });
                assert_eq!(co.get(&done), RedData::Unit);
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Counter conservation: at clean exit, sent == processed (nothing dropped).
// ---------------------------------------------------------------------------

#[test]
fn message_counters_conserved_at_quiescence() {
    let report = Runtime::new(4)
        .backend(Backend::Sim(MachineModel::local(4)))
        .register::<Nomad>()
        .run(|co| {
            let arr = co.ctx().create_array::<Nomad>(&[12], ());
            for k in 0..12 {
                for _ in 0..10 {
                    arr.elem(k).send(co.ctx(), NomadMsg::Inc);
                }
            }
            let q = co.ctx().create_future::<()>();
            co.ctx().start_quiescence(&q);
            co.get(&q);
            co.ctx().exit();
        });
    assert!(report.clean_exit);
    assert!(report.msgs >= 120);
}
