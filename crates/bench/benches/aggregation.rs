//! TRAM-style aggregation ablation (DESIGN.md §9): messages-per-second of
//! fine-grained traffic with per-destination coalescing off vs batch-size
//! 8 / 64 / 512, on both backends.
//!
//! Two workloads, both dominated by small cross-PE envelopes:
//!   * `ping_ring` — many concurrent tokens hopping PE-to-PE around a group
//!     ring, the pure per-message-overhead case aggregation targets;
//!   * `histo` — the histogram-sort mini-app, whose key-exchange phase is a
//!     fine-grained all-to-all.
//!
//! Throughput is reported in logical messages (ring hops / keys moved), so
//! a higher number means aggregation amortized per-envelope cost, not that
//! fewer messages were delivered.

use charm_apps::histo::{run_histo, HistoParams};
use charm_bench::bench;
use charm_core::prelude::*;
use charm_sim::MachineModel;

const NPES: usize = 4;
const TOKENS: u32 = 64;
const HOPS_PER_TOKEN: u32 = 128;

/// The four ablation points; `None` is the aggregation-off baseline.
fn agg_points() -> [(&'static str, Option<AggCfg>); 4] {
    [
        ("off", None),
        ("batch8", Some(AggCfg::count(8))),
        ("batch64", Some(AggCfg::count(64))),
        ("batch512", Some(AggCfg::count(512))),
    ]
}

fn make_rt(sim: bool, agg: Option<AggCfg>) -> Runtime {
    let mut rt = if sim {
        Runtime::new(NPES)
            .backend(Backend::Sim(MachineModel::local(NPES)))
            .meter_compute(false)
    } else {
        Runtime::new(NPES)
    };
    if let Some(cfg) = agg {
        rt = rt.aggregation(cfg);
    }
    rt
}

// ---------------------------------------------------------------------------
// Ping-ring: TOKENS tokens each make HOPS_PER_TOKEN hops around the PE ring.
// ---------------------------------------------------------------------------

struct Collector {
    got: u32,
    expect: u32,
    notify: Option<Future<()>>,
}

enum CollectorMsg {
    Arm { expect: u32, notify: Future<()> },
    Done,
}
wire_enum! { CollectorMsg { Arm { expect, notify }, Done } }

impl Chare for Collector {
    type Msg = CollectorMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Collector {
            got: 0,
            expect: u32::MAX,
            notify: None,
        }
    }
    fn receive(&mut self, msg: CollectorMsg, ctx: &mut Ctx) {
        match msg {
            CollectorMsg::Arm { expect, notify } => {
                self.expect = expect;
                self.notify = Some(notify);
            }
            CollectorMsg::Done => self.got += 1,
        }
        if self.got == self.expect {
            if let Some(f) = self.notify.take() {
                ctx.send_future(&f, ());
            }
        }
    }
}

struct Hop;

enum HopMsg {
    Token {
        hops_left: u32,
        collector: Proxy<Collector>,
    },
}
wire_enum! { HopMsg { Token { hops_left, collector } } }

impl Chare for Hop {
    type Msg = HopMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Hop
    }
    fn receive(&mut self, msg: HopMsg, ctx: &mut Ctx) {
        let HopMsg::Token {
            hops_left,
            collector,
        } = msg;
        if hops_left == 0 {
            collector.send(ctx, CollectorMsg::Done);
        } else {
            let next = (ctx.my_pe() + 1) % ctx.num_pes();
            ctx.this_proxy::<Hop>().elem(next).send(
                ctx,
                HopMsg::Token {
                    hops_left: hops_left - 1,
                    collector,
                },
            );
        }
    }
}

fn run_ping_ring(rt: Runtime) {
    rt.register::<Hop>().register::<Collector>().run(|co| {
        let ring = co.ctx().create_group::<Hop>(());
        let collector = co.ctx().create_chare::<Collector>((), Some(0));
        let done = co.ctx().create_future::<()>();
        collector.send(
            co.ctx(),
            CollectorMsg::Arm {
                expect: TOKENS,
                notify: done,
            },
        );
        for t in 0..TOKENS {
            ring.elem((t as usize) % co.ctx().num_pes()).send(
                co.ctx(),
                HopMsg::Token {
                    hops_left: HOPS_PER_TOKEN,
                    collector,
                },
            );
        }
        co.get(&done);
        co.ctx().exit();
    });
}

/// Timed samples per point: each one is a whole runtime launch.
const REPS: usize = 10;

fn ping_ring_benches() {
    for (backend, sim) in [("sim", true), ("threads", false)] {
        for (name, agg) in agg_points() {
            bench(&format!("agg_ping_ring_{backend}/{name}"), REPS, || {
                run_ping_ring(make_rt(sim, agg))
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram sort: fine-grained all-to-all key exchange.
// ---------------------------------------------------------------------------

fn histo_benches() {
    let params = HistoParams::small();
    for (backend, sim) in [("sim", true), ("threads", false)] {
        for (name, agg) in agg_points() {
            bench(&format!("agg_histo_{backend}/{name}"), REPS, || {
                let r = run_histo(params.clone(), make_rt(sim, agg));
                assert!(r.sorted);
                r.key_sum
            });
        }
    }
}

fn main() {
    ping_ring_benches();
    histo_benches();
}
