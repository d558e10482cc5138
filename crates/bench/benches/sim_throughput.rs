//! Simulator event throughput at cluster scale.
//!
//! The scaling figures rest on the sim backend processing hundreds of
//! thousands of scheduler events per wall-clock second while modeling
//! 1k–65k PEs. This bench pins that number down: a group chare on every
//! PE circulates ring tokens (`tokens` per PE, each forwarded `hops`
//! times, every hop one remote entry message), and the score is
//! QD-counted envelopes handled per host-second — `report.msgs / wall`.
//! Per-PE work is constant, so events grow linearly with PEs and the
//! events/sec column directly exposes any super-linear scheduler
//! structure (per-event allocation, O(npes) traversals, fat envelopes).
//!
//! Knobs: `CHARMRS_ST_PES` (comma list, default `1024,16384,65536`),
//! `CHARMRS_ST_TOKENS` (2 per PE), `CHARMRS_ST_HOPS` (8).

use std::sync::{Arc, Mutex};

use charm_core::prelude::*;
use charm_core::Runtime;
use charm_sim::MachineModel;

#[derive(Debug, Clone)]
struct PulseParams {
    tokens: u32,
    hops: u32,
}
wire_struct! { PulseParams { tokens, hops } }

/// One member per PE; forwards tokens around the PE ring.
struct Pulse {
    params: PulseParams,
    handled: u64,
    done: Option<Future<RedData>>,
}
wire_struct! { Pulse { params, handled, done } }

enum PulseMsg {
    /// Broadcast: seed this member's tokens.
    Start { done: Future<RedData> },
    /// A ring token with `ttl` forwards left before it dies.
    Token { ttl: u32 },
}
wire_enum! { PulseMsg { Start { done }, Token { ttl } } }

impl Pulse {
    /// Each token is handled on the `hops` PEs to the right of its seeder,
    /// so by symmetry every PE handles exactly `tokens · hops` of them —
    /// local completion needs no coordination beyond having seen `Start`
    /// (the broadcast can lose the race against tokens seeded by PEs it
    /// reached earlier).
    fn contribute_if_done(&mut self, ctx: &mut Ctx) {
        if self.handled == u64::from(self.params.tokens) * u64::from(self.params.hops) {
            if let Some(done) = self.done.take() {
                ctx.contribute(
                    RedData::I64(self.handled as i64),
                    Reducer::Sum,
                    RedTarget::Future(done.id()),
                );
            }
        }
    }
}

impl Chare for Pulse {
    type Msg = PulseMsg;
    type Init = PulseParams;

    fn create(params: PulseParams, _ctx: &mut Ctx) -> Self {
        Pulse {
            params,
            handled: 0,
            done: None,
        }
    }

    fn receive(&mut self, msg: PulseMsg, ctx: &mut Ctx) {
        let me = ctx.this_proxy::<Pulse>();
        let next = ((ctx.my_pe() + 1) % ctx.num_pes()) as i32;
        match msg {
            PulseMsg::Start { done } => {
                self.done = Some(done);
                for _ in 0..self.params.tokens {
                    me.elem(next).send(
                        ctx,
                        PulseMsg::Token {
                            ttl: self.params.hops - 1,
                        },
                    );
                }
            }
            PulseMsg::Token { ttl } => {
                self.handled += 1;
                if ttl > 0 {
                    me.elem(next).send(ctx, PulseMsg::Token { ttl: ttl - 1 });
                }
            }
        }
        self.contribute_if_done(ctx);
    }
}

fn pes_list() -> Vec<usize> {
    std::env::var("CHARMRS_ST_PES")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1024, 16_384, 65_536])
}

fn env_u32(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn main() {
    let tokens = env_u32("CHARMRS_ST_TOKENS", 2);
    let hops = env_u32("CHARMRS_ST_HOPS", 8);
    let params = PulseParams { tokens, hops };

    println!("# sim throughput — ring pulse, {tokens} tokens/PE x {hops} hops");
    println!(
        "{:>8}  {:>12}  {:>10}  {:>12}  {:>10}",
        "PEs", "events", "wall s", "events/s", "hops sum"
    );
    for p in pes_list() {
        let out: Arc<Mutex<Option<RedData>>> = Arc::new(Mutex::new(None));
        let out2 = Arc::clone(&out);
        let params = params.clone();
        let rt = Runtime::new(p).backend(Backend::Sim(MachineModel::bluewaters(
            p.div_ceil(32).max(8),
        )));
        let report = rt.register::<Pulse>().run(move |co| {
            let grp = co.ctx().create_group::<Pulse>(params.clone());
            let done = co.ctx().create_future::<RedData>();
            grp.send(co.ctx(), PulseMsg::Start { done });
            *out2.lock().unwrap() = Some(co.get(&done));
            co.ctx().exit();
        });
        let handled = match out.lock().unwrap().take() {
            Some(RedData::I64(v)) => v as u64,
            other => panic!("pulse reduction returned {other:?}"),
        };
        let expected = p as u64 * tokens as u64 * hops as u64;
        assert_eq!(handled, expected, "lost or duplicated ring tokens");
        let wall = report.wall.as_secs_f64();
        let rate = if wall > 0.0 {
            report.msgs as f64 / wall
        } else {
            f64::INFINITY
        };
        println!(
            "{:>8}  {:>12}  {:>10.3}  {:>12.0}  {:>10}",
            p, report.msgs, wall, rate, handled
        );
    }
}
