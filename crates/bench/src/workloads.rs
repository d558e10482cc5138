//! The chare programs the ledger rows run (and the `host` bench times):
//! a group barrier loop, a token ring, a fan-in into one chare, and a
//! ring pulse across every PE. The mini-apps live in `charm-apps`.

use std::cell::Cell;

use charm_core::prelude::*;

/// Wait in the main coroutine until no message is in flight anywhere.
fn quiesce(co: &mut Co<Main>) {
    let q = co.ctx().create_future::<()>();
    co.ctx().start_quiescence(&q);
    co.get(&q);
}

// ---------------------------------------------------------------------------
// Barrier loop: every group member contributes to `rounds` back-to-back
// empty reductions.
// ---------------------------------------------------------------------------

struct Bounce {
    left: u32,
    done: Option<Future<()>>,
}

enum BounceMsg {
    Start { rounds: u32, done: Future<()> },
}
wire_enum! { BounceMsg { Start { rounds, done } } }

impl Chare for Bounce {
    type Msg = BounceMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Bounce {
            left: 0,
            done: None,
        }
    }
    fn receive(&mut self, msg: BounceMsg, ctx: &mut Ctx) {
        let BounceMsg::Start { rounds, done } = msg;
        self.left = rounds;
        self.done = (ctx.my_pe() == 0).then_some(done);
        ctx.contribute_barrier(ctx.this_proxy::<Bounce>().reduction_target(0));
    }
    fn reduced(&mut self, _tag: u32, _data: RedData, ctx: &mut Ctx) {
        self.left -= 1;
        if self.left > 0 {
            ctx.contribute_barrier(ctx.this_proxy::<Bounce>().reduction_target(0));
        } else if let Some(done) = self.done.take() {
            ctx.send_future(&done, ());
        }
    }
}

/// Run `rounds` group barriers back to back; the run ends with the last.
pub fn barriers(rt: Runtime, rounds: u32) -> RunReport {
    rt.register::<Bounce>().run(move |co| {
        let g = co.ctx().create_group::<Bounce>(());
        let done = co.ctx().create_future::<()>();
        g.send(co.ctx(), BounceMsg::Start { rounds, done });
        co.get(&done);
        co.ctx().exit();
    })
}

// ---------------------------------------------------------------------------
// Token ring: `TOKENS` tokens each make `HOPS` PE-to-PE hops.
// ---------------------------------------------------------------------------

const TOKENS: usize = 64;
const HOPS: u32 = 128;

struct Hop;

enum HopMsg {
    Token { hops_left: u32 },
}
wire_enum! { HopMsg { Token { hops_left } } }

impl Chare for Hop {
    type Msg = HopMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Hop
    }
    fn receive(&mut self, msg: HopMsg, ctx: &mut Ctx) {
        let HopMsg::Token { hops_left } = msg;
        if hops_left > 0 {
            let next = (ctx.my_pe() + 1) % ctx.num_pes();
            let token = HopMsg::Token {
                hops_left: hops_left - 1,
            };
            ctx.this_proxy::<Hop>().elem(next).send(ctx, token);
        }
    }
}

/// The token ring: fine-grained cross-PE traffic, the case aggregation
/// targets.
pub fn token_ring(rt: Runtime) -> RunReport {
    rt.register::<Hop>().run(|co| {
        let ring = co.ctx().create_group::<Hop>(());
        for t in 0..TOKENS {
            let token = HopMsg::Token { hops_left: HOPS };
            ring.elem(t % co.ctx().num_pes()).send(co.ctx(), token);
        }
        quiesce(co);
        co.ctx().exit();
    })
}

// ---------------------------------------------------------------------------
// Fan-in: a group sprays `FAN_IN_PER_PE` messages a PE into one sink
// chare, `FAN_IN_ROUNDS` times. Both chares are migratable, so the same
// program runs under checkpointing and on every backend.
// ---------------------------------------------------------------------------

/// Messages each PE sends the sink a round.
const FAN_IN_PER_PE: u64 = 32;
/// Rounds per run.
const FAN_IN_ROUNDS: u64 = 4;

struct Sink {
    sum: i64,
    got: u64,
    notify: Option<(u64, Future<()>)>,
}
wire_struct! { Sink { sum, got, notify } }

enum SinkMsg {
    Push(i64),
    /// Complete `done` once `after` pushes have arrived.
    Notify {
        after: u64,
        done: Future<()>,
    },
}
wire_enum! { SinkMsg { Push(a), Notify { after, done } } }

impl Chare for Sink {
    type Msg = SinkMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Sink {
            sum: 0,
            got: 0,
            notify: None,
        }
    }
    fn receive(&mut self, msg: SinkMsg, ctx: &mut Ctx) {
        match msg {
            SinkMsg::Push(v) => {
                self.sum += v;
                self.got += 1;
            }
            SinkMsg::Notify { after, done } => self.notify = Some((after, done)),
        }
        if let Some((after, done)) = self.notify {
            if self.got >= after {
                self.notify = None;
                ctx.send_future(&done, ());
            }
        }
    }
}

struct Spray;
wire_struct! { Spray {} }

enum SprayMsg {
    Go { sink: Proxy<Sink> },
}
wire_enum! { SprayMsg { Go { sink } } }

impl Chare for Spray {
    type Msg = SprayMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Spray
    }
    fn receive(&mut self, msg: SprayMsg, ctx: &mut Ctx) {
        let SprayMsg::Go { sink } = msg;
        for k in 0..FAN_IN_PER_PE as i64 {
            sink.send(ctx, SinkMsg::Push(ctx.my_pe() as i64 + k));
        }
    }
}

/// Run the fan-in. Each round ends at quiescence (`by_qd`), which is what
/// arms an automatic checkpoint or a telemetry sweep, or when the sink
/// has counted the round's messages.
pub fn fan_in(rt: Runtime, by_qd: bool) -> RunReport {
    let rt = rt.register_migratable::<Sink>();
    let report = rt.register_migratable::<Spray>().run(move |co| {
        let sink = co.ctx().create_chare::<Sink>((), Some(0));
        let group = co.ctx().create_group::<Spray>(());
        let per_round = FAN_IN_PER_PE * co.ctx().num_pes() as u64;
        for round in 1..=FAN_IN_ROUNDS {
            group.send(co.ctx(), SprayMsg::Go { sink });
            if by_qd {
                quiesce(co);
            } else {
                let done = co.ctx().create_future::<()>();
                let after = round * per_round;
                sink.send(co.ctx(), SinkMsg::Notify { after, done });
                co.get(&done);
            }
        }
        co.ctx().exit();
    });
    assert!(report.clean_exit);
    report
}

// ---------------------------------------------------------------------------
// Ring pulse: a group member on every PE seeds `PULSE_TOKENS` tokens that
// each travel `PULSE_HOPS` PEs to the right. Per-PE work is constant, so
// anything that grows with the machine shows per PE.
// ---------------------------------------------------------------------------

const PULSE_TOKENS: u32 = 2;
const PULSE_HOPS: u32 = 8;

thread_local! {
    /// What `ring_pulse` calls once the last token is handled, before the
    /// run's teardown. The sim runs every PE on the thread that called
    /// `Runtime::run`, so it runs on the caller's thread.
    static AT_LAST_TOKEN: Cell<fn()> = const { Cell::new(|| {}) };
}

struct Pulse {
    handled: u32,
    /// The main coroutine's future, from `Start` on.
    done: Option<Future<()>>,
}

enum PulseMsg {
    Start { done: Future<()> },
    Token { ttl: u32 },
}
wire_enum! { PulseMsg { Start { done }, Token { ttl } } }

impl Chare for Pulse {
    type Msg = PulseMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Pulse {
            handled: 0,
            done: None,
        }
    }
    fn receive(&mut self, msg: PulseMsg, ctx: &mut Ctx) {
        let next = (ctx.my_pe() + 1) % ctx.num_pes();
        let next = ctx.this_proxy::<Pulse>().elem(next);
        match msg {
            PulseMsg::Start { done } => {
                self.done = Some(done);
                for _ in 0..PULSE_TOKENS {
                    let ttl = PULSE_HOPS - 1;
                    next.send(ctx, PulseMsg::Token { ttl });
                }
            }
            PulseMsg::Token { ttl } => {
                self.handled += 1;
                if ttl > 0 {
                    next.send(ctx, PulseMsg::Token { ttl: ttl - 1 });
                }
            }
        }
        // By symmetry every PE handles `tokens · hops` tokens; `Start` may
        // arrive after tokens seeded by PEs it reached first. Exactly one
        // message meets both conditions.
        if self.handled == PULSE_TOKENS * PULSE_HOPS && self.done.is_some() {
            let member_0 = ctx.this_proxy::<Pulse>().elem(0);
            ctx.contribute_barrier(member_0.reduction_target(0));
        }
    }
    fn reduced(&mut self, _tag: u32, _data: RedData, ctx: &mut Ctx) {
        AT_LAST_TOKEN.get()();
        if let Some(done) = self.done.take() {
            ctx.send_future(&done, ());
        }
    }
}

/// Run the ring pulse; `at_last_token` runs on this thread once every
/// token is handled.
pub fn ring_pulse(rt: Runtime, at_last_token: fn()) -> RunReport {
    AT_LAST_TOKEN.set(at_last_token);
    let report = rt.register::<Pulse>().run(|co| {
        let group = co.ctx().create_group::<Pulse>(());
        let done = co.ctx().create_future::<()>();
        group.send(co.ctx(), PulseMsg::Start { done });
        co.get(&done);
        co.ctx().exit();
    });
    AT_LAST_TOKEN.set(|| {});
    report
}
