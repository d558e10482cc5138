//! Arrival-order delivery of when-guard-buffered messages: the scheduler
//! keeps deferred messages in a deque and drains them front-first, so a
//! burst buffered behind a guard must come out exactly in send order —
//! including when the buffer migrates with its chare.

use charm_core::prelude::*;
use charm_sim::MachineModel;

fn both_backends() -> Vec<Backend> {
    vec![Backend::Threads, Backend::Sim(MachineModel::local(2))]
}

struct Hold {
    open: bool,
    log: Vec<i64>,
}

enum HoldMsg {
    Tick(i64),
    Open,
    Report { done: Future<Vec<i64>> },
}
wire_enum! { HoldMsg { Tick(a), Open, Report { done } } }

impl Chare for Hold {
    type Msg = HoldMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Hold {
            open: false,
            log: Vec::new(),
        }
    }
    fn guard(&self, msg: &HoldMsg) -> bool {
        match msg {
            HoldMsg::Tick(_) => self.open,
            _ => true,
        }
    }
    fn receive(&mut self, msg: HoldMsg, ctx: &mut Ctx) {
        match msg {
            HoldMsg::Tick(i) => self.log.push(i),
            HoldMsg::Open => self.open = true,
            HoldMsg::Report { done } => ctx.send_future(&done, self.log.clone()),
        }
    }
}

#[test]
fn buffered_burst_drains_in_arrival_order() {
    const N: i64 = 200;
    for backend in both_backends() {
        Runtime::new(2)
            .backend(backend)
            .register::<Hold>()
            .run(|co| {
                let h = co.ctx().create_chare::<Hold>((), Some(1));
                for i in 0..N {
                    h.send(co.ctx(), HoldMsg::Tick(i));
                }
                h.send(co.ctx(), HoldMsg::Open);
                let done = co.ctx().create_future::<Vec<i64>>();
                h.send(co.ctx(), HoldMsg::Report { done });
                let log = co.get(&done);
                let expected: Vec<i64> = (0..N).collect();
                assert_eq!(log, expected, "buffered ticks replayed out of order");
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// ...and the order survives migration (the buffer travels with the chare).
// ---------------------------------------------------------------------------

struct MHold {
    open: bool,
    log: Vec<i64>,
}
wire_struct! { MHold { open, log } }

enum MHoldMsg {
    Tick(i64),
    Hop(usize),
    Open,
    Report { done: Future<(Vec<i64>, i64)> },
}
wire_enum! { MHoldMsg { Tick(a), Hop(a), Open, Report { done } } }

impl Chare for MHold {
    type Msg = MHoldMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        MHold {
            open: false,
            log: Vec::new(),
        }
    }
    fn guard(&self, msg: &MHoldMsg) -> bool {
        match msg {
            MHoldMsg::Tick(_) => self.open,
            _ => true,
        }
    }
    fn receive(&mut self, msg: MHoldMsg, ctx: &mut Ctx) {
        match msg {
            MHoldMsg::Tick(i) => self.log.push(i),
            MHoldMsg::Hop(pe) => ctx.migrate_me(pe),
            MHoldMsg::Open => self.open = true,
            MHoldMsg::Report { done } => {
                ctx.send_future(&done, (self.log.clone(), ctx.my_pe() as i64))
            }
        }
    }
}

#[test]
fn buffered_order_survives_migration() {
    const N: i64 = 50;
    Runtime::new(3)
        .backend(Backend::Sim(MachineModel::local(3)))
        .register_migratable::<MHold>()
        .run(|co| {
            let h = co.ctx().create_chare::<MHold>((), Some(0));
            for i in 0..N {
                h.send(co.ctx(), MHoldMsg::Tick(i));
            }
            // The whole buffered burst rides along to PE 2, then opens.
            h.send(co.ctx(), MHoldMsg::Hop(2));
            h.send(co.ctx(), MHoldMsg::Open);
            let done = co.ctx().create_future::<(Vec<i64>, i64)>();
            h.send(co.ctx(), MHoldMsg::Report { done });
            let (log, pe) = co.get(&done);
            let expected: Vec<i64> = (0..N).collect();
            assert_eq!(log, expected, "migrated buffer replayed out of order");
            assert_eq!(pe, 2);
            co.ctx().exit();
        });
}
