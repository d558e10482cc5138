//! Negative-path tests: the runtime must fail loudly and descriptively on
//! API misuse, not hang or corrupt state.

use charm_core::prelude::*;
use charm_sim::MachineModel;

struct Plain;

enum PlainMsg {
    Move(usize),
    Noop,
}
wire_enum! { PlainMsg { Move(a), Noop } }

impl Chare for Plain {
    type Msg = PlainMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Plain
    }
    fn receive(&mut self, msg: PlainMsg, ctx: &mut Ctx) {
        match msg {
            PlainMsg::Move(pe) => ctx.migrate_me(pe),
            PlainMsg::Noop => {}
        }
    }
}

fn sim(npes: usize) -> Runtime {
    Runtime::new(npes).backend(Backend::Sim(MachineModel::local(npes)))
}

#[test]
#[should_panic(expected = "was not registered")]
fn unregistered_chare_type_panics_with_guidance() {
    sim(2).run(|co| {
        let _ = co.ctx().create_chare::<Plain>((), None);
        co.ctx().exit();
    });
}

#[test]
#[should_panic(expected = "not migratable")]
fn migrating_non_migratable_type_panics() {
    sim(2).register::<Plain>().run(|co| {
        let p = co.ctx().create_chare::<Plain>((), Some(0));
        p.send(co.ctx(), PlainMsg::Move(1));
        // Never reached: the migrate panics first (propagated by run()).
        let f = co.ctx().create_future::<()>();
        co.ctx().start_quiescence(&f);
        co.get(&f);
        co.ctx().exit();
    });
}

#[test]
#[should_panic(expected = "needs an element proxy")]
fn call_on_collection_proxy_panics() {
    sim(2).register::<Plain>().run(|co| {
        let arr = co.ctx().create_array::<Plain>(&[4], ());
        let _f: Future<()> = arr.call(co.ctx(), PlainMsg::Noop);
        co.ctx().exit();
    });
}

#[test]
#[should_panic(expected = "out of range")]
fn create_on_invalid_pe_panics() {
    sim(2).register::<Plain>().run(|co| {
        let _ = co.ctx().create_chare::<Plain>((), Some(99));
        co.ctx().exit();
    });
}

#[test]
#[should_panic(expected = "dims must be positive")]
fn zero_sized_array_panics() {
    sim(2).register::<Plain>().run(|co| {
        let _ = co.ctx().create_array::<Plain>(&[4, 0], ());
        co.ctx().exit();
    });
}

#[test]
#[should_panic(expected = "at least one PE")]
fn zero_pes_rejected() {
    let _ = Runtime::new(0);
}

#[test]
#[should_panic(expected = "awaited on the PE that created them")]
fn future_get_on_wrong_pe_panics() {
    struct Waiter2;
    enum W2 {
        TryGet { f: Future<i64> },
    }
    wire_enum! { W2 { TryGet { f } } }
    impl Chare for Waiter2 {
        type Msg = W2;
        type Init = ();
        fn create(_: (), _: &mut Ctx) -> Self {
            Waiter2
        }
        fn receive(&mut self, msg: W2, ctx: &mut Ctx) {
            let W2::TryGet { f } = msg;
            ctx.go::<Waiter2>(move |co| {
                let _ = co.get(&f); // wrong PE: must panic
            });
        }
    }
    sim(2).register::<Waiter2>().run(|co| {
        let w = co.ctx().create_chare::<Waiter2>((), Some(1));
        let f = co.ctx().create_future::<i64>(); // created on PE 0
        w.send(co.ctx(), W2::TryGet { f });
        let q = co.ctx().create_future::<()>();
        co.ctx().start_quiescence(&q);
        co.get(&q);
        co.ctx().exit();
    });
}

#[test]
fn clean_exit_flag_false_on_message_starvation() {
    // A sim run whose app forgets to exit: the driver drains and reports.
    let report = sim(2).register::<Plain>().run(|co| {
        let p = co.ctx().create_chare::<Plain>((), Some(1));
        p.send(co.ctx(), PlainMsg::Noop);
        // no exit(): main just returns; the coroutine stays blocked... so
        // instead, end the coroutine cleanly and let the queue drain.
    });
    assert!(!report.clean_exit, "no exit() => not a clean exit");
}
