//! Tests of the extension features: section multicast and sender-side
//! per-message when-conditions (paper §II-E future work).

use charm_core::prelude::*;
use charm_sim::MachineModel;

fn both_backends() -> Vec<Backend> {
    vec![Backend::Threads, Backend::Sim(MachineModel::local(4))]
}

// ---------------------------------------------------------------------------
// Section multicast
// ---------------------------------------------------------------------------

struct Member {
    pokes: i64,
}

enum MemberMsg {
    Poke,
    Count { done: Future<RedData> },
}
wire_enum! { MemberMsg { Poke, Count { done } } }

impl Chare for Member {
    type Msg = MemberMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Member { pokes: 0 }
    }
    fn receive(&mut self, msg: MemberMsg, ctx: &mut Ctx) {
        match msg {
            MemberMsg::Poke => self.pokes += 1,
            MemberMsg::Count { done } => ctx.contribute(
                // Weight by index so we can verify exactly *which* members
                // were poked, not just how many pokes happened.
                RedData::I64(self.pokes * (1 << ctx.my_index().first())),
                Reducer::Sum,
                RedTarget::Future(done.id()),
            ),
        }
    }
}

#[test]
fn section_multicast_hits_exactly_the_members() {
    for backend in both_backends() {
        Runtime::new(3)
            .backend(backend)
            .register::<Member>()
            .run(|co| {
                let arr = co.ctx().create_array::<Member>(&[8], ());
                let section = arr.section([1i32, 3, 6]);
                assert_eq!(section.members().len(), 3);
                section.send(co.ctx(), MemberMsg::Poke);
                section.send(co.ctx(), MemberMsg::Poke);
                let done = co.ctx().create_future::<RedData>();
                arr.send(co.ctx(), MemberMsg::Count { done });
                let weighted = co.get(&done).as_i64();
                assert_eq!(weighted, 2 * ((1 << 1) + (1 << 3) + (1 << 6)));
                co.ctx().exit();
            });
    }
}

#[test]
fn section_is_serializable_and_usable_remotely() {
    struct Relay;
    enum RelayMsg {
        PokeThese { section: Section<Member> },
    }
    wire_enum! { RelayMsg { PokeThese { section } } }
    impl Chare for Relay {
        type Msg = RelayMsg;
        type Init = ();
        fn create(_: (), _: &mut Ctx) -> Self {
            Relay
        }
        fn receive(&mut self, msg: RelayMsg, ctx: &mut Ctx) {
            let RelayMsg::PokeThese { section } = msg;
            section.send(ctx, MemberMsg::Poke);
        }
    }
    Runtime::new(2)
        .backend(Backend::Sim(MachineModel::local(2)))
        .register::<Member>()
        .register::<Relay>()
        .run(|co| {
            let arr = co.ctx().create_array::<Member>(&[5], ());
            let relay = co.ctx().create_chare::<Relay>((), Some(1));
            relay.send(
                co.ctx(),
                RelayMsg::PokeThese {
                    section: arr.section([0i32, 4]),
                },
            );
            // The relayed pokes are asynchronous: wait for the system to
            // drain before counting.
            let quiet = co.ctx().create_future::<()>();
            co.ctx().start_quiescence(&quiet);
            co.get(&quiet);
            let done = co.ctx().create_future::<RedData>();
            arr.send(co.ctx(), MemberMsg::Count { done });
            assert_eq!(co.get(&done).as_i64(), (1 << 0) + (1 << 4));
            co.ctx().exit();
        });
}

// ---------------------------------------------------------------------------
// Sender-side per-message when-conditions
// ---------------------------------------------------------------------------

struct Gate {
    level: i64,
    log: Vec<i64>,
}

enum GateMsg {
    Raise(i64),
    Deliver(i64),
    Report { done: Future<Vec<i64>> },
}
wire_enum! { GateMsg { Raise(a), Deliver(a), Report { done } } }

impl Chare for Gate {
    type Msg = GateMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Gate {
            level: 0,
            log: Vec::new(),
        }
    }
    fn receive(&mut self, msg: GateMsg, ctx: &mut Ctx) {
        match msg {
            GateMsg::Raise(v) => self.level = v,
            GateMsg::Deliver(v) => self.log.push(v),
            GateMsg::Report { done } => ctx.send_future(&done, self.log.clone()),
        }
    }
}

#[test]
fn send_when_defers_until_predicate_holds() {
    for backend in both_backends() {
        let mut rt = Runtime::new(2).backend(backend).register::<Gate>();
        // The sender attaches "deliver only once level >= payload".
        let when_level = rt.add_msg_guard::<Gate>(|g, m| match m {
            GateMsg::Deliver(v) => g.level >= *v,
            _ => true,
        });
        rt.run(move |co| {
            let gate = co.ctx().create_chare::<Gate>((), Some(1));
            // These must wait: the gate starts at level 0.
            gate.send_when(co.ctx(), GateMsg::Deliver(5), when_level);
            gate.send_when(co.ctx(), GateMsg::Deliver(3), when_level);
            // Plain sends pass through immediately.
            gate.send(co.ctx(), GateMsg::Deliver(-1));
            // Raise the level step by step: 3 unlocks first, then 5.
            gate.send(co.ctx(), GateMsg::Raise(3));
            gate.send(co.ctx(), GateMsg::Raise(5));
            let done = co.ctx().create_future::<Vec<i64>>();
            gate.send(co.ctx(), GateMsg::Report { done });
            let log = co.get(&done);
            assert_eq!(log, vec![-1, 3, 5], "guarded order follows the levels");
            co.ctx().exit();
        });
    }
}

#[test]
fn send_when_combines_with_receiver_guard() {
    // A chare with its own guard (reject while level < 0) plus a message
    // guard; both must pass.
    struct Picky {
        level: i64,
        got: Vec<i64>,
    }
    enum PickyMsg {
        Set(i64),
        Value(i64),
        Report { done: Future<Vec<i64>> },
    }
    wire_enum! { PickyMsg { Set(a), Value(a), Report { done } } }
    impl Chare for Picky {
        type Msg = PickyMsg;
        type Init = ();
        fn create(_: (), _: &mut Ctx) -> Self {
            Picky {
                level: -1,
                got: Vec::new(),
            }
        }
        fn guard(&self, msg: &PickyMsg) -> bool {
            match msg {
                PickyMsg::Value(_) => self.level >= 0,
                _ => true,
            }
        }
        fn receive(&mut self, msg: PickyMsg, ctx: &mut Ctx) {
            match msg {
                PickyMsg::Set(v) => self.level = v,
                PickyMsg::Value(v) => self.got.push(v),
                PickyMsg::Report { done } => ctx.send_future(&done, self.got.clone()),
            }
        }
    }
    let mut rt = Runtime::new(2)
        .backend(Backend::Sim(MachineModel::local(2)))
        .register::<Picky>();
    let when_big = rt.add_msg_guard::<Picky>(|p, m| match m {
        PickyMsg::Value(v) => p.level >= *v,
        _ => true,
    });
    rt.run(move |co| {
        let p = co.ctx().create_chare::<Picky>((), Some(1));
        p.send_when(co.ctx(), PickyMsg::Value(2), when_big);
        p.send(co.ctx(), PickyMsg::Set(0)); // receiver guard now passes...
        p.send(co.ctx(), PickyMsg::Set(2)); // ...and the message guard too
        let done = co.ctx().create_future::<Vec<i64>>();
        p.send(co.ctx(), PickyMsg::Report { done });
        assert_eq!(co.get(&done), vec![2]);
        co.ctx().exit();
    });
}

#[test]
fn guarded_messages_survive_migration() {
    struct MGate {
        level: i64,
        log: Vec<i64>,
    }
    wire_struct! { MGate { level, log } }
    enum MGateMsg {
        Raise(i64),
        Deliver(i64),
        Hop(usize),
        Report { done: Future<(Vec<i64>, i64)> },
    }
    wire_enum! { MGateMsg { Raise(a), Deliver(a), Hop(a), Report { done } } }
    impl Chare for MGate {
        type Msg = MGateMsg;
        type Init = ();
        fn create(_: (), _: &mut Ctx) -> Self {
            MGate {
                level: 0,
                log: Vec::new(),
            }
        }
        fn receive(&mut self, msg: MGateMsg, ctx: &mut Ctx) {
            match msg {
                MGateMsg::Raise(v) => self.level = v,
                MGateMsg::Deliver(v) => self.log.push(v),
                MGateMsg::Hop(pe) => ctx.migrate_me(pe),
                MGateMsg::Report { done } => {
                    ctx.send_future(&done, (self.log.clone(), ctx.my_pe() as i64))
                }
            }
        }
    }
    let mut rt = Runtime::new(3)
        .backend(Backend::Sim(MachineModel::local(3)))
        .register_migratable::<MGate>();
    let when_level = rt.add_msg_guard::<MGate>(|g, m| match m {
        MGateMsg::Deliver(v) => g.level >= *v,
        _ => true,
    });
    rt.run(move |co| {
        let g = co.ctx().create_chare::<MGate>((), Some(0));
        g.send_when(co.ctx(), MGateMsg::Deliver(7), when_level);
        // The buffered guarded message must travel with the chare.
        g.send(co.ctx(), MGateMsg::Hop(2));
        g.send(co.ctx(), MGateMsg::Raise(7));
        let done = co.ctx().create_future::<(Vec<i64>, i64)>();
        g.send(co.ctx(), MGateMsg::Report { done });
        let (log, pe) = co.get(&done);
        assert_eq!(log, vec![7], "guarded message delivered after migration");
        assert_eq!(pe, 2);
        co.ctx().exit();
    });
}
