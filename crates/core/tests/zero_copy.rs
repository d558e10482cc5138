//! Zero-copy fan-out: a broadcast or section multicast to N members must
//! serialize its payload exactly once, however many members (and PEs) the
//! fan-out reaches. The encode count is observed from inside `Wire::encode`,
//! so any regression to per-member (or per-hop) encoding fails here.

use std::sync::atomic::{AtomicUsize, Ordering};

use charm_core::prelude::*;
use charm_sim::MachineModel;
use charm_wire::{Reader, Writer};

fn both_backends() -> Vec<Backend> {
    vec![Backend::Threads, Backend::Sim(MachineModel::local(2))]
}

/// An i64 that counts how many times it is serialized (one global counter
/// per test, so the tests stay independent under parallel execution).
macro_rules! counted {
    ($name:ident, $counter:ident) => {
        static $counter: AtomicUsize = AtomicUsize::new(0);

        #[derive(Clone, Copy)]
        struct $name(i64);

        impl Wire for $name {
            fn encode<W: Writer>(&self, w: &mut W) {
                $counter.fetch_add(1, Ordering::SeqCst);
                self.0.encode(w);
            }
            fn decode<R: Reader>(r: &mut R) -> charm_wire::Result<Self> {
                i64::decode(r).map($name)
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

counted!(BcastPayload, BCAST_ENCODES);

struct Echo {
    sum: i64,
}

enum EchoMsg {
    Ping {
        x: BcastPayload,
        done: Future<RedData>,
    },
}
wire_enum! { EchoMsg { Ping { x, done } } }

impl Chare for Echo {
    type Msg = EchoMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Echo { sum: 0 }
    }
    fn receive(&mut self, msg: EchoMsg, ctx: &mut Ctx) {
        let EchoMsg::Ping { x, done } = msg;
        self.sum += x.0;
        ctx.contribute(
            RedData::I64(self.sum),
            Reducer::Sum,
            RedTarget::Future(done.id()),
        );
    }
}

#[test]
fn broadcast_encodes_exactly_once() {
    for backend in both_backends() {
        let before = BCAST_ENCODES.load(Ordering::SeqCst);
        Runtime::new(2)
            .backend(backend)
            .register::<Echo>()
            .run(|co| {
                let arr = co.ctx().create_array::<Echo>(&[16], ());
                let done = co.ctx().create_future::<RedData>();
                arr.send(
                    co.ctx(),
                    EchoMsg::Ping {
                        x: BcastPayload(3),
                        done,
                    },
                );
                assert_eq!(co.get(&done).as_i64(), 3 * 16, "every member got the ping");
                co.ctx().exit();
            });
        let delta = BCAST_ENCODES.load(Ordering::SeqCst) - before;
        assert_eq!(
            delta, 1,
            "broadcast to 16 members over 2 PEs must encode once, encoded {delta} times"
        );
    }
}

// ---------------------------------------------------------------------------
// Section multicast
// ---------------------------------------------------------------------------

counted!(McastPayload, MCAST_ENCODES);

struct SecMember {
    got: i64,
}

enum SecMsg {
    Ping(McastPayload),
    Count { done: Future<RedData> },
}
wire_enum! { SecMsg { Ping(a), Count { done } } }

impl Chare for SecMember {
    type Msg = SecMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        SecMember { got: 0 }
    }
    fn receive(&mut self, msg: SecMsg, ctx: &mut Ctx) {
        match msg {
            SecMsg::Ping(x) => self.got += x.0,
            SecMsg::Count { done } => ctx.contribute(
                RedData::I64(self.got),
                Reducer::Sum,
                RedTarget::Future(done.id()),
            ),
        }
    }
}

#[test]
fn section_multicast_encodes_exactly_once() {
    for backend in both_backends() {
        let before = MCAST_ENCODES.load(Ordering::SeqCst);
        Runtime::new(2)
            .backend(backend)
            .register::<SecMember>()
            .run(|co| {
                let arr = co.ctx().create_array::<SecMember>(&[12], ());
                let section = arr.section([0i32, 3, 5, 8, 11]);
                section.send(co.ctx(), SecMsg::Ping(McastPayload(7)));
                // Drain the multicast before counting.
                let quiet = co.ctx().create_future::<()>();
                co.ctx().start_quiescence(&quiet);
                co.get(&quiet);
                let done = co.ctx().create_future::<RedData>();
                arr.send(co.ctx(), SecMsg::Count { done });
                assert_eq!(co.get(&done).as_i64(), 7 * 5, "exactly the section was hit");
                co.ctx().exit();
            });
        let delta = MCAST_ENCODES.load(Ordering::SeqCst) - before;
        assert_eq!(
            delta, 1,
            "multicast to 5 members over 2 PEs must encode once, encoded {delta} times"
        );
    }
}
