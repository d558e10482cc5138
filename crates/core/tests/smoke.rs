//! End-to-end smoke tests of the runtime: the paper's hello-world, futures,
//! collections and broadcasts, on both backends.

use std::sync::atomic::{AtomicUsize, Ordering};

use charm_core::prelude::*;
use charm_sim::MachineModel;

fn both_backends() -> Vec<(&'static str, Backend)> {
    vec![
        ("threads", Backend::Threads),
        ("sim", Backend::Sim(MachineModel::local(4))),
    ]
}

#[test]
fn hello_world_single_chare() {
    // The thread_local trick above does not cross PE threads, so collect
    // via a future instead: create a chare, call a method, get the reply.
    for (name, backend) in both_backends() {
        let report = Runtime::new(3)
            .backend(backend)
            .register::<Echo>()
            .run(|co| {
                let proxy = co.ctx().create_chare::<Echo>(0, Some(1));
                let fut = proxy.call::<String>(co.ctx(), EchoMsg::Greet("hello".into()));
                let reply = co.get(&fut);
                assert_eq!(reply, "hello from PE 1");
                co.ctx().exit();
            });
        assert!(report.clean_exit, "backend {name}");
        assert!(report.entries >= 1);
    }
}

// ---------------------------------------------------------------------------
// Echo chare used across tests
// ---------------------------------------------------------------------------

struct Echo;

enum EchoMsg {
    Greet(String),
}
wire_enum! { EchoMsg { Greet(a) } }

impl Chare for Echo {
    type Msg = EchoMsg;
    type Init = i32;
    fn create(_: i32, _: &mut Ctx) -> Self {
        Echo
    }
    fn receive(&mut self, msg: EchoMsg, ctx: &mut Ctx) {
        let EchoMsg::Greet(text) = msg;
        ctx.reply(format!("{text} from PE {}", ctx.my_pe()));
    }
}

#[test]
fn call_returns_future_ret_true_mechanism() {
    for (name, backend) in both_backends() {
        Runtime::new(4)
            .backend(backend)
            .register::<Echo>()
            .run(move |co| {
                // Launch several calls before collecting any result — the
                // paper's "do additional work, wait later" pattern.
                let mut futs = Vec::new();
                for pe in 0..4 {
                    let proxy = co.ctx().create_chare::<Echo>(0, Some(pe));
                    futs.push((
                        pe,
                        proxy.call::<String>(co.ctx(), EchoMsg::Greet(format!("msg{pe}"))),
                    ));
                }
                for (pe, f) in futs {
                    let got = co.get(&f);
                    assert_eq!(got, format!("msg{pe} from PE {pe}"), "backend {name}");
                }
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Groups: one member per PE, broadcast + reduction
// ---------------------------------------------------------------------------

struct Counter {
    pe_value: i64,
}

enum CounterMsg {
    Report { target: Future<RedData> },
}
wire_enum! { CounterMsg { Report { target } } }

impl Chare for Counter {
    type Msg = CounterMsg;
    type Init = ();
    fn create(_: (), ctx: &mut Ctx) -> Self {
        Counter {
            pe_value: ctx.my_pe() as i64,
        }
    }
    fn receive(&mut self, msg: CounterMsg, ctx: &mut Ctx) {
        let CounterMsg::Report { target } = msg;
        ctx.contribute(
            RedData::I64(self.pe_value),
            Reducer::Sum,
            RedTarget::Future(target.id()),
        );
    }
}

#[test]
fn group_broadcast_and_sum_reduction() {
    for (name, backend) in both_backends() {
        Runtime::new(5)
            .backend(backend)
            .register::<Counter>()
            .run(move |co| {
                let group = co.ctx().create_group::<Counter>(());
                let fut = co.ctx().create_future::<RedData>();
                group.send(co.ctx(), CounterMsg::Report { target: fut });
                let sum = co.get(&fut).as_i64();
                assert_eq!(sum, 1 + 2 + 3 + 4, "backend {name}");
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Dense arrays: per-element messages, element proxies, index math
// ---------------------------------------------------------------------------

struct Cell {
    my_lin: i64,
}

enum CellMsg {
    WhoAmI,
}
wire_enum! { CellMsg { WhoAmI } }

impl Chare for Cell {
    type Msg = CellMsg;
    type Init = i32; // columns, to compute a linear id
    fn create(cols: i32, ctx: &mut Ctx) -> Self {
        let ix = ctx.my_index();
        Cell {
            my_lin: (ix.coords()[0] * cols + ix.coords()[1]) as i64,
        }
    }
    fn receive(&mut self, msg: CellMsg, ctx: &mut Ctx) {
        let CellMsg::WhoAmI = msg;
        ctx.reply(self.my_lin);
    }
}

#[test]
fn dense_2d_array_elements_addressable() {
    for (name, backend) in both_backends() {
        Runtime::new(4)
            .backend(backend)
            .register::<Cell>()
            .run(move |co| {
                let grid = co.ctx().create_array::<Cell>(&[4, 5], 5);
                // Ask a few specific elements who they are.
                for (r, c) in [(0, 0), (1, 3), (3, 4), (2, 2)] {
                    let f = grid.elem((r, c)).call::<i64>(co.ctx(), CellMsg::WhoAmI);
                    assert_eq!(co.get(&f), (r * 5 + c) as i64, "backend {name}");
                }
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Empty reduction as a barrier over an array
// ---------------------------------------------------------------------------

struct BarrierChare;

enum BarrierMsg {
    Go { done: Future<RedData> },
}
wire_enum! { BarrierMsg { Go { done } } }

impl Chare for BarrierChare {
    type Msg = BarrierMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        BarrierChare
    }
    fn receive(&mut self, msg: BarrierMsg, ctx: &mut Ctx) {
        let BarrierMsg::Go { done } = msg;
        ctx.contribute_barrier(RedTarget::Future(done.id()));
    }
}

#[test]
fn empty_reduction_barrier() {
    for (_, backend) in both_backends() {
        Runtime::new(3)
            .backend(backend)
            .register::<BarrierChare>()
            .run(|co| {
                let arr = co.ctx().create_array::<BarrierChare>(&[10], ());
                let done = co.ctx().create_future::<RedData>();
                arr.send(co.ctx(), BarrierMsg::Go { done });
                assert_eq!(co.get(&done), RedData::Unit);
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Explicit futures sent to other chares (paper §II-H3 listing)
// ---------------------------------------------------------------------------

struct Worker2;

enum W2Msg {
    DoWork { f1: Future<i64>, f2: Future<i64> },
}
wire_enum! { W2Msg { DoWork { f1, f2 } } }

impl Chare for Worker2 {
    type Msg = W2Msg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Worker2
    }
    fn receive(&mut self, msg: W2Msg, ctx: &mut Ctx) {
        let W2Msg::DoWork { f1, f2 } = msg;
        ctx.send_future(&f1, 41);
        ctx.send_future(&f2, 42);
    }
}

#[test]
fn explicit_futures_completed_remotely() {
    for (_, backend) in both_backends() {
        Runtime::new(2)
            .backend(backend)
            .register::<Worker2>()
            .run(|co| {
                let remote = co.ctx().create_chare::<Worker2>((), Some(1));
                let f1 = co.ctx().create_future::<i64>();
                let f2 = co.ctx().create_future::<i64>();
                remote.send(co.ctx(), W2Msg::DoWork { f1, f2 });
                // Out-of-order retrieval must work.
                assert_eq!(co.get(&f2), 42);
                assert_eq!(co.get(&f1), 41);
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Report sanity
// ---------------------------------------------------------------------------

#[test]
fn report_counts_messages_and_entries() {
    static ENTRIES: AtomicUsize = AtomicUsize::new(0);
    let report = Runtime::new(2)
        .backend(Backend::Sim(MachineModel::local(2)))
        .register::<Echo>()
        .run(|co| {
            ENTRIES.store(0, Ordering::SeqCst);
            let p = co.ctx().create_chare::<Echo>(0, Some(1));
            let f = p.call::<String>(co.ctx(), EchoMsg::Greet("x".into()));
            co.get(&f);
            co.ctx().exit();
        });
    assert!(report.clean_exit);
    assert!(report.msgs >= 2, "msgs = {}", report.msgs);
    assert!(report.entries >= 1);
    assert!(report.bytes > 0, "cross-PE traffic should be counted");
}

#[test]
fn dynamic_dispatch_mode_works_end_to_end() {
    let report = Runtime::new(3)
        .backend(Backend::Sim(MachineModel::local(3)))
        .dispatch(DispatchMode::Dynamic)
        .register::<Counter>()
        .run(|co| {
            let group = co.ctx().create_group::<Counter>(());
            let fut = co.ctx().create_future::<RedData>();
            group.send(co.ctx(), CounterMsg::Report { target: fut });
            assert_eq!(co.get(&fut).as_i64(), 3);
            co.ctx().exit();
        });
    assert!(report.clean_exit);
}
