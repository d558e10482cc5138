//! Feature tests: when-guards, threaded entry methods (wait construct),
//! migration, sparse arrays, custom reducers/placements, gather,
//! reduction-to-chare targets, quiescence detection and load balancing.

use std::sync::Arc;

use charm_core::prelude::*;
use charm_sim::MachineModel;

fn both_backends() -> Vec<(&'static str, Backend)> {
    vec![
        ("threads", Backend::Threads),
        ("sim", Backend::Sim(MachineModel::local(4))),
    ]
}

// ---------------------------------------------------------------------------
// when-guard: deliver strictly in iteration order, regardless of send order
// ---------------------------------------------------------------------------

struct Ordered {
    iter: u32,
    log: Vec<u32>,
}

enum OrderedMsg {
    Step { iter: u32, done: Future<i64> },
}
wire_enum! { OrderedMsg { Step { iter, done } } }

impl Chare for Ordered {
    type Msg = OrderedMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Ordered {
            iter: 0,
            log: Vec::new(),
        }
    }
    // The paper's canonical @when("self.iter == iter") condition.
    fn guard(&self, msg: &OrderedMsg) -> bool {
        let OrderedMsg::Step { iter, .. } = msg;
        *iter == self.iter
    }
    fn receive(&mut self, msg: OrderedMsg, ctx: &mut Ctx) {
        let OrderedMsg::Step { iter, done } = msg;
        assert_eq!(iter, self.iter, "guard must enforce order");
        self.log.push(iter);
        self.iter += 1;
        if self.iter == 10 {
            ctx.send_future(&done, self.log.iter().map(|&x| x as i64).sum());
        }
    }
}

#[test]
fn when_guard_reorders_messages() {
    for (name, backend) in both_backends() {
        Runtime::new(2)
            .backend(backend)
            .register::<Ordered>()
            .run(move |co| {
                let ch = co.ctx().create_chare::<Ordered>((), Some(1));
                let done = co.ctx().create_future::<i64>();
                // Send iterations deliberately out of order.
                for iter in [3u32, 1, 4, 0, 9, 2, 6, 5, 8, 7] {
                    ch.send(co.ctx(), OrderedMsg::Step { iter, done });
                }
                assert_eq!(co.get(&done), 45, "backend {name}");
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Threaded entry method + wait: the paper's §II-H2 iterative pattern
// ---------------------------------------------------------------------------

struct Waiter {
    msg_count: usize,
    received: Vec<i64>,
}

enum WaiterMsg {
    Start { expect: usize, done: Future<i64> },
    RecvData(i64),
}
wire_enum! { WaiterMsg { Start { expect, done }, RecvData(a) } }

impl Chare for Waiter {
    type Msg = WaiterMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Waiter {
            msg_count: 0,
            received: Vec::new(),
        }
    }
    fn receive(&mut self, msg: WaiterMsg, ctx: &mut Ctx) {
        match msg {
            WaiterMsg::Start { expect, done } => {
                // @threaded work(): wait until all neighbor data arrived,
                // then compute. Ordinary RecvData entries keep landing on
                // this chare while the coroutine is suspended.
                ctx.go::<Waiter>(move |co| {
                    co.wait(move |c: &Waiter| c.msg_count == expect);
                    let sum: i64 = co.this().received.iter().sum();
                    co.ctx().send_future(&done, sum);
                });
            }
            WaiterMsg::RecvData(v) => {
                self.msg_count += 1;
                self.received.push(v);
            }
        }
    }
}

#[test]
fn threaded_wait_construct() {
    for (name, backend) in both_backends() {
        Runtime::new(3)
            .backend(backend)
            .register::<Waiter>()
            .run(move |co| {
                let w = co.ctx().create_chare::<Waiter>((), Some(2));
                let done = co.ctx().create_future::<i64>();
                w.send(co.ctx(), WaiterMsg::Start { expect: 5, done });
                for v in 1..=5i64 {
                    w.send(co.ctx(), WaiterMsg::RecvData(v * 10));
                }
                assert_eq!(co.get(&done), 150, "backend {name}");
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Manual migration: state survives, messages keep arriving (§II-I)
// ---------------------------------------------------------------------------

struct Mover {
    hops: Vec<usize>,
    counter: i64,
}
wire_struct! { Mover { hops, counter } }

enum MoverMsg {
    Bump(i64),
    Hop(usize),
    Report { done: Future<(Vec<i64>, i64)> },
}
wire_enum! { MoverMsg { Bump(a), Hop(a), Report { done } } }

impl Chare for Mover {
    type Msg = MoverMsg;
    type Init = ();
    fn create(_: (), ctx: &mut Ctx) -> Self {
        Mover {
            hops: vec![ctx.my_pe()],
            counter: 0,
        }
    }
    fn receive(&mut self, msg: MoverMsg, ctx: &mut Ctx) {
        match msg {
            MoverMsg::Bump(v) => self.counter += v,
            MoverMsg::Hop(to) => {
                self.hops.push(to);
                ctx.migrate_me(to);
            }
            MoverMsg::Report { done } => {
                let hops = self.hops.iter().map(|&p| p as i64).collect();
                ctx.send_future(&done, (hops, self.counter));
            }
        }
    }
}

#[test]
fn manual_migration_preserves_state_and_routing() {
    for (name, backend) in both_backends() {
        Runtime::new(4)
            .backend(backend)
            .register_migratable::<Mover>()
            .run(move |co| {
                let m = co.ctx().create_chare::<Mover>((), Some(0));
                m.send(co.ctx(), MoverMsg::Bump(1));
                m.send(co.ctx(), MoverMsg::Hop(2));
                // These must follow the chare to PE 2 (forwarding).
                m.send(co.ctx(), MoverMsg::Bump(10));
                m.send(co.ctx(), MoverMsg::Hop(3));
                m.send(co.ctx(), MoverMsg::Bump(100));
                let done = co.ctx().create_future::<(Vec<i64>, i64)>();
                m.send(co.ctx(), MoverMsg::Report { done });
                let (hops, counter) = co.get(&done);
                assert_eq!(counter, 111, "backend {name}: all bumps must arrive");
                assert_eq!(hops, vec![0, 2, 3], "backend {name}");
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Sparse arrays: dynamic insertion, custom placement, element messaging
// ---------------------------------------------------------------------------

struct SparseCell;

enum SparseMsg {
    Where,
}
wire_enum! { SparseMsg { Where } }

impl Chare for SparseCell {
    type Msg = SparseMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        SparseCell
    }
    fn receive(&mut self, msg: SparseMsg, ctx: &mut Ctx) {
        let SparseMsg::Where = msg;
        ctx.reply(ctx.my_pe() as i64);
    }
}

#[test]
fn sparse_array_insert_and_address() {
    for (name, backend) in both_backends() {
        Runtime::new(4)
            .backend(backend)
            .register::<SparseCell>()
            .run(move |co| {
                let arr = co.ctx().create_sparse::<SparseCell>(ArrayOpts::default());
                // Insert scattered 2-D indices, one pinned to PE 3.
                arr.insert(co.ctx(), (5, 7), (), None);
                arr.insert(co.ctx(), (100, -3), (), Some(3));
                arr.done_inserting(co.ctx());
                let f = arr.elem((100, -3)).call::<i64>(co.ctx(), SparseMsg::Where);
                assert_eq!(co.get(&f), 3, "backend {name}: pinned insert");
                let f = arr.elem((5, 7)).call::<i64>(co.ctx(), SparseMsg::Where);
                let pe = co.get(&f);
                assert!((pe as usize) < 4, "backend {name}");
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Custom reducer (§II-F1) + gather + reduction delivered to a chare method
// ---------------------------------------------------------------------------

struct RedWorker;

enum RedWorkerMsg {
    GatherUp {
        target: Future<RedData>,
    },
    Hypot {
        target: Future<RedData>,
        reducer_id: u32,
    },
}
wire_enum! { RedWorkerMsg { GatherUp { target }, Hypot { target, reducer_id } } }

impl Chare for RedWorker {
    type Msg = RedWorkerMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        RedWorker
    }
    fn receive(&mut self, msg: RedWorkerMsg, ctx: &mut Ctx) {
        match msg {
            RedWorkerMsg::GatherUp { target } => {
                let v = ctx.my_index().first() * 2;
                ctx.contribute_gather(&v, RedTarget::Future(target.id()));
            }
            RedWorkerMsg::Hypot { target, reducer_id } => {
                let x = (ctx.my_index().first() + 1) as f64;
                ctx.contribute(
                    RedData::F64(x),
                    Reducer::Custom(reducer_id),
                    RedTarget::Future(target.id()),
                );
            }
        }
    }
}

#[test]
fn gather_reduction_sorted_by_index() {
    for (_, backend) in both_backends() {
        Runtime::new(3)
            .backend(backend)
            .register::<RedWorker>()
            .run(|co| {
                let arr = co.ctx().create_array::<RedWorker>(&[7], ());
                let f = co.ctx().create_future::<RedData>();
                arr.send(co.ctx(), RedWorkerMsg::GatherUp { target: f });
                match co.get(&f) {
                    RedData::Gather(items) => {
                        assert_eq!(items.len(), 7);
                        for (i, (ix, bytes)) in items.iter().enumerate() {
                            assert_eq!(ix.first(), i as i32, "sorted by index");
                            let v: i32 = charm_wire::Codec::Fast.decode(bytes).unwrap();
                            assert_eq!(v, i as i32 * 2);
                        }
                    }
                    other => panic!("expected gather, got {other:?}"),
                }
                co.ctx().exit();
            });
    }
}

#[test]
fn custom_reducer_over_array() {
    for (_, backend) in both_backends() {
        let mut rt = Runtime::new(2).backend(backend).register::<RedWorker>();
        let reducer = rt.add_reducer("hypot", |parts| {
            let s: f64 = parts.iter().map(|p| p.as_f64().powi(2)).sum();
            RedData::F64(s.sqrt())
        });
        let Reducer::Custom(reducer_id) = reducer else {
            panic!()
        };
        rt.run(move |co| {
            let arr = co.ctx().create_array::<RedWorker>(&[2], ());
            let f = co.ctx().create_future::<RedData>();
            arr.send(
                co.ctx(),
                RedWorkerMsg::Hypot {
                    target: f,
                    reducer_id,
                },
            );
            // members contribute 1.0 and 2.0 → sqrt(5)
            let v = co.get(&f).as_f64();
            assert!((v - 5.0f64.sqrt()).abs() < 1e-12);
            co.ctx().exit();
        });
    }
}

// ---------------------------------------------------------------------------
// Reduction targeting a chare entry (`reduced` hook) and a whole collection
// ---------------------------------------------------------------------------

struct RedSink {
    done: Option<Future<i64>>,
    bcast_seen: i64,
}

enum RedSinkMsg {
    Arm { done: Future<i64> },
    ContributeAll { to_collection: bool },
    Check { done: Future<i64> },
}
wire_enum! { RedSinkMsg { Arm { done }, ContributeAll { to_collection }, Check { done } } }

impl Chare for RedSink {
    type Msg = RedSinkMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        RedSink {
            done: None,
            bcast_seen: 0,
        }
    }
    fn receive(&mut self, msg: RedSinkMsg, ctx: &mut Ctx) {
        match msg {
            RedSinkMsg::Arm { done } => self.done = Some(done),
            RedSinkMsg::ContributeAll { to_collection } => {
                let me = ctx.my_index().first() as i64 + 1;
                let target = if to_collection {
                    ctx.this_proxy::<RedSink>().reduction_target(7)
                } else {
                    ctx.this_proxy::<RedSink>().elem(0).reduction_target(9)
                };
                ctx.contribute(RedData::I64(me), Reducer::Sum, target);
            }
            RedSinkMsg::Check { done } => ctx.send_future(&done, self.bcast_seen),
        }
    }
    fn reduced(&mut self, tag: u32, data: RedData, ctx: &mut Ctx) {
        match tag {
            9 => {
                // Element target: only index 0 sees it.
                assert_eq!(ctx.my_index().first(), 0);
                if let Some(done) = self.done.take() {
                    ctx.send_future(&done, data.as_i64());
                }
            }
            7 => self.bcast_seen += data.as_i64(),
            _ => panic!("unexpected reduction tag {tag}"),
        }
    }
}

#[test]
fn reduction_to_element_entry() {
    for (_, backend) in both_backends() {
        Runtime::new(3)
            .backend(backend)
            .register::<RedSink>()
            .run(|co| {
                let arr = co.ctx().create_array::<RedSink>(&[6], ());
                let done = co.ctx().create_future::<i64>();
                arr.elem(0).send(co.ctx(), RedSinkMsg::Arm { done });
                arr.send(
                    co.ctx(),
                    RedSinkMsg::ContributeAll {
                        to_collection: false,
                    },
                );
                assert_eq!(co.get(&done), 1 + 2 + 3 + 4 + 5 + 6);
                co.ctx().exit();
            });
    }
}

#[test]
fn reduction_broadcast_to_collection() {
    for (_, backend) in both_backends() {
        Runtime::new(2)
            .backend(backend)
            .register::<RedSink>()
            .run(|co| {
                let arr = co.ctx().create_array::<RedSink>(&[4], ());
                arr.send(
                    co.ctx(),
                    RedSinkMsg::ContributeAll {
                        to_collection: true,
                    },
                );
                // Once the machine is quiet the broadcast result (10) has
                // reached every member.
                let quiet = co.ctx().create_future::<()>();
                co.ctx().start_quiescence(&quiet);
                co.get(&quiet);
                for i in 0..4 {
                    let done = co.ctx().create_future::<i64>();
                    arr.elem(i).send(co.ctx(), RedSinkMsg::Check { done });
                    assert_eq!(co.get(&done), 10, "member {i}");
                }
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// Quiescence detection
// ---------------------------------------------------------------------------

struct Chain;

enum ChainMsg {
    Pass(u32),
}
wire_enum! { ChainMsg { Pass(a) } }

impl Chare for Chain {
    type Msg = ChainMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Chain
    }
    fn receive(&mut self, msg: ChainMsg, ctx: &mut Ctx) {
        let ChainMsg::Pass(hops) = msg;
        if hops > 0 {
            let npes = ctx.num_pes();
            let next = (ctx.my_index().first() as usize + 1) % npes;
            ctx.this_proxy::<Chain>()
                .elem(next as i32)
                .send(ctx, ChainMsg::Pass(hops - 1));
        }
    }
}

#[test]
fn quiescence_detection_waits_for_chain() {
    for (name, backend) in both_backends() {
        Runtime::new(4)
            .backend(backend)
            .register::<Chain>()
            .run(move |co| {
                let grp = co.ctx().create_group::<Chain>(());
                grp.elem(0).send(co.ctx(), ChainMsg::Pass(40));
                let f = co.ctx().create_future::<()>();
                co.ctx().start_quiescence(&f);
                co.get(&f); // returns only after the 40-hop chain drains
                let _ = name;
                co.ctx().exit();
            });
    }
}

// ---------------------------------------------------------------------------
// AtSync load balancing with a trivial "move everything to PE 0" strategy
// ---------------------------------------------------------------------------

struct AllToZero;

impl LbStrategy for AllToZero {
    fn assign(&self, stats: &LbStats) -> Vec<(ChareId, Pe)> {
        stats
            .chares
            .iter()
            .filter(|c| c.pe != 0)
            .map(|c| (c.id, 0))
            .collect()
    }
    fn name(&self) -> &'static str {
        "all-to-zero"
    }
}

struct LbWorker {
    resumed: bool,
}
wire_struct! { LbWorker { resumed } }

enum LbWorkerMsg {
    Sync,
    WhereNow { done: Future<RedData> },
}
wire_enum! { LbWorkerMsg { Sync, WhereNow { done } } }

impl Chare for LbWorker {
    type Msg = LbWorkerMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        LbWorker { resumed: false }
    }
    fn receive(&mut self, msg: LbWorkerMsg, ctx: &mut Ctx) {
        match msg {
            LbWorkerMsg::Sync => ctx.at_sync(),
            LbWorkerMsg::WhereNow { done } => {
                assert!(self.resumed, "resume_from_sync must precede new work");
                ctx.contribute(
                    RedData::I64(ctx.my_pe() as i64),
                    Reducer::Max,
                    RedTarget::Future(done.id()),
                );
            }
        }
    }
    fn resume_from_sync(&mut self, _ctx: &mut Ctx) {
        self.resumed = true;
    }
}

#[test]
fn at_sync_lb_migrates_and_resumes() {
    for (name, backend) in both_backends() {
        let report = Runtime::new(4)
            .backend(backend)
            .register_migratable::<LbWorker>()
            .lb_strategy(Arc::new(AllToZero))
            .run(move |co| {
                let arr = co.ctx().create_array_with::<LbWorker>(
                    &[8],
                    (),
                    ArrayOpts {
                        placement: Placement::Block,
                        use_lb: true,
                    },
                );
                arr.send(co.ctx(), LbWorkerMsg::Sync);
                // After the LB epoch every chare should sit on PE 0: the max
                // over current PEs reduces to 0.
                let done = co.ctx().create_future::<RedData>();
                arr.send(co.ctx(), LbWorkerMsg::WhereNow { done });
                assert_eq!(co.get(&done).as_i64(), 0, "backend {name}");
                co.ctx().exit();
            });
        assert!(report.lb_epochs >= 1, "backend {name}");
        assert!(
            report.migrations >= 6,
            "backend {name}: {}",
            report.migrations
        );
    }
}

// ---------------------------------------------------------------------------
// Determinism of the simulated backend
// ---------------------------------------------------------------------------

#[test]
fn sim_backend_is_deterministic() {
    let run = || {
        let r = Runtime::new(4)
            .backend(Backend::Sim(MachineModel::local(4)))
            .register::<Chain>()
            .run(|co| {
                let grp = co.ctx().create_group::<Chain>(());
                grp.elem(1).send(co.ctx(), ChainMsg::Pass(13));
                let f = co.ctx().create_future::<()>();
                co.ctx().start_quiescence(&f);
                co.get(&f);
                co.ctx().exit();
            });
        let clocks: Vec<(u64, u64)> = r.pe_stats.iter().map(|p| (p.busy_ns, p.wall_ns)).collect();
        (r.msgs, r.entries, r.bytes, r.time, clocks)
    };
    let first = run();
    assert!(first.3.as_nanos() > 0, "the chain takes virtual time");
    assert_eq!(
        first,
        run(),
        "identical runs must produce identical traffic and clocks"
    );
}

// ---------------------------------------------------------------------------
// Channel order: a small message never overtakes a large one sent before it
// on the same PE-to-PE channel, on the sim as on the threads backend
// ---------------------------------------------------------------------------

struct Inbox {
    seen: Vec<i64>,
}

enum InboxMsg {
    Large(Vec<u8>),
    Small,
    Seen { done: Future<Vec<i64>> },
}
wire_enum! { InboxMsg { Large(a), Small, Seen { done } } }

impl Chare for Inbox {
    type Msg = InboxMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Inbox { seen: Vec::new() }
    }
    fn receive(&mut self, msg: InboxMsg, ctx: &mut Ctx) {
        match msg {
            InboxMsg::Large(bytes) => self.seen.push(bytes.len() as i64),
            InboxMsg::Small => self.seen.push(0),
            InboxMsg::Seen { done } => ctx.send_future(&done, self.seen.clone()),
        }
    }
}

#[test]
fn a_small_message_never_overtakes_a_large_one_on_its_channel() {
    const LARGE: usize = 64 * 1024;
    for (name, backend) in both_backends() {
        Runtime::new(2)
            .backend(backend)
            .register::<Inbox>()
            .run(move |co| {
                let inbox = co.ctx().create_chare::<Inbox>((), Some(1));
                // One handler, two sends down the PE 0 -> PE 1 channel: the
                // model's transfer time alone would land the small one
                // first.
                inbox.send(co.ctx(), InboxMsg::Large(vec![7; LARGE]));
                inbox.send(co.ctx(), InboxMsg::Small);
                let done = co.ctx().create_future::<Vec<i64>>();
                inbox.send(co.ctx(), InboxMsg::Seen { done });
                assert_eq!(co.get(&done), [LARGE as i64, 0], "backend {name}");
                co.ctx().exit();
            });
    }
}
