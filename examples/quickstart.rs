//! Quickstart: the paper's §II examples in charm-rs.
//!
//! Creates a single chare and calls a method on it (the hello-world of
//! §II-B), then a 100-element worker array performing the §II-F sum
//! reduction, collected through a future exactly like the paper's
//! `charm.createFuture()` listing.
//!
//! Run with: `cargo run --release --example quickstart`

use charm_rs::core::prelude::*;

// --- class MyChare(Chare): def SayHi(self, msg) ---------------------------

struct MyChare;

enum MyChareMsg {
    SayHi(String),
}
wire_enum! { MyChareMsg { SayHi(a) } }

impl Chare for MyChare {
    type Msg = MyChareMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        MyChare
    }
    fn receive(&mut self, msg: MyChareMsg, ctx: &mut Ctx) {
        let MyChareMsg::SayHi(text) = msg;
        println!("PE {} says: {text}", ctx.my_pe());
        ctx.reply(format!("hi received on PE {}", ctx.my_pe()));
    }
}

// --- class Worker(Chare): contribute(data, Reducer.sum, target) -----------

struct Worker;

enum WorkerMsg {
    Work { result: Future<RedData> },
}
wire_enum! { WorkerMsg { Work { result } } }

impl Chare for Worker {
    type Msg = WorkerMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Worker
    }
    fn receive(&mut self, msg: WorkerMsg, ctx: &mut Ctx) {
        let WorkerMsg::Work { result } = msg;
        // Each worker contributes the numbers 0..20 (as in the paper's
        // numpy.arange(20) example), summed element-wise across workers.
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        ctx.contribute(
            RedData::VecF64(data),
            Reducer::Sum,
            RedTarget::Future(result.id()),
        );
    }
}

fn main() {
    let report = Runtime::new(4)
        .register::<MyChare>()
        .register::<Worker>()
        .run(|co| {
            // Single chare, created wherever the runtime likes (§II-B).
            let proxy = co.ctx().create_chare::<MyChare>((), None);
            let reply = proxy.call::<String>(co.ctx(), MyChareMsg::SayHi("Hello".into()));
            println!("main got: {}", co.get(&reply));

            // 100 workers, one collective sum (§II-F / §II-H3).
            let workers = co.ctx().create_array::<Worker>(&[100], ());
            let result = co.ctx().create_future::<RedData>();
            workers.send(co.ctx(), WorkerMsg::Work { result });
            let sum = co.get(&result);
            // Each worker contributes [0,1,...,19]; the element-wise sum over
            // 100 workers is [0,100,200,...,1900].
            println!("reduction result (first 5): {:?}", &sum.as_vec_f64()[..5]);
            assert_eq!(sum.as_vec_f64()[3], 300.0);

            co.ctx().exit();
        });
    println!(
        "done: {} messages, {} entry methods, wall {:?}",
        report.msgs, report.entries, report.wall
    );
}
