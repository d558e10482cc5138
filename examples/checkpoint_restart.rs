//! Checkpoint / restart (the paper's fault-tolerance future-work item,
//! implemented as an extension): an iterative computation checkpoints
//! halfway, the runtime is torn down ("crash"), and a *new* runtime with a
//! different PE count restores the chares and finishes the run.
//!
//! Run with: `cargo run --release --example checkpoint_restart`

use charm_rs::core::prelude::*;
use charm_rs::core::{CollectionId, Runtime};

const WORKERS: i32 = 12;
const TARGET: u32 = 10;

/// A worker iterating toward `TARGET`, accumulating state as it goes.
struct Worker {
    iter: u32,
    acc: i64,
}
wire_struct! { Worker { iter, acc } }

enum WorkerMsg {
    /// Run until `upto`, then contribute the accumulated state.
    Run { upto: u32, done: Future<RedData> },
}
wire_enum! { WorkerMsg { Run { upto, done } } }

impl Chare for Worker {
    type Msg = WorkerMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Worker { iter: 0, acc: 0 }
    }
    fn receive(&mut self, msg: WorkerMsg, ctx: &mut Ctx) {
        let WorkerMsg::Run { upto, done } = msg;
        let me = ctx.my_index().first() as i64;
        while self.iter < upto {
            self.iter += 1;
            self.acc += me * self.iter as i64;
        }
        ctx.contribute(
            RedData::I64(self.acc),
            Reducer::Sum,
            RedTarget::Future(done.id()),
        );
    }
}

fn expected(upto: u32) -> i64 {
    let tri = (upto as i64) * (upto as i64 + 1) / 2;
    (0..WORKERS as i64).map(|m| m * tri).sum()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("charmrs-ckpt-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: run half the iterations on 2 PEs, checkpoint, "crash".
    let dir1 = dir.clone();
    Runtime::new(2)
        .register_migratable::<Worker>()
        .run(move |co| {
            let arr = co.ctx().create_array::<Worker>(&[WORKERS], ());
            let done = co.ctx().create_future::<RedData>();
            arr.send(
                co.ctx(),
                WorkerMsg::Run {
                    upto: TARGET / 2,
                    done,
                },
            );
            let halfway = co.get(&done).as_i64();
            println!("phase 1 (2 PEs): halfway sum = {halfway}");
            assert_eq!(halfway, expected(TARGET / 2));

            // Quiesce, checkpoint, exit — simulating a planned shutdown
            // (or the state surviving a crash under periodic checkpoints).
            let q = co.ctx().create_future::<()>();
            co.ctx().start_quiescence(&q);
            co.get(&q);
            let saved = co.ctx().create_future::<i64>();
            co.ctx()
                .checkpoint(dir1.to_str().unwrap().to_string(), &saved);
            println!(
                "checkpointed {} chares to {}",
                co.get(&saved),
                dir1.display()
            );
            co.ctx().exit();
        });

    // Phase 2: restore onto 4 PEs and finish.
    let dir2 = dir.clone();
    Runtime::new(4)
        .register_migratable::<Worker>()
        .run_restored(dir.clone(), move |co| {
            println!("phase 2 (4 PEs): restored from {}", dir2.display());
            let arr = Proxy::<Worker>::restored(CollectionId { creator: 0, seq: 0 });
            let done = co.ctx().create_future::<RedData>();
            arr.send(co.ctx(), WorkerMsg::Run { upto: TARGET, done });
            let total = co.get(&done).as_i64();
            println!("final sum = {total}");
            assert_eq!(total, expected(TARGET), "resumed exactly where it left off");
            co.ctx().exit();
        });

    let _ = std::fs::remove_dir_all(&dir);
    println!("checkpoint/restart roundtrip verified");
}
