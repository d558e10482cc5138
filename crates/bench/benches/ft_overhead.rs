//! Checkpointing-overhead micro-benchmark (DESIGN.md §8).
//!
//! Runs one QD-cadenced sim workload — a group fanning messages into a
//! single chare, one quiescence wait per round — three ways: no
//! checkpointing, buddy in-memory checkpoints every round, and disk
//! checkpoints every round. The benchmark ids land side by side in
//! the printed report; the ratios are the cost of the quiescence-time
//! snapshot (encode + buddy ship, or encode + atomic write/fsync) relative
//! to the bare application:
//!
//! ```sh
//! cargo bench -p charm-bench --bench ft_overhead
//! ```

use charm_bench::bench;
use charm_core::prelude::*;
use charm_core::Store;
use charm_sim::MachineModel;

const NPES: usize = 8;
const PER_PE: i64 = 32;
const ROUNDS: usize = 4;

struct Sink {
    sum: i64,
    hist: Vec<i64>,
}
wire_struct! { Sink { sum, hist } }

enum SinkMsg {
    Push(i64),
}
wire_enum! { SinkMsg { Push(a) } }

impl Chare for Sink {
    type Msg = SinkMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Sink {
            sum: 0,
            hist: Vec::new(),
        }
    }
    fn receive(&mut self, msg: SinkMsg, _: &mut Ctx) {
        let SinkMsg::Push(v) = msg;
        self.sum += v;
        self.hist.push(v);
    }
}

struct Spray;
wire_struct! { Spray {} }

enum SprayMsg {
    Go { sink: Proxy<Sink>, per_pe: i64 },
}
wire_enum! { SprayMsg { Go { sink, per_pe } } }

impl Chare for Spray {
    type Msg = SprayMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Spray
    }
    fn receive(&mut self, msg: SprayMsg, ctx: &mut Ctx) {
        let SprayMsg::Go { sink, per_pe } = msg;
        for k in 0..per_pe {
            sink.send(ctx, SinkMsg::Push(ctx.my_pe() as i64 + k));
        }
    }
}

/// One fan-in round per quiescence — the QD cadence is what arms the
/// automatic checkpoint, so `ROUNDS` snapshots are taken when `store` is
/// set.
fn qd_fan_in_run(store: Option<Store>) {
    let mut rt = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .register_migratable::<Sink>()
        .register_migratable::<Spray>();
    if let Some(store) = store {
        rt = rt.auto_checkpoint(1, store);
    }
    let report = rt.run(|co| {
        let sink = co.ctx().create_chare::<Sink>((), Some(0));
        let group = co.ctx().create_group::<Spray>(());
        for _ in 0..ROUNDS {
            group.send(
                co.ctx(),
                SprayMsg::Go {
                    sink,
                    per_pe: PER_PE,
                },
            );
            let q = co.ctx().create_future::<()>();
            co.ctx().start_quiescence(&q);
            co.get(&q);
        }
        co.ctx().exit();
    });
    assert!(report.clean_exit);
}

fn main() {
    const REPS: usize = 20;
    bench("qd_fan_in/ckpt_off", REPS, || qd_fan_in_run(None));
    bench("qd_fan_in/ckpt_buddy_mem", REPS, || {
        qd_fan_in_run(Some(Store::Memory))
    });
    let dir = std::env::temp_dir().join(format!("charmrs-ft-bench-{}", std::process::id()));
    bench("qd_fan_in/ckpt_disk", REPS, || {
        qd_fan_in_run(Some(Store::Disk(dir.clone())))
    });
    let _ = std::fs::remove_dir_all(dir);
}
