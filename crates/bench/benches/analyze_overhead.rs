//! Detector-overhead micro-benchmark (DESIGN.md §6).
//!
//! Runs one message-heavy sim workload — a group fanning messages into a
//! single chare, repeated for several rounds — and measures the *host* wall
//! time per run. Build it twice:
//!
//! ```sh
//! cargo bench -p charm-bench --bench analyze_overhead
//! cargo bench -p charm-bench --bench analyze_overhead --features analyze
//! ```
//!
//! The benchmark id carries the feature state (`detector_off` /
//! `detector_on`), so the two runs land side by side in the printed
//! reports; the ratio is the cost of vector-clock stamping, delivered-set
//! bookkeeping and the per-channel FIFO checks on every envelope.

use charm_bench::bench;
use charm_core::prelude::*;
use charm_sim::MachineModel;

const NPES: usize = 8;
const PER_PE: i64 = 32;
const ROUNDS: usize = 4;

struct Sink {
    sum: i64,
    got: usize,
    expect: usize,
    notify: Option<Future<i64>>,
}

enum SinkMsg {
    Push(i64),
    WhenDone { expect: usize, notify: Future<i64> },
}
wire_enum! { SinkMsg { Push(a), WhenDone { expect, notify } } }

impl Chare for Sink {
    type Msg = SinkMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Sink {
            sum: 0,
            got: 0,
            expect: usize::MAX,
            notify: None,
        }
    }
    fn receive(&mut self, msg: SinkMsg, ctx: &mut Ctx) {
        match msg {
            SinkMsg::Push(v) => {
                self.sum += v;
                self.got += 1;
            }
            SinkMsg::WhenDone { expect, notify } => {
                self.expect = expect;
                self.notify = Some(notify);
            }
        }
        if self.got == self.expect {
            if let Some(f) = self.notify.take() {
                ctx.send_future(&f, self.sum);
            }
        }
    }
}

struct Spray;

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

fn fan_in_run() {
    let report = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .register::<Sink>()
        .register::<Spray>()
        .run(|co| {
            for _ in 0..ROUNDS {
                let sink = co.ctx().create_chare::<Sink>((), Some(0));
                let group = co.ctx().create_group::<Spray>(());
                let done = co.ctx().create_future::<i64>();
                group.send(
                    co.ctx(),
                    SprayMsg::Go {
                        sink,
                        per_pe: PER_PE,
                    },
                );
                sink.send(
                    co.ctx(),
                    SinkMsg::WhenDone {
                        expect: NPES * PER_PE as usize,
                        notify: done,
                    },
                );
                co.get(&done);
            }
            co.ctx().exit();
        });
    assert!(report.clean_exit);
}

fn main() {
    let label = if cfg!(feature = "analyze") {
        "detector_on"
    } else {
        "detector_off"
    };
    bench(&format!("fan_in_sim/{label}"), 20, fan_in_run);
}
