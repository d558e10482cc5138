//! Net-backend transport overhead (DESIGN.md §13).
//!
//! Runs the same QD-cadenced fan-in workload (the ft_overhead stencil)
//! two ways and prints the two timings side by side:
//!
//! * `qd_fan_in/sim` — virtual-time backend, one process, zero transport.
//! * `qd_fan_in/net` — `Backend::Net`: one OS process per PE over
//!   loopback TCP. Each iteration pays the full lifecycle — re-exec of
//!   the workers, rendezvous, framed envelope traffic, graceful drain —
//!   so the ratio is the end-to-end cost of real processes relative to
//!   the in-process simulation of the identical logical run.
//!
//! ```sh
//! cargo bench -p charm-bench --bench net_overhead
//! ```
//!
//! The worker processes re-enter this binary's `main`; the
//! `is_net_worker` guard routes them straight into the run (they exit
//! inside `run()`) so the timing loop only ever executes on the root.

use charm_bench::bench;
use charm_core::prelude::*;
use charm_core::{is_net_worker, NetCfg};

const NPES: usize = 4;
const PER_PE: i64 = 16;
const ROUNDS: usize = 2;

struct Sink {
    sum: i64,
}
wire_struct! { Sink { sum } }

enum SinkMsg {
    Push(i64),
}
wire_enum! { SinkMsg { Push(a) } }

impl Chare for Sink {
    type Msg = SinkMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Sink { sum: 0 }
    }
    fn receive(&mut self, msg: SinkMsg, _: &mut Ctx) {
        let SinkMsg::Push(v) = msg;
        self.sum += v;
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

fn program(co: &mut Co<Main>) {
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
}

fn registered(rt: Runtime) -> Runtime {
    rt.register_migratable::<Sink>()
        .register_migratable::<Spray>()
}

fn sim_run() {
    let report =
        registered(Runtime::new(NPES).simulated(charm_sim::MachineModel::local(NPES))).run(program);
    assert!(report.clean_exit);
}

/// Workers re-execed by the root land here too (via `main`); they enter
/// `run()` with the same registrations and exit inside it.
fn net_run() {
    let report = registered(Runtime::new(NPES).backend(Backend::Net(NetCfg::new()))).run(program);
    assert!(report.clean_exit);
    assert_eq!(report.recoveries, 0);
}

fn main() {
    if is_net_worker() {
        // Spawned worker process: serve the run, never reach the timing loop.
        net_run();
        return;
    }
    // Each net iteration forks NPES-1 processes and tears the mesh down
    // again; keep the sample count low so the suite stays in CI budget.
    const REPS: usize = 10;
    bench("qd_fan_in/sim", REPS, sim_run);
    bench("qd_fan_in/net", REPS, net_run);
}
