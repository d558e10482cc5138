//! Migrate-while-sending on 3 PEs with 2 chares: a runner born on PE 1
//! hops to PE 2 and on to PE 0 while the main chare (PE 0) fires an
//! increment at it, so the increment chases the runner through stubs,
//! look-ahead updates and parked queues. Shared by the exhaustive
//! exploration in `check.rs` and the `mutation-stale-locupdate` hunt in
//! `mutation.rs`. Kept to the fewest messages that still cross two
//! migrations: every extra delivery multiplies the schedule space.

use charm_core::prelude::*;
use charm_sim::MachineModel;

pub const NPES: usize = 3;

pub struct Runner;
wire_struct! { Runner {} }

pub enum RunnerMsg {
    /// The message under test: wherever it lands, the run is over.
    Inc,
    /// Migrate along `path`, one hop per delivery.
    Hop { path: Vec<u64> },
}
wire_enum! { RunnerMsg { Inc, Hop { path } } }

impl Chare for Runner {
    type Msg = RunnerMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Runner
    }
    fn receive(&mut self, msg: RunnerMsg, ctx: &mut Ctx) {
        match msg {
            RunnerMsg::Inc => ctx.exit(),
            RunnerMsg::Hop { path } => {
                if let Some((&next, rest)) = path.split_first() {
                    if !rest.is_empty() {
                        let path = rest.to_vec();
                        ctx.this_elem::<Runner>().send(ctx, RunnerMsg::Hop { path });
                    }
                    ctx.migrate_me(next as usize);
                }
            }
        }
    }
}

/// The increment must land, wherever the runner is by then: a lost or
/// parked-forever one ends the run without `exit` (see [`stalled`]).
pub fn program(co: &mut Co<Main>) {
    let runner = co.ctx().create_chare::<Runner>((), Some(1));
    runner.send(co.ctx(), RunnerMsg::Hop { path: vec![0, 2] });
    runner.send(co.ctx(), RunnerMsg::Inc);
}

/// Oracle: a run that ended without `exit` lost the increment.
pub fn stalled(report: &RunReport) -> Option<String> {
    (!report.clean_exit).then(|| "the increment never landed".to_string())
}

pub fn runtime() -> Runtime {
    Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .register_migratable::<Runner>()
}
