//! Task Bench — the parameterized overhead benchmark of Slaughter et al.,
//! as a charm-rs mini-app.
//!
//! The workload is a `width × steps` grid of tasks. Each task busy-charges
//! `grain_ns` of compute, mixes the values of its dependencies into its
//! own, and feeds the tasks of the next step according to a configurable
//! dependency [`Pattern`]. Because the useful work per task is a knob, the
//! grid isolates exactly one quantity: the runtime's per-message overhead.
//! Sweeping the grain downward until efficiency drops below 50% yields the
//! METG (minimum effective task granularity) recorded in the `tb/*` rows of
//! `BENCH_tb.json` (`cargo run -p charm-bench --bin ledger` rewrites them).
//!
//! Every arrival is folded through a commutative wrapping sum before the
//! value mix, so results are bit-identical under any delivery order — the
//! property the identity suite pins across permuted schedules and
//! aggregation modes.

pub mod patterns;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use charm_core::prelude::*;
use charm_core::Runtime;

pub use patterns::Pattern;
use patterns::{dependents, indegree, task_value};

/// Task Bench parameters.
#[derive(Debug, Clone)]
pub struct TaskBenchParams {
    /// Dependency pattern between consecutive steps.
    pub pattern: Pattern,
    /// Columns (chare array elements).
    pub width: u32,
    /// Steps (rows of the task grid).
    pub steps: u32,
    /// Useful work per task, charged via `ctx.charge` (virtual time under
    /// sim, real busy time under threads). `0` = pure overhead.
    pub grain_ns: u64,
    /// Out-edges per task for [`Pattern::Random`] (self edge included).
    pub fanout: u32,
    /// Seed for the random pattern's draws and the value mixing.
    pub seed: u64,
}
wire_struct! { TaskBenchParams { pattern, width, steps, grain_ns, fanout, seed } }

impl TaskBenchParams {
    /// A small stencil configuration (tests, smoke runs).
    pub fn small() -> TaskBenchParams {
        TaskBenchParams {
            pattern: Pattern::Stencil,
            width: 8,
            steps: 6,
            grain_ns: 1_000,
            fanout: 3,
            seed: 7,
        }
    }

    /// [`small`](TaskBenchParams::small) with a different pattern.
    pub fn small_with(pattern: Pattern) -> TaskBenchParams {
        TaskBenchParams {
            pattern,
            ..TaskBenchParams::small()
        }
    }

    /// Tasks in the grid (every column executes every step).
    pub fn total_tasks(&self) -> u64 {
        self.width as u64 * self.steps as u64
    }
}

/// Result of a Task Bench run.
#[derive(Debug, Clone)]
pub struct TaskBenchResult {
    /// Sum of every column's final-step value (order-independent).
    pub checksum: i64,
    /// Tasks executed (must equal `width × steps`).
    pub tasks: u64,
    /// Runtime report (timings, message counts, per-PE stats).
    pub report: charm_core::RunReport,
}

/// One column of the task grid.
pub struct TaskCol {
    params: TaskBenchParams,
    /// Arrival ledger per step: `(messages received, wrapping value sum)`.
    /// A `HashMap` because columns without a self edge (tree) can receive
    /// for a later step before executing an earlier one.
    pending: HashMap<u32, (u32, u64)>,
    /// Tasks this column has executed.
    executed: u64,
    /// Final-step value, once computed. Contribution waits until *every*
    /// step of the column has run, whatever order readiness arrived in.
    final_val: Option<u64>,
    done: Option<Future<RedData>>,
}
wire_struct! { TaskCol { params, pending, executed, final_val, done } }

/// Task column entry methods.
pub enum TaskMsg {
    /// Kick off step 0 and register the completion future.
    Start {
        /// Receives `[checksum, tasks]` summed over all columns.
        done: Future<RedData>,
    },
    /// One dependency edge's value for this column's task at `step`.
    Dep {
        /// Destination step (row) of the edge.
        step: u32,
        /// The producing task's value.
        val: u64,
    },
}
wire_enum! { TaskMsg { Start { done }, Dep { step, val } } }

impl TaskCol {
    fn col(&self, ctx: &Ctx) -> u32 {
        ctx.my_index().first() as u32
    }

    /// Run task `(step, col)` with dependency sum `acc`: charge the grain,
    /// mix the value, feed the next step (or record the final value).
    fn execute(&mut self, step: u32, acc: u64, ctx: &mut Ctx) {
        let p = self.params.clone();
        let col = self.col(ctx);
        if p.grain_ns > 0 {
            ctx.charge(Duration::from_nanos(p.grain_ns));
        }
        self.executed += 1;
        let val = task_value(p.seed, step, col, acc);
        if step + 1 == p.steps {
            self.final_val = Some(val);
        } else {
            let me = ctx.this_proxy::<TaskCol>();
            for d in dependents(p.pattern, p.width, step, col, p.seed, p.fanout) {
                me.elem(d as i32).send(
                    ctx,
                    TaskMsg::Dep {
                        step: step + 1,
                        val,
                    },
                );
            }
        }
        if self.executed == p.steps as u64 {
            if let Some(v) = self.final_val {
                let done = self.done.expect("taskbench column finished without Start");
                ctx.contribute(
                    RedData::VecI64(vec![v as i64, self.executed as i64]),
                    Reducer::Sum,
                    RedTarget::Future(done.id()),
                );
            }
        }
    }
}

impl Chare for TaskCol {
    type Msg = TaskMsg;
    type Init = TaskBenchParams;

    fn create(params: TaskBenchParams, _ctx: &mut Ctx) -> Self {
        TaskCol {
            params,
            pending: HashMap::new(),
            executed: 0,
            final_val: None,
            done: None,
        }
    }

    fn receive(&mut self, msg: TaskMsg, ctx: &mut Ctx) {
        match msg {
            TaskMsg::Start { done } => {
                self.done = Some(done);
                self.execute(0, 0, ctx);
            }
            TaskMsg::Dep { step, val } => {
                let p = self.params.clone();
                let col = self.col(ctx);
                let entry = self.pending.entry(step).or_insert((0, 0));
                entry.0 += 1;
                entry.1 = entry.1.wrapping_add(val);
                if entry.0 == indegree(p.pattern, p.width, step, col, p.seed, p.fanout) {
                    let (_, acc) = self.pending.remove(&step).unwrap();
                    self.execute(step, acc, ctx);
                }
            }
        }
    }
}

/// Sequential oracle: the `(checksum, tasks)` a correct run must produce.
/// Pure and allocation-light — the identity tests compare every runtime
/// configuration against this.
pub fn expected(params: &TaskBenchParams) -> (i64, u64) {
    let w = params.width as usize;
    let mut accs = vec![0u64; w];
    let mut vals = vec![0u64; w];
    for step in 0..params.steps {
        for col in 0..params.width {
            vals[col as usize] = task_value(params.seed, step, col, accs[col as usize]);
        }
        accs.iter_mut().for_each(|a| *a = 0);
        if step + 1 < params.steps {
            for col in 0..params.width {
                for d in dependents(
                    params.pattern,
                    params.width,
                    step,
                    col,
                    params.seed,
                    params.fanout,
                ) {
                    accs[d as usize] = accs[d as usize].wrapping_add(vals[col as usize]);
                }
            }
        }
    }
    let checksum = vals.iter().map(|&v| v as i64).sum();
    (checksum, params.total_tasks())
}

/// Run Task Bench; the caller supplies the runtime (backend, dispatch
/// mode, PE count, aggregation).
pub fn run_taskbench(params: TaskBenchParams, rt: Runtime) -> TaskBenchResult {
    assert!(params.width >= 1 && params.steps >= 1);
    let out: Arc<Mutex<Option<RedData>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let p = params.clone();
    let report = rt.register::<TaskCol>().run(move |co| {
        let arr = co
            .ctx()
            .create_array::<TaskCol>(&[p.width as i32], p.clone());
        let done = co.ctx().create_future::<RedData>();
        arr.send(co.ctx(), TaskMsg::Start { done });
        *out2.lock().unwrap() = Some(co.get(&done));
        co.ctx().exit();
    });
    let reduced = out
        .lock()
        .unwrap()
        .take()
        .expect("taskbench produced no result");
    let v = reduced.as_vec_i64().to_vec();
    TaskBenchResult {
        checksum: v[0],
        tasks: v[1] as u64,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_deterministic_and_counts_every_task() {
        for pattern in Pattern::ALL {
            let p = TaskBenchParams::small_with(pattern);
            let (c1, t1) = expected(&p);
            let (c2, t2) = expected(&p);
            assert_eq!((c1, t1), (c2, t2));
            assert_eq!(t1, p.total_tasks());
            assert!(c1 > 0, "{pattern:?} checksum degenerate");
        }
    }

    #[test]
    fn oracle_distinguishes_patterns_and_seeds() {
        let base = expected(&TaskBenchParams::small_with(Pattern::Stencil)).0;
        let tree = expected(&TaskBenchParams::small_with(Pattern::Tree)).0;
        assert_ne!(base, tree);
        let mut p = TaskBenchParams::small();
        p.seed = 8;
        assert_ne!(base, expected(&p).0);
    }

    #[test]
    fn single_column_single_step_is_one_mix() {
        let p = TaskBenchParams {
            pattern: Pattern::Trivial,
            width: 1,
            steps: 1,
            grain_ns: 0,
            fanout: 1,
            seed: 3,
        };
        let (c, t) = expected(&p);
        assert_eq!(t, 1);
        assert_eq!(c, task_value(3, 0, 0, 0) as i64);
    }
}
