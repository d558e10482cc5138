//! # charm-pool — distributed parallel map with concurrent jobs
//!
//! A faithful implementation of the paper's §III use case: a master-worker
//! pool in which a `MapManager` chare on PE 0 coordinates one `PoolWorker`
//! per PE, hands tasks to idle workers dynamically (so disparate task
//! costs balance automatically), and supports multiple *concurrent*
//! asynchronous map jobs, each completing a future the caller can block on
//! whenever it likes.
//!
//! ```no_run
//! use charm_core::prelude::*;
//! use charm_pool::{register_task, PoolHandle};
//!
//! let square = register_task(|x: f64| x * x);
//! Runtime::new(4)
//!     .register::<charm_pool::MapManager>()
//!     .register::<charm_pool::PoolWorker>()
//!     .run(move |co| {
//!         let pool = PoolHandle::create(co.ctx());
//!         let j1 = pool.map_async(co.ctx(), square, 2, &[1.0, 2.0, 3.0]);
//!         let j2 = pool.map_async(co.ctx(), square, 1, &[5.0, 7.0]);
//!         assert_eq!(j1.get(co), vec![1.0, 4.0, 9.0]);
//!         assert_eq!(j2.get(co), vec![25.0, 49.0]);
//!         co.ctx().exit();
//!     });
//! ```

#![forbid(unsafe_code)]

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::{Mutex, OnceLock};

use charm_core::prelude::*;
use charm_wire::Codec;

// ---------------------------------------------------------------------------
// Task functions
// ---------------------------------------------------------------------------

type RawTaskFn = dyn Fn(&[u8]) -> Vec<u8> + Send + Sync;

fn task_table() -> &'static Mutex<Vec<std::sync::Arc<RawTaskFn>>> {
    static TABLE: OnceLock<Mutex<Vec<std::sync::Arc<RawTaskFn>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// A registered task function handle (typed). CharmPy ships Python
/// functions by pickling them; Rust cannot serialize code, so functions are
/// registered in a process-local table and shipped by id — the standard
/// substitution for a shared-process runtime.
pub struct TaskFn<I, O> {
    id: u64,
    _ph: PhantomData<fn(I) -> O>,
}

impl<I, O> Clone for TaskFn<I, O> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<I, O> Copy for TaskFn<I, O> {}

/// Register a function for use with [`PoolHandle::map_async`].
pub fn register_task<I: Message, O: Message>(
    f: impl Fn(I) -> O + Send + Sync + 'static,
) -> TaskFn<I, O> {
    let raw = move |bytes: &[u8]| -> Vec<u8> {
        let input: I = Codec::Fast.decode(bytes).expect("task input decode failed");
        Codec::Fast
            .encode(&f(input))
            .expect("task output encode failed")
    };
    let mut table = task_table().lock().unwrap();
    table.push(std::sync::Arc::new(raw));
    TaskFn {
        id: (table.len() - 1) as u64,
        _ph: PhantomData,
    }
}

fn run_task(id: u64, input: &[u8]) -> Vec<u8> {
    let f = task_table().lock().unwrap()[id as usize].clone();
    f(input)
}

// ---------------------------------------------------------------------------
// Worker (paper §III listing)
// ---------------------------------------------------------------------------

/// One worker per PE; applies tasks and asks the master for more.
pub struct PoolWorker {
    job_id: u64,
    func: u64,
    tasks: Vec<Vec<u8>>,
    master: Option<Proxy<MapManager>>,
}

/// Worker entry methods.
pub enum WorkerMsg {
    /// Start working on a job: stash the task list, request a first task.
    Start {
        /// Job being started.
        job_id: u64,
        /// Registered function id.
        func: u64,
        /// Encoded task inputs.
        tasks: Vec<Vec<u8>>,
        /// The coordinating master.
        master: Proxy<MapManager>,
    },
    /// Apply the function to one task and report back.
    Apply {
        /// Index into the stashed task list.
        task_id: u64,
    },
}
wire_enum! { WorkerMsg { Start { job_id, func, tasks, master }, Apply { task_id } } }

impl Chare for PoolWorker {
    type Msg = WorkerMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        PoolWorker {
            job_id: 0,
            func: 0,
            tasks: Vec::new(),
            master: None,
        }
    }
    fn receive(&mut self, msg: WorkerMsg, ctx: &mut Ctx) {
        match msg {
            WorkerMsg::Start {
                job_id,
                func,
                tasks,
                master,
            } => {
                self.job_id = job_id;
                self.func = func;
                self.tasks = tasks;
                self.master = Some(master);
                // Request a first task.
                master.send(
                    ctx,
                    ManagerMsg::GetTask {
                        src: ctx.my_pe(),
                        job_id,
                        prev_task: None,
                        prev_result: None,
                    },
                );
            }
            WorkerMsg::Apply { task_id } => {
                let result = run_task(self.func, &self.tasks[task_id as usize]);
                let master = self.master.expect("apply before start");
                master.send(
                    ctx,
                    ManagerMsg::GetTask {
                        src: ctx.my_pe(),
                        job_id: self.job_id,
                        prev_task: Some(task_id),
                        prev_result: Some(result),
                    },
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Master (paper §III listing)
// ---------------------------------------------------------------------------

struct Job {
    tasks: Vec<Vec<u8>>,
    results: Vec<Option<Vec<u8>>>,
    next_task: u64,
    done_count: u64,
    procs: Vec<Pe>,
    future: Future<Vec<Vec<u8>>>,
}

impl Job {
    fn is_done(&self) -> bool {
        self.done_count == self.tasks.len() as u64
    }
    fn next(&mut self) -> Option<u64> {
        if self.next_task < self.tasks.len() as u64 {
            let t = self.next_task;
            self.next_task += 1;
            Some(t)
        } else {
            None
        }
    }
}

/// The master chare: creates the worker group, tracks free PEs, hands out
/// tasks, buffers jobs when no PEs are free.
pub struct MapManager {
    workers: Proxy<PoolWorker>,
    free_procs: BTreeSet<Pe>,
    next_job_id: u64,
    jobs: HashMap<u64, Job>,
    queued: VecDeque<ManagerMsg>,
}

/// Master entry methods.
pub enum ManagerMsg {
    /// Start a new map job (the paper's `map_async`).
    MapAsync {
        /// Registered function id.
        func: u64,
        /// Number of PEs requested for the job.
        num_procs: usize,
        /// Encoded task inputs.
        tasks: Vec<Vec<u8>>,
        /// Future receiving the ordered encoded results.
        future: Future<Vec<Vec<u8>>>,
    },
    /// A worker requests a task (and reports the previous one).
    GetTask {
        /// Worker's PE.
        src: Pe,
        /// Job the worker is on.
        job_id: u64,
        /// Completed task id, if any.
        prev_task: Option<u64>,
        /// Its encoded result.
        prev_result: Option<Vec<u8>>,
    },
}
wire_enum! {
    ManagerMsg {
        MapAsync { func, num_procs, tasks, future },
        GetTask { src, job_id, prev_task, prev_result },
    }
}

impl Chare for MapManager {
    type Msg = ManagerMsg;
    type Init = ();
    fn create(_: (), ctx: &mut Ctx) -> Self {
        // One worker on every PE (paper: Group(Worker)). PEs other than the
        // master's are the default worker set; a single-PE runtime uses
        // PE 0 itself.
        let workers = ctx.create_group::<PoolWorker>(());
        let npes = ctx.num_pes();
        let free_procs: BTreeSet<Pe> = if npes == 1 {
            [0].into_iter().collect()
        } else {
            (1..npes).collect()
        };
        MapManager {
            workers,
            free_procs,
            next_job_id: 0,
            jobs: HashMap::new(),
            queued: VecDeque::new(),
        }
    }

    fn receive(&mut self, msg: ManagerMsg, ctx: &mut Ctx) {
        match msg {
            ManagerMsg::MapAsync {
                func,
                num_procs,
                tasks,
                future,
            } => {
                if num_procs == 0 || num_procs > self.free_procs.len() {
                    // Not enough free PEs: queue the job until some free up
                    // (CharmPy would raise; queueing is strictly friendlier).
                    self.queued.push_back(ManagerMsg::MapAsync {
                        func,
                        num_procs,
                        tasks,
                        future,
                    });
                    return;
                }
                let free: Vec<Pe> = {
                    let picked: Vec<Pe> = self.free_procs.iter().take(num_procs).copied().collect();
                    for pe in &picked {
                        self.free_procs.remove(pe);
                    }
                    picked
                };
                let job_id = self.next_job_id;
                self.next_job_id += 1;
                let n = tasks.len();
                self.jobs.insert(
                    job_id,
                    Job {
                        tasks: tasks.clone(),
                        results: vec![None; n],
                        next_task: 0,
                        done_count: 0,
                        procs: free.clone(),
                        future,
                    },
                );
                let me = ctx.this_elem::<MapManager>();
                for pe in free {
                    self.workers.elem(pe as i32).send(
                        ctx,
                        WorkerMsg::Start {
                            job_id,
                            func,
                            tasks: tasks.clone(),
                            master: me,
                        },
                    );
                }
            }
            ManagerMsg::GetTask {
                src,
                job_id,
                prev_task,
                prev_result,
            } => {
                // A worker that was slow to start can ask for its first
                // task after its peers already finished the whole job (and
                // the job released it): nothing left to hand out.
                let Some(job) = self.jobs.get_mut(&job_id) else {
                    debug_assert!(prev_task.is_none(), "result for unknown job {job_id}");
                    return;
                };
                if let Some(t) = prev_task {
                    job.results[t as usize] = Some(prev_result.expect("result missing"));
                    job.done_count += 1;
                }
                if !job.is_done() {
                    if let Some(next) = job.next() {
                        self.workers
                            .elem(src as i32)
                            .send(ctx, WorkerMsg::Apply { task_id: next });
                    }
                    // No tasks left but others still in flight: the worker
                    // idles; it will be freed when the job completes.
                } else {
                    let job = self.jobs.remove(&job_id).unwrap();
                    for pe in &job.procs {
                        self.free_procs.insert(*pe);
                    }
                    let results: Vec<Vec<u8>> = job
                        .results
                        .into_iter()
                        .map(|r| r.expect("job done with missing result"))
                        .collect();
                    ctx.send_future(&job.future, results);
                    // Freed PEs may unblock a queued job.
                    if let Some(queued) = self.queued.pop_front() {
                        self.receive(queued, ctx);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// User-facing typed facade
// ---------------------------------------------------------------------------

/// Typed handle to a running pool.
#[derive(Clone, Copy)]
pub struct PoolHandle {
    mgr: Proxy<MapManager>,
}

/// Typed handle to an asynchronous map job.
pub struct JobHandle<O: Message> {
    inner: Future<Vec<Vec<u8>>>,
    _ph: PhantomData<fn() -> O>,
}

impl<O: Message> JobHandle<O> {
    /// Block (this coroutine only) until the job finishes; results are in
    /// input order.
    pub fn get<T: Chare>(&self, co: &mut Co<T>) -> Vec<O> {
        co.get(&self.inner)
            .into_iter()
            .map(|bytes| Codec::Fast.decode(&bytes).expect("result decode failed"))
            .collect()
    }
}

impl PoolHandle {
    /// Create the pool: a `MapManager` on PE 0 plus one worker per PE.
    /// Requires `MapManager` and `PoolWorker` registered on the runtime.
    pub fn create(ctx: &mut Ctx) -> PoolHandle {
        PoolHandle {
            mgr: ctx.create_chare::<MapManager>((), Some(0)),
        }
    }

    /// Submit a single task as a one-element job on one PE; returns a
    /// handle whose `get` yields the single result.
    pub fn submit<I: Message, O: Message>(
        &self,
        ctx: &mut Ctx,
        f: TaskFn<I, O>,
        task: I,
    ) -> JobHandle<O> {
        self.map_async(ctx, f, 1, std::slice::from_ref(&task))
    }

    /// Launch an asynchronous distributed map of `f` over `tasks` on
    /// `num_procs` PEs. Returns immediately with a job handle; multiple
    /// jobs may run concurrently.
    pub fn map_async<I: Message, O: Message>(
        &self,
        ctx: &mut Ctx,
        f: TaskFn<I, O>,
        num_procs: usize,
        tasks: &[I],
    ) -> JobHandle<O> {
        let encoded: Vec<Vec<u8>> = tasks
            .iter()
            .map(|t| Codec::Fast.encode(t).expect("task encode failed"))
            .collect();
        let future = ctx.create_future::<Vec<Vec<u8>>>();
        self.mgr.send(
            ctx,
            ManagerMsg::MapAsync {
                func: f.id,
                num_procs,
                tasks: encoded,
                future,
            },
        );
        JobHandle {
            inner: future,
            _ph: PhantomData,
        }
    }
}

/// Register the pool's chare types on a runtime builder.
pub fn register_pool(rt: charm_core::Runtime) -> charm_core::Runtime {
    rt.register::<MapManager>().register::<PoolWorker>()
}
