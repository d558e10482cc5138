//! Workspace-level integration tests: scenarios that span multiple crates
//! (runtime + LB strategies + pool + mini-apps + both backends).

use std::sync::Arc;

use charm_rs::apps::leanmd::{charm::run_charm as leanmd_charm, MdParams};
use charm_rs::apps::stencil3d::{charm::run_charm as stencil_charm, mpi::run_mpi, StencilParams};
use charm_rs::core::prelude::*;
use charm_rs::core::Runtime;
use charm_rs::lb::{GreedyLb, RefineLb, RotateLb};
use charm_rs::pool::{register_pool, register_task, PoolHandle};
use charm_rs::sim::MachineModel;

fn sim(npes: usize) -> Runtime {
    Runtime::new(npes).backend(Backend::Sim(MachineModel::local(npes)))
}

#[test]
fn stencil_charm_equals_mpi_through_umbrella_crate() {
    let params = StencilParams::new([8, 8, 8], [2, 2, 2], 5);
    let a = stencil_charm(params.clone(), sim(4));
    let b = run_mpi(params, sim(8));
    assert!((a.checksum.1 - b.checksum.1).abs() < 1e-9 * (1.0 + a.checksum.1.abs()));
}

#[test]
fn pool_and_mini_app_share_one_runtime_process() {
    // Two different frameworks (pool, stencil) run back-to-back in one
    // process: the global registries must not interfere.
    let double = register_task(|x: i64| 2 * x);
    register_pool(sim(3)).run(move |co| {
        let pool = PoolHandle::create(co.ctx());
        let job = pool.map_async(co.ctx(), double, 2, &[10, 20, 30]);
        assert_eq!(job.get(co), vec![20, 40, 60]);
        co.ctx().exit();
    });
    let r = stencil_charm(StencilParams::new([8, 8, 8], [2, 2, 2], 3), sim(2));
    assert!(r.report.clean_exit);
}

#[test]
fn stencil_lb_strategies_all_preserve_results() {
    let reference = {
        let p = StencilParams::new([8, 8, 8], [2, 2, 2], 12);
        stencil_charm(p, sim(2)).checksum
    };
    for strategy in [
        Arc::new(GreedyLb) as Arc<dyn LbStrategy>,
        Arc::new(RefineLb::default()),
        Arc::new(RotateLb),
    ] {
        let mut p = StencilParams::new([8, 8, 8], [2, 2, 2], 12);
        p.lb_every = Some(4);
        let r = stencil_charm(p, sim(2).lb_strategy(strategy));
        assert!(
            (r.checksum.1 - reference.1).abs() < 1e-9 * (1.0 + reference.1.abs()),
            "strategy changed results: {:?} vs {reference:?}",
            r.checksum
        );
    }
}

#[test]
fn leanmd_runs_on_threads_backend_with_pool_in_same_process() {
    let r = leanmd_charm(MdParams::small(), Runtime::new(2));
    assert_eq!(r.particles as usize, MdParams::small().num_particles());
}

// ---------------------------------------------------------------------------
// A cross-crate app: a pool job whose tasks each run a tiny stencil kernel,
// demonstrating library composition (pool tasks can be arbitrary compute).
// ---------------------------------------------------------------------------

#[test]
fn pool_tasks_running_stencil_kernels() {
    use charm_rs::apps::stencil3d::kernel::Block;
    let relax = register_task(|seed: u32| {
        let mut b = Block::zeros(6, 6, 6);
        b.fill(|x, y, z| ((x + y + z + seed as usize) % 5) as f64);
        for _ in 0..4 {
            b.data = b.jacobi_step();
        }
        b.checksum().0
    });
    register_pool(Runtime::new(3)).run(move |co| {
        let pool = PoolHandle::create(co.ctx());
        let job = pool.map_async(co.ctx(), relax, 2, &[0u32, 1, 2, 3, 4, 5, 6, 7]);
        let sums = job.get(co);
        assert_eq!(sums.len(), 8);
        assert!(sums.iter().all(|s: &f64| s.is_finite()));
        // Identical seeds mod 5 give identical results: determinism.
        assert_eq!(sums[0], sums[5]);
        co.ctx().exit();
    });
}

// ---------------------------------------------------------------------------
// Custom reducer + custom placement, through the full runtime.
// ---------------------------------------------------------------------------

struct Stat;

enum StatMsg {
    Go { out: Future<RedData> },
}
wire_enum! { StatMsg { Go { out } } }

impl Chare for Stat {
    type Msg = StatMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Stat
    }
    fn receive(&mut self, msg: StatMsg, ctx: &mut Ctx) {
        let StatMsg::Go { out } = msg;
        let v = (ctx.my_index().first() + 1) as f64;
        // Custom reducer id 0 is the first registered on the runtime.
        ctx.contribute(
            RedData::F64(v),
            Reducer::Custom(0),
            RedTarget::Future(out.id()),
        );
    }
}

#[test]
fn custom_reducer_and_placement_end_to_end() {
    let mut rt = sim(3).register::<Stat>();
    let geo_mean = rt.add_reducer("geomean-parts", |parts| {
        // Combine by product; the caller takes the k-th root at the end.
        let p: f64 = parts.iter().map(|x| x.as_f64()).product();
        RedData::F64(p)
    });
    assert_eq!(geo_mean, Reducer::Custom(0));
    let placement = rt.add_placement(|ix, npes| (ix.first() as usize / 2) % npes);
    rt.run(move |co| {
        let arr = co.ctx().create_array_with::<Stat>(
            &[6],
            (),
            ArrayOpts {
                placement,
                use_lb: false,
            },
        );
        let out = co.ctx().create_future::<RedData>();
        arr.send(co.ctx(), StatMsg::Go { out });
        let product = co.get(&out).as_f64();
        assert_eq!(product, 720.0); // 6!
        co.ctx().exit();
    });
}

// ---------------------------------------------------------------------------
// Report plumbing across the umbrella crate.
// ---------------------------------------------------------------------------

#[test]
fn run_report_reflects_simulated_time() {
    struct Sleeper;
    enum SleepMsg {
        Nap { done: Future<i64> },
    }
    wire_enum! { SleepMsg { Nap { done } } }
    impl Chare for Sleeper {
        type Msg = SleepMsg;
        type Init = ();
        fn create(_: (), _: &mut Ctx) -> Self {
            Sleeper
        }
        fn receive(&mut self, msg: SleepMsg, ctx: &mut Ctx) {
            let SleepMsg::Nap { done } = msg;
            ctx.charge(std::time::Duration::from_millis(250));
            ctx.send_future(&done, 1);
        }
    }
    let report = sim(2).register::<Sleeper>().run(|co| {
        let s = co.ctx().create_chare::<Sleeper>((), Some(1));
        let done = co.ctx().create_future::<i64>();
        s.send(co.ctx(), SleepMsg::Nap { done });
        co.get(&done);
        co.ctx().exit();
    });
    // 250 ms of virtual compute must appear in virtual time but not wall.
    assert!(report.time.as_millis() >= 250, "virtual {:?}", report.time);
    assert!(report.wall.as_millis() < 250, "wall {:?}", report.wall);
}
