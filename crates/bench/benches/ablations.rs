//! Design-choice ablations (DESIGN.md §4): each quantifies one mechanism
//! the paper calls out.
//!
//! 1. Same-PE by-reference delivery (§II-D) — on vs off, on a chare-dense
//!    single-node stencil where most traffic is PE-local.
//! 2. Reduction spanning-tree shape (§IV-D) — arity and node-awareness,
//!    measured as virtual-time barrier latency at scale.
//! 3. Load-balancing strategies — GreedyLB vs RefineLB vs RotateLB vs
//!    RandLB vs none on the Fig-3 imbalanced stencil.

use std::sync::Arc;

use charm_apps::stencil3d::{charm::run_charm, StencilParams};
use charm_bench::env_usize;
use charm_core::prelude::*;
use charm_core::{LbStrategy, Runtime};
use charm_lb::{GreedyLb, RandLb, RefineLb, RotateLb};
use charm_sim::MachineModel;

fn main() {
    ablation_same_pe_byref();
    ablation_tree_shape();
    ablation_lb_strategies();
}

// ---------------------------------------------------------------------------
// 1. Same-PE by-reference optimization
// ---------------------------------------------------------------------------

fn ablation_same_pe_byref() {
    let iters = env_usize("CHARMRS_ITERS", 30) as u32;
    // 16 thin slabs on 2 PEs: most ghost exchanges are PE-local, faces are
    // 32 KiB while the kernel is small, so the ablated serialization cost
    // dominates the step.
    let params = StencilParams::new([32, 64, 64], [16, 1, 1], iters);
    let run = |byref: bool, dispatch: DispatchMode| {
        let params = params.clone();
        charm_bench::best_of(move || {
            run_charm(
                params.clone(),
                Runtime::new(2)
                    .backend(Backend::Sim(MachineModel::local(2)))
                    .dispatch(dispatch)
                    .same_pe_byref(byref),
            )
            .time_per_step_ms
        })
    };
    println!("\n# Ablation: same-PE by-reference delivery (paper II-D)");
    println!("  16 thin slabs on 2 PEs, {iters} iters; ms/step");
    for (label, mode) in [
        ("native  (zero-copy Buf payloads)", DispatchMode::Native),
        ("dynamic (pickle + interp. model)", DispatchMode::Dynamic),
    ] {
        let on = run(true, mode);
        let off = run(false, mode);
        println!(
            "  {label}: by-ref {on:>8.3}  serialized {off:>8.3}  overhead {:+.1}%",
            (off / on - 1.0) * 100.0
        );
    }
}

// ---------------------------------------------------------------------------
// 2. Reduction tree shape
// ---------------------------------------------------------------------------

/// A group member that performs `rounds` back-to-back empty reductions.
struct BarrierBounce {
    left: u32,
    done: Option<Future<i64>>,
}

enum BounceMsg {
    Start { rounds: u32, done: Future<i64> },
}
wire_enum! { BounceMsg { Start { rounds, done } } }

const TAG_ROUND: u32 = 1;

impl Chare for BarrierBounce {
    type Msg = BounceMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        BarrierBounce {
            left: 0,
            done: None,
        }
    }
    fn receive(&mut self, msg: BounceMsg, ctx: &mut Ctx) {
        let BounceMsg::Start { rounds, done } = msg;
        self.left = rounds;
        self.done = Some(done);
        let target = ctx
            .this_proxy::<BarrierBounce>()
            .reduction_target(TAG_ROUND);
        ctx.contribute_barrier(target);
    }
    fn reduced(&mut self, _tag: u32, _data: RedData, ctx: &mut Ctx) {
        self.left -= 1;
        if self.left == 0 {
            if ctx.my_index().first() == 0 {
                let done = self.done.unwrap();
                ctx.send_future(&done, 0i64);
            }
            return;
        }
        let target = ctx
            .this_proxy::<BarrierBounce>()
            .reduction_target(TAG_ROUND);
        ctx.contribute_barrier(target);
    }
}

fn barrier_latency_us(npes: usize, shape: TreeShape) -> f64 {
    let rounds = 50u32;
    let out = Arc::new(std::sync::Mutex::new(0.0f64));
    let out2 = Arc::clone(&out);
    Runtime::new(npes)
        .backend(Backend::Sim(MachineModel::bluewaters(
            npes.div_ceil(32).max(8),
        )))
        .meter_compute(false)
        .tree(shape)
        .register::<BarrierBounce>()
        .run(move |co| {
            let g = co.ctx().create_group::<BarrierBounce>(());
            let done = co.ctx().create_future::<i64>();
            let t0 = co.ctx().now();
            g.send(co.ctx(), BounceMsg::Start { rounds, done });
            co.get(&done);
            let t1 = co.ctx().now();
            *out2.lock().unwrap() = (t1 - t0) * 1e6 / rounds as f64;
            co.ctx().exit();
        });
    let v = *out.lock().unwrap();
    v
}

fn ablation_tree_shape() {
    let npes = env_usize("CHARMRS_MAX_PES", 128);
    println!("\n# Ablation: reduction spanning-tree shape (paper IV-D)");
    println!("  group barrier latency over {npes} PEs (virtual us per barrier)");
    for arity in [2usize, 4, 8] {
        let flat = barrier_latency_us(
            npes,
            TreeShape {
                arity,
                cores_per_node: None,
            },
        );
        let aware = barrier_latency_us(
            npes,
            TreeShape {
                arity,
                cores_per_node: Some(32),
            },
        );
        println!("  arity {arity}: flat {flat:>9.2}   node-aware {aware:>9.2}");
    }
}

// ---------------------------------------------------------------------------
// 3. LB strategies on the Fig-3 workload
// ---------------------------------------------------------------------------

fn ablation_lb_strategies() {
    let p = 16usize;
    let iters = env_usize("CHARMRS_ITERS", 240) as u32;
    let mk_params = |lb: bool| {
        let mut s = StencilParams::new([16 * p, 32, 32], [4 * p, 1, 1], iters);
        s.imbalance = Some(p);
        s.sync_every = 1;
        s.nominal_kernel_s = Some(100e-6);
        s.lb_every = lb.then_some(30);
        s
    };
    let run = |strategy: Option<Arc<dyn LbStrategy>>| {
        let mut rt = Runtime::new(p)
            .backend(Backend::Sim(MachineModel::cori_knl()))
            .meter_compute(false);
        let lb = strategy.is_some();
        if let Some(s) = strategy {
            rt = rt.lb_strategy(s);
        }
        run_charm(mk_params(lb), rt).time_per_step_ms
    };
    println!("\n# Ablation: LB strategy on the Fig-3 imbalanced stencil ({p} PEs, ms/step)");
    let none = run(None);
    println!("  no LB:     {none:>8.3}");
    for (name, s) in [
        ("GreedyLB", Arc::new(GreedyLb) as Arc<dyn LbStrategy>),
        ("RefineLB", Arc::new(RefineLb::default())),
        ("RotateLB", Arc::new(RotateLb)),
        ("RandLB  ", Arc::new(RandLb::default())),
    ] {
        let t = run(Some(s));
        println!("  {name}:  {t:>8.3}   speedup {:>5.2}x", none / t);
    }
}
