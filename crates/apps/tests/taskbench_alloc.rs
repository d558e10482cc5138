//! Task Bench must measure the runtime, not its own graph generator: what
//! a `random` task allocates stays within a few allocations of a `stencil`
//! task sending the same number of messages.

#[path = "../../trace/tests/common/counting_alloc.rs"]
mod counting_alloc;

use charm_apps::taskbench::{expected, run_taskbench, Pattern, TaskBenchParams};
use charm_core::{Backend, Runtime};
use charm_sim::MachineModel;
use counting_alloc::measure;

/// Allocations per task on a 1-PE sim (it runs on the counted thread).
fn allocs_per_task(pattern: Pattern) -> f64 {
    let params = TaskBenchParams {
        width: 64,
        steps: 50,
        grain_ns: 0,
        ..TaskBenchParams::small_with(pattern)
    };
    let want = expected(&params);
    let rt = Runtime::new(1).backend(Backend::Sim(MachineModel::local(1)));
    let (r, heap) = measure(|| run_taskbench(params.clone(), rt));
    assert_eq!((r.checksum, r.tasks), want);
    heap.allocs as f64 / params.total_tasks() as f64
}

#[test]
fn random_allocates_like_stencil() {
    let stencil = allocs_per_task(Pattern::Stencil);
    let random = allocs_per_task(Pattern::Random);
    assert!(
        random <= stencil + 4.0,
        "random costs {random:.2} allocations a task against stencil's {stencil:.2}"
    );
}
