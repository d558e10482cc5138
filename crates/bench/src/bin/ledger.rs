//! Rewrite the ledger files at the repository root from the current code:
//!
//! ```sh
//! cargo run -p charm-bench --bin ledger
//! ```
//!
//! Run it in the debug profile, as the workspace suite checks it: the heap
//! fields are ceilings that a release build may only undercut.

#[path = "../../../trace/tests/common/counting_alloc.rs"]
mod counting_alloc;

const COUNTER: charm_bench::Counter = charm_bench::Counter {
    measure: |f| {
        let ((), h) = counting_alloc::measure(f);
        charm_bench::Heap {
            allocs: h.allocs as u64,
            peak: h.peak as u64,
        }
    },
    hold: counting_alloc::hold,
};

fn main() -> std::io::Result<()> {
    for (file, rows) in charm_bench::FILES {
        let rows = rows(COUNTER);
        std::fs::write(charm_bench::path(file), charm_bench::ledger::render(&rows))?;
        println!("{file}: {} rows", rows.len());
    }
    Ok(())
}
