//! A counting global allocator for the allocation tests (`hist_property.rs`
//! here; `hostile.rs` in `charm-perf` and `taskbench_alloc.rs` in
//! `charm-apps` include this file by path).
//! Counts are per thread, so tests running side by side do not see each
//! other's memory.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    /// Bytes this thread holds now.
    live: usize,
    /// Highest `live` since the last [`measure`] began.
    peak: usize,
    /// Bytes requested (fresh or by growing a block) since it began.
    requested: usize,
    /// Requests (fresh blocks and regrowths) since it began.
    allocs: usize,
}

thread_local! {
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { live: 0, peak: 0, requested: 0, allocs: 0 }) };
}

fn note(freed: usize, taken: usize) {
    // `try_with`: the allocator also runs while a thread's TLS is torn down.
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        // A block may be freed by another thread than took it.
        n.live = n.live.saturating_sub(freed) + taken;
        n.peak = n.peak.max(n.live);
        n.requested += taken;
        n.allocs += usize::from(taken > 0);
        c.set(n);
    });
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is bookkeeping in a const-initialised thread-local `Cell` (which itself
// never allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(0, layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout.size(), 0);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size(), new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What a closure did to this thread's heap.
#[derive(Debug, Clone, Copy)]
pub struct Heap {
    /// Bytes it requested, whether or not it freed them again.
    pub requested: usize,
    /// How many requests that took.
    pub allocs: usize,
    /// The most it held at once, above what the thread held before.
    pub peak: usize,
    /// What it still holds (through its result) when it returns.
    pub retained: usize,
}

/// Run `f` and report its allocations; the result is returned alive so
/// that `retained` counts what it owns.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    let before = COUNTS.with(|c| {
        let mut n = c.get();
        n.peak = n.live;
        n.requested = 0;
        n.allocs = 0;
        c.set(n);
        n
    });
    let out = f();
    let after = COUNTS.with(Cell::get);
    let heap = Heap {
        requested: after.requested,
        allocs: after.allocs,
        peak: after.peak - before.live,
        retained: after.live.saturating_sub(before.live),
    };
    (out, heap)
}
