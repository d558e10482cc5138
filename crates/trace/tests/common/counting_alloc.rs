//! The workspace's one counting global allocator, for the tests and tools
//! that bound or record heap use. `hist_property.rs` here includes it by
//! path, as do `charm-perf`'s and `charm-wire`'s `hostile.rs`,
//! `charm-net`'s `accounting.rs`, `charm-apps`' `taskbench_alloc.rs` and
//! `charm-bench`'s ledger (its test and its binary).
//!
//! Per thread, so tests running side by side do not see each other's
//! memory: bytes live and their peak, bytes requested, requests, and the
//! largest single request; [`hold`] freezes the last four mid-closure. Per
//! process, after [`count_requests_from`]: requests of at least a given
//! size, by any thread and by this one.

#![expect(dead_code, reason = "each includer uses part of it")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

#[derive(Debug, Clone, Copy)]
struct Counts {
    /// Bytes this thread holds now.
    live: usize,
    /// Highest `live` since the last [`measure`] began.
    peak: usize,
    /// Bytes requested (fresh or by growing a block) since it began.
    requested: usize,
    /// Requests (fresh blocks and regrowths) since it began.
    allocs: usize,
    /// The largest single request since it began (or the thread did).
    largest: usize,
    /// Requests of at least `LARGE_FROM` bytes by this thread.
    large: usize,
    /// Set by [`hold`]: `peak`, `requested`, `allocs` and `largest` stay
    /// where they are until the next [`measure`] begins.
    held: bool,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { live: 0, peak: 0, requested: 0, allocs: 0, largest: 0, large: 0, held: false })
    };
}

/// The size from which a request counts as large; none does until
/// [`count_requests_from`] is called.
static LARGE_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Large requests by any thread.
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn note(freed: usize, taken: usize) {
    let large = taken > 0 && taken >= LARGE_FROM.load(Ordering::Relaxed);
    if large {
        LARGE.fetch_add(1, Ordering::SeqCst);
    }
    // `try_with`: the allocator also runs while a thread's TLS is torn down.
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        // A block may be freed by another thread than took it.
        n.live = n.live.saturating_sub(freed) + taken;
        n.large += usize::from(large);
        if !n.held {
            n.peak = n.peak.max(n.live);
            n.requested += taken;
            n.allocs += usize::from(taken > 0);
            n.largest = n.largest.max(taken);
        }
        c.set(n);
    });
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is bookkeeping in two atomics and a const-initialised thread-local `Cell`
// (none of which allocates).
#[expect(unsafe_code, reason = "unsafe: a global allocator is an unsafe impl")]
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
        n.largest = 0;
        n.held = false;
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

/// Freeze this thread's counts where they are until the next [`measure`]
/// begins: a closure that ends with work it should not be charged for (a
/// teardown whose frees race with other threads) calls this first.
pub fn hold() {
    COUNTS.with(|c| {
        let mut n = c.get();
        n.held = true;
        c.set(n);
    });
}

/// The largest single request this thread has made since it started, or
/// since its last [`measure`] began.
pub fn largest_request() -> usize {
    COUNTS.with(Cell::get).largest
}

/// From now on, count every request of at least `bytes` (see
/// [`large_requests`]).
pub fn count_requests_from(bytes: usize) {
    LARGE_FROM.store(bytes, Ordering::SeqCst);
}

/// Large requests so far: `(by any thread, by this thread)`.
pub fn large_requests() -> (usize, usize) {
    (LARGE.load(Ordering::SeqCst), COUNTS.with(Cell::get).large)
}
