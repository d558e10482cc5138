//! Copy accounting on the real path, under a counting allocator: a large
//! payload is given memory once where it is sent and once where it
//! arrives, and once the connection's buffers are back, not at all. (The
//! syscall half of the budget is counted with `Write` / `Read` doubles in
//! `src/peer.rs`.)
//!
//! One test only: the count is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use charm_net::{Body, NetCfg, NetEvent, NetNode};

const MIB: usize = 1 << 20;

/// Requests for at least 1 MiB, by any thread.
static BIG: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The same, by this thread.
    static MINE: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if size >= MIB {
        BIG.fetch_add(1, Ordering::SeqCst);
        // `try_with`: the allocator also runs while a thread's TLS is torn down.
        let _ = MINE.try_with(|c| c.set(c.get() + 1));
    }
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a count of the large requests in an atomic and a const-initialised
// thread-local (neither allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn next_payload(node: &NetNode) -> Body {
    loop {
        match node.events().recv_timeout(Duration::from_secs(5)) {
            Ok(NetEvent::Payload { bytes, .. }) => return bytes,
            Ok(_) => {}
            Err(e) => panic!("no payload: {e}"),
        }
    }
}

/// Wait until `node`'s writers have put `n` more bytes on the wire than
/// `from`: past that, each written frame buffer is back with its senders.
fn written(node: &NetNode, from: u64, n: usize) {
    while node.counters().bytes_sent < from + n as u64 {
        std::thread::yield_now();
    }
}

/// Large allocations one 1 MiB round trip makes: `(sending, receiving)`,
/// where this thread does every send and the nodes' readers every receive.
/// Each body is dropped before the next arrives.
fn round_trip(root: &NetNode, worker: &NetNode, msg: &[u8]) -> (usize, usize) {
    let (big0, mine0) = (BIG.load(Ordering::SeqCst), MINE.get());
    let wire = (root.counters().bytes_sent, worker.counters().bytes_sent);
    root.send_payload(1, msg).expect("send");
    let there = next_payload(worker);
    assert!(there == *msg);
    worker.send_payload(0, &there).expect("echo");
    drop(there);
    assert!(next_payload(root) == *msg);
    written(root, wire.0, MIB);
    written(worker, wire.1, MIB);
    let mine = MINE.get() - mine0;
    (mine, BIG.load(Ordering::SeqCst) - big0 - mine)
}

#[test]
fn a_1mib_payload_is_given_memory_once_on_each_side_then_never() {
    let cfg = NetCfg::new();
    let root = NetNode::root(&cfg, 2, 0xACC0).expect("root");
    let addr = root.listen_addr();
    let joining = {
        let cfg = cfg.clone();
        std::thread::spawn(move || NetNode::worker(&cfg, 1, 2, 0xACC0, addr, 0))
    };
    root.await_workers().expect("rendezvous");
    let worker = joining.join().expect("worker thread").expect("worker");
    // Both directions warm: threads up, small buffers in place.
    root.send_payload(1, b"warm").expect("send");
    assert_eq!(next_payload(&worker), b"warm");
    worker.send_payload(0, b"warm").expect("send");
    assert_eq!(next_payload(&root), b"warm");

    let msg: Vec<u8> = (0..MIB).map(|i| ((i * 31) >> 3) as u8).collect();
    assert_eq!(
        round_trip(&root, &worker, &msg),
        (2, 2),
        "a frame buffer where each message is sent, a body where it arrives"
    );
    // The writers have their frame buffers back and the readers the bodies
    // the consumer dropped, so the next round trip is given no memory.
    assert_eq!(round_trip(&root, &worker, &msg), (0, 0));

    worker.drain(cfg.drain_timeout).expect("drain");
    root.drain(cfg.drain_timeout).expect("drain");
}
