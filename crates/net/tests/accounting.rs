//! Copy accounting on the real path, under a counting allocator: a large
//! payload is given memory once where it is sent and once where it
//! arrives. (The syscall half of the budget is counted with `Write` /
//! `Read` doubles in `src/peer.rs`.)
//!
//! One test only: the count is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use charm_net::{NetCfg, NetEvent, NetNode};

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

fn next_payload(node: &NetNode) -> Vec<u8> {
    loop {
        match node.events().recv_timeout(Duration::from_secs(5)) {
            Ok(NetEvent::Payload { bytes, .. }) => return bytes,
            Ok(_) => {}
            Err(e) => panic!("no payload: {e}"),
        }
    }
}

#[test]
fn a_1mib_payload_is_given_memory_once_on_each_side() {
    let cfg = NetCfg::new();
    let root = NetNode::root(&cfg, 2, 0xACC0).expect("root");
    let addr = root.listen_addr();
    let joining = {
        let cfg = cfg.clone();
        std::thread::spawn(move || NetNode::worker(&cfg, 1, 2, 0xACC0, addr, 0))
    };
    root.await_workers().expect("rendezvous");
    let worker = joining.join().expect("worker thread").expect("worker");
    // Both directions warm: threads up, burst and read buffers in place.
    root.send_payload(1, b"warm").expect("send");
    assert_eq!(next_payload(&worker), b"warm");

    let msg: Vec<u8> = (0..MIB).map(|i| ((i * 31) >> 3) as u8).collect();
    let wire0 = root.counters().bytes_sent;
    let (big0, mine0) = (BIG.load(Ordering::SeqCst), MINE.get());
    root.send_payload(1, &msg).expect("send");
    let got = next_payload(&worker);
    let mine = MINE.get() - mine0;
    let theirs = BIG.load(Ordering::SeqCst) - big0 - mine;
    assert_eq!(mine, 1, "sending side: the frame buffer and nothing else");
    assert_eq!(
        theirs, 1,
        "receiving side: the event's Vec and nothing else"
    );
    assert_eq!(got.capacity(), got.len());
    assert!(got == msg);

    // The writer has the frame buffer back once it has counted the frame,
    // so the next large message is given no memory where it is sent.
    while root.counters().bytes_sent < wire0 + MIB as u64 {
        std::thread::yield_now();
    }
    let (big0, mine0) = (BIG.load(Ordering::SeqCst), MINE.get());
    root.send_payload(1, &msg).expect("send");
    assert!(next_payload(&worker) == msg);
    assert_eq!(MINE.get() - mine0, 0, "sending side: the spare buffer");
    assert_eq!(BIG.load(Ordering::SeqCst) - big0, 1, "receiving side");

    worker.drain(cfg.drain_timeout).expect("drain");
    root.drain(cfg.drain_timeout).expect("drain");
}
