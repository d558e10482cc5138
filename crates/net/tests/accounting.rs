//! Copy accounting on the real path, under a counting allocator: a large
//! payload is given memory once where it is sent and once where it
//! arrives, and once the connection's buffers are back, not at all. (The
//! syscall half of the budget is counted with `Write` / `Read` doubles in
//! `src/peer.rs`.)
//!
//! One test only: the count is process-wide.

#[path = "../../trace/tests/common/counting_alloc.rs"]
mod counting_alloc;

use std::time::Duration;

use charm_net::{Body, NetCfg, NetEvent, NetNode};
use counting_alloc::{count_requests_from, large_requests};

const MIB: usize = 1 << 20;

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
    let (big0, mine0) = large_requests();
    let wire = (root.counters().bytes_sent, worker.counters().bytes_sent);
    root.send_payload(1, msg).expect("send");
    let there = next_payload(worker);
    assert!(there == *msg);
    worker.send_payload(0, &there).expect("echo");
    drop(there);
    assert!(next_payload(root) == *msg);
    written(root, wire.0, MIB);
    written(worker, wire.1, MIB);
    let (big, mine) = large_requests();
    let mine = mine - mine0;
    (mine, big - big0 - mine)
}

#[test]
fn a_1mib_payload_is_given_memory_once_on_each_side_then_never() {
    count_requests_from(MIB);
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
