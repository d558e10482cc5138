//! Copy accounting on the real path, under a counting allocator: a large
//! payload is given no memory where it is sent (it leaves from the caller's
//! slice), once where it arrives, and once the receiving connection's
//! buffers are back, not at all. (The syscall half of the budget is counted
//! with `Write` / `Read` doubles in `src/peer.rs`.)
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

/// Wait until `node` has counted `n` frames sent: past that, none of them
/// is still queued, so a large frame sent next leaves from the sender.
fn written(node: &NetNode, n: u64) {
    while node.counters().frames_sent < n {
        std::thread::yield_now();
    }
}

/// Large allocations one 1 MiB round trip makes: `(sending, receiving)`,
/// where this thread does every send and the nodes' readers every receive.
/// Each body is dropped before the next arrives.
fn round_trip(root: &NetNode, worker: &NetNode, msg: &[u8]) -> (usize, usize) {
    let (big0, mine0) = large_requests();
    root.send_payload(1, msg).expect("send");
    let there = next_payload(worker);
    assert!(there == *msg);
    worker.send_payload(0, &there).expect("echo");
    drop(there);
    assert!(next_payload(root) == *msg);
    let (big, mine) = large_requests();
    let mine = mine - mine0;
    (mine, big - big0 - mine)
}

#[test]
fn a_1mib_payload_is_given_memory_only_where_it_arrives_then_never() {
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
    // The table and a warm frame from the root, a warm frame back.
    written(&root, 2);
    written(&worker, 1);

    let msg: Vec<u8> = (0..MIB).map(|i| ((i * 31) >> 3) as u8).collect();
    assert_eq!(
        round_trip(&root, &worker, &msg),
        (0, 2),
        "nothing where each message is sent, a body where it arrives"
    );
    // The readers have the bodies the consumer dropped back, so the next
    // round trip is given no memory.
    assert_eq!(round_trip(&root, &worker, &msg), (0, 0));

    worker.drain(cfg.drain_timeout).expect("drain");
    root.drain(cfg.drain_timeout).expect("drain");
}
