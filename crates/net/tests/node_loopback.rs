//! Loopback mesh lifecycle tests: real sockets, real threads, one process.
//!
//! Each test builds a small mesh of [`NetNode`]s on 127.0.0.1 inside this
//! process (one node per would-be PE) and drives the full lifecycle:
//! rendezvous, payload exchange, abrupt connection loss, reconnect,
//! epoch-fenced readmission, drain, and what each wait in that lifecycle
//! costs in wall time. The multi-*process* flavour (with
//! real `SIGKILL`s) lives in `multiproc.rs`; this file isolates the
//! transport state machine from process management.

use std::io::{ErrorKind, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use charm_net::frame;
use charm_net::proto::{Hello, K_HELLO, K_PAYLOAD};
use charm_net::{BackoffCfg, NetCfg, NetEvent, NetNode};

/// Short timeouts so failure paths run in test time, with a heartbeat
/// window generous enough that healthy connections never trip it.
fn test_cfg() -> NetCfg {
    NetCfg::new()
        .heartbeat(Duration::from_millis(100), Duration::from_millis(1500))
        .rendezvous_timeout(Duration::from_secs(5))
        .drain_timeout(Duration::from_secs(3))
        .reconnect(BackoffCfg::new(
            Duration::from_millis(20),
            Duration::from_millis(100),
            4,
        ))
}

/// Assemble an `npes` mesh in-process: root node plus worker nodes, all
/// rendezvoused. Returns the nodes indexed by PE.
fn mesh(cfg: &NetCfg, npes: usize, nonce: u64) -> Vec<NetNode> {
    let root = NetNode::root(cfg, npes, nonce).expect("root bind");
    let root_addr = root.listen_addr();
    let mut handles = Vec::new();
    for pe in 1..npes {
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            NetNode::worker(&cfg, pe, npes, nonce, root_addr, 0).expect("worker bootstrap")
        }));
    }
    root.await_workers().expect("rendezvous");
    let mut nodes = vec![root];
    for h in handles {
        nodes.push(h.join().expect("worker thread"));
    }
    nodes
}

/// Pull events until `f` accepts one; panics after `timeout` of silence.
fn wait_event<T>(node: &NetNode, timeout: Duration, mut f: impl FnMut(NetEvent) -> Option<T>) -> T {
    loop {
        match node.events().recv_timeout(timeout) {
            Ok(ev) => {
                if let Some(v) = f(ev) {
                    return v;
                }
            }
            Err(RecvTimeoutError::Timeout) => panic!("no matching event within {timeout:?}"),
            Err(RecvTimeoutError::Disconnected) => panic!("event channel closed"),
        }
    }
}

/// The tests in this binary share the host's cores. A test that times
/// mesh assembly holds this exclusively, so no other test loads a core
/// under its clock (beside the 1 MiB payload test, the debug 4-node median
/// rose from ~3 ms to 6-10 ms on a 2-core host); every other test holds it
/// shared and still runs beside its untimed peers.
static CORES: RwLock<()> = RwLock::new(());

/// Hold [`CORES`] shared for the rest of an untimed test.
fn untimed() -> RwLockReadGuard<'static, ()> {
    CORES.read().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn four_node_rendezvous_and_all_pairs_payloads() {
    let _shared = untimed();
    let cfg = test_cfg();
    let nodes = mesh(&cfg, 4, 0x1111);
    // Drain the PeerUp noise, then ship one tagged payload over every
    // ordered pair and check each arrives intact and attributed.
    for (src, node) in nodes.iter().enumerate() {
        for dst in 0..nodes.len() {
            if dst != src {
                node.send_payload(dst, &[src as u8, dst as u8, 0xAB])
                    .expect("send");
            }
        }
    }
    for (me, node) in nodes.iter().enumerate() {
        let mut seen = vec![false; nodes.len()];
        for _ in 0..nodes.len() - 1 {
            let (src, bytes) = wait_event(node, Duration::from_secs(5), |ev| match ev {
                NetEvent::Payload { src, bytes } => Some((src, bytes)),
                _ => None,
            });
            assert_eq!(bytes, vec![src as u8, me as u8, 0xAB]);
            assert!(!seen[src], "duplicate payload from {src}");
            seen[src] = true;
        }
    }
    for node in &nodes {
        node.drain(cfg.drain_timeout).expect("drain");
    }
}

#[test]
fn dropped_node_surfaces_as_peer_lost_after_retries() {
    let _shared = untimed();
    let cfg = test_cfg();
    let mut nodes = mesh(&cfg, 3, 0x2222);
    // Kill node 2 abruptly: sockets severed with no goodbye, exactly what
    // its peers would observe if the process died.
    let dead = nodes.pop().unwrap();
    dead.kill();
    drop(dead);
    // Node 0 (acceptor side for 2) and node 1 (acceptor side for 2) must
    // both observe the loss once reconnect/readmission windows lapse.
    for node in &nodes {
        let (pe, incarnation) = wait_event(node, Duration::from_secs(10), |ev| match ev {
            NetEvent::PeerLost {
                pe, incarnation, ..
            } => Some((pe, incarnation)),
            _ => None,
        });
        assert_eq!(pe, 2);
        assert_eq!(incarnation, 0);
        assert!(node.counters().disconnects >= 1);
    }
    for node in &nodes {
        node.drain(cfg.drain_timeout).expect("drain");
    }
}

#[test]
fn stale_epoch_handshake_rejected_and_counted() {
    let _shared = untimed();
    let cfg = test_cfg();
    let npes = 2;
    let root = NetNode::root(&cfg, npes, 0x3333).expect("root");
    let root_addr = root.listen_addr();
    // The mesh has moved on to epoch 2 (as after a recovery)...
    root.set_epoch(2);
    // ...and a zombie worker from epoch 0 tries to register.
    let stale = NetNode::worker(&cfg, 1, npes, 0x3333, root_addr, 0);
    assert!(stale.is_err(), "stale worker must not complete bootstrap");
    assert!(
        root.counters().stale_conn_rejected >= 1,
        "rejection must be counted: {:?}",
        root.counters()
    );
    assert!(!root.peer_live(1));
    // A worker at the current epoch is admitted on the same listener.
    let fresh = NetNode::worker(&cfg, 1, npes, 0x3333, root_addr, 2).expect("fresh worker");
    root.await_workers().expect("rendezvous at epoch 2");
    assert!(root.peer_at_epoch(1, 2));
    fresh.drain(cfg.drain_timeout).expect("drain");
    root.drain(cfg.drain_timeout).expect("drain");
}

#[test]
fn wrong_nonce_rejected() {
    let _shared = untimed();
    let cfg = test_cfg();
    let root = NetNode::root(&cfg, 2, 0x4444).expect("root");
    let addr = root.listen_addr();
    let crossed = NetNode::worker(&cfg, 1, 2, 0xBEEF, addr, 0);
    assert!(crossed.is_err(), "crossed-run worker must be fenced out");
    assert!(root.counters().stale_conn_rejected >= 1);
    root.drain(cfg.drain_timeout).expect("drain");
}

#[test]
fn restart_broadcast_reaches_workers_and_bumps_their_epoch() {
    let _shared = untimed();
    let cfg = test_cfg();
    let nodes = mesh(&cfg, 3, 0x5555);
    nodes[0].broadcast_restart(1, 7);
    for w in &nodes[1..] {
        let (epoch, generation) = wait_event(w, Duration::from_secs(5), |ev| match ev {
            NetEvent::Restart { epoch, generation } => Some((epoch, generation)),
            _ => None,
        });
        assert_eq!((epoch, generation), (1, 7));
        assert_eq!(w.epoch(), 1, "transport fence must move with the restart");
    }
    for node in &nodes {
        node.drain(cfg.drain_timeout).expect("drain");
    }
}

#[test]
fn readmission_after_loss_uses_new_epoch_and_table_rebroadcast() {
    let _shared = untimed();
    let cfg = test_cfg();
    let mut nodes = mesh(&cfg, 3, 0x6666);
    // Lose worker 2, as a recovery would: root learns, bumps the epoch,
    // announces the restart, and a replacement joins at the new epoch.
    let dead = nodes.pop().unwrap();
    dead.kill();
    drop(dead);
    let root_addr = nodes[0].listen_addr();
    wait_event(&nodes[0], Duration::from_secs(10), |ev| match ev {
        NetEvent::PeerLost { pe: 2, .. } => Some(()),
        _ => None,
    });
    // Recovery sequence, exactly as the runtime driver performs it: bump
    // the epoch, tell the survivors, admit the replacement, re-broadcast
    // the table so the survivor (PE 1 — lower than 2, so 2 dials it) is
    // reachable again. The replacement bootstraps concurrently because its
    // own mesh wait cannot finish before the table goes out.
    nodes[0].broadcast_restart(1, 0);
    let join = {
        let cfg = cfg.clone();
        std::thread::spawn(move || NetNode::worker(&cfg, 2, 3, 0x6666, root_addr, 1))
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !nodes[0].peer_at_epoch(2, 1) {
        assert!(
            std::time::Instant::now() < deadline,
            "readmission timed out"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    nodes[0].broadcast_table();
    let replacement = join
        .join()
        .expect("replacement thread")
        .expect("replacement bootstrap");
    // Payload flows both ways between survivor 1 and replacement 2.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while replacement.send_payload(1, b"hello-from-2").is_err() {
        assert!(std::time::Instant::now() < deadline, "2->1 link timed out");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (src, bytes) = wait_event(&nodes[1], Duration::from_secs(5), |ev| match ev {
        NetEvent::Payload { src, bytes } => Some((src, bytes)),
        _ => None,
    });
    assert_eq!((src, bytes.as_slice()), (2, b"hello-from-2".as_slice()));
    nodes[1].send_payload(2, b"hello-from-1").expect("1->2");
    let (src, bytes) = wait_event(&replacement, Duration::from_secs(5), |ev| match ev {
        NetEvent::Payload { src, bytes } => Some((src, bytes)),
        _ => None,
    });
    assert_eq!((src, bytes.as_slice()), (1, b"hello-from-1".as_slice()));
    for node in nodes.iter().chain(std::iter::once(&replacement)) {
        node.drain(cfg.drain_timeout).expect("drain");
    }
}

#[test]
fn drain_sends_bye_so_peer_sees_clean_close_not_death() {
    let _shared = untimed();
    let cfg = test_cfg();
    let nodes = mesh(&cfg, 2, 0x7777);
    nodes[1].drain(cfg.drain_timeout).expect("worker drain");
    // The root must see a goodbye, not a PeerLost.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while nodes[0].counters().byes_recv == 0 {
        assert!(std::time::Instant::now() < deadline, "no bye within window");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(nodes[0].peer_bye(1), "close must be recorded as clean");
    match nodes[0].events().recv_timeout(Duration::from_millis(300)) {
        Err(RecvTimeoutError::Timeout) => {}
        Ok(NetEvent::PeerUp { .. }) | Err(RecvTimeoutError::Disconnected) => {}
        Ok(NetEvent::PeerLost { pe, reason, .. }) => {
            panic!("clean close misread as loss of {pe}: {reason}")
        }
        Ok(_) => {}
    }
    nodes[0].drain(cfg.drain_timeout).expect("root drain");
}

#[test]
fn bootstrap_times_out_when_a_worker_never_arrives() {
    let _shared = untimed();
    let mut cfg = test_cfg().rendezvous_timeout(Duration::from_millis(400));
    cfg.root_addr = Some("127.0.0.1:0".parse::<SocketAddr>().unwrap());
    let root = NetNode::root(&cfg, 3, 0x8888).expect("root bind");
    // Only one of two workers shows up.
    let addr = root.listen_addr();
    let cfg2 = cfg.clone();
    let w1 = std::thread::spawn(move || NetNode::worker(&cfg2, 1, 3, 0x8888, addr, 0));
    let err = root.await_workers().expect_err("mesh cannot complete");
    let msg = err.to_string();
    assert!(msg.contains('2'), "error should name the missing PE: {msg}");
    let _ = w1.join();
}

/// Dial `root` as PE 1 of 2 over a bare socket and complete the handshake,
/// as a worker's `NetNode` would: what comes back is an admitted
/// connection the test can write anything to.
fn admitted_raw_peer(root: &NetNode, nonce: u64) -> TcpStream {
    let mut raw = TcpStream::connect(root.listen_addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let hello = Hello {
        pe: 1,
        npes: 2,
        epoch: 0,
        nonce,
        listen_port: 1,
    };
    frame::write_frame(&mut raw, K_HELLO, &hello.encode()).expect("hello");
    let (kind, ack) = frame::read_frame(&mut raw, frame::DEFAULT_MAX_FRAME).expect("hello ack");
    assert_eq!(kind, K_HELLO);
    assert_eq!(Hello::decode(&ack).expect("ack decodes").pe, 0);
    wait_event(root, Duration::from_secs(5), |ev| match ev {
        NetEvent::PeerUp { pe: 1, .. } => Some(()),
        _ => None,
    });
    raw
}

/// A payload frame from PE 1, as it goes on the wire.
fn payload_frame(body: &[u8]) -> Vec<u8> {
    frame::sealed(K_PAYLOAD, &[&1u32.to_le_bytes(), body])
}

/// One good frame, then `bad`: the good one is delivered, the bad one is
/// counted once, the connection is dropped, and the loss is reported with
/// the frame error as its reason.
fn bad_frame_mid_stream_drops_the_connection(nonce: u64, bad: &[u8], why: &str) {
    let cfg = test_cfg();
    let root = NetNode::root(&cfg, 2, nonce).expect("root");
    let mut raw = admitted_raw_peer(&root, nonce);
    raw.write_all(&payload_frame(b"still fine"))
        .expect("good frame");
    let bytes = wait_event(&root, Duration::from_secs(5), |ev| match ev {
        NetEvent::Payload { src: 1, bytes } => Some(bytes),
        _ => None,
    });
    assert_eq!(bytes, b"still fine");
    raw.write_all(bad).expect("bad frame");
    let reason = wait_event(&root, Duration::from_secs(10), |ev| match ev {
        NetEvent::PeerLost { pe: 1, reason, .. } => Some(reason),
        NetEvent::Payload { .. } => panic!("a bad frame was delivered"),
        _ => None,
    });
    assert!(reason.contains("corrupt frame"), "{reason}");
    assert!(reason.contains(why), "{reason}");
    let c = root.counters();
    assert_eq!((c.corrupt_frames, c.disconnects), (1, 1), "{c:?}");
    assert_eq!((c.frames_recv, c.proto_errors), (1, 0), "{c:?}");
    assert!(!root.peer_live(1));
    root.drain(cfg.drain_timeout).expect("drain");
}

#[test]
fn wrong_payload_checksum_on_a_live_connection_is_counted_and_dropped() {
    let _shared = untimed();
    let mut bad = payload_frame(&[0x33; 200]);
    bad[frame::HDR_LEN + 100] ^= 0x04;
    bad_frame_mid_stream_drops_the_connection(0x9999, &bad, "payload checksum mismatch");
}

#[test]
fn version_1_frame_on_a_live_connection_is_counted_and_dropped() {
    let _shared = untimed();
    // What the previous binary would have sent: FNV-1a on the payload too.
    let payload = [&1u32.to_le_bytes()[..], b"from an old run"].concat();
    let mut v1 = vec![0xAE, 0x43, 1, K_PAYLOAD];
    v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let hcrc = frame::fnv1a(&v1);
    v1.extend_from_slice(&hcrc.to_le_bytes());
    v1.extend_from_slice(&frame::fnv1a(&payload).to_le_bytes());
    v1.extend_from_slice(&payload);
    bad_frame_mid_stream_drops_the_connection(0xAAAA, &v1, "bad frame version 1");
}

#[test]
fn interleaved_small_and_large_payloads_arrive_in_order_and_intact() {
    let _shared = untimed();
    let cfg = test_cfg();
    let nodes = mesh(&cfg, 2, 0xBBBB);
    // Runs of small frames between large ones, and two sizes around a page:
    // whatever the writer and reader do by size, order and bytes must hold.
    let sizes = [
        64,
        1 << 20,
        64,
        64,
        64,
        1 << 20,
        1 << 20,
        64,
        4096,
        5000,
        64,
        1 << 20,
    ];
    let msgs: Vec<Vec<u8>> = (0..3 * sizes.len())
        .map(|i| {
            let mut x = i as u64 + 1;
            (0..sizes[i % sizes.len()])
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 56) as u8
                })
                .collect()
        })
        .collect();
    // All of it fits the writer's queue, so one thread can send, then read.
    for m in &msgs {
        nodes[0].send_payload(1, m).expect("send");
    }
    for (i, want) in msgs.iter().enumerate() {
        let got = wait_event(&nodes[1], Duration::from_secs(10), |ev| match ev {
            NetEvent::Payload { src: 0, bytes } => Some(bytes),
            _ => None,
        });
        assert_eq!(got.len(), want.len(), "message {i}");
        assert!(got == *want, "message {i} differs");
    }
    for node in &nodes {
        node.drain(cfg.drain_timeout).expect("drain");
    }
}

/// `n` payloads of `len` bytes each, told apart by their first four bytes.
fn numbered(n: std::ops::Range<u32>, len: usize) -> Vec<Vec<u8>> {
    n.map(|i| {
        let mut body = vec![i as u8; len];
        body[..4].copy_from_slice(&i.to_le_bytes());
        body
    })
    .collect()
}

#[test]
fn small_frames_then_a_large_one_then_small_ones_arrive_in_send_order() {
    let _shared = untimed();
    let cfg = test_cfg();
    let nodes = mesh(&cfg, 2, 0xBBBC);
    // A burst long enough that some of it is still queued when the 1 MiB
    // frame is sent: that one must queue behind it, not leave first.
    let mut msgs = numbered(0..300, 64);
    msgs.extend(numbered(300..301, 1 << 20));
    msgs.extend(numbered(301..600, 64));
    for _ in 0..3 {
        for m in &msgs {
            nodes[0].send_payload(1, m).expect("send");
        }
        for (i, want) in msgs.iter().enumerate() {
            let got = wait_event(&nodes[1], Duration::from_secs(10), |ev| match ev {
                NetEvent::Payload { src: 0, bytes } => Some(bytes),
                _ => None,
            });
            assert!(got == *want, "message {i} out of order or changed");
        }
    }
    for node in &nodes {
        node.drain(cfg.drain_timeout).expect("drain");
    }
}

#[test]
fn a_large_send_to_a_root_that_never_reads_fails_typed_within_the_send_timeout() {
    let _shared = untimed();
    let nonce = 0x5A11;
    let cfg = NetCfg {
        send_timeout: Duration::from_millis(500),
        // No ping and no read timeout inside the test: only the send stalls.
        ..test_cfg().heartbeat(Duration::from_secs(30), Duration::from_secs(60))
    };
    // A root that completes the handshake and then reads nothing.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let root_addr = listener.local_addr().expect("addr");
    let root = std::thread::spawn(move || {
        let (mut raw, _) = listener.accept().expect("accept");
        let (kind, hello) = frame::read_frame(&mut raw, frame::DEFAULT_MAX_FRAME).expect("hello");
        assert_eq!(kind, K_HELLO);
        let ack = Hello {
            pe: 0,
            npes: 2,
            epoch: 0,
            nonce: Hello::decode(&hello).expect("hello decodes").nonce,
            listen_port: root_addr.port(),
        };
        frame::write_frame(&mut raw, K_HELLO, &ack.encode()).expect("ack");
        raw
    });
    let worker = NetNode::worker(&cfg, 1, 2, nonce, root_addr, 0).expect("worker");
    let mut raw = root.join().expect("root thread");
    let msgs = numbered(0..256, 1 << 20);
    let mut failed = None;
    for (i, m) in msgs.iter().enumerate() {
        let t = Instant::now();
        if let Err(e) = worker.send_payload(0, m) {
            failed = Some((i, e, t.elapsed()));
            break;
        }
    }
    let (sent, err, took) = failed.expect("a stream into a socket nobody reads fails");
    assert_eq!(err, charm_net::NetError::QueueTimeout { pe: 0 });
    // Margin: the first call may find room for part of the frame, and the
    // host may be busy.
    let bound = cfg.send_timeout + Duration::from_secs(1);
    assert!(
        took <= bound,
        "the failing send took {took:?} (bound {bound:?})"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while worker.peer_live(0) {
        assert!(
            Instant::now() < deadline,
            "the stalled connection is still up"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The root reads whole frames in order, then a torn one or the end:
    // never a frame spliced onto a cut one.
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut got = 0;
    let end = loop {
        match frame::read_frame(&mut raw, frame::DEFAULT_MAX_FRAME) {
            Ok((kind, payload)) => {
                assert_eq!(kind, K_PAYLOAD);
                assert!(payload[4..] == msgs[got][..], "frame {got}");
                got += 1;
            }
            Err(e) => break e,
        }
    };
    assert!(
        matches!(
            end,
            frame::FrameError::Torn { .. } | frame::FrameError::Closed
        ),
        "{end:?}"
    );
    assert_eq!(got, sent, "every frame sent whole, none of the cut one");
}

/// Median wall time, in ms, of assembling an `npes` mesh (root bind to
/// every node bootstrapped) over ten meshes. Each is drained before the
/// next is built.
fn median_assembly_ms(npes: usize, nonce: u64) -> f64 {
    let _alone = CORES.write().unwrap_or_else(|e| e.into_inner());
    let cfg = test_cfg();
    let mut ms: Vec<f64> = (0..10u64)
        .map(|i| {
            let t = Instant::now();
            let nodes = mesh(&cfg, npes, nonce + i);
            let took = t.elapsed().as_secs_f64() * 1e3;
            for node in &nodes {
                node.drain(cfg.drain_timeout).expect("drain");
            }
            took
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

#[test]
fn a_two_node_mesh_assembles_without_waiting_out_a_timer() {
    // Nothing to wait for but two handshakes on loopback; a 5-10 ms sleep
    // quantum anywhere in accept or the mesh wait shows up whole.
    let ms = median_assembly_ms(2, 0xC000);
    assert!(ms < 5.0, "2-node mesh assembly median {ms:.2} ms");
}

#[test]
fn a_four_node_mesh_assembles_without_waiting_out_a_timer() {
    // Two rounds of dials: workers to the root, then, after the table,
    // workers to each other.
    let ms = median_assembly_ms(4, 0xD000);
    assert!(ms < 10.0, "4-node mesh assembly median {ms:.2} ms");
}

/// Whether a connection to `addr` is refused right now. A node bound to an
/// unspecified address is tried over loopback.
fn refused(addr: SocketAddr) -> bool {
    let addr = if addr.ip().is_unspecified() {
        SocketAddr::new(Ipv4Addr::LOCALHOST.into(), addr.port())
    } else {
        addr
    };
    match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
        Ok(_) => false,
        Err(e) => e.kind() == ErrorKind::ConnectionRefused,
    }
}

#[test]
fn a_listener_blocked_in_accept_closes_on_drain_and_on_kill() {
    let _shared = untimed();
    let cfg = test_cfg();
    let any_ip = NetCfg {
        bind_ip: Ipv4Addr::UNSPECIFIED.into(),
        ..test_cfg()
    };
    for (how, cfg) in [("drain", &cfg), ("kill", &cfg), ("kill", &any_ip)] {
        let root = NetNode::root(cfg, 2, 0xE000).expect("root");
        let addr = root.listen_addr();
        // Give the listener time to block in accept with nobody dialing.
        std::thread::sleep(Duration::from_millis(50));
        let t = Instant::now();
        if how == "drain" {
            root.drain(cfg.drain_timeout).expect("drain");
        } else {
            root.kill();
        }
        assert!(
            t.elapsed() < cfg.drain_timeout,
            "{how} took {:?}",
            t.elapsed()
        );
        // Closed by the time the call returns: nobody can be admitted.
        assert!(refused(addr), "{how} left {addr} accepting");
    }
}

#[test]
fn dropping_a_node_closes_its_port_and_its_connections() {
    let _shared = untimed();
    let cfg = test_cfg();
    let mut nodes = mesh(&cfg, 2, 0xF000);
    let worker = nodes.pop().unwrap();
    let addr = worker.listen_addr();
    drop(worker);
    assert!(refused(addr), "a dropped node still accepts on {addr}");
    // Severed, not left heartbeating: the root's reader sees it at once,
    // well inside its heartbeat timeout.
    let deadline = Instant::now() + cfg.heartbeat_timeout / 2;
    while nodes[0].peer_live(1) {
        assert!(
            Instant::now() < deadline,
            "the dropped node's connection is still up"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(nodes[0].counters().disconnects, 1);
    nodes[0].drain(cfg.drain_timeout).expect("drain");
}
