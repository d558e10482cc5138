//! The `net_*` workloads: a 2-node loopback mesh inside this process (as
//! `crates/net/tests/node_loopback.rs` builds it), one driver thread per
//! node, one TCP connection. Closed loop: the sender never has more than
//! `window` messages unacknowledged.
//!
//! Every blocking wait has a deadline and ends in a counted failure.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

use charm_net::proto::{Table, TableEntry};
use charm_net::{frame, CounterSnapshot, NetCfg, NetEvent, NetNode};

use crate::checks::Checks;
use crate::spans::SpanLog;
use crate::stats::{percentile, Rng};

/// Deadline on every wait for a peer; far above any healthy latency here.
const WAIT: Duration = Duration::from_secs(5);

/// Message header: `seq u64 | pool index u32 | total len u32 | body
/// checksum u64`, then the seeded body.
const HDR: usize = 24;

/// The sender's last message of a run: tells the sink to acknowledge and
/// leave its loop.
const STOP: [u8; 8] = [0xFF; 8];

/// Order-sensitive word checksum of a payload body. Cheap next to the
/// transport's own byte-at-a-time FNV so the check does not become the
/// thing measured.
pub fn checksum(body: &[u8]) -> u64 {
    let mut acc = body.len() as u64;
    let mut words = body.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        acc = acc.wrapping_add(w).rotate_left(1);
    }
    for &b in words.remainder() {
        acc = acc.wrapping_add(u64::from(b)).rotate_left(1);
    }
    acc
}

/// Seeded messages of one size. The sender cycles through them, stamping
/// the sequence number; both ends hold the pool, so the receiver checks a
/// message against the checksum the seed produced, not one it was sent.
pub struct Pool {
    msgs: Vec<Vec<u8>>,
    checks: Vec<u64>,
}

impl Pool {
    pub fn new(seed: u64, size: usize, count: usize) -> Pool {
        assert!(size >= HDR && count > 0);
        let mut rng = Rng::new(seed ^ (size as u64).rotate_left(32));
        let mut msgs = Vec::with_capacity(count);
        let mut checks = Vec::with_capacity(count);
        for idx in 0..count {
            let mut m = vec![0u8; size];
            for chunk in m[HDR..].chunks_mut(8) {
                let r = rng.next().to_le_bytes();
                chunk.copy_from_slice(&r[..chunk.len()]);
            }
            let check = checksum(&m[HDR..]);
            m[8..12].copy_from_slice(&(idx as u32).to_le_bytes());
            m[12..16].copy_from_slice(&(size as u32).to_le_bytes());
            m[16..24].copy_from_slice(&check.to_le_bytes());
            msgs.push(m);
            checks.push(check);
        }
        Pool { msgs, checks }
    }

    pub fn size(&self) -> usize {
        self.msgs[0].len()
    }

    /// The message carrying sequence number `seq`.
    fn stamped(&mut self, seq: u64) -> &[u8] {
        let idx = (seq % self.msgs.len() as u64) as usize;
        let m = &mut self.msgs[idx];
        m[0..8].copy_from_slice(&seq.to_le_bytes());
        m
    }

    /// Whether `bytes` is exactly the message `seq` of this pool.
    pub fn verify(&self, bytes: &[u8], seq: u64) -> bool {
        if bytes.len() != self.size() {
            return false;
        }
        let got_seq = u64::from_le_bytes(bytes[0..8].try_into().expect("8-byte slice"));
        let idx = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice")) as usize;
        let len = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice")) as usize;
        let check = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
        got_seq == seq
            && idx == (seq % self.msgs.len() as u64) as usize
            && len == bytes.len()
            && check == self.checks[idx]
            && checksum(&bytes[HDR..]) == check
    }
}

/// Shape of one closed-loop flow from node 0 to node 1.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Message size in bytes.
    pub size: usize,
    /// Most messages sent and not yet acknowledged.
    pub window: u64,
    /// The receiver replies once per this many messages.
    pub credit_every: u64,
    /// The reply is the whole message back (ping-pong) instead of a 1-byte
    /// credit frame.
    pub echo: bool,
}

pub const PINGPONG_64B: Flow = Flow {
    size: 64,
    window: 1,
    credit_every: 1,
    echo: true,
};
pub const FLOOD_64B: Flow = Flow {
    size: 64,
    window: 256,
    credit_every: 64,
    echo: false,
};
pub const STREAM_1MIB: Flow = Flow {
    size: 1 << 20,
    window: 8,
    credit_every: 1,
    echo: false,
};

impl Flow {
    pub fn pingpong(size: usize) -> Flow {
        Flow {
            size,
            ..PINGPONG_64B
        }
    }

    /// Distinct seeded messages to cycle through: enough that small
    /// messages do not repeat back to back, few enough that 1 MiB ones fit.
    pub fn pool(&self, seed: u64) -> Pool {
        Pool::new(seed, self.size, ((8 << 20) / self.size).clamp(8, 256))
    }
}

/// Payload frames one node handed to `send_payload`, for the exact
/// counter identities.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    msgs: u64,
    payload_bytes: u64,
}

impl Tally {
    fn add(&mut self, len: usize) {
        self.msgs += 1;
        self.payload_bytes += len as u64;
    }
}

/// One measured repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Messages sent and acknowledged.
    pub ops: u64,
    /// First send to last acknowledgement.
    pub wall_ns: u64,
    /// Per reply: from handing the last message of its credit batch to
    /// `send_payload` until the reply arrived (ascending).
    pub lat_ns: Vec<u64>,
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }

    pub fn lat_us(&self, q: f64) -> f64 {
        percentile(&self.lat_ns, q) as f64 / 1e3
    }
}

/// What one mesh lifetime produced.
#[derive(Debug, Default)]
pub struct FlowResult {
    /// `NetNode::root` to both `PeerUp`s seen, plus the first credited
    /// batch of messages.
    pub setup_ns: u64,
    /// Mesh assembly alone.
    pub rendezvous_ns: u64,
    /// Both drains.
    pub drain_ns: u64,
    pub reps: Vec<Rep>,
    /// Messages of the measured reps plus one per output check; those that
    /// failed or timed out.
    pub checks: Checks,
    /// Sender-side counters before teardown (the must-be-zero set), and
    /// payload frames / bytes over the mesh's life.
    pub counters: CounterSnapshot,
    pub msgs: u64,
    pub payload_bytes: u64,
}

/// A nonce no other mesh of this or a concurrent run shares.
fn fresh_nonce(seed: u64) -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    Rng::new(seed ^ t ^ (u64::from(std::process::id()) << 32) ^ n).next()
}

fn net_cfg() -> NetCfg {
    // The defaults (500 ms heartbeat, 1024-frame queues, ephemeral loopback
    // ports) are what the runtime driver uses; only the waits are pinned.
    NetCfg::new().rendezvous_timeout(WAIT).drain_timeout(WAIT)
}

/// Block for the next event, inside a span, with the deadline.
fn recv(node: &NetNode, log: &mut SpanLog, op: u64) -> Result<NetEvent, String> {
    let s = log.begin("node.events_recv", op);
    let ev = node.events().recv_timeout(WAIT);
    log.end(s);
    ev.map_err(|e| match e {
        RecvTimeoutError::Timeout => format!("no event within {WAIT:?}"),
        RecvTimeoutError::Disconnected => "event channel closed".to_string(),
    })
}

fn await_peer_up(node: &NetNode, log: &mut SpanLog) -> Result<(), String> {
    match recv(node, log, 0)? {
        NetEvent::PeerUp { .. } => Ok(()),
        other => Err(format!("expected PeerUp, got {other:?}")),
    }
}

/// Node 1's driver: verify each message against the seed's checksum,
/// reply once per credit batch, stop on [`STOP`].
fn sink(node: &NetNode, pool: &Pool, flow: Flow, log: &mut SpanLog) -> (Tally, Checks) {
    let mut tally = Tally::default();
    let mut checks = Checks::default();
    let mut seq = 0u64;
    loop {
        let bytes = match recv(node, log, seq) {
            Ok(NetEvent::Payload { src: 0, bytes }) => bytes,
            Ok(other) => {
                checks.fail(format!("sink: unexpected event {other:?}"));
                continue;
            }
            Err(e) => {
                checks.fail(format!("sink: {e}"));
                break;
            }
        };
        let stop = bytes == STOP;
        if !stop && !pool.verify(&bytes, seq) {
            checks.fail(format!("sink: message {seq} failed its checksum"));
        }
        let reply: Option<&[u8]> = if stop {
            Some(&STOP[..1])
        } else {
            seq += 1;
            seq.is_multiple_of(flow.credit_every)
                .then_some(if flow.echo { &bytes[..] } else { &[1u8] })
        };
        if let Some(reply) = reply {
            let s = log.begin("node.send_payload", seq);
            let sent = node.send_payload(0, reply);
            log.end(s);
            match sent {
                Ok(()) => tally.add(reply.len()),
                Err(e) => {
                    checks.fail(format!("sink: reply failed: {e}"));
                    break;
                }
            }
        }
        if stop {
            break;
        }
    }
    (tally, checks)
}

/// Node 0's driver state across warm-up and reps.
struct Source<'a> {
    node: &'a NetNode,
    pool: Pool,
    flow: Flow,
    tally: Tally,
    seq: u64,
    acked: u64,
    /// Send time of the last message of each unacknowledged credit batch.
    pending: VecDeque<Instant>,
}

impl Source<'_> {
    /// Send until `dur` has passed (or `max_ops`, or the span log fills),
    /// finish the credit batch, wait for every acknowledgement.
    fn rep(
        &mut self,
        dur: Duration,
        max_ops: u64,
        log: &mut SpanLog,
        out: &mut Checks,
    ) -> Result<Rep, String> {
        let start = Instant::now();
        let first = self.seq;
        let mut lat_ns = Vec::with_capacity(1 << 16);
        let mut stopping = false;
        while !stopping || self.acked < self.seq {
            if !stopping {
                let seq = self.seq;
                if (seq + 1).is_multiple_of(self.flow.credit_every) {
                    let now = Instant::now();
                    self.pending.push_back(now);
                    stopping = now - start >= dur || seq + 1 - first >= max_ops || log.full();
                }
                let node = self.node;
                let msg = self.pool.stamped(seq);
                let s = log.begin("node.send_payload", seq);
                let sent = node.send_payload(1, msg);
                log.end(s);
                sent.map_err(|e| format!("send {seq}: {e}"))?;
                self.tally.add(msg.len());
                self.seq += 1;
                out.attempted += 1;
            }
            // Take replies without blocking unless the window is full or
            // the rep is ending.
            loop {
                let must_wait = self.seq - self.acked >= self.flow.window
                    || (stopping && self.acked < self.seq);
                let ev = if must_wait {
                    recv(self.node, log, self.acked)?
                } else {
                    match self.node.events().try_recv() {
                        Ok(ev) => ev,
                        Err(_) => break,
                    }
                };
                let NetEvent::Payload { src: 1, bytes } = ev else {
                    return Err(format!("source: unexpected event {ev:?}"));
                };
                let sent_at = self
                    .pending
                    .pop_front()
                    .ok_or("reply with nothing pending")?;
                lat_ns.push(sent_at.elapsed().as_nanos() as u64);
                self.acked += self.flow.credit_every;
                let ok = if self.flow.echo {
                    self.pool.verify(&bytes, self.acked - 1)
                } else {
                    bytes == [1u8]
                };
                if !ok {
                    out.fail(format!("source: bad reply for message {}", self.acked - 1));
                }
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        lat_ns.sort_unstable();
        Ok(Rep {
            ops: self.seq - first,
            wall_ns,
            lat_ns,
        })
    }

    fn stop(&mut self, log: &mut SpanLog) -> Result<(), String> {
        self.node
            .send_payload(1, &STOP)
            .map_err(|e| format!("send stop: {e}"))?;
        self.tally.add(STOP.len());
        match recv(self.node, log, self.seq)? {
            NetEvent::Payload { src: 1, bytes } if bytes == STOP[..1] => Ok(()),
            other => Err(format!("expected stop ack, got {other:?}")),
        }
    }
}

/// Counters once the writer threads have gone quiet (two equal snapshots).
fn settled(node: &NetNode) -> CounterSnapshot {
    let deadline = Instant::now() + WAIT;
    let mut prev = node.counters();
    loop {
        std::thread::sleep(Duration::from_millis(1));
        let cur = node.counters();
        if cur == prev || Instant::now() >= deadline {
            return cur;
        }
        prev = cur;
    }
}

/// Rendezvous: the root binds, the worker bootstraps on the second driver
/// thread, the root completes the mesh, both see `PeerUp`.
fn assemble(
    cfg: &NetCfg,
    nonce: u64,
    loga: &mut SpanLog,
    logb: &mut SpanLog,
) -> Result<(NetNode, NetNode), String> {
    let s = loga.begin("node.root", 0);
    let root = NetNode::root(cfg, 2, nonce);
    loga.end(s);
    let root = root.map_err(|e| format!("root bind: {e}"))?;
    let root_addr = root.listen_addr();
    let (worker, awaited) = std::thread::scope(|sc| {
        let h = sc.spawn(|| {
            let s = logb.begin("node.worker", 0);
            let w = NetNode::worker(cfg, 1, 2, nonce, root_addr, 0);
            logb.end(s);
            w
        });
        let s = loga.begin("node.await_workers", 0);
        let awaited = root.await_workers();
        loga.end(s);
        (h.join().expect("worker bootstrap panicked"), awaited)
    });
    let worker = match (worker, awaited) {
        (Ok(w), Ok(())) => w,
        (w, a) => {
            let _ = root.drain(WAIT);
            let w = w.map(|_| ());
            return Err(format!("rendezvous: worker {w:?}, root {a:?}"));
        }
    };
    await_peer_up(&root, loga)?;
    await_peer_up(&worker, logb)?;
    Ok((root, worker))
}

/// One mesh lifetime: assemble, first batch (end of set-up), warm-up,
/// `reps` measured repetitions of `rep_dur`, stop, drain, check the exact
/// counter identities. `logs` are the two driver threads' span logs.
pub fn run_flow(
    flow: Flow,
    seed: u64,
    warm: Duration,
    reps: usize,
    rep_dur: Duration,
    logs: &mut [SpanLog; 2],
) -> FlowResult {
    let mut out = FlowResult::default();
    let [loga, logb] = logs;
    let cfg = net_cfg();
    let sink_pool = flow.pool(seed);
    let t_setup = Instant::now();
    let s = loga.begin("mesh.assemble", 0);
    let mesh = assemble(&cfg, fresh_nonce(seed), loga, logb);
    loga.end(s);
    out.rendezvous_ns = t_setup.elapsed().as_nanos() as u64;
    out.checks
        .check(mesh.is_ok(), || format!("mesh: {:?}", mesh.as_ref().err()));
    let Ok((root, worker)) = mesh else {
        return out;
    };

    // The flow itself: node 1's driver on its own thread, node 0's here.
    let mut src = Source {
        node: &root,
        pool: flow.pool(seed),
        flow,
        tally: Tally::default(),
        seq: 0,
        acked: 0,
        pending: VecDeque::with_capacity(flow.window as usize + 1),
    };
    // `NetNode` is `Send` but not `Sync` (it owns the event receiver), so
    // node 1 moves into its driver thread and comes back when it ends.
    let (worker, sink_tally, before) = std::thread::scope(|sc| {
        let sink_log = &mut *logb;
        let h = sc.spawn(move || {
            let r = sink(&worker, &sink_pool, flow, sink_log);
            (worker, r)
        });
        let mut run = || -> Result<(), String> {
            // Set-up and warm-up messages are not measured operations, but
            // a failure among them is a failure.
            let mut scratch = Checks::default();
            src.rep(Duration::ZERO, flow.credit_every, loga, &mut scratch)?;
            out.setup_ns = t_setup.elapsed().as_nanos() as u64;
            if !warm.is_zero() {
                src.rep(warm, u64::MAX, loga, &mut scratch)?;
            }
            scratch.attempted = 0;
            out.checks.absorb(scratch);
            for i in 0..reps {
                let s = loga.begin("flow.rep", i as u64);
                let rep = src.rep(rep_dur, u64::MAX, loga, &mut out.checks);
                loga.end(s);
                out.reps.push(rep?);
            }
            Ok(())
        };
        let ran = run();
        let before = root.counters();
        let stopped = src.stop(loga);
        out.checks.check(ran.is_ok() && stopped.is_ok(), || {
            format!("source: {ran:?} / {stopped:?}")
        });
        let (worker, (tally, sink_checks)) = h.join().expect("sink thread panicked");
        out.checks.absorb(sink_checks);
        (worker, tally, before)
    });
    out.counters = before;
    out.msgs = src.tally.msgs;
    out.payload_bytes = src.tally.payload_bytes;

    // Teardown: the worker says goodbye, the root sees a clean close.
    let t_drain = Instant::now();
    let s = logb.begin("node.drain", 1);
    let drained = worker.drain(WAIT);
    logb.end(s);
    out.checks
        .check(drained.is_ok(), || format!("worker drain: {drained:?}"));
    let deadline = Instant::now() + WAIT;
    while (root.counters().byes_recv == 0 || root.peer_live(1)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let s = loga.begin("node.drain", 0);
    let drained = root.drain(WAIT);
    loga.end(s);
    out.drain_ns = t_drain.elapsed().as_nanos() as u64;
    out.checks.check(drained.is_ok() && root.peer_bye(1), || {
        format!("root drain: {drained:?}, clean close {}", root.peer_bye(1))
    });

    // Exact identities over the mesh's whole life, per sending node:
    // frames_sent = payload msgs + pings + control (table, bye) and
    // bytes_sent = sum(16 + 4 + len) + 24 per ping + control bytes.
    let table_len = Table {
        epoch: 0,
        entries: [root.listen_addr(), worker.listen_addr()]
            .iter()
            .enumerate()
            .map(|(pe, &addr)| TableEntry {
                pe: pe as u32,
                epoch: 0,
                addr,
            })
            .collect(),
    }
    .encode()
    .len() as u64;
    let (rc, wc) = (settled(&root), settled(&worker));
    let hdr = frame::HDR_LEN as u64;
    for (who, c, tally, ctl_frames, ctl_bytes) in [
        ("root", rc, src.tally, 1, hdr + table_len),
        ("worker", wc, sink_tally, rc.byes_recv, rc.byes_recv * hdr),
    ] {
        let frames = tally.msgs + c.pings_sent + ctl_frames;
        let bytes =
            tally.msgs * (hdr + 4) + tally.payload_bytes + c.pings_sent * (hdr + 8) + ctl_bytes;
        out.checks.check(c.frames_sent == frames, || {
            format!("{who}: frames_sent {} != {frames}", c.frames_sent)
        });
        out.checks.check(c.bytes_sent == bytes, || {
            format!("{who}: bytes_sent {} != {bytes}", c.bytes_sent)
        });
    }
    let clean = before.corrupt_frames
        + before.proto_errors
        + before.disconnects
        + before.reconnects
        + wc.corrupt_frames
        + wc.proto_errors
        + wc.reconnects;
    out.checks.check(clean == 0, || {
        format!("transport faults on a healthy loopback: root {before:?}, worker {wc:?}")
    });
    out
}

/// Reference: the same ping-pong and stream shapes over a bare
/// `TcpStream` pair with `TCP_NODELAY` (no framing, no threads beyond the
/// two drivers), so machine noise and program change can be told apart.
/// Returns `(rtt p50 in us for 64 B, MB/s for 1 MiB messages)`.
pub fn rawtcp(dur: Duration) -> Result<(f64, f64), String> {
    let io = |e: std::io::Error| format!("rawtcp: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    // Connect before the server thread exists: the connection waits in the
    // backlog, so `accept` below cannot block on a client that never came.
    let c = TcpStream::connect_timeout(&addr, WAIT).map_err(io)?;
    std::thread::scope(|sc| {
        // Server: echo 64 B until a zero first byte, then sink 1 MiB
        // messages acknowledging each with one byte, until EOF.
        let server = sc.spawn(move || -> std::io::Result<()> {
            let (mut s, _) = listener.accept()?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(WAIT))?;
            let mut small = [0u8; 64];
            loop {
                s.read_exact(&mut small)?;
                s.write_all(&small)?;
                if small[0] == 0 {
                    break;
                }
            }
            let mut big = vec![0u8; 1 << 20];
            while s.read_exact(&mut big).is_ok() {
                s.write_all(&[1])?;
            }
            Ok(())
        });
        let client = move || -> std::io::Result<(f64, f64)> {
            // Owned by this call, so the socket closes when it returns and
            // the server sees EOF.
            let mut c = c;
            c.set_nodelay(true)?;
            c.set_read_timeout(Some(WAIT))?;
            let mut buf = [1u8; 64];
            let mut lat = Vec::with_capacity(1 << 16);
            let start = Instant::now();
            while start.elapsed() < dur {
                let t = Instant::now();
                c.write_all(&buf)?;
                c.read_exact(&mut buf)?;
                lat.push(t.elapsed().as_nanos() as u64);
            }
            buf[0] = 0;
            c.write_all(&buf)?;
            c.read_exact(&mut buf)?;
            lat.sort_unstable();
            let big = vec![7u8; 1 << 20];
            let (mut sent, mut acked) = (0u64, 0u64);
            let mut ack = [0u8; 1];
            let start = Instant::now();
            loop {
                let sending = start.elapsed() < dur;
                if sending {
                    c.write_all(&big)?;
                    sent += 1;
                }
                // Keep fewer than `window` unacknowledged; at the end, none.
                let need = if sending {
                    (sent + 1).saturating_sub(STREAM_1MIB.window)
                } else {
                    sent
                };
                while acked < need {
                    c.read_exact(&mut ack)?;
                    acked += 1;
                }
                if !sending {
                    break;
                }
            }
            let mbps = (sent << 20) as f64 / 1e6 / start.elapsed().as_secs_f64();
            Ok((percentile(&lat, 0.5) as f64 / 1e3, mbps))
        };
        let got = client().map_err(io);
        let served = server
            .join()
            .map_err(|_| "rawtcp: server panicked".to_string())?;
        served.map_err(io)?;
        got
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_verifies_its_own_messages_and_nothing_else() {
        let mut p = Pool::new(9, 64, 8);
        let q = Pool::new(9, 64, 8);
        let m = p.stamped(13).to_vec();
        assert!(q.verify(&m, 13));
        assert!(!q.verify(&m, 14), "wrong sequence number");
        let mut bad = m.clone();
        bad[40] ^= 1;
        assert!(!q.verify(&bad, 13), "flipped body bit");
        assert!(!q.verify(&m[..63], 13), "short");
        assert!(!Pool::new(10, 64, 8).verify(&m, 13), "another seed's pool");
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let a: Vec<u8> = (0..40).collect();
        let mut b = a.clone();
        b.swap(0, 8);
        assert_ne!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&a[..39]));
    }
}
