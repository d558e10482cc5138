//! The mesh node: rendezvous, connection lifecycle, failure detection.
//!
//! One [`NetNode`] per process owns the listener, one reader thread and one
//! writer thread per live connection, and the supervision threads
//! (reconnectors, readmission watchdogs). The runtime's scheduler consumes
//! the node through two narrow surfaces: the [`NetEvent`] receiver (inbound
//! payloads and lifecycle transitions) and the send methods.
//!
//! The transport is wall-clock code by nature — heartbeats, dial timeouts
//! and backoff are *about* real time — which is exactly why it lives behind
//! this crate boundary: the deterministic schedulers upstream never see a
//! clock, only the ordered event stream.

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[expect(clippy::disallowed_types, reason = "blocking: see `Shared::peers`")]
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::backoff::Backoff;
use crate::cfg::NetCfg;
use crate::error::NetError;
use crate::frame;
use crate::peer::{next_frame, spawn_writer, Body, Inbound, PeerSender, Returns};
use crate::proto::{
    Hello, Restart, Table, TableEntry, K_BYE, K_HELLO, K_PAYLOAD, K_PING, K_RESTART, K_STATS,
    K_TABLE,
};

/// Read the monotonic clock. Single sanctioned call site for the crate.
#[expect(clippy::disallowed_methods, reason = "nondeterminism: wall deadlines")]
pub(crate) fn now() -> Instant {
    Instant::now()
}

/// Sleep. Single sanctioned call site for the crate.
#[expect(clippy::disallowed_methods, reason = "blocking: supervision threads")]
pub(crate) fn pause(d: Duration) {
    std::thread::sleep(d);
}

/// The waiting end of a thread's exit signal. The thread holds the other
/// end and never sends on it, so the channel disconnects exactly when the
/// thread is gone, however it left: a return, a panic, or a spawn that
/// never ran it.
pub(crate) struct Exited(mpsc::Receiver<()>);

impl Exited {
    /// The end the thread drops on its way out, and this one.
    pub(crate) fn pair() -> (mpsc::Sender<()>, Exited) {
        let (alive, exited) = mpsc::channel();
        (alive, Exited(exited))
    }

    /// Wait until the thread has exited or `deadline` passes; whether it
    /// has exited.
    pub(crate) fn wait(&self, deadline: Instant) -> bool {
        let left = deadline.saturating_duration_since(now());
        matches!(
            self.0.recv_timeout(left),
            Err(mpsc::RecvTimeoutError::Disconnected)
        )
    }
}

/// What the transport reports up to the runtime driver.
#[derive(Debug)]
pub enum NetEvent {
    /// An envelope arrived from `src`.
    Payload {
        /// Sending PE.
        src: usize,
        /// The encoded envelope, exactly as sent.
        bytes: Body,
    },
    /// A peer's connection was admitted (rendezvous, reconnect, readmit).
    PeerUp {
        /// The peer.
        pe: usize,
        /// Epoch the connection was admitted under.
        epoch: u64,
    },
    /// A peer is gone for good: its connection died and reconnect (dialer
    /// side) or the readmission window (acceptor side) was exhausted.
    PeerLost {
        /// The lost peer.
        pe: usize,
        /// Epoch its connection belonged to.
        incarnation: u64,
        /// Cause.
        reason: String,
    },
    /// The root announced a recovery restart (worker side).
    Restart {
        /// New recovery epoch.
        epoch: u64,
        /// Checkpoint generation being restored.
        generation: u64,
    },
    /// A worker's end-of-run counter block (root side; opaque bytes).
    Stats {
        /// Reporting PE.
        pe: usize,
        /// Runtime-encoded counters.
        bytes: Body,
    },
}

/// Transport counters (atomics; relaxed — they are diagnostics, not
/// synchronization).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) frames_sent: AtomicU64,
    pub(crate) frames_recv: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_recv: AtomicU64,
    pub(crate) pings_sent: AtomicU64,
    pub(crate) pings_recv: AtomicU64,
    pub(crate) reconnects: AtomicU64,
    pub(crate) disconnects: AtomicU64,
    pub(crate) stale_conn_rejected: AtomicU64,
    pub(crate) corrupt_frames: AtomicU64,
    pub(crate) proto_errors: AtomicU64,
    pub(crate) byes_recv: AtomicU64,
}

/// A point-in-time copy of the transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Frames written to sockets.
    pub frames_sent: u64,
    /// Frames read off sockets.
    pub frames_recv: u64,
    /// Bytes written (headers included).
    pub bytes_sent: u64,
    /// Bytes read (headers included).
    pub bytes_recv: u64,
    /// Heartbeat pings emitted.
    pub pings_sent: u64,
    /// Heartbeat pings received.
    pub pings_recv: u64,
    /// Connections re-established after a loss.
    pub reconnects: u64,
    /// Connection losses observed.
    pub disconnects: u64,
    /// Handshakes rejected for a stale epoch or wrong nonce (zombie
    /// connections fenced at the door).
    pub stale_conn_rejected: u64,
    /// Frames dropped by the hardened decoder.
    pub corrupt_frames: u64,
    /// Structurally invalid control messages from admitted peers.
    pub proto_errors: u64,
    /// Clean goodbyes received.
    pub byes_recv: u64,
}

/// One peer's connection slot.
#[derive(Default)]
struct Slot {
    /// Epoch of the live (or last) connection.
    epoch: u64,
    /// Bumps on every install/teardown; supervision threads carry the
    /// generation they acted for and stand down when it has moved on.
    gen: u64,
    /// Live connection's send handle, `None` while down.
    sender: Option<Arc<PeerSender>>,
    /// Fires when that writer has exited (what a drain waits on).
    exited: Option<Exited>,
    /// Shutdown handle on the live connection (a clone of the stream), so
    /// an abrupt teardown can sever the socket out from under its threads.
    raw: Option<TcpStream>,
    /// The peer's advertised listener (root: from its Hello).
    advertised: Option<SocketAddr>,
    /// Where to dial the peer: the root's address, then what the root's
    /// tables say.
    book: Option<SocketAddr>,
    /// A clean goodbye was received on the current connection.
    bye: bool,
}

struct Shared {
    me: usize,
    npes: usize,
    nonce: u64,
    cfg: NetCfg,
    listen_addr: SocketAddr,
    epoch: AtomicU64,
    shutting: AtomicBool,
    #[expect(clippy::disallowed_types, reason = "blocking: one short-lived lock")]
    peers: Mutex<Vec<Slot>>,
    /// Notified by every `install`: the mesh wait sleeps on it.
    installed: Condvar,
    events: mpsc::Sender<NetEvent>,
    counters: Arc<Counters>,
}

impl Shared {
    #[expect(clippy::disallowed_methods, reason = "blocking: one short-lived lock")]
    fn peers(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.peers.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn cur_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn emit(&self, ev: NetEvent) {
        let _ = self.events.send(ev);
    }

    fn my_hello(&self) -> Hello {
        Hello {
            pe: self.me as u32,
            npes: self.npes as u32,
            epoch: self.cur_epoch(),
            nonce: self.nonce,
            listen_port: self.listen_addr.port(),
        }
    }

    /// Dial `pe` at `addr`, handshake, and install the connection. The
    /// handshake is a full exchange — the acceptor answers a valid `Hello`
    /// with its own; a rejected dialer sees the connection close instead
    /// and reports a dial failure, never a half-open "success".
    fn dial(self: &Arc<Self>, pe: usize, addr: SocketAddr) -> Result<(), NetError> {
        let stream = TcpStream::connect_timeout(&addr, self.cfg.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.cfg.connect_timeout));
        let hello = self.my_hello();
        let mut s = &stream;
        s.write_all(&frame::sealed(K_HELLO, &[&hello.encode()]))?;
        let ack = match frame::read_frame(&mut s, self.cfg.max_frame)? {
            (K_HELLO, payload) => Hello::decode(&payload)?,
            (k, _) => {
                return Err(NetError::Proto(format!(
                    "expected hello ack, got frame kind {k}"
                )))
            }
        };
        if ack.nonce != self.nonce || ack.pe as usize != pe {
            return Err(NetError::Proto(format!(
                "hello ack from wrong peer (pe {}, nonce mismatch: {})",
                ack.pe,
                ack.nonce != self.nonce
            )));
        }
        self.install(pe, hello.epoch, None, stream);
        Ok(())
    }

    /// Adopt a handshaken connection: spawn its writer and reader, replace
    /// whatever the slot held, announce `PeerUp`.
    fn install(
        self: &Arc<Self>,
        pe: usize,
        conn_epoch: u64,
        advertised: Option<SocketAddr>,
        stream: TcpStream,
    ) {
        let _ = stream.set_read_timeout(Some(self.cfg.heartbeat_timeout));
        // Bounds every write: the writer's batches and a sender's own. A
        // zero timeout would set none at all.
        let bound = self.cfg.send_timeout.max(Duration::from_millis(1));
        let _ = stream.set_write_timeout(Some(bound));
        let (sender, exited) = spawn_writer(
            pe,
            match stream.try_clone() {
                Ok(s) => s,
                // No write half, no connection: let the reader die on the
                // original stream and the normal loss path take over.
                Err(_) => return,
            },
            self.cfg.heartbeat_every,
            conn_epoch,
            Arc::clone(&self.counters),
        );
        let raw = stream.try_clone().ok();
        let gen;
        {
            let mut peers = self.peers();
            // Checked under the lock `kill` and `drain` clear the table
            // under, after they set the flag: a connection is either in
            // the table they clear or never admitted. Dropping the writer's
            // handle and the stream here closes it.
            if self.shutting.load(Ordering::SeqCst) {
                return;
            }
            let slot = &mut peers[pe];
            slot.gen += 1;
            gen = slot.gen;
            slot.epoch = conn_epoch;
            slot.bye = false;
            slot.sender = Some(Arc::new(sender));
            slot.exited = Some(exited);
            slot.raw = raw;
            if let Some(a) = advertised {
                slot.advertised = Some(a);
            }
        }
        self.installed.notify_all();
        let me = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("net-rd-{pe}"))
            .spawn(move || me.reader_loop(pe, conn_epoch, gen, stream));
        drop(spawned);
        self.emit(NetEvent::PeerUp {
            pe,
            epoch: conn_epoch,
        });
    }

    /// Read frames until the connection dies or says goodbye.
    fn reader_loop(self: &Arc<Self>, pe: usize, conn_epoch: u64, gen: u64, mut stream: TcpStream) {
        let returns = Returns::new();
        let reason = loop {
            let Inbound {
                kind,
                src,
                body,
                wire_len,
            } = match next_frame(&mut stream, self.cfg.max_frame, &returns) {
                Ok(f) => f,
                Err(frame::FrameError::Closed) => break "connection closed".to_string(),
                Err(frame::FrameError::Io(k, m))
                    if k == std::io::ErrorKind::WouldBlock || k == std::io::ErrorKind::TimedOut =>
                {
                    let _ = m;
                    break format!("heartbeat timeout ({:?})", self.cfg.heartbeat_timeout);
                }
                Err(e @ (frame::FrameError::Io(..) | frame::FrameError::Torn { .. })) => {
                    break e.to_string();
                }
                Err(e) => {
                    // Corrupt stream (bad magic/CRC/over-cap): typed, counted,
                    // connection dropped — never panicked on.
                    self.counters.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                    break format!("corrupt frame: {e}");
                }
            };
            self.counters.frames_recv.fetch_add(1, Ordering::Relaxed);
            self.counters
                .bytes_recv
                .fetch_add(wire_len as u64, Ordering::Relaxed);
            match kind {
                K_PING => {
                    self.counters.pings_recv.fetch_add(1, Ordering::Relaxed);
                }
                K_PAYLOAD | K_STATS => match src {
                    Some(src) => {
                        let (src, bytes) = (src as usize, body);
                        self.emit(if kind == K_PAYLOAD {
                            NetEvent::Payload { src, bytes }
                        } else {
                            NetEvent::Stats { pe: src, bytes }
                        });
                    }
                    // Shorter than its src prefix.
                    None => {
                        self.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                    }
                },
                K_RESTART => match Restart::decode(&body) {
                    Ok(r) => {
                        // The transport fences first, then tells the
                        // scheduler: any handshake arriving after this
                        // line is judged against the new epoch.
                        self.epoch.fetch_max(r.epoch, Ordering::SeqCst);
                        self.emit(NetEvent::Restart {
                            epoch: r.epoch,
                            generation: r.generation,
                        });
                    }
                    Err(_) => {
                        self.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                    }
                },
                K_TABLE => match Table::decode(&body) {
                    Ok(t) => self.handle_table(t),
                    Err(_) => {
                        self.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                    }
                },
                K_BYE => {
                    self.counters.byes_recv.fetch_add(1, Ordering::Relaxed);
                    let mut peers = self.peers();
                    if peers[pe].gen == gen {
                        peers[pe].bye = true;
                    }
                    break "goodbye".to_string();
                }
                K_HELLO => {
                    self.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                    break "mid-stream handshake".to_string();
                }
                other => {
                    self.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                    break format!("unknown frame kind {other}");
                }
            }
        };
        self.conn_down(pe, conn_epoch, gen, reason);
    }

    /// A connection died. Supersession-safe: only the reader of the slot's
    /// current generation acts; everyone else already lost the race.
    fn conn_down(self: &Arc<Self>, pe: usize, conn_epoch: u64, gen: u64, reason: String) {
        if self.shutting.load(Ordering::SeqCst) {
            return;
        }
        let (was_bye, want_gen);
        {
            let mut peers = self.peers();
            let slot = &mut peers[pe];
            if slot.gen != gen {
                return;
            }
            was_bye = slot.bye;
            slot.sender = None;
            slot.exited = None;
            slot.raw = None;
            slot.gen += 1;
            want_gen = slot.gen;
        }
        self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
        if was_bye {
            return;
        }
        let me = Arc::clone(self);
        if self.me > pe {
            // We are the dialer for this pair: reconnect with backoff.
            let spawned = std::thread::Builder::new()
                .name(format!("net-redial-{pe}"))
                .spawn(move || me.reconnect(pe, conn_epoch, want_gen, reason));
            drop(spawned);
        } else {
            // We accept for this pair: give the dialer (or, after a
            // recovery, its respawned successor) a readmission window.
            let spawned = std::thread::Builder::new()
                .name(format!("net-wait-{pe}"))
                .spawn(move || {
                    pause(me.cfg.heartbeat_timeout);
                    me.declare_lost_if_down(pe, conn_epoch, want_gen, reason);
                });
            drop(spawned);
        }
    }

    /// Dialer-side repair: immediate first attempt, then the backoff
    /// schedule; gives up into `PeerLost` when the budget is spent.
    fn reconnect(self: &Arc<Self>, pe: usize, conn_epoch: u64, want_gen: u64, reason: String) {
        let seed = self.nonce ^ ((self.me as u64) << 40) ^ ((pe as u64) << 20) ^ want_gen;
        let mut bo = Backoff::new(self.cfg.reconnect, seed);
        loop {
            if self.shutting.load(Ordering::SeqCst) {
                return;
            }
            let addr = {
                let peers = self.peers();
                if peers[pe].gen != want_gen || peers[pe].sender.is_some() {
                    return; // superseded (e.g. a readmitted peer dialed us)
                }
                peers[pe].book
            };
            if let Some(addr) = addr {
                if self.dial(pe, addr).is_ok() {
                    self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            match bo.next_delay() {
                Some(d) => pause(d),
                None => {
                    let why = format!(
                        "{reason}; reconnect gave up after {} attempts",
                        bo.attempts()
                    );
                    self.declare_lost_if_down(pe, conn_epoch, want_gen, why);
                    return;
                }
            }
        }
    }

    /// Emit `PeerLost` unless the slot has been repaired or superseded.
    fn declare_lost_if_down(&self, pe: usize, conn_epoch: u64, want_gen: u64, reason: String) {
        if self.shutting.load(Ordering::SeqCst) {
            return;
        }
        let down = {
            let peers = self.peers();
            peers[pe].gen == want_gen && peers[pe].sender.is_none()
        };
        if down {
            self.emit(NetEvent::PeerLost {
                pe,
                incarnation: conn_epoch,
                reason,
            });
        }
    }

    /// Merge a peer table and dial whichever lower peers we lack. (The
    /// higher PE always dials, so entries above `me` are address book
    /// updates only — those peers dial us.)
    fn handle_table(self: &Arc<Self>, t: Table) {
        let mut dial = Vec::new();
        {
            let mut peers = self.peers();
            for e in &t.entries {
                let pe = e.pe as usize;
                let Some(slot) = peers.get_mut(pe) else {
                    continue;
                };
                slot.book = Some(e.addr);
                if pe < self.me && (slot.sender.is_none() || slot.epoch < e.epoch) {
                    dial.push((pe, e.epoch));
                }
            }
        }
        for (pe, epoch) in dial {
            let me = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name(format!("net-dial-{pe}"))
                .spawn(move || {
                    let gen = me.peers()[pe].gen;
                    me.reconnect(pe, epoch, gen, "table update".to_string());
                });
            drop(spawned);
        }
    }

    /// Validate an inbound handshake and install the connection.
    fn handshake_in(self: &Arc<Self>, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.cfg.connect_timeout));
        let mut s = &stream;
        let hello = match frame::read_frame(&mut s, self.cfg.max_frame) {
            Ok((K_HELLO, payload)) => match Hello::decode(&payload) {
                Ok(h) => h,
                Err(_) => {
                    self.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            },
            Ok(_) => {
                self.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => {
                self.counters.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let pe = hello.pe as usize;
        let cur = self.cur_epoch();
        // Fencing: wrong run, wrong topology, wrong dial direction, or a
        // zombie from before a restart — all rejected at the door.
        if hello.nonce != self.nonce
            || hello.npes as usize != self.npes
            || pe >= self.npes
            || pe <= self.me
            || hello.epoch < cur
        {
            self.counters
                .stale_conn_rejected
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Accepted: answer with our own hello so the dialer knows the
        // connection is admitted (a rejection above just closes it).
        let mut s = &stream;
        let ack = frame::sealed(K_HELLO, &[&self.my_hello().encode()]);
        if s.write_all(&ack).is_err() {
            return;
        }
        let advertised = stream
            .peer_addr()
            .ok()
            .map(|a| SocketAddr::new(a.ip(), hello.listen_port));
        self.install(pe, hello.epoch, advertised, stream);
    }

    /// Accept loop: a blocking `accept`, so a dialer's handshake starts the
    /// moment it connects. Shutdown sets `shutting` and then connects to
    /// the listen address itself ([`Shared::wake_listener`]); whatever
    /// `accept` returns once the flag is set is dropped unread and the loop
    /// ends, closing the listener with it. A wake that fails only delays
    /// the exit to the next dialer, who is turned away the same way.
    fn accept_loop(self: &Arc<Self>, listener: TcpListener) {
        loop {
            let accepted = listener.accept();
            if self.shutting.load(Ordering::SeqCst) {
                return;
            }
            match accepted {
                Ok((stream, _)) => {
                    let me = Arc::clone(self);
                    let spawned = std::thread::Builder::new()
                        .name("net-accept".to_string())
                        .spawn(move || me.handshake_in(stream));
                    drop(spawned);
                }
                // Out of descriptors and the like: the error comes straight
                // back, so back off rather than spin on it.
                Err(_) => pause(Duration::from_millis(10)),
            }
        }
    }

    /// Knock on our own listener so a blocked `accept` returns and sees
    /// `shutting` (set by the caller first). A node bound to an unspecified
    /// address is reached over loopback.
    fn wake_listener(&self, budget: Duration) {
        let ip = match self.listen_addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let addr = SocketAddr::new(ip, self.listen_addr.port());
        let _ = TcpStream::connect_timeout(&addr, budget.max(Duration::from_millis(1)));
    }

    /// The send handle of `dst`'s live connection.
    fn sender(&self, dst: usize) -> Result<Arc<PeerSender>, NetError> {
        let peers = self.peers();
        let slot = peers.get(dst).and_then(|s| s.sender.clone());
        slot.ok_or(NetError::PeerDown { pe: dst })
    }

    /// Queue a frame made by [`frame::build`] on `dst`'s writer.
    fn send_frame(&self, dst: usize, frame: Vec<u8>) -> Result<(), NetError> {
        self.sender(dst)?.send(dst, frame, self.cfg.send_timeout)
    }

    /// Send `[header | me | bytes]` to `dst`: from this thread, uncopied,
    /// when the frame is large and nothing is queued ahead of it, else
    /// built and queued ([`PeerSender::send_from`]).
    fn send_from_me(&self, dst: usize, kind: u8, bytes: &[u8]) -> Result<(), NetError> {
        let me = (self.me as u32).to_le_bytes();
        self.sender(dst)?
            .send_from(dst, kind, &me, bytes, self.cfg.send_timeout)
    }
}

/// One process's endpoint in the mesh. See the crate docs for the
/// lifecycle; the runtime driver is the only intended consumer.
pub struct NetNode {
    shared: Arc<Shared>,
    events: mpsc::Receiver<NetEvent>,
    /// Fires when the listener thread has exited and the port is closed.
    listener: Exited,
}

impl NetNode {
    fn bind(
        cfg: &NetCfg,
        me: usize,
        npes: usize,
        nonce: u64,
        epoch: u64,
    ) -> Result<NetNode, NetError> {
        let bind_to = if me == 0 {
            cfg.root_addr
                .unwrap_or_else(|| SocketAddr::new(cfg.bind_ip, 0))
        } else {
            SocketAddr::new(cfg.bind_ip, 0)
        };
        let listener = TcpListener::bind(bind_to)?;
        let listen_addr = listener.local_addr()?;
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            me,
            npes,
            nonce,
            cfg: cfg.clone(),
            listen_addr,
            epoch: AtomicU64::new(epoch),
            shutting: AtomicBool::new(false),
            #[expect(
                clippy::disallowed_methods,
                clippy::disallowed_types,
                reason = "blocking: constructing the shared peer table; see the field declaration"
            )]
            peers: Mutex::new((0..npes).map(|_| Slot::default()).collect()),
            installed: Condvar::new(),
            events: tx,
            counters: Arc::new(Counters::default()),
        });
        let accept = Arc::clone(&shared);
        let (alive, listener_exited) = Exited::pair();
        std::thread::Builder::new()
            .name(format!("net-listen-{me}"))
            .spawn(move || {
                accept.accept_loop(listener);
                drop(alive);
            })
            .map_err(|e| NetError::Io(std::io::ErrorKind::Other, e.to_string()))?;
        Ok(NetNode {
            shared,
            events: rx,
            listener: listener_exited,
        })
    }

    /// Bind the root's endpoint (PE 0). Workers are awaited separately so
    /// the caller can spawn them knowing the actual listen address.
    pub fn root(cfg: &NetCfg, npes: usize, nonce: u64) -> Result<NetNode, NetError> {
        NetNode::bind(cfg, 0, npes, nonce, 0)
    }

    /// Root: wait for every worker's handshake, then broadcast the peer
    /// table that completes the mesh.
    pub fn await_workers(&self) -> Result<(), NetError> {
        self.wait_mesh(self.shared.cfg.rendezvous_timeout)?;
        self.broadcast_table();
        Ok(())
    }

    /// Bootstrap a worker: bind, dial the root, then wait for the table
    /// and the full mesh.
    pub fn worker(
        cfg: &NetCfg,
        me: usize,
        npes: usize,
        nonce: u64,
        root: SocketAddr,
        epoch: u64,
    ) -> Result<NetNode, NetError> {
        let node = NetNode::bind(cfg, me, npes, nonce, epoch)?;
        node.shared.peers()[0].book = Some(root);
        let deadline = now() + cfg.rendezvous_timeout;
        // The root may not be listening yet under an external launcher;
        // keep dialing until the rendezvous window closes.
        loop {
            match node.shared.dial(0, root) {
                Ok(()) => break,
                Err(e) => {
                    if now() >= deadline {
                        return Err(NetError::Bootstrap(format!(
                            "worker {me} could not reach root at {root}: {e}"
                        )));
                    }
                    pause(Duration::from_millis(50));
                }
            }
        }
        node.wait_mesh(deadline.saturating_duration_since(now()))?;
        Ok(node)
    }

    /// Wait until every remote slot has a live connection: each `install`
    /// wakes the wait, and `budget` bounds it.
    fn wait_mesh(&self, budget: Duration) -> Result<(), NetError> {
        let deadline = now() + budget;
        let (me, npes) = (self.shared.me, self.shared.npes);
        let down = |peers: &[Slot], p: usize| p != me && peers[p].sender.is_none();
        let mut peers = self.shared.peers();
        while (0..npes).any(|p| down(&peers, p)) {
            let left = deadline.saturating_duration_since(now());
            if left.is_zero() {
                let missing: Vec<usize> = (0..npes).filter(|&p| down(&peers, p)).collect();
                return Err(NetError::Bootstrap(format!(
                    "mesh incomplete after {budget:?}: no connection to PE(s) {missing:?}"
                )));
            }
            peers = match self.shared.installed.wait_timeout(peers, left) {
                Ok((g, _)) => g,
                Err(e) => e.into_inner().0,
            };
        }
        Ok(())
    }

    /// The local listener's address.
    pub fn listen_addr(&self) -> SocketAddr {
        self.shared.listen_addr
    }

    /// The lifecycle/payload event stream.
    pub fn events(&self) -> &mpsc::Receiver<NetEvent> {
        &self.events
    }

    /// Current recovery epoch as the transport knows it.
    pub fn epoch(&self) -> u64 {
        self.shared.cur_epoch()
    }

    /// Raise the transport's epoch fence (root, at the start of a
    /// recovery). Monotone.
    pub fn set_epoch(&self, e: u64) {
        self.shared.epoch.fetch_max(e, Ordering::SeqCst);
    }

    /// Ship an encoded envelope to `dst`.
    pub fn send_payload(&self, dst: usize, env: &[u8]) -> Result<(), NetError> {
        self.shared.send_from_me(dst, K_PAYLOAD, env)
    }

    /// Worker: ship the end-of-run counter block to the root.
    pub fn send_stats(&self, bytes: &[u8]) -> Result<(), NetError> {
        self.shared.send_from_me(0, K_STATS, bytes)
    }

    /// Queue a copy of `frame` on every live peer's writer.
    #[expect(clippy::disallowed_methods, reason = "payload-copy: control frames")]
    fn broadcast(&self, frame: &[u8]) {
        for pe in 0..self.shared.npes {
            if pe != self.shared.me {
                let _ = self.shared.send_frame(pe, frame.to_vec());
            }
        }
    }

    /// Root: announce a recovery restart to every live peer (and fence the
    /// local transport first).
    pub fn broadcast_restart(&self, epoch: u64, generation: u64) {
        self.set_epoch(epoch);
        let restart = Restart { epoch, generation };
        self.broadcast(&frame::build(K_RESTART, &[&restart.encode()]));
    }

    /// Root: broadcast the current peer table (bootstrap completion, and
    /// after every readmission so survivors re-dial the newcomer).
    pub fn broadcast_table(&self) {
        let table = {
            let peers = self.shared.peers();
            let mut entries = vec![TableEntry {
                pe: self.shared.me as u32,
                epoch: self.shared.cur_epoch(),
                addr: self.shared.listen_addr,
            }];
            for (pe, slot) in peers.iter().enumerate() {
                if pe == self.shared.me {
                    continue;
                }
                if let Some(addr) = slot.advertised {
                    entries.push(TableEntry {
                        pe: pe as u32,
                        epoch: slot.epoch,
                        addr,
                    });
                }
            }
            Table {
                epoch: self.shared.cur_epoch(),
                entries,
            }
        };
        self.broadcast(&frame::build(K_TABLE, &[&table.encode()]));
    }

    /// Whether `pe` has a live connection.
    pub fn peer_live(&self, pe: usize) -> bool {
        pe < self.shared.npes && self.shared.peers()[pe].sender.is_some()
    }

    /// Whether `pe` is live on a connection admitted at exactly `epoch`
    /// (readmission check after a respawn).
    pub fn peer_at_epoch(&self, pe: usize, epoch: u64) -> bool {
        if pe >= self.shared.npes {
            return false;
        }
        let peers = self.shared.peers();
        peers[pe].sender.is_some() && peers[pe].epoch == epoch
    }

    /// Whether `pe`'s current/last connection ended with a clean goodbye.
    pub fn peer_bye(&self, pe: usize) -> bool {
        pe < self.shared.npes && self.shared.peers()[pe].bye
    }

    /// Snapshot the transport counters.
    pub fn counters(&self) -> CounterSnapshot {
        let c = &self.shared.counters;
        CounterSnapshot {
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            frames_recv: c.frames_recv.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: c.bytes_recv.load(Ordering::Relaxed),
            pings_sent: c.pings_sent.load(Ordering::Relaxed),
            pings_recv: c.pings_recv.load(Ordering::Relaxed),
            reconnects: c.reconnects.load(Ordering::Relaxed),
            disconnects: c.disconnects.load(Ordering::Relaxed),
            stale_conn_rejected: c.stale_conn_rejected.load(Ordering::Relaxed),
            corrupt_frames: c.corrupt_frames.load(Ordering::Relaxed),
            proto_errors: c.proto_errors.load(Ordering::Relaxed),
            byes_recv: c.byes_recv.load(Ordering::Relaxed),
        }
    }

    /// Abrupt teardown: sever every socket with no goodbye and stop the
    /// listener. From the peers' point of view this is indistinguishable
    /// from a process death — which is exactly its purpose: in-process
    /// fault-injection tests use it where the multi-process suite uses a
    /// real `SIGKILL`, and the runtime driver uses it to abandon a run
    /// whose drain already failed.
    pub fn kill(&self) {
        self.shared.shutting.store(true, Ordering::SeqCst);
        self.shared.wake_listener(self.shared.cfg.connect_timeout);
        {
            let mut peers = self.shared.peers();
            for slot in peers.iter_mut() {
                slot.sender = None; // writers exit on disconnect, silently
                slot.exited = None;
                if let Some(raw) = slot.raw.take() {
                    let _ = raw.shutdown(std::net::Shutdown::Both);
                }
            }
        }
        // Bounded like the wake itself; an abrupt teardown reports nothing.
        self.listener.wait(now() + self.shared.cfg.connect_timeout);
    }

    /// Graceful shutdown: stop admission and supervision, ask every writer
    /// to drain its queue and say goodbye, and wait for the flushes and the
    /// listener's exit, all within `timeout`.
    pub fn drain(&self, timeout: Duration) -> Result<(), NetError> {
        let deadline = now() + timeout;
        self.shared.shutting.store(true, Ordering::SeqCst);
        self.shared.wake_listener(timeout);
        let taken: Vec<(Arc<PeerSender>, Option<Exited>)> = {
            let mut peers = self.shared.peers();
            peers
                .iter_mut()
                .filter_map(|s| Some((s.sender.take()?, s.exited.take())))
                .collect()
        };
        let exits: Vec<Exited> = taken
            .into_iter()
            .filter_map(|(sender, exited)| {
                sender.close(timeout / 4);
                // The handle drops here; the writer exits after the queued
                // Close (or the disconnect) reaches it.
                exited
            })
            .collect();
        let flushing = exits.iter().filter(|e| !e.wait(deadline)).count();
        if flushing > 0 {
            return Err(NetError::Drain(format!(
                "{flushing} writer(s) still flushing after {timeout:?}"
            )));
        }
        if !self.listener.wait(deadline) {
            return Err(NetError::Drain(format!(
                "listener still open after {timeout:?}"
            )));
        }
        Ok(())
    }
}

impl Drop for NetNode {
    /// A node nobody drained or killed goes down as [`NetNode::kill`] takes
    /// it: the listener closes, the connections are severed and the peers
    /// see them go down. Without this it would go on admitting dialers and
    /// heartbeating its connections with no owner left to use them.
    fn drop(&mut self) {
        if !self.shared.shutting.load(Ordering::SeqCst) {
            self.kill();
        }
    }
}
