//! The two halves of one connection: the write half, which its writer
//! thread and the senders of large frames share, and the frame reader the
//! connection's reader thread pulls from.
//!
//! A frame leaves by one of two ways, chosen by its size:
//!
//! * *Below [`LARGE`]* it is built into one `[header | payload]` buffer
//!   ([`frame::build`], the one copy of its payload) and queued for the
//!   connection's writer thread. Each wake-up of the writer seals the frame
//!   that woke it and every frame queued behind it, up to [`BATCH`], and
//!   puts them on the wire with one `writev` (the tests below count). The
//!   queue keeps the scheduler's send path non-blocking up to its bound;
//!   backpressure past it is a *signal*: a peer that cannot drain the queue
//!   for a whole send timeout is treated like a dead one.
//! * *At [`LARGE`] or more*, with nothing queued ahead of it, it leaves from
//!   the caller's thread: the checksum is summed over the borrowed slices
//!   ([`frame::header_of`]) and `[header | src | body]` goes out in one
//!   vectored write under the lock the writer takes for each batch. The
//!   payload is not copied and no thread is woken. The send timeout is the
//!   socket's write timeout, so it bounds this write as it bounds a wait on
//!   a full queue; a write that fails or times out severs the connection,
//!   so the peer reads a torn frame, never one spliced onto the next.
//!   A large frame that finds frames queued ahead of it is queued too, so
//!   each sender's frames reach the wire in the order it sent them
//!   ([`Link::queued`]).
//!
//! The writer doubles as the heartbeat source: whenever the connection has
//! carried no frame, queued or direct, for `heartbeat_every`, it emits a
//! ping, so the peer's read timeout only ever fires on genuine silence.
//!
//! The reader takes the `src` prefix off a payload before reading the body
//! straight into the buffer that becomes the event's [`Body`]; a large one
//! comes back to the reader when the consumer drops it ([`Returns`]). The
//! socket has `TCP_NODELAY` and no user-space buffer in front of it, so
//! there is nothing to flush.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::frame::{self, FrameError};
use crate::node::{now, pause, Counters, Exited};
use crate::proto::{K_BYE, K_PAYLOAD, K_PING, K_STATS};

/// What the owning node asks of a writer.
pub(crate) enum WriteCmd {
    /// Emit one frame: an unsealed `[header | payload]` buffer.
    Frame(Vec<u8>),
    /// Drain the queue, send `Bye`, close the write half, exit.
    Close,
}

/// Body sizes whose buffers go round a connection's receiving loop, back
/// from the consumer to the reader ([`Returns`]). Below the range the
/// allocator serves a buffer from a free list at no cost worth the
/// hand-over; inside it glibc gives the pages of a freed buffer back to the
/// kernel whenever they end up next to the top of a heap, and the next
/// frame faults them in again, zeroed, one page at a time. Above the range
/// frames are rare, and keeping them would make the bound on what a
/// connection holds meaningless.
const SPARE_LENS: std::ops::RangeInclusive<usize> = 64 << 10..=2 << 20;
/// Smallest frame, header included, that leaves from the sender's thread
/// when nothing is queued ahead of it. Below it a frame costs a slot in a
/// writer's batch; sent directly, each would cost a syscall of its own.
const LARGE: usize = *SPARE_LENS.start();
/// Outbound queue depth per connection, in frames: a send that finds it
/// full for a whole send timeout treats the peer as collapsed.
const QUEUE_CAP: usize = 1024;
/// Most frames one wake-up of the writer puts on the socket in one
/// vectored call. A burst longer than this takes one call per `BATCH`.
const BATCH: usize = 64;

/// Most dropped bodies on their way back to the reader at once; one more
/// is freed. Eight is the benchmark's stream window, so at most 16 MiB a
/// connection.
const SPARE_FRAMES: usize = 8;

/// A connection's write half: the socket, or a test double.
pub(crate) trait WriteHalf: Write {
    /// Cut the connection both ways: the peer reads a torn frame where a
    /// write stopped, and every later write fails.
    fn sever(&mut self);
}

impl WriteHalf for TcpStream {
    fn sever(&mut self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// What the lock on a write half guards.
struct Out<W> {
    w: W,
    /// When a sender last finished writing a frame itself: traffic, so the
    /// writer pings no sooner than `heartbeat_every` after it.
    direct_at: Option<Instant>,
}

/// One connection's write half, shared by its writer thread and the
/// senders of large frames.
pub(crate) struct Link<W> {
    // analyze: allow(net-hook, "the write half: held by the writer for one batch or by a sender for one large frame, each write bounded by the socket's write timeout")
    half: Mutex<Out<W>>,
    /// Frames queued and not yet written, plus one for a `Close`. A sender
    /// counts a frame before it queues it; the writer takes a batch's count
    /// back only once the batch is wholly written, under the lock, and never
    /// takes back a `Close`'s. A large frame that reads 0 here under the
    /// lock has nothing of its sender's ahead of it, and a connection that
    /// is closing takes no direct frame. `Relaxed` throughout: the read
    /// that decides a direct write and the writer's take-back are both made
    /// under the lock, which orders them, and a sender's own count comes
    /// before its later sends in program order.
    queued: AtomicUsize,
    counters: Arc<Counters>,
}

impl<W> Link<W> {
    fn new(w: W, counters: Arc<Counters>) -> Link<W> {
        Link {
            // analyze: allow(net-hook, "constructing the write half's lock; see the field declaration")
            half: Mutex::new(Out { w, direct_at: None }),
            queued: AtomicUsize::new(0),
            counters,
        }
    }

    /// The write half, locked.
    fn out(&self) -> MutexGuard<'_, Out<W>> {
        // analyze: allow(net-hook, "single lock helper for the write half; a panic while it is held only ends the connection")
        self.half.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `frames` of `bytes` in all have left.
    fn count(&self, frames: usize, bytes: usize) {
        let c = &self.counters;
        c.frames_sent.fetch_add(frames as u64, Ordering::Relaxed);
        c.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Handle to one connection's write half and writer thread. Dropping the
/// last handle (without `close`) makes the writer exit silently — the
/// teardown used when a connection is superseded rather than drained.
pub(crate) struct PeerSender<W = TcpStream> {
    tx: SyncSender<WriteCmd>,
    link: Arc<Link<W>>,
}

impl<W: WriteHalf> PeerSender<W> {
    /// Send the frame whose payload is `src` then `body` to `pe`: written
    /// here when it is large and nothing is queued ahead of it, queued for
    /// the writer otherwise. Either way it is counted once it has left.
    pub(crate) fn send_from(
        &self,
        pe: usize,
        kind: u8,
        src: &[u8],
        body: &[u8],
        timeout: Duration,
    ) -> Result<(), NetError> {
        let parts = [src, body];
        let len = frame::HDR_LEN + src.len() + body.len();
        // A look without the lock first: most frames are small, and a
        // large one behind a queue needs no sum.
        if len >= LARGE && self.link.queued.load(Ordering::Relaxed) == 0 {
            let hdr = frame::header_of(kind, &parts);
            let deadline = now() + timeout;
            let mut out = self.link.out();
            if self.link.queued.load(Ordering::Relaxed) == 0 {
                let mut slices = [&hdr[..], src, body].map(IoSlice::new);
                if let Err(e) = write_all(&mut out.w, &mut slices, Some(deadline)) {
                    out.w.sever();
                    return Err(match e.kind() {
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                            NetError::QueueTimeout { pe }
                        }
                        _ => e.into(),
                    });
                }
                out.direct_at = Some(now());
                drop(out);
                self.link.count(1, len);
                return Ok(());
            }
        }
        self.send(pe, frame::build(kind, &parts), timeout)
    }

    /// Queue a built frame, waiting up to `timeout` on a full queue.
    pub(crate) fn send(
        &self,
        pe: usize,
        frame: Vec<u8>,
        timeout: Duration,
    ) -> Result<(), NetError> {
        self.queue(WriteCmd::Frame(frame), timeout)
            .map_err(|e| match e {
                TrySendError::Full(_) => NetError::QueueTimeout { pe },
                TrySendError::Disconnected(_) => NetError::PeerDown { pe },
            })
    }

    /// Ask the writer to drain, say goodbye and exit. Best-effort: gives up
    /// after `budget` if the queue never opens (the drain deadline catches
    /// the writer either way).
    pub(crate) fn close(&self, budget: Duration) {
        let _ = self.queue(WriteCmd::Close, budget);
    }

    /// Count `cmd` in [`Link::queued`] and queue it, waiting up to `timeout`
    /// on a full queue; uncounted again if it is not queued.
    fn queue(&self, mut cmd: WriteCmd, timeout: Duration) -> Result<(), TrySendError<WriteCmd>> {
        self.link.queued.fetch_add(1, Ordering::Relaxed);
        let mut deadline = None;
        loop {
            cmd = match self.tx.try_send(cmd) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(c))
                    if now() < *deadline.get_or_insert_with(|| now() + timeout) =>
                {
                    c
                }
                Err(e) => {
                    self.link.queued.fetch_sub(1, Ordering::Relaxed);
                    return Err(e);
                }
            };
            pause(Duration::from_millis(1));
        }
    }
}

/// Spawn the writer thread for one connection; the second handle fires
/// when the thread has exited, so a drain can wait for the last write with
/// a deadline. `epoch` is stamped into heartbeat pings.
pub(crate) fn spawn_writer(
    pe: usize,
    stream: TcpStream,
    heartbeat_every: Duration,
    epoch: u64,
    counters: Arc<Counters>,
) -> (PeerSender, Exited) {
    let (tx, rx) = sync_channel::<WriteCmd>(QUEUE_CAP);
    let link = Arc::new(Link::new(stream, counters));
    let (alive, exited) = Exited::pair();
    let writer = Arc::clone(&link);
    let builder = std::thread::Builder::new().name(format!("net-wr-{pe}"));
    let spawned = builder.spawn(move || {
        if writer_loop(&writer, &rx, heartbeat_every, epoch).unwrap_or(false) {
            // After the goodbye: the peer's reader sees EOF, not a death.
            let _ = writer.out().w.shutdown(Shutdown::Write);
        }
        drop(alive);
    });
    if spawned.is_err() {
        // No writer, no connection: the reader sees it go down and the peer
        // lifecycle takes over; sends meet a queue with no receiver.
        link.out().w.sever();
    }
    (PeerSender { tx, link }, exited)
}

/// Put all of `rest` on `out`, one vectored call at a time, resuming a
/// short write where it stopped. With a `deadline`, a write still short
/// when it passes fails as timed out.
fn write_all<W: Write>(
    out: &mut W,
    mut rest: &mut [IoSlice<'_>],
    deadline: Option<Instant>,
) -> io::Result<()> {
    while !rest.is_empty() {
        match out.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if !rest.is_empty() && deadline.is_some_and(|d| now() >= d) {
            return Err(io::ErrorKind::TimedOut.into());
        }
    }
    Ok(())
}

/// Put every frame in `batch`, sealed, on the wire through `out` (the
/// locked write half of `link`) with one vectored call, more only if the
/// socket takes less than offered; then take back the count of the
/// `queued` frames among them and count them all as sent. Leaves `batch`
/// empty. A failed write severs the connection.
fn write_batch<W: WriteHalf>(
    link: &Link<W>,
    out: &mut Out<W>,
    batch: &mut Vec<Vec<u8>>,
    queued: usize,
) -> io::Result<()> {
    let mut slices = [IoSlice::new(&[]); BATCH];
    for (slice, buf) in slices.iter_mut().zip(batch.iter()) {
        *slice = IoSlice::new(buf);
    }
    if let Err(e) = write_all(&mut out.w, &mut slices[..batch.len()], None) {
        out.w.sever();
        return Err(e);
    }
    link.queued.fetch_sub(queued, Ordering::Relaxed);
    link.count(batch.len(), batch.iter().map(Vec::len).sum());
    batch.clear();
    Ok(())
}

/// Drain `rx` into `link` until told to close (`Ok(true)`: the goodbye
/// went out), the queue's senders are gone (`Ok(false)`), or a write fails.
/// Each wake-up takes the frame that woke it and whatever else is queued at
/// that moment, up to [`BATCH`] frames, without waiting for more, so a
/// lone frame leaves the moment it arrives.
fn writer_loop<W: WriteHalf>(
    link: &Link<W>,
    rx: &Receiver<WriteCmd>,
    heartbeat_every: Duration,
    epoch: u64,
) -> io::Result<bool> {
    let mut batch = Vec::with_capacity(BATCH);
    let mut closing = false;
    let mut idle = heartbeat_every;
    loop {
        let first = if closing {
            // Frames queued behind a Close were sent after the drain
            // began; they still go out ahead of the Bye.
            match rx.try_recv() {
                Ok(cmd) => cmd,
                Err(_) => {
                    batch.push(frame::sealed(K_BYE, &[]));
                    write_batch(link, &mut link.out(), &mut batch, 0)?;
                    return Ok(true);
                }
            }
        } else {
            match rx.recv_timeout(idle) {
                Ok(cmd) => cmd,
                Err(RecvTimeoutError::Timeout) => {
                    let mut out = link.out();
                    // A frame a sender wrote itself is traffic too: wait
                    // out the rest of the interval since it left.
                    let left = out
                        .direct_at
                        .and_then(|at| {
                            heartbeat_every.checked_sub(now().saturating_duration_since(at))
                        })
                        .filter(|left| !left.is_zero());
                    if let Some(left) = left {
                        idle = left;
                        continue;
                    }
                    // Idle: prove liveness.
                    batch.push(frame::sealed(K_PING, &[&epoch.to_le_bytes()]));
                    write_batch(link, &mut out, &mut batch, 0)?;
                    link.counters.pings_sent.fetch_add(1, Ordering::Relaxed);
                    idle = heartbeat_every;
                    continue;
                }
                // The sender was dropped: the connection was superseded.
                // Nothing is held back here, so just leave, no goodbye.
                Err(RecvTimeoutError::Disconnected) => return Ok(false),
            }
        };
        idle = heartbeat_every;
        // A Close ends the batch.
        let mut next = Some(first);
        while let Some(cmd) = next {
            let WriteCmd::Frame(mut buf) = cmd else {
                closing = true;
                break;
            };
            frame::seal(&mut buf);
            batch.push(buf);
            next = if batch.len() < BATCH {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        if !batch.is_empty() {
            let queued = batch.len();
            write_batch(link, &mut link.out(), &mut batch, queued)?;
        }
    }
}

/// The bytes of one received frame after its `src` prefix: what a
/// [`NetEvent::Payload`](crate::NetEvent::Payload) or `Stats` carries.
/// Reads as a `[u8]`. A buffer in [`SPARE_LENS`] goes back to the
/// connection's reader when the body is dropped, for the next frame of
/// that range; any other is freed as a `Vec` would be.
pub struct Body {
    bytes: Vec<u8>,
    /// The reader's loop, for an in-range buffer only.
    home: Option<SyncSender<Vec<u8>>>,
}

impl Body {
    /// The bytes, as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }
}

impl Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl Drop for Body {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            // A full loop or a gone reader: the buffer is freed here.
            let _ = home.try_send(std::mem::take(&mut self.bytes));
        }
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.bytes.fmt(f)
    }
}

impl PartialEq<[u8]> for Body {
    fn eq(&self, other: &[u8]) -> bool {
        self.bytes == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Body {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.bytes == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Body {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.bytes == *other
    }
}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.bytes == *other
    }
}

/// The reader's end of a connection's receive loop: where dropped
/// [`Body`]s in [`SPARE_LENS`] come back, oldest first, and where the next
/// body of that range is read into. Not a cache of anything: a buffer here
/// is one the connection delivered a moment ago, so the loop is full-grown
/// after the first window of large messages and holds nothing for a
/// connection that moves none.
pub(crate) struct Returns {
    home: SyncSender<Vec<u8>>,
    back: Receiver<Vec<u8>>,
}

impl Returns {
    pub(crate) fn new() -> Returns {
        let (home, back) = sync_channel(SPARE_FRAMES);
        Returns { home, back }
    }

    /// A buffer for a body of `len` bytes: one that came back if `len` is
    /// in range and one is there, else none (`Vec::new()`).
    fn take(&self, len: usize) -> Vec<u8> {
        if !SPARE_LENS.contains(&len) {
            return Vec::new();
        }
        self.back.try_recv().unwrap_or_default()
    }

    /// `bytes` as a body that comes back here if its buffer is in range.
    fn lease(&self, bytes: Vec<u8>) -> Body {
        let home = SPARE_LENS
            .contains(&bytes.capacity())
            .then(|| self.home.clone());
        Body { bytes, home }
    }
}

/// One inbound frame as the node consumes it.
pub(crate) struct Inbound {
    /// Frame kind byte.
    pub(crate) kind: u8,
    /// The sending PE, for the kinds whose payload starts with it.
    pub(crate) src: Option<u32>,
    /// The payload after that prefix.
    pub(crate) body: Body,
    /// Bytes the frame took on the wire, header included.
    pub(crate) wire_len: usize,
}

/// The read half: the next frame off `rd`. For payload and stats frames the
/// 4-byte `src` prefix is taken off *before* the body is read, so the body
/// lands in the buffer the event carries away, untouched afterwards: one
/// back from `returns` when the body is in range, else an exact-size `Vec`.
/// A frame of those kinds too short to hold the prefix comes back whole
/// with `src: None`.
pub(crate) fn next_frame<R: Read>(
    rd: &mut R,
    max_frame: usize,
    returns: &Returns,
) -> Result<Inbound, FrameError> {
    let head = frame::read_header(rd, max_frame)?;
    let mut src = [0u8; 4];
    let prefixed = matches!(head.kind, K_PAYLOAD | K_STATS) && head.len >= src.len();
    let prefix = if prefixed { &mut src[..] } else { &mut [] };
    let spare = returns.take(head.len - prefix.len());
    let body = frame::read_body_in(rd, &head, prefix, spare)?;
    Ok(Inbound {
        kind: head.kind,
        src: prefixed.then_some(u32::from_le_bytes(src)),
        body: returns.lease(body),
        wire_len: frame::HDR_LEN + head.len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts the calls a writer makes and keeps the bytes. A vectored
    /// call is one call that takes every slice, as `writev` does (the
    /// default impl would take only the first and hide the batch), unless
    /// `short` caps what one call takes or `fail` makes every call fail.
    #[derive(Default)]
    struct CountingWrite {
        calls: usize,
        bytes: Vec<u8>,
        short: Option<usize>,
        fail: Option<io::ErrorKind>,
        severed: bool,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if let Some(kind) = self.fail {
                return Err(kind.into());
            }
            let mut room = self.short.unwrap_or(usize::MAX);
            let before = self.bytes.len();
            for buf in bufs {
                let take = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..take]);
                room -= take;
            }
            Ok(self.bytes.len() - before)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl WriteHalf for CountingWrite {
        fn sever(&mut self) {
            self.severed = true;
        }
    }

    fn payload_frame(src: u32, body: &[u8]) -> Vec<u8> {
        frame::build(K_PAYLOAD, &[&src.to_le_bytes(), body])
    }

    /// Every frame in `bytes`, and the error that ended the stream.
    fn read_all(bytes: &[u8]) -> (Vec<Inbound>, FrameError) {
        read_all_in(bytes, &Returns::new())
    }

    /// [`read_all`] with the bodies' buffers taken from `returns`.
    fn read_all_in(mut bytes: &[u8], returns: &Returns) -> (Vec<Inbound>, FrameError) {
        let mut got = Vec::new();
        loop {
            match next_frame(&mut bytes, frame::DEFAULT_MAX_FRAME, returns) {
                Ok(f) => got.push(f),
                Err(e) => return (got, e),
            }
        }
    }

    /// A sender whose frames go into `out`, and the writer's end of its
    /// queue. No writer runs until the test runs one.
    fn sender_into(out: CountingWrite) -> (PeerSender<CountingWrite>, Receiver<WriteCmd>) {
        let (tx, rx) = sync_channel(QUEUE_CAP);
        let link = Arc::new(Link::new(out, Arc::new(Counters::default())));
        (PeerSender { tx, link }, rx)
    }

    const SECS: Duration = Duration::from_secs(5);

    /// `sender` sends `body` from PE 1, as `NetNode::send_payload` does.
    fn send(sender: &PeerSender<CountingWrite>, body: &[u8]) -> Result<(), NetError> {
        sender.send_from(0, K_PAYLOAD, &1u32.to_le_bytes(), body, SECS)
    }

    /// What a connection's write half holds once its last handle is gone.
    struct Wrote {
        out: CountingWrite,
        counters: Arc<Counters>,
        /// [`Link::queued`] at the end.
        queued: usize,
    }

    impl Wrote {
        /// `(frames_sent, bytes_sent)`.
        fn sent(&self) -> (u64, u64) {
            let c = &self.counters;
            (
                c.frames_sent.load(Ordering::Relaxed),
                c.bytes_sent.load(Ordering::Relaxed),
            )
        }
    }

    /// The write half of `link`, its last handle.
    fn unwrap(link: Arc<Link<CountingWrite>>) -> Wrote {
        let link = Arc::into_inner(link).expect("the last handle");
        Wrote {
            out: link.half.into_inner().unwrap_or_else(|e| e.into_inner()).w,
            counters: link.counters,
            queued: link.queued.into_inner(),
        }
    }

    /// Drop `sender` and run a writer over what it queued, superseded (no
    /// goodbye) once the queue is empty: also whether it said goodbye.
    fn run(sender: PeerSender<CountingWrite>, rx: Receiver<WriteCmd>) -> (Wrote, bool) {
        let link = Arc::clone(&sender.link);
        drop(sender);
        let said_bye = writer_loop(&link, &rx, SECS, 0).unwrap();
        (unwrap(link), said_bye)
    }

    /// Run a writer into `out` over `cmds` queued ahead of it.
    fn run_writer(cmds: Vec<WriteCmd>, out: CountingWrite) -> (Wrote, bool) {
        let (sender, rx) = sender_into(out);
        for cmd in cmds {
            assert!(sender.queue(cmd, Duration::ZERO).is_ok());
        }
        run(sender, rx)
    }

    /// Run a writer over `frames` queued ahead of it: what it wrote and
    /// what it counted.
    fn write_all_of(frames: Vec<Vec<u8>>) -> Wrote {
        let cmds = frames.into_iter().map(WriteCmd::Frame).collect();
        let (wrote, said_bye) = run_writer(cmds, CountingWrite::default());
        assert!(!said_bye);
        assert_eq!(wrote.queued, 0, "every frame written is taken back");
        wrote
    }

    /// `n` 64-byte payload frames whose bodies tell them apart.
    fn small_frames(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| payload_frame(1, &[i as u8; 64])).collect()
    }

    /// `frames` sealed and laid end to end, as one write each would.
    fn sealed_one_at_a_time(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for f in frames {
            let mut f = f.clone();
            frame::seal(&mut f);
            wire.extend_from_slice(&f);
        }
        wire
    }

    #[test]
    fn a_queued_burst_leaves_in_one_writev_with_the_bytes_of_one_write_each() {
        let frames = small_frames(BATCH);
        let wrote = write_all_of(frames.clone());
        assert_eq!(wrote.out.calls, 1, "{BATCH} frames");
        assert_eq!(wrote.out.bytes, sealed_one_at_a_time(&frames));
        let len = frames.iter().map(Vec::len).sum::<usize>() as u64;
        assert_eq!(wrote.sent(), (BATCH as u64, len));
        let (got, end) = read_all(&wrote.out.bytes);
        assert_eq!(end, FrameError::Closed);
        assert_eq!(got.len(), BATCH);
        for (i, f) in got.iter().enumerate() {
            assert_eq!((f.kind, f.src), (K_PAYLOAD, Some(1)));
            assert_eq!(f.body, [i as u8; 64], "frame {i}");
        }
    }

    #[test]
    fn a_burst_past_the_bound_takes_one_call_per_batch() {
        let frames = small_frames(2 * BATCH + 1);
        let wrote = write_all_of(frames.clone());
        assert_eq!(wrote.out.calls, 3);
        assert_eq!(wrote.out.bytes, sealed_one_at_a_time(&frames));
    }

    #[test]
    fn a_short_write_resumes_where_it_stopped() {
        let mut frames = small_frames(5);
        frames.insert(2, payload_frame(1, &varied(1000)));
        for short in [1, 7, 84, 85, 1000] {
            let out = CountingWrite {
                short: Some(short),
                ..CountingWrite::default()
            };
            let cmds = frames.iter().cloned().map(WriteCmd::Frame).collect();
            let (wrote, _) = run_writer(cmds, out);
            let wire = sealed_one_at_a_time(&frames);
            assert_eq!(wrote.out.bytes, wire, "{short} bytes a call");
            assert_eq!(wrote.out.calls, wire.len().div_ceil(short));
            assert_eq!(wrote.sent().0, 6);
        }
    }

    #[test]
    fn frames_queued_around_a_close_go_out_then_one_bye_last() {
        let frames = small_frames(6);
        let mut cmds: Vec<WriteCmd> = frames.iter().cloned().map(WriteCmd::Frame).collect();
        cmds.insert(4, WriteCmd::Close);
        let (wrote, said_bye) = run_writer(cmds, CountingWrite::default());
        assert!(said_bye);
        assert_eq!(wrote.queued, 1, "a Close is never taken back");
        let (got, end) = read_all(&wrote.out.bytes);
        assert_eq!(end, FrameError::Closed);
        assert_eq!(got.len(), 7);
        for (i, f) in got[..6].iter().enumerate() {
            assert_eq!((f.kind, f.src), (K_PAYLOAD, Some(1)));
            assert_eq!(f.body, [i as u8; 64], "frame {i}");
        }
        assert_eq!(got[6].kind, K_BYE);
        assert_eq!(wrote.sent().0, 7);
    }

    #[test]
    fn one_queued_frame_of_any_size_is_one_write() {
        for n in [0, 64, 4096, 1 << 20] {
            let body = vec![0xA5u8; n];
            let wrote = write_all_of(vec![payload_frame(1, &body)]);
            assert_eq!(wrote.out.calls, 1, "{n}-byte body");
            assert_eq!(wrote.sent(), (1, (frame::HDR_LEN + 4 + n) as u64));
            let (got, end) = read_all(&wrote.out.bytes);
            assert_eq!(end, FrameError::Closed);
            assert_eq!(got.len(), 1);
            assert_eq!((got[0].src, got[0].body.as_slice()), (Some(1), &body[..]));
        }
    }

    #[test]
    fn a_large_frame_leaves_from_the_senders_thread_as_the_queued_one_would() {
        // Frames just below, at and just above the threshold, and 1 MiB.
        for len in [LARGE - 1, LARGE, LARGE + 1, 1 << 20] {
            let body = varied(len - frame::HDR_LEN - 4);
            let (sender, rx) = sender_into(CountingWrite::default());
            send(&sender, &body).expect("send");
            let direct = len >= LARGE;
            assert_eq!(sender.link.out().w.calls, usize::from(direct), "{len}");
            let (wrote, _) = run(sender, rx);
            assert_eq!(wrote.out.calls, 1, "one vectored call, {len}");
            let wire = frame::sealed(K_PAYLOAD, &[&1u32.to_le_bytes(), &body]);
            assert!(
                wrote.out.bytes == wire,
                "the bytes of the queued frame, {len}"
            );
            assert_eq!(wrote.sent(), (1, len as u64));
            assert_eq!(wrote.queued, 0);
        }
    }

    #[test]
    fn a_large_frame_behind_queued_ones_keeps_its_place_and_a_closing_link_takes_none() {
        let big = |i: u8| {
            let mut body = varied(1 << 20);
            body[0] = i;
            body
        };
        let (sender, rx) = sender_into(CountingWrite::default());
        let link = Arc::clone(&sender.link);
        std::thread::scope(|sc| {
            send(&sender, &[0; 64]).expect("send");
            send(&sender, &big(1)).expect("send");
            send(&sender, &[2; 64]).expect("send");
            assert_eq!(link.out().w.calls, 0, "behind a queued frame: queued");
            assert_eq!(link.queued.load(Ordering::Relaxed), 3);
            let writer = Arc::clone(&link);
            let writer = sc.spawn(move || writer_loop(&writer, &rx, SECS, 0));
            while link.queued.load(Ordering::Relaxed) != 0 {
                std::thread::yield_now();
            }
            // All written: the next large frame goes direct.
            let calls = link.out().w.calls;
            send(&sender, &big(3)).expect("send");
            assert_eq!(link.out().w.calls, calls + 1);
            send(&sender, &[4; 64]).expect("send");
            sender.close(SECS);
            assert!(writer.join().expect("writer").expect("said bye"));
            // Closed: a large frame goes to the queue, and finds it gone.
            assert_eq!(send(&sender, &big(5)), Err(NetError::PeerDown { pe: 0 }));
            drop(sender);
        });
        let wrote = unwrap(link);
        let (got, end) = read_all(&wrote.out.bytes);
        assert_eq!(end, FrameError::Closed);
        let kinds: Vec<u8> = got.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            [K_PAYLOAD, K_PAYLOAD, K_PAYLOAD, K_PAYLOAD, K_PAYLOAD, K_BYE]
        );
        let firsts: Vec<u8> = got[..5].iter().map(|f| f.body[0]).collect();
        assert_eq!(firsts, [0, 1, 2, 3, 4]);
        assert_eq!(wrote.sent().0, 6, "five payloads and the Bye");
    }

    #[test]
    fn a_failed_direct_write_severs_the_link_and_is_typed() {
        let body = varied(LARGE);
        let cases = [
            (Some(io::ErrorKind::WouldBlock), None, SECS),
            (Some(io::ErrorKind::ConnectionReset), None, SECS),
            // Short, and past the deadline when the first call returns.
            (None, Some(1000), Duration::ZERO),
        ];
        for (fail, short, timeout) in cases {
            let out = CountingWrite {
                fail,
                short,
                ..CountingWrite::default()
            };
            let (sender, rx) = sender_into(out);
            let err = sender
                .send_from(3, K_PAYLOAD, &1u32.to_le_bytes(), &body, timeout)
                .expect_err("no write");
            match fail {
                Some(io::ErrorKind::ConnectionReset) => {
                    assert!(matches!(
                        err,
                        NetError::Io(io::ErrorKind::ConnectionReset, _)
                    ))
                }
                _ => assert_eq!(err, NetError::QueueTimeout { pe: 3 }),
            }
            let (wrote, _) = run(sender, rx);
            assert!(wrote.out.severed, "{fail:?} {short:?}");
            assert_eq!(wrote.out.calls, 1, "no retry past the deadline");
            assert_eq!(wrote.sent(), (0, 0));
        }
    }

    #[test]
    fn a_writer_does_not_ping_a_link_that_carries_direct_frames() {
        let (sender, rx) = sender_into(CountingWrite::default());
        let link = Arc::clone(&sender.link);
        let every = Duration::from_millis(100);
        // When each send started and returned.
        let mut spans = Vec::new();
        std::thread::scope(|sc| {
            let writer = Arc::clone(&link);
            sc.spawn(move || writer_loop(&writer, &rx, every, 9));
            let body = vec![1u8; LARGE];
            for _ in 0..30 {
                let start = now();
                send(&sender, &body).expect("send");
                spans.push((start, now()));
                pause(Duration::from_millis(10));
            }
            // Quiet from here on: the pings come back.
            while link.counters.pings_sent.load(Ordering::Relaxed) == 0 {
                pause(Duration::from_millis(1));
            }
            drop(sender);
        });
        let wrote = unwrap(link);
        let (got, _) = read_all(&wrote.out.bytes);
        // A ping between payloads `n - 1` and `n` left at least `every`
        // after payload `n - 1` did, and before payload `n` did: only a
        // send that took that long (a stalled host) leaves room for one.
        let mut n = 0;
        for f in &got {
            if f.kind == K_PAYLOAD {
                n += 1;
            } else if (1..spans.len()).contains(&n) {
                let room = spans[n].1 - spans[n - 1].0;
                assert!(
                    room >= every,
                    "a ping {room:?} into the traffic, after frame {n}"
                );
            }
        }
        assert_eq!(n, spans.len());
        let last = got.last().expect("frames");
        assert_eq!(
            (last.kind, last.body.as_slice()),
            (K_PING, &9u64.to_le_bytes()[..])
        );
    }

    #[test]
    fn an_idle_writer_pings_with_its_epoch() {
        let (sender, rx) = sender_into(CountingWrite::default());
        let link = Arc::clone(&sender.link);
        std::thread::scope(|sc| {
            let writer = Arc::clone(&link);
            sc.spawn(move || writer_loop(&writer, &rx, Duration::from_millis(1), 9));
            while link.counters.pings_sent.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            drop(sender);
        });
        let wrote = unwrap(link);
        let (got, _) = read_all(&wrote.out.bytes);
        assert!(!got.is_empty());
        assert_eq!(wrote.out.calls, got.len(), "one write per ping");
        for f in got {
            assert_eq!((f.kind, f.src), (K_PING, None));
            assert_eq!(f.body, 9u64.to_le_bytes());
        }
    }

    #[test]
    fn a_payload_too_short_for_its_prefix_comes_back_whole() {
        let (got, end) = read_all(&frame::sealed(K_PAYLOAD, &[&[1, 2]]));
        assert_eq!(end, FrameError::Closed);
        assert_eq!((got[0].src, got[0].body.as_slice()), (None, &[1u8, 2][..]));
    }

    #[test]
    fn truncation_at_every_offset_is_closed_or_torn() {
        let body = [7u8; 40];
        let bytes = frame::sealed(K_PAYLOAD, &[&1u32.to_le_bytes(), &body]);
        for cut in 0..bytes.len() {
            let (got, end) = read_all(&bytes[..cut]);
            assert!(got.is_empty());
            let want = match cut {
                0 => FrameError::Closed,
                c if c < frame::HDR_LEN => FrameError::Torn {
                    needed: frame::HDR_LEN,
                    got: c,
                },
                c => FrameError::Torn {
                    needed: 4 + body.len(),
                    got: c - frame::HDR_LEN,
                },
            };
            assert_eq!(end, want, "cut at {cut}");
        }
    }

    /// A body of `len` bytes that differ from their neighbours.
    fn varied(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31) >> 3) as u8).collect()
    }

    #[test]
    fn a_returned_buffer_longer_than_the_body_holds_exactly_the_body() {
        let lo = *SPARE_LENS.start();
        let returns = Returns::new();
        returns.home.send(vec![0xEE; 2 * lo]).unwrap();
        let body = varied(lo);
        let bytes = frame::sealed(K_PAYLOAD, &[&1u32.to_le_bytes(), &body]);
        let (got, end) = read_all_in(&bytes, &returns);
        assert_eq!(end, FrameError::Closed);
        assert_eq!(got[0].src, Some(1));
        assert!(got[0].body == body, "the body and no stale tail");
        assert_eq!(got[0].body.bytes.capacity(), 2 * lo, "read in place");
        // Dropped, it goes back for the next frame of the range.
        drop(got);
        assert_eq!(returns.take(lo).capacity(), 2 * lo);
    }

    #[test]
    fn a_returned_buffer_keeps_torn_and_bad_crc_frames_typed() {
        let lo = *SPARE_LENS.start();
        let body = varied(lo);
        let mut sealed = frame::sealed(K_PAYLOAD, &[&1u32.to_le_bytes(), &body]);
        let returns = Returns::new();
        let end = frame::HDR_LEN + 4 + lo;
        // Every offset of the header and prefix, the last stretch, a stride.
        for cut in (1..end).filter(|&c| c < 64 || end - c < 64 || c % 251 == 0) {
            // A cut header takes none; the loop keeps the spares it has.
            let _ = returns.home.try_send(vec![0xEE; 2 * lo]);
            let (got, err) = read_all_in(&sealed[..cut], &returns);
            assert!(got.is_empty());
            let want = match cut {
                c if c < frame::HDR_LEN => FrameError::Torn {
                    needed: frame::HDR_LEN,
                    got: c,
                },
                c => FrameError::Torn {
                    needed: 4 + lo,
                    got: c - frame::HDR_LEN,
                },
            };
            assert_eq!(err, want, "cut at {cut}");
        }
        sealed[end - 1] ^= 1;
        let (got, err) = read_all_in(&sealed, &returns);
        assert!(got.is_empty());
        assert!(matches!(err, FrameError::BadPayloadCrc { .. }), "{err:?}");
    }

    #[test]
    fn only_in_range_bodies_come_back_and_at_most_spare_frames_of_them() {
        let (lo, hi) = (*SPARE_LENS.start(), *SPARE_LENS.end());
        let returns = Returns::new();
        for len in [0, 8, lo - 1, hi + 1] {
            let body = returns.lease(vec![1; len]);
            assert!(body.home.is_none(), "{len} bytes");
            drop(body);
            assert!(returns.back.try_recv().is_err(), "{len} bytes went back");
        }
        let bodies: Vec<Body> = (0..=SPARE_FRAMES)
            .map(|_| returns.lease(vec![1; lo]))
            .collect();
        drop(bodies);
        assert_eq!(returns.back.try_iter().count(), SPARE_FRAMES);
    }
}
