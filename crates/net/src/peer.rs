//! The two halves of one connection: a bounded outbound queue drained by
//! the thread that owns the write half, and the frame reader the
//! connection's reader thread pulls from.
//!
//! One writer thread per connection keeps the scheduler's send path
//! non-blocking up to the queue bound (backpressure past it is a *signal* —
//! a peer that cannot drain its queue for a whole send timeout is treated
//! like a dead one). The writer doubles as the heartbeat source: whenever
//! the queue has been idle for `heartbeat_every` it emits a ping, so the
//! peer's read timeout only ever fires on genuine silence.
//!
//! Every frame reaches the writer as one finished `[header | payload]`
//! buffer ([`frame::build`]); the writer seals the checksum into it, so the
//! pass over the payload runs here and not on the sender's thread. Each
//! wake-up puts the frame that woke it and every frame queued behind it,
//! up to [`BATCH`], on the wire with one `writev` (the tests below count)
//! and hands the large buffers back to the senders for the next frames
//! ([`Spares`]). The reader takes the `src` prefix off a payload before
//! reading the body straight into the buffer that becomes the event's
//! [`Body`]; a large one comes back to the reader when the consumer drops
//! it ([`Returns`]). The socket has `TCP_NODELAY` and no user-space buffer
//! in front of it, so there is nothing to flush.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::ops::Deref;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use crate::error::NetError;
use crate::frame::{self, FrameError};
use crate::node::{Counters, Exited};
use crate::proto::{K_BYE, K_PAYLOAD, K_PING, K_STATS};

/// What the owning node asks of a writer.
pub(crate) enum WriteCmd {
    /// Emit one frame: an unsealed `[header | payload]` buffer.
    Frame(Vec<u8>),
    /// Drain the queue, send `Bye`, close the write half, exit.
    Close,
}

/// Frame sizes whose buffers go round a connection's loops: the writer's
/// back to the senders, and the consumer's back to the reader. Below
/// the range the allocator serves a buffer from a free list at no cost worth
/// the hand-over; inside it glibc gives the pages of a freed buffer back to
/// the kernel whenever they end up next to the top of a heap, and the next
/// frame faults them in again, zeroed, one page at a time. Whether that
/// happens depends on how the writer's frees and the senders' allocations
/// interleave, which is what made one run differ from the next. Above the
/// range frames are rare, and keeping them would make the bound on what a
/// connection holds meaningless.
const SPARE_LENS: std::ops::RangeInclusive<usize> = 64 << 10..=2 << 20;
/// Outbound queue depth per connection, in frames: a send that finds it
/// full for a whole send timeout treats the peer as collapsed.
const QUEUE_CAP: usize = 1024;
/// Most frames one wake-up of the writer puts on the socket in one
/// vectored call. A burst longer than this takes one call per `BATCH`,
/// and a large frame ends its batch (see [`writer_loop`]).
const BATCH: usize = 64;

/// Most buffers on their way back at once, in each direction; one more is
/// dropped. Eight is the benchmark's stream window, so at most 16 MiB a
/// connection on each side.
const SPARE_FRAMES: usize = 8;

/// The taking end of a connection's buffer loop: written frames (senders)
/// or dropped bodies (reader) in [`SPARE_LENS`], oldest first. Not a cache
/// of anything: a buffer here is one the connection had in flight a moment
/// ago, so the loop is full-grown after the first window of large messages
/// and holds nothing for a connection that moves none.
pub(crate) struct Spares(Receiver<Vec<u8>>);

impl Spares {
    /// A buffer for `len` bytes: one that came back if `len` is in range
    /// and one is there, else none (`Vec::new()`).
    pub(crate) fn take(&self, len: usize) -> Vec<u8> {
        if !SPARE_LENS.contains(&len) {
            return Vec::new();
        }
        self.0.try_recv().unwrap_or_default()
    }
}

/// Handle to one connection's writer thread. Dropping the last handle
/// (without `close`) makes the writer exit silently — the teardown used
/// when a connection is superseded rather than drained.
#[derive(Clone)]
pub(crate) struct PeerSender {
    tx: SyncSender<WriteCmd>,
}

impl PeerSender {
    /// Enqueue a built frame, waiting up to `timeout` on a full queue.
    pub(crate) fn send(
        &self,
        pe: usize,
        frame: Vec<u8>,
        timeout: Duration,
    ) -> Result<(), NetError> {
        let deadline = crate::node::now() + timeout;
        let mut cmd = WriteCmd::Frame(frame);
        loop {
            match self.tx.try_send(cmd) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(c)) => {
                    if crate::node::now() >= deadline {
                        return Err(NetError::QueueTimeout { pe });
                    }
                    cmd = c;
                    crate::node::pause(Duration::from_millis(1));
                }
                Err(TrySendError::Disconnected(_)) => return Err(NetError::PeerDown { pe }),
            }
        }
    }

    /// Ask the writer to drain, say goodbye and exit. Best-effort: gives up
    /// after `budget` if the queue never opens (the drain deadline catches
    /// the writer either way).
    pub(crate) fn close(&self, budget: Duration) {
        let deadline = crate::node::now() + budget;
        let mut cmd = WriteCmd::Close;
        loop {
            match self.tx.try_send(cmd) {
                Ok(()) | Err(TrySendError::Disconnected(_)) => return,
                Err(TrySendError::Full(c)) => {
                    if crate::node::now() >= deadline {
                        return;
                    }
                    cmd = c;
                    crate::node::pause(Duration::from_millis(1));
                }
            }
        }
    }
}

/// Spawn the writer thread for one connection; the second handle is where
/// its written buffers come back, the third fires when the thread has
/// exited, so a drain can wait for the last write with a deadline.
/// `epoch` is stamped into heartbeat pings.
pub(crate) fn spawn_writer(
    pe: usize,
    mut stream: TcpStream,
    heartbeat_every: Duration,
    epoch: u64,
    counters: Arc<Counters>,
) -> (PeerSender, Spares, Exited) {
    let (tx, rx) = sync_channel::<WriteCmd>(QUEUE_CAP);
    let (back, spares) = sync_channel(SPARE_FRAMES);
    let (alive, exited) = Exited::pair();
    let builder = std::thread::Builder::new().name(format!("net-wr-{pe}"));
    let spawned = builder.spawn(move || {
        let wrote = writer_loop(&mut stream, &rx, heartbeat_every, epoch, &counters, &back);
        if wrote.unwrap_or(false) {
            // After the goodbye: the peer's reader sees EOF, not a death.
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        drop(alive);
    });
    // A spawn failure leaves the channel sender-less; sends surface it as
    // PeerDown and the peer lifecycle treats the connection as dead.
    drop(spawned);
    (PeerSender { tx }, Spares(spares), exited)
}

/// Seal every frame in `batch`, put them all on the wire with one
/// vectored call (more only if the socket takes less than offered), hand
/// the in-range buffers back, count the frames. Leaves `batch` empty.
fn write_batch<W: Write>(
    out: &mut W,
    batch: &mut Vec<Vec<u8>>,
    counters: &Counters,
    back: &SyncSender<Vec<u8>>,
) -> io::Result<()> {
    for buf in batch.iter_mut() {
        frame::seal(buf);
    }
    let mut slices = [IoSlice::new(&[]); BATCH];
    for (slice, buf) in slices.iter_mut().zip(batch.iter()) {
        *slice = IoSlice::new(buf);
    }
    let mut rest = &mut slices[..batch.len()];
    while !rest.is_empty() {
        match out.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let frames = batch.len() as u64;
    let mut bytes = 0;
    for buf in batch.drain(..) {
        bytes += buf.len() as u64;
        // Back first: whoever sees the counters move may take it.
        if SPARE_LENS.contains(&buf.capacity()) {
            let _ = back.try_send(buf);
        }
    }
    counters.frames_sent.fetch_add(frames, Ordering::Relaxed);
    counters.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    Ok(())
}

/// Drain `rx` into `out` until told to close (`Ok(true)`: the goodbye went
/// out), the queue's senders are gone (`Ok(false)`), or a write fails.
/// Each wake-up takes the frame that woke it and whatever else is queued
/// at that moment, up to [`BATCH`] frames or the first large one, without
/// waiting for more, so a lone frame leaves the moment it arrives.
fn writer_loop<W: Write>(
    out: &mut W,
    rx: &Receiver<WriteCmd>,
    heartbeat_every: Duration,
    epoch: u64,
    counters: &Counters,
    back: &SyncSender<Vec<u8>>,
) -> io::Result<bool> {
    let mut batch = Vec::with_capacity(BATCH);
    let mut closing = false;
    loop {
        let first = if closing {
            // Frames queued behind a Close were sent after the drain
            // began; they still go out ahead of the Bye.
            match rx.try_recv() {
                Ok(cmd) => cmd,
                Err(_) => {
                    batch.push(frame::build(K_BYE, &[]));
                    write_batch(out, &mut batch, counters, back)?;
                    return Ok(true);
                }
            }
        } else {
            match rx.recv_timeout(heartbeat_every) {
                Ok(cmd) => cmd,
                Err(RecvTimeoutError::Timeout) => {
                    // Idle: prove liveness.
                    batch.push(frame::build(K_PING, &[&epoch.to_le_bytes()]));
                    write_batch(out, &mut batch, counters, back)?;
                    counters.pings_sent.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // The sender was dropped: the connection was superseded.
                // Nothing is held back here, so just leave, no goodbye.
                Err(RecvTimeoutError::Disconnected) => return Ok(false),
            }
        };
        // A Close ends the batch, and so does a frame as large as the
        // smallest in `SPARE_LENS`: its buffer must be back before the
        // senders build the next large frame, or they allocate another
        // that later comes back to a full loop and is freed.
        let mut next = Some(first);
        while let Some(cmd) = next {
            let WriteCmd::Frame(buf) = cmd else {
                closing = true;
                break;
            };
            let large = buf.len() >= *SPARE_LENS.start();
            batch.push(buf);
            next = if batch.len() < BATCH && !large {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        if !batch.is_empty() {
            write_batch(out, &mut batch, counters, back)?;
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
/// [`Body`]s in [`SPARE_LENS`] come back, and where the next body of that
/// range is read into.
pub(crate) struct Returns {
    home: SyncSender<Vec<u8>>,
    spares: Spares,
}

impl Returns {
    pub(crate) fn new() -> Returns {
        let (home, spares) = sync_channel(SPARE_FRAMES);
        Returns {
            home,
            spares: Spares(spares),
        }
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
    let spare = returns.spares.take(head.len - prefix.len());
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
    /// `short` caps what one call takes.
    #[derive(Default)]
    struct CountingWrite {
        calls: usize,
        bytes: Vec<u8>,
        short: Option<usize>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
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

    /// Run a writer over `frames` queued ahead of it, then superseded (no
    /// goodbye): what it wrote, what it counted, what came back.
    fn write_all_of(frames: Vec<Vec<u8>>) -> (CountingWrite, Counters, Spares) {
        let cmds = frames.into_iter().map(WriteCmd::Frame).collect();
        let (out, counters, spares, said_bye) = run_writer(cmds, CountingWrite::default());
        assert!(!said_bye);
        (out, counters, spares)
    }

    /// Run a writer into `out` over `cmds` queued ahead of it, then
    /// superseded: also whether it said goodbye.
    fn run_writer(
        cmds: Vec<WriteCmd>,
        mut out: CountingWrite,
    ) -> (CountingWrite, Counters, Spares, bool) {
        let (tx, rx) = sync_channel(cmds.len().max(1));
        for cmd in cmds {
            tx.send(cmd).unwrap();
        }
        drop(tx);
        let (back, spares) = sync_channel(SPARE_FRAMES);
        let counters = Counters::default();
        let said_bye = writer_loop(&mut out, &rx, Duration::from_secs(5), 0, &counters, &back);
        (out, counters, Spares(spares), said_bye.unwrap())
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
        let (out, counters, _) = write_all_of(frames.clone());
        assert!(out.calls <= 2, "{} calls for {BATCH} frames", out.calls);
        assert_eq!(out.bytes, sealed_one_at_a_time(&frames));
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), BATCH as u64);
        let len = frames.iter().map(Vec::len).sum::<usize>() as u64;
        assert_eq!(counters.bytes_sent.load(Ordering::Relaxed), len);
        let (got, end) = read_all(&out.bytes);
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
        let (out, _, _) = write_all_of(frames.clone());
        assert_eq!(out.calls, 3);
        assert_eq!(out.bytes, sealed_one_at_a_time(&frames));
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
            let (out, counters, _, _) = run_writer(cmds, out);
            let wire = sealed_one_at_a_time(&frames);
            assert_eq!(out.bytes, wire, "{short} bytes a call");
            assert_eq!(out.calls, wire.len().div_ceil(short));
            assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 6);
        }
    }

    #[test]
    fn frames_queued_around_a_close_go_out_then_one_bye_last() {
        let frames = small_frames(6);
        let mut cmds: Vec<WriteCmd> = frames.iter().cloned().map(WriteCmd::Frame).collect();
        cmds.insert(4, WriteCmd::Close);
        let (out, counters, _, said_bye) = run_writer(cmds, CountingWrite::default());
        assert!(said_bye);
        let (got, end) = read_all(&out.bytes);
        assert_eq!(end, FrameError::Closed);
        assert_eq!(got.len(), 7);
        for (i, f) in got[..6].iter().enumerate() {
            assert_eq!((f.kind, f.src), (K_PAYLOAD, Some(1)));
            assert_eq!(f.body, [i as u8; 64], "frame {i}");
        }
        assert_eq!(got[6].kind, K_BYE);
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn a_large_frame_ends_its_batch_and_is_back_before_it_is_counted() {
        let big = |i: u8| payload_frame(1, &vec![i; (1 << 20) - frame::HDR_LEN - 4]);
        let small = |i: u8| payload_frame(1, &[i; 64]);
        let frames = vec![small(0), big(1), small(2), big(3), big(4), small(5)];
        let (tx, rx) = sync_channel(frames.len());
        for f in frames.iter().cloned() {
            tx.send(WriteCmd::Frame(f)).unwrap();
        }
        let (back, spares) = sync_channel(SPARE_FRAMES);
        let spares = Spares(spares);
        let mut out = CountingWrite::default();
        let counters = Counters::default();
        std::thread::scope(|sc| {
            let (out, counters, back) = (&mut out, &counters, &back);
            sc.spawn(move || writer_loop(out, &rx, Duration::from_secs(5), 0, counters, back));
            // Count first, then look: every large buffer among the frames
            // counted so far must already be back.
            let mut back_now = Vec::new();
            loop {
                let sent = counters.frames_sent.load(Ordering::Relaxed) as usize;
                back_now.extend(spares.0.try_iter().map(|b| b.capacity()));
                let owed = frames[..sent].iter().filter(|f| f.len() == 1 << 20);
                assert!(back_now.len() >= owed.count(), "{sent} counted");
                if sent == frames.len() {
                    break;
                }
                std::thread::yield_now();
            }
            assert_eq!(back_now, [1 << 20; 3]);
            drop(tx);
        });
        assert_eq!(out.calls, 4, "[0 1] [2 3] [4] [5]");
        assert_eq!(out.bytes, sealed_one_at_a_time(&frames));
        let (got, _) = read_all(&out.bytes);
        let firsts: Vec<u8> = got.iter().map(|f| f.body[0]).collect();
        assert_eq!(firsts, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn one_frame_of_any_size_is_one_write() {
        for n in [0, 64, 4096, 1 << 20] {
            let body = vec![0xA5u8; n];
            let (out, counters, _) = write_all_of(vec![payload_frame(1, &body)]);
            assert_eq!(out.calls, 1, "{n}-byte body");
            let sent = (frame::HDR_LEN + 4 + n) as u64;
            assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 1);
            assert_eq!(counters.bytes_sent.load(Ordering::Relaxed), sent);
            let (got, end) = read_all(&out.bytes);
            assert_eq!(end, FrameError::Closed);
            assert_eq!(got.len(), 1);
            assert_eq!((got[0].src, got[0].body.as_slice()), (Some(1), &body[..]));
        }
    }

    #[test]
    fn written_buffers_in_range_come_back_oldest_first_and_no_others() {
        let (lo, hi) = (*SPARE_LENS.start(), *SPARE_LENS.end());
        let frame_of = |len: usize| payload_frame(1, &vec![7u8; len - frame::HDR_LEN - 4]);
        let (_, _, spares) = write_all_of(vec![
            frame_of(lo - 1),
            frame_of(lo),
            frame_of(hi + 1),
            frame_of(hi),
        ]);
        assert_eq!(
            spares.take(lo - 1).capacity(),
            0,
            "no spare for a small frame"
        );
        assert_eq!(spares.take(hi + 1).capacity(), 0, "nor for a huge one");
        let small = spares.take(hi);
        assert_eq!(small.capacity(), lo);
        assert_eq!(spares.take(lo).capacity(), hi);
        assert_eq!(spares.take(lo).capacity(), 0, "the others were dropped");
        // One too small for its frame is replaced by one of the exact size.
        let built = frame::build_in(small, K_PAYLOAD, &[&vec![1u8; hi]]);
        assert_eq!(built.capacity(), frame::HDR_LEN + hi);

        // The loop holds `SPARE_FRAMES` buffers and drops the next.
        let (_, counters, spares) = write_all_of(vec![frame_of(lo); SPARE_FRAMES + 1]);
        let sent = counters.frames_sent.load(Ordering::Relaxed);
        assert_eq!(sent as usize, SPARE_FRAMES + 1);
        assert_eq!(spares.0.try_iter().count(), SPARE_FRAMES);
    }

    #[test]
    fn an_idle_writer_pings_with_its_epoch() {
        let (tx, rx) = sync_channel::<WriteCmd>(1);
        let (back, _spares) = sync_channel(SPARE_FRAMES);
        let mut out = CountingWrite::default();
        let counters = Counters::default();
        std::thread::scope(|sc| {
            let (out, counters, back) = (&mut out, &counters, &back);
            sc.spawn(move || writer_loop(out, &rx, Duration::from_millis(1), 9, counters, back));
            while counters.pings_sent.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            drop(tx);
        });
        let (got, _) = read_all(&out.bytes);
        assert!(!got.is_empty());
        assert_eq!(out.calls, got.len(), "one write per ping");
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
        assert_eq!(returns.spares.take(lo).capacity(), 2 * lo);
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
            assert!(
                returns.spares.0.try_recv().is_err(),
                "{len} bytes went back"
            );
        }
        let bodies: Vec<Body> = (0..=SPARE_FRAMES)
            .map(|_| returns.lease(vec![1; lo]))
            .collect();
        drop(bodies);
        assert_eq!(returns.spares.0.try_iter().count(), SPARE_FRAMES);
    }
}
