//! Hardened length-prefixed framing for untrusted byte streams.
//!
//! This module is the *only* layer that parses raw socket bytes, so it is
//! written defensively: every malformed input maps to a typed [`FrameError`]
//! and nothing here panics on attacker-controlled data. The same source file
//! is compiled into `charm-net` (via `#[path]`) so the transport crate stays
//! std-only while the canonical definition lives with the codec crate.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       2     MAGIC        0x43AE ("charm" frame marker)
//! 2       1     VERSION      currently 2
//! 3       1     KIND         application tag byte (opaque to this layer)
//! 4       4     LEN          payload length in bytes
//! 8       4     HDR_CRC      FNV-1a over bytes 0..8
//! 12      4     PAYLOAD_CRC  sum32 over the payload bytes
//! 16      LEN   payload
//! ```
//!
//! The header checksum rejects desynchronised or bit-flipped headers before
//! the length field can be trusted; the length is additionally capped by a
//! caller-supplied maximum, and a reader reserves at most [`RESERVE_CAP`]
//! before payload bytes have actually arrived, so a corrupt-but-checksummed
//! header can never make the reader allocate memory the stream has not paid
//! for. A clean EOF *between* frames is reported as [`FrameError::Closed`]
//! (normal disconnect); an EOF *inside* a frame is [`FrameError::Torn`]
//! (crash or truncation mid-write).
//!
//! Two ways in and two ways out, one layout:
//!
//! * [`write_frame`] / [`read_frame`] take and return a bare payload.
//! * [`build`] + [`seal`] (or [`sealed`]) assemble `[header | parts..]` in
//!   one owned buffer that a writer hands to a single `write_all`, and
//!   [`header_of`] seals the header of parts that stay where they lie, for
//!   one vectored write of `[header | parts..]`;
//!   [`read_header`] + [`read_body`] let a reader peel a fixed prefix off
//!   the payload *before* the rest is read straight into the `Vec` it will
//!   hand on ([`read_body_in`]: into a buffer the reader got back).

use std::io::{Read, Write};

/// Frame marker; deliberately asymmetric so byte-swapped streams fail fast.
pub const MAGIC: u16 = 0x43AE;
/// Current frame layout version. Version 1 (FNV-1a payload checksum) is
/// not read: every process of a run is the same binary.
pub const VERSION: u8 = 2;
/// Fixed header length in bytes.
pub const HDR_LEN: usize = 16;
/// Default cap on payload length readers enforce (64 MiB).
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024 * 1024;
/// Most a reader reserves for a body on the header's word alone; a longer
/// body grows its `Vec` with the bytes actually received.
pub const RESERVE_CAP: usize = 1 << 20;

/// Typed decode/IO failures for untrusted frame streams.
///
/// `Closed` and `Torn` are connection-lifecycle signals; the rest indicate a
/// corrupt or hostile stream and should terminate the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Clean EOF on a frame boundary: the peer closed the stream.
    Closed,
    /// EOF (or short read) in the middle of a header or payload.
    Torn { needed: usize, got: usize },
    /// First two header bytes are not [`MAGIC`].
    BadMagic { found: u16 },
    /// Header version byte is not [`VERSION`].
    BadVersion { found: u8 },
    /// Declared payload length exceeds the reader's cap.
    TooLarge { len: usize, max: usize },
    /// Header checksum mismatch: desynchronised or bit-flipped header.
    BadHeaderCrc { expected: u32, found: u32 },
    /// Payload checksum mismatch: payload corrupted in flight.
    BadPayloadCrc { expected: u32, found: u32 },
    /// Underlying transport error (timeout, reset, ...).
    Io(std::io::ErrorKind, String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed on a frame boundary"),
            FrameError::Torn { needed, got } => {
                write!(f, "torn frame: needed {needed} bytes, got {got}")
            }
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#06x} (expected {MAGIC:#06x})")
            }
            FrameError::BadVersion { found } => {
                write!(f, "bad frame version {found} (expected {VERSION})")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            FrameError::BadHeaderCrc { expected, found } => {
                write!(
                    f,
                    "header checksum mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
            FrameError::BadPayloadCrc { expected, found } => {
                write!(
                    f,
                    "payload checksum mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
            FrameError::Io(kind, msg) => write!(f, "frame io error ({kind:?}): {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e.kind(), e.to_string())
    }
}

/// FNV-1a 32-bit: the hash of the 8 header bytes. Byte-at-a-time, so it is
/// kept off the payload (see [`sum32`]).
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Bytes one [`Sum32`] step consumes: four 64-bit lanes.
const BLOCK: usize = 32;
/// Odd 64-bit multipliers (the xxHash primes).
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// One multiply-rotate step: a bijection of `acc` for any `w`, so a change
/// to one word always changes its lane.
#[inline(always)]
fn mix(acc: u64, w: u64) -> u64 {
    (acc ^ w).wrapping_mul(P1).rotate_left(29)
}

#[inline(always)]
fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Incremental state of [`sum32`]: feed the input in any pieces.
///
/// Word `i` of every whole 32-byte block goes through lane `i`; the four
/// lanes never wait on each other, which is what lets the sum run at
/// memory speed where FNV-1a's one multiply per *byte* cannot. The bytes
/// after the last whole block, the total length and the lanes are folded
/// in [`finish`](Sum32::finish).
#[derive(Debug, Clone)]
pub struct Sum32 {
    lanes: [u64; 4],
    /// Bytes seen since the last whole block (fewer than [`BLOCK`]).
    tail: [u8; BLOCK],
    tail_len: usize,
    total: u64,
}

impl Default for Sum32 {
    fn default() -> Self {
        Sum32::new()
    }
}

impl Sum32 {
    /// State before any input.
    pub fn new() -> Sum32 {
        Sum32 {
            lanes: [P1.wrapping_add(P2), P2, P3, P1.wrapping_neg()],
            tail: [0; BLOCK],
            tail_len: 0,
            total: 0,
        }
    }

    /// Absorb `bytes`. Any split of an input gives the same sum.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let take = (BLOCK - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < BLOCK {
                return;
            }
            self.tail_len = 0;
            let block = self.tail;
            Sum32::blocks(&mut self.lanes, &block);
        }
        let rest = Sum32::blocks(&mut self.lanes, bytes);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Run every whole block of `bytes` through the lanes; the remainder
    /// comes back.
    fn blocks<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
        let [mut a, mut b, mut c, mut d] = *lanes;
        let mut it = bytes.chunks_exact(BLOCK);
        for blk in &mut it {
            a = mix(a, word(&blk[0..8]));
            b = mix(b, word(&blk[8..16]));
            c = mix(c, word(&blk[16..24]));
            d = mix(d, word(&blk[24..32]));
        }
        *lanes = [a, b, c, d];
        it.remainder()
    }

    /// The sum of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        let [a, b, c, d] = self.lanes;
        // Distinct rotations, so the lanes are not interchangeable.
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        h = mix(h, self.total);
        let tail = &self.tail[..self.tail_len];
        let mut words = tail.chunks_exact(8);
        for w in &mut words {
            h = mix(h, word(w));
        }
        for &b in words.remainder() {
            h = mix(h, u64::from(b));
        }
        // Avalanche; the last shift folds the high half into the 32 bits kept.
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^= h >> 32;
        h as u32
    }
}

/// The payload checksum of frame version 2: a word-at-a-time sum over four
/// independent multiply-rotate lanes (see [`Sum32`]). Catches stream
/// desynchronisation and random corruption; it is not an integrity MAC.
pub fn sum32(bytes: &[u8]) -> u32 {
    let mut s = Sum32::new();
    s.update(bytes);
    s.finish()
}

/// The 16 header bytes for a payload of `len` bytes whose sum is `pcrc`.
fn header(kind: u8, len: usize, pcrc: u32) -> [u8; HDR_LEN] {
    let mut hdr = [0u8; HDR_LEN];
    hdr[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    hdr[2] = VERSION;
    hdr[3] = kind;
    hdr[4..8].copy_from_slice(&(len as u32).to_le_bytes());
    let hcrc = fnv1a(&hdr[0..8]);
    hdr[8..12].copy_from_slice(&hcrc.to_le_bytes());
    hdr[12..16].copy_from_slice(&pcrc.to_le_bytes());
    hdr
}

/// Build the 16-byte header for `payload` tagged with `kind`.
pub fn encode_header(kind: u8, payload: &[u8]) -> [u8; HDR_LEN] {
    header_of(kind, &[payload])
}

/// The sealed header of the frame whose payload is `parts` back to back,
/// summed where they lie: a writer that puts `[header | parts..]` on the
/// wire with one vectored call never copies the payload at all.
pub fn header_of(kind: u8, parts: &[&[u8]]) -> [u8; HDR_LEN] {
    let mut sum = Sum32::new();
    let mut len = 0;
    for p in parts {
        sum.update(p);
        len += p.len();
    }
    header(kind, len, sum.finish())
}

/// Assemble an *unsealed* frame in one exact-size buffer: the header (its
/// `PAYLOAD_CRC` still zero) followed by `parts` back to back, the one copy
/// of the payload a queued frame needs; [`seal`] finishes the frame on
/// whichever thread is about to write it.
pub fn build(kind: u8, parts: &[&[u8]]) -> Vec<u8> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(HDR_LEN + len);
    out.extend_from_slice(&header(kind, len, 0));
    for p in parts {
        out.extend_from_slice(p);
    }
    out
}

/// Patch the payload checksum into a frame made by [`build`]. A buffer
/// shorter than a header is left alone.
pub fn seal(frame: &mut [u8]) {
    if let Some((hdr, payload)) = frame.split_at_mut_checked(HDR_LEN) {
        hdr[12..16].copy_from_slice(&sum32(payload).to_le_bytes());
    }
}

/// [`build`] and [`seal`] in one step, for a frame written where it is made.
pub fn sealed(kind: u8, parts: &[&[u8]]) -> Vec<u8> {
    let mut frame = build(kind, parts);
    seal(&mut frame);
    frame
}

/// Validate a header and return `(kind, payload_len, payload_crc)`.
///
/// `max` caps the payload length this reader is willing to accept.
pub fn parse_header(hdr: &[u8; HDR_LEN], max: usize) -> Result<(u8, usize, u32), FrameError> {
    let magic = u16::from_le_bytes([hdr[0], hdr[1]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    if hdr[2] != VERSION {
        return Err(FrameError::BadVersion { found: hdr[2] });
    }
    let expected = fnv1a(&hdr[0..8]);
    let found = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]);
    if expected != found {
        return Err(FrameError::BadHeaderCrc { expected, found });
    }
    let len = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let pcrc = u32::from_le_bytes([hdr[12], hdr[13], hdr[14], hdr[15]]);
    Ok((hdr[3], len, pcrc))
}

/// Write one frame (header, then the borrowed payload). Does not flush.
/// A writer that owns its payload should [`build`] and [`seal`] instead
/// and issue one write.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), FrameError> {
    let hdr = encode_header(kind, payload);
    w.write_all(&hdr)?;
    w.write_all(payload)?;
    Ok(())
}

/// Read until `buf` is full or the stream ends; returns the bytes read.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(got)
}

/// A validated frame header: what [`read_body`] needs to finish the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    /// Frame kind byte.
    pub kind: u8,
    /// Payload length in bytes (already checked against the reader's cap).
    pub len: usize,
    /// The payload checksum the header promises.
    pcrc: u32,
}

/// First phase of a read: the next frame's validated header.
///
/// `max` caps the payload length; use [`DEFAULT_MAX_FRAME`] unless the
/// protocol knows better. Never panics on malformed input.
pub fn read_header<R: Read>(r: &mut R, max: usize) -> Result<Head, FrameError> {
    let mut hdr = [0u8; HDR_LEN];
    match read_full(r, &mut hdr)? {
        HDR_LEN => {}
        0 => return Err(FrameError::Closed),
        got => {
            return Err(FrameError::Torn {
                needed: HDR_LEN,
                got,
            })
        }
    }
    let (kind, len, pcrc) = parse_header(&hdr, max)?;
    Ok(Head { kind, len, pcrc })
}

/// Second phase: fill `prefix` from the front of the payload, read the
/// rest straight into a fresh `Vec` and verify the checksum over both.
/// A `prefix` longer than the payload reads as a torn frame.
pub fn read_body<R: Read>(
    r: &mut R,
    head: &Head,
    prefix: &mut [u8],
) -> Result<Vec<u8>, FrameError> {
    read_body_in(r, head, prefix, Vec::new())
}

/// Bytes [`read_body_in`] asks the stream for at a time: each step is
/// summed right after the kernel wrote it, while it is still in cache.
const STEP: usize = 64 << 10;

/// [`read_body`] into `out`'s allocation when it holds the body, whatever
/// `out` held: a reader that gets its delivered bodies back reads the next
/// one without asking the allocator for anything. The bytes `out` already
/// holds are read over in place; past them the body lands in spare
/// capacity, with no zero-fill either way, and the result is exactly the
/// body. An `out` too small is replaced by a fresh `Vec`, reserved to the
/// body's length when that is at most [`RESERVE_CAP`] and grown after it
/// with the bytes actually received.
pub fn read_body_in<R: Read>(
    r: &mut R,
    head: &Head,
    prefix: &mut [u8],
    out: Vec<u8>,
) -> Result<Vec<u8>, FrameError> {
    let torn = |got| FrameError::Torn {
        needed: head.len,
        got,
    };
    let Some(body_len) = head.len.checked_sub(prefix.len()) else {
        return Err(torn(0));
    };
    let got = read_full(r, prefix)?;
    if got < prefix.len() {
        return Err(torn(got));
    }
    let mut sum = Sum32::new();
    sum.update(prefix);
    let mut body = if out.capacity() >= body_len {
        out
    } else {
        Vec::with_capacity(body_len.min(RESERVE_CAP))
    };
    let mut at = 0;
    while at < body_len {
        let step = (body_len - at).min(STEP);
        // Over bytes a reused buffer holds, in place: clearing it and
        // appending instead cost ~7 % of a 1 MiB stream (EXPERIMENTS.md).
        let got = if at + step <= body.len() {
            read_full(r, &mut body[at..at + step])?
        } else {
            body.truncate(at);
            if body.capacity() < at + step {
                // Past the reserve: at most double what has arrived.
                body.reserve_exact(body_len.min(2 * body.capacity()) - at);
            }
            r.by_ref().take(step as u64).read_to_end(&mut body)?
        };
        sum.update(&body[at..at + got]);
        at += got;
        if got < step {
            return Err(torn(prefix.len() + at));
        }
    }
    body.truncate(body_len);
    let found = sum.finish();
    if found != head.pcrc {
        return Err(FrameError::BadPayloadCrc {
            expected: head.pcrc,
            found,
        });
    }
    Ok(body)
}

/// Read and validate one frame, returning `(kind, payload)`: the two
/// phases with no prefix.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<(u8, Vec<u8>), FrameError> {
    let head = read_header(r, max)?;
    let payload = read_body(r, &head, &mut [])?;
    Ok((head.kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, kind, payload).unwrap();
        out
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn garbage(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// The definition of `sum32`, written out one byte index at a time with
    /// its own constants: what the block-wise, incremental implementation
    /// must equal.
    fn sum32_ref(bytes: &[u8]) -> u32 {
        let le = |i: usize| (0..8).fold(0u64, |w, k| w | (bytes[i + k] as u64) << (8 * k));
        let step = |acc: u64, w: u64| {
            (acc ^ w)
                .wrapping_mul(0x9E37_79B1_85EB_CA87)
                .rotate_left(29)
        };
        let mut lanes: [u64; 4] = [
            0x60EA_27EE_ADC0_B5D6,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0x61C8_864E_7A14_3579,
        ];
        let whole = bytes.len() / 32 * 32;
        for i in (0..whole).step_by(8) {
            lanes[i / 8 % 4] = step(lanes[i / 8 % 4], le(i));
        }
        let mut h = lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18));
        h = step(h, bytes.len() as u64);
        let mut i = whole;
        while i + 8 <= bytes.len() {
            h = step(h, le(i));
            i += 8;
        }
        while i < bytes.len() {
            h = step(h, bytes[i] as u64);
            i += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 29;
        h = h.wrapping_mul(0x1656_67B1_9E37_79F9);
        h ^= h >> 32;
        h as u32
    }

    #[test]
    fn sum32_equals_the_scalar_reference() {
        let bytes = garbage(1, 257);
        for n in 0..=257 {
            assert_eq!(sum32(&bytes[..n]), sum32_ref(&bytes[..n]), "length {n}");
        }
        for seed in [2, 3, 5] {
            let big = garbage(seed, 1 << 20);
            assert_eq!(sum32(&big), sum32_ref(&big), "seed {seed}");
        }
    }

    #[test]
    fn sum32_changes_on_every_single_bit_flip() {
        let mut bytes = garbage(7, 4096);
        let clean = sum32(&bytes);
        for bit in 0..8 * bytes.len() {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(sum32(&bytes), clean, "bit {bit}");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn sum32_is_order_and_length_sensitive() {
        let bytes = garbage(11, 4096);
        let clean = sum32(&bytes);
        for unit in [8, 32] {
            for at in (0..bytes.len() - 2 * unit).step_by(unit) {
                let mut swapped = bytes.clone();
                let (a, b) = swapped[at..at + 2 * unit].split_at_mut(unit);
                a.swap_with_slice(b);
                assert_ne!(sum32(&swapped), clean, "{unit}-byte units swapped at {at}");
            }
        }
        for n in 0..=65 {
            let mut longer = bytes[..n].to_vec();
            longer.push(0);
            assert_ne!(sum32(&longer), sum32(&bytes[..n]), "zero appended to {n}");
        }
        // All-zero inputs differ by length alone.
        assert_ne!(sum32(&[0; 32]), sum32(&[0; 64]));
    }

    #[test]
    fn sum32_is_the_same_over_any_split() {
        let bytes = garbage(13, 200);
        let whole = sum32(&bytes);
        for a in 0..=bytes.len() {
            for b in [a, (a + 4).min(bytes.len()), (a + 37).min(bytes.len())] {
                let mut s = Sum32::new();
                s.update(&bytes[..a]);
                s.update(&bytes[a..b]);
                s.update(&bytes[b..]);
                assert_eq!(s.finish(), whole, "split at {a}, {b}");
            }
        }
        let mut s = Sum32::new();
        bytes.iter().for_each(|b| s.update(&[*b]));
        assert_eq!(s.finish(), whole, "byte at a time");
    }

    #[test]
    fn build_and_seal_make_the_bytes_write_frame_makes() {
        let payload = garbage(17, 100);
        let mut built = build(9, &[&payload[..4], &payload[4..]]);
        assert_eq!(built.capacity(), built.len());
        assert_ne!(built, frame_bytes(9, &payload), "unsealed");
        seal(&mut built);
        assert_eq!(built, frame_bytes(9, &payload));
        assert_eq!(sealed(1, &[]), frame_bytes(1, b""));
        seal(&mut [0u8; 3]); // shorter than a header: left alone
    }

    #[test]
    fn header_of_parts_is_the_header_build_and_seal_make_for_any_split() {
        let payload = garbage(31, 300);
        for n in [0, 1, 31, 32, 33, 100, 300] {
            let payload = &payload[..n];
            let whole = sealed(5, &[payload]);
            for a in 0..=n {
                for b in [a, (a + 9).min(n), (a + 40).min(n), n] {
                    let parts = [&payload[..a], &payload[a..b], &payload[b..]];
                    assert_eq!(header_of(5, &parts), whole[..HDR_LEN], "{n}: {a}, {b}");
                    assert_eq!(sealed(5, &parts), whole, "{n}: {a}, {b}");
                }
            }
        }
        assert_eq!(header_of(1, &[]), sealed(1, &[])[..]);
    }

    #[test]
    fn two_phase_read_peels_the_prefix_and_keeps_the_body_exact() {
        for n in [0, 1, 60, 1 << 20] {
            let body = garbage(19, n);
            let bytes = sealed(4, &[&7u32.to_le_bytes(), &body]);
            let mut cur = Cursor::new(&bytes);
            let head = read_header(&mut cur, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!((head.kind, head.len), (4, 4 + n));
            let mut src = [0u8; 4];
            let got = read_body(&mut cur, &head, &mut src).unwrap();
            assert_eq!(u32::from_le_bytes(src), 7);
            assert_eq!(got, body);
            assert_eq!(got.capacity(), got.len(), "{n}-byte body");
        }
    }

    #[test]
    fn prefix_is_covered_by_the_checksum_and_bounded_by_the_payload() {
        let mut bytes = frame_bytes(4, b"abcdefgh");
        let head = read_header(&mut Cursor::new(&bytes), 64).unwrap();
        // A prefix the payload cannot hold.
        let err = read_body(&mut Cursor::new(&bytes[HDR_LEN..]), &head, &mut [0; 9]);
        assert_eq!(err, Err(FrameError::Torn { needed: 8, got: 0 }));
        // EOF inside the prefix, and inside the body after it.
        for cut in 0..8 {
            let mut cur = Cursor::new(&bytes[HDR_LEN..HDR_LEN + cut]);
            let err = read_body(&mut cur, &head, &mut [0; 4]);
            assert_eq!(
                err,
                Err(FrameError::Torn {
                    needed: 8,
                    got: cut
                })
            );
        }
        bytes[HDR_LEN + 1] ^= 1;
        let err = read_body(&mut Cursor::new(&bytes[HDR_LEN..]), &head, &mut [0; 4]);
        assert!(
            matches!(err, Err(FrameError::BadPayloadCrc { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn read_body_in_reads_over_a_reused_buffer_and_keeps_every_check() {
        let body = garbage(29, 2 * STEP + 40);
        let bytes = sealed(4, &[&7u32.to_le_bytes(), &body]);
        let head = read_header(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap();
        let payload = &bytes[HDR_LEN..];
        let read_in = |payload: &[u8], out: Vec<u8>| {
            read_body_in(&mut Cursor::new(payload), &head, &mut [0; 4], out)
        };
        // Longer than the body, or holding less of it than it has room for:
        // exactly the body either way, in the same allocation.
        let mut part_full = Vec::with_capacity(body.len());
        part_full.extend_from_slice(&[0xEE; STEP + 9]);
        for out in [vec![0xEEu8; body.len() + 100], part_full] {
            let ptr = out.as_ptr();
            let got = read_in(payload, out).unwrap();
            assert!(got == body, "no stale byte");
            assert_eq!(got.as_ptr(), ptr);
        }
        // Cut near the start, each step boundary and the end, and on a
        // stride between: torn, with the bytes that did arrive.
        let edges = [0, 4 + STEP, 4 + 2 * STEP, payload.len()];
        for cut in (0..payload.len())
            .filter(|c| c % 509 == 0 || edges.iter().any(|e| c.abs_diff(*e) <= 40))
        {
            let err = read_in(&payload[..cut], vec![0xEEu8; body.len() + 100]);
            let want = FrameError::Torn {
                needed: head.len,
                got: cut,
            };
            assert_eq!(err, Err(want), "cut at {cut}");
        }
        let mut bad = payload.to_vec();
        bad[4 + STEP + 1] ^= 1;
        let err = read_in(&bad, vec![0xEEu8; body.len()]);
        assert!(
            matches!(err, Err(FrameError::BadPayloadCrc { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn a_body_past_the_reserve_cap_still_round_trips() {
        let payload = garbage(23, RESERVE_CAP + 4097);
        let bytes = frame_bytes(2, &payload);
        let (_, got) = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn round_trip() {
        let payload = b"hello charm".to_vec();
        let bytes = frame_bytes(7, &payload);
        assert_eq!(bytes.len(), HDR_LEN + payload.len());
        let (kind, got) = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(got, payload);
    }

    #[test]
    fn round_trip_empty_payload() {
        let bytes = frame_bytes(0, b"");
        let (kind, got) = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(kind, 0);
        assert!(got.is_empty());
    }

    #[test]
    fn several_frames_back_to_back() {
        let mut stream = Vec::new();
        for i in 0..5u8 {
            stream.extend(frame_bytes(i, &vec![i; i as usize * 3]));
        }
        let mut cur = Cursor::new(&stream);
        for i in 0..5u8 {
            let (kind, payload) = read_frame(&mut cur, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(kind, i);
            assert_eq!(payload, vec![i; i as usize * 3]);
        }
        assert_eq!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        );
    }

    #[test]
    fn clean_eof_is_closed() {
        let mut cur = Cursor::new(Vec::<u8>::new());
        assert_eq!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        );
    }

    #[test]
    fn torn_header_is_torn_not_panic() {
        let bytes = frame_bytes(1, b"payload");
        for cut in 1..HDR_LEN {
            let err = read_frame(&mut Cursor::new(&bytes[..cut]), DEFAULT_MAX_FRAME).unwrap_err();
            assert_eq!(
                err,
                FrameError::Torn {
                    needed: HDR_LEN,
                    got: cut
                }
            );
        }
    }

    #[test]
    fn torn_payload_is_torn_not_panic() {
        let payload = b"twelve bytes".to_vec();
        let bytes = frame_bytes(1, &payload);
        for cut in HDR_LEN..bytes.len() {
            let err = read_frame(&mut Cursor::new(&bytes[..cut]), DEFAULT_MAX_FRAME).unwrap_err();
            assert_eq!(
                err,
                FrameError::Torn {
                    needed: payload.len(),
                    got: cut - HDR_LEN
                }
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = frame_bytes(1, b"x");
        bytes[0] ^= 0xff;
        let err = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic { .. }), "{err:?}");
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = frame_bytes(1, b"x");
        bytes[2] = VERSION + 1;
        // A version flip also breaks the header CRC; re-seal the CRC so the
        // version check itself is exercised.
        let crc = fnv1a(&bytes[0..8]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err, FrameError::BadVersion { found: VERSION + 1 });
    }

    #[test]
    fn flipped_header_bit_fails_header_crc() {
        for bit in 0..8 * 8usize {
            let mut bytes = frame_bytes(3, b"some payload");
            bytes[bit / 8] ^= 1 << (bit % 8);
            let err = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::BadMagic { .. }
                        | FrameError::BadVersion { .. }
                        | FrameError::BadHeaderCrc { .. }
                ),
                "bit {bit}: {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_bit_fails_payload_crc() {
        let mut bytes = frame_bytes(3, b"some payload");
        let k = HDR_LEN + 4;
        bytes[k] ^= 0x10;
        let err = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, FrameError::BadPayloadCrc { .. }), "{err:?}");
    }

    #[test]
    fn oversize_length_capped_before_allocation() {
        // A syntactically valid header declaring a huge payload must be
        // rejected by the cap, not trusted into a giant allocation.
        let big = u32::MAX as usize - 1;
        let mut hdr = [0u8; HDR_LEN];
        hdr[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        hdr[2] = VERSION;
        hdr[3] = 9;
        hdr[4..8].copy_from_slice(&(big as u32).to_le_bytes());
        let crc = fnv1a(&hdr[0..8]);
        hdr[8..12].copy_from_slice(&crc.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&hdr[..]), 1024).unwrap_err();
        assert_eq!(
            err,
            FrameError::TooLarge {
                len: big,
                max: 1024
            }
        );
    }

    #[test]
    fn max_boundary_is_inclusive() {
        let payload = vec![0xabu8; 64];
        let bytes = frame_bytes(2, &payload);
        assert!(read_frame(&mut Cursor::new(&bytes), 64).is_ok());
        let err = read_frame(&mut Cursor::new(&bytes), 63).unwrap_err();
        assert_eq!(err, FrameError::TooLarge { len: 64, max: 63 });
    }

    #[test]
    fn garbage_stream_never_panics() {
        // Deterministic pseudo-random garbage: decoding must produce typed
        // errors (or improbably a valid frame), never a panic.
        let garbage = garbage(0x9e3779b97f4a7c15, 4096);
        let _ = read_frame(&mut Cursor::new(&garbage), 1024);
    }
}
