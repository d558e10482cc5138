//! Encode scratch: one `Vec<u8>` per pool, reused across encodes.
//!
//! Every message encode needs somewhere to serialize into before the bytes
//! are published as an immutable [`WireBytes`](crate::WireBytes). A fresh
//! `Vec` per message would pay its growth reallocations on the runtime's
//! hottest path. [`EncodePool`] keeps one scratch buffer instead: an encode
//! clears it, serializes into it and publishes the result (inline when
//! small, one exact-size shared allocation otherwise), so at steady state
//! the scratch stays at its high-water capacity and a message costs at
//! most one allocation.
//!
//! The runtime owns one pool per PE (the scheduler is single-threaded per
//! PE, so no locking). Call sites without a PE at hand — proxy broadcast
//! encodes inside handlers, coroutine threads, checkpoint writes — use the
//! calling thread's pool via [`with_pool`], which is per-PE under the
//! threaded backend (one thread per PE) and process-wide under the
//! single-threaded simulator.

use std::cell::RefCell;

use crate::buffer::WireBytes;

/// Largest scratch capacity worth retaining; a bigger one is dropped after
/// its encode so one huge message cannot pin its allocation forever.
pub const MAX_POOLED_CAP: usize = 4 << 20;

/// One encode scratch buffer with hit/miss accounting.
///
/// Every encoded payload is serialized into the scratch and published from
/// it. Scratch hits/misses, inline-publish counts and encoded bytes are
/// accounted here and surfaced per PE in `PePerf` (the `slab_*` columns).
pub struct EncodePool {
    /// Empty capacity means "no buffer yet" (or the last one was dropped).
    scratch: Vec<u8>,
    hits: u64,
    misses: u64,
    bytes: u64,
    inline_count: u64,
}

impl EncodePool {
    /// An empty pool.
    pub const fn new() -> EncodePool {
        EncodePool {
            scratch: Vec::new(),
            hits: 0,
            misses: 0,
            bytes: 0,
            inline_count: 0,
        }
    }

    /// Run `f` on the cleared scratch buffer. A use that finds a buffer is
    /// a hit; the first use, and the first after an oversized one, has to
    /// allocate and is a miss.
    pub fn with_scratch<R>(&mut self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        if self.scratch.capacity() == 0 {
            self.misses += 1;
            self.scratch.reserve(256);
        } else {
            self.hits += 1;
        }
        self.scratch.clear();
        let r = f(&mut self.scratch);
        if self.scratch.capacity() > MAX_POOLED_CAP {
            self.scratch = Vec::new();
        }
        r
    }

    /// Serialize with `fill` into the scratch buffer and publish what it
    /// wrote as a [`WireBytes`]: inline (zero allocations) when small,
    /// otherwise one exact-size shared allocation. This is the single exit
    /// point of both codecs' shared-encode paths, so the inline and byte
    /// counts here are the authoritative per-pool tallies.
    pub fn encode_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> WireBytes {
        let published = self.with_scratch(|scratch| {
            fill(scratch);
            WireBytes::inline(scratch).unwrap_or_else(|| WireBytes::copy_from_slice(scratch))
        });
        self.inline_count += u64::from(published.is_inline());
        self.record_encoded(published.len());
        published
    }

    /// Scratch uses that found a buffer.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Scratch uses that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Count `n` bytes of encoded payload produced on this pool's PE
    /// (batch frames are built outside the scratch; read by the trace
    /// report).
    pub fn record_encoded(&mut self, n: usize) {
        self.bytes += n as u64;
    }

    /// Total encoded payload bytes produced through this pool.
    pub fn bytes_encoded(&self) -> u64 {
        self.bytes
    }

    /// Payloads published inline (no `Arc`, no heap) through this pool.
    pub fn inline_count(&self) -> u64 {
        self.inline_count
    }
}

impl Default for EncodePool {
    fn default() -> EncodePool {
        EncodePool::new()
    }
}

thread_local! {
    static TLS_POOL: RefCell<EncodePool> = const { RefCell::new(EncodePool::new()) };
}

/// Run `f` with the calling thread's encode pool.
pub fn with_pool<R>(f: impl FnOnce(&mut EncodePool) -> R) -> R {
    TLS_POOL.with(|p| f(&mut p.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_use_misses_then_hits() {
        let mut pool = EncodePool::new();
        let cap = pool.with_scratch(|buf| {
            buf.extend_from_slice(&[1, 2, 3]);
            buf.capacity()
        });
        assert_eq!((pool.hits(), pool.misses()), (0, 1));
        pool.with_scratch(|buf| {
            assert!(buf.is_empty(), "the scratch comes back cleared");
            assert_eq!(buf.capacity(), cap, "capacity is retained across reuse");
        });
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
    }

    #[test]
    fn encode_with_inlines_small_and_shares_large() {
        let mut pool = EncodePool::new();
        let mut publish = |bytes: &[u8]| pool.encode_with(|buf| buf.extend_from_slice(bytes));
        let small = publish(&[1, 2, 3]);
        assert!(small.is_inline());
        let large = publish(&[0u8; 200]);
        assert!(!large.is_inline());
        assert_eq!(&small[..], &[1, 2, 3]);
        assert_eq!(&large[..], &[0u8; 200]);
        assert_eq!(pool.inline_count(), 1);
        assert_eq!(pool.bytes_encoded(), 203);
    }

    #[test]
    fn thread_local_pool_is_reusable() {
        let first = with_pool(|p| {
            p.with_scratch(|_| ());
            p.misses()
        });
        let hits = with_pool(|p| {
            p.with_scratch(|_| ());
            p.hits()
        });
        assert!(first >= 1);
        assert!(hits >= 1);
    }
}
