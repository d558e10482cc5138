//! # charm-wire — serialization substrate for charm-rs
//!
//! One owned trait, [`Wire`], and two formats model the two serialization
//! regimes of the CharmPy paper (§IV-B):
//!
//! * [`fast`] — compact, schema-static. The analog of Charm++'s native
//!   message packing: no field names, no tags, enum variants by index.
//! * [`pickle`] — self-describing and name-carrying. The analog of Python
//!   pickle, used by the runtime's dynamic-dispatch (CharmPy-like) mode.
//!
//! [`Buf<T>`](buffer::Buf) provides the NumPy-array fast path: a contiguous
//! numeric buffer that serializes as a single raw byte block under *both*
//! formats, bypassing per-element work entirely.
//!
//! Types opt in with [`wire_struct!`] / [`wire_enum!`]. The crate also owns
//! the workspace's one seeded PRNG ([`SplitMix64`]), being the lowest crate
//! every user of it reaches.

// The payload-copy rule (DESIGN.md §6). Unsafe code is denied workspace-wide;
// buffer.rs holds the only two exceptions.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod buffer;
pub mod codec;
pub mod error;
pub mod fast;
pub mod frame;
mod macros;
pub mod pickle;
pub mod pool;
pub mod rng;
pub mod varint;

pub use buffer::{Buf, Scalar, WireBytes, INLINE_CAP};
pub use codec::{Reader, Wire, Writer};
pub use error::{Result, WireError};
pub use pool::EncodePool;
pub use rng::{splitmix64, SplitMix64};

use fast::{FastReader, FastWriter};
use pickle::{PickleReader, PickleWriter};

/// Which wire format to use for a message.
///
/// The runtime selects this from its dispatch mode: `Native` dispatch uses
/// `Fast`, `Dynamic` (CharmPy-like) dispatch uses `Pickle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// Compact schema-static format (Charm++-analog).
    #[default]
    Fast,
    /// Self-describing tagged format (pickle-analog).
    Pickle,
}

impl Codec {
    /// Encode `value` under this codec.
    pub fn encode<T: Wire>(self, value: &T) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out, value);
        out
    }

    /// Encode `value` under this codec, appending to `out`.
    pub fn encode_into<T: Wire>(self, out: &mut Vec<u8>, value: &T) {
        match self {
            Codec::Fast => value.encode(&mut FastWriter::new(out)),
            Codec::Pickle => value.encode(&mut PickleWriter::new(out)),
        }
    }

    /// Encode `value` into a shared, refcounted [`WireBytes`] payload,
    /// using the calling thread's scratch pool for the transient encode.
    pub fn encode_shared<T: Wire>(self, value: &T) -> WireBytes {
        pool::with_pool(|p| self.encode_shared_with(p, value))
    }

    /// Encode `value` into a shared payload using an explicit scratch pool
    /// (the per-PE pool on the runtime's send path). The transient encode
    /// goes through the pool's scratch buffer (reused across calls, so
    /// steady state pays no growth reallocation); the result is published
    /// by the pool — inline for small payloads (zero allocations), one
    /// exact-size shared allocation otherwise.
    pub fn encode_shared_with<T: Wire>(self, pool: &mut EncodePool, value: &T) -> WireBytes {
        pool.encode_with(|scratch| self.encode_into(scratch, value))
    }

    /// Decode a `T` from `bytes` under this codec, consuming all input.
    pub fn decode<T: Wire>(self, bytes: &[u8]) -> Result<T> {
        fn finish<T>(value: T, left: usize) -> Result<T> {
            if left != 0 {
                return Err(WireError::TrailingBytes(left));
            }
            Ok(value)
        }
        match self {
            Codec::Fast => {
                let mut r = FastReader::new(bytes);
                finish(T::decode(&mut r)?, r.remaining())
            }
            Codec::Pickle => {
                let mut r = PickleReader::new(bytes);
                finish(T::decode(&mut r)?, r.remaining())
            }
        }
    }
}
