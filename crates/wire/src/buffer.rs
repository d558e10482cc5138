//! Zero-copy contiguous numeric buffers — the NumPy-array fast path —
//! plus [`WireBytes`], the shared refcounted payload every encoded message
//! travels in.
//!
//! CharmPy bypasses pickle for NumPy arrays: their contiguous memory is
//! copied directly into the message and rebuilt from metadata at the
//! destination (paper §IV-B). [`Buf<T>`] is the equivalent here: a typed
//! contiguous array that serializes as one raw byte block in *both* codecs,
//! so even the pickle (dynamic-dispatch) path moves bulk data at memcpy
//! speed. Application critical paths should carry their grids/particles in
//! `Buf<T>`, exactly as the paper recommends NumPy arrays.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::codec::{Reader, Wire, Writer};
use crate::error::{Result, WireError};

mod sealed {
    pub trait Sealed {}
}

/// Plain-old-data scalars that may be reinterpreted as raw bytes.
///
/// Sealed: implemented only for primitive numeric types with no padding and
/// no invalid bit patterns. The wire format is the machine representation of
/// the elements (little-endian on all supported targets).
pub trait Scalar: sealed::Sealed + Copy + Default + Send + Sync + 'static {}

macro_rules! impl_scalar {
    ($($t:ty),*) => {
        $(impl sealed::Sealed for $t {}
          impl Scalar for $t {})*
    };
}

impl_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

// The raw-bytes representation assumes little-endian layout; all tier-1 Rust
// targets and every machine in the paper's evaluation are little-endian.
#[cfg(target_endian = "big")]
compile_error!("charm-wire Buf<T> requires a little-endian target");

/// A contiguous typed buffer with a zero-copy wire representation.
///
/// Dereferences to `[T]`, so it can be used like a `Vec<T>` for computation.
#[derive(Clone, PartialEq, Default)]
pub struct Buf<T: Scalar> {
    data: Vec<T>,
}

impl<T: Scalar> Buf<T> {
    /// Create an empty buffer.
    pub fn new() -> Self {
        Buf { data: Vec::new() }
    }

    /// Create a zero-filled buffer of `len` elements.
    pub fn zeros(len: usize) -> Self {
        Buf {
            data: vec![T::default(); len],
        }
    }

    /// Wrap an existing vector without copying.
    pub fn from_vec(data: Vec<T>) -> Self {
        Buf { data }
    }

    /// Consume the buffer, returning the underlying vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// View the elements as raw bytes.
    #[expect(unsafe_code, reason = "unsafe: zero-copy view of sealed POD scalars")]
    pub fn as_bytes(&self) -> &[u8] {
        let ptr = self.data.as_ptr() as *const u8;
        let len = self.data.len() * std::mem::size_of::<T>();
        // SAFETY: `T: Scalar` is sealed to padding-free POD primitives, so
        // every byte of the element storage is initialized, and the
        // reinterpreted length covers exactly the initialized prefix.
        unsafe { std::slice::from_raw_parts(ptr, len) }
    }

    /// Rebuild a buffer from raw bytes produced by [`Buf::as_bytes`].
    ///
    /// Returns `None` if `bytes` is not a whole number of elements.
    #[expect(unsafe_code, reason = "unsafe: copy bytes into sealed POD scalars")]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let esz = std::mem::size_of::<T>();
        if !bytes.len().is_multiple_of(esz) {
            return None;
        }
        let len = bytes.len() / esz;
        let mut data: Vec<T> = Vec::with_capacity(len);
        // SAFETY: the destination has capacity for `len` elements; the source
        // holds `len * size_of::<T>()` bytes; `T` is POD so any bit pattern
        // is a valid value; regions cannot overlap (fresh allocation).
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                data.as_mut_ptr() as *mut u8,
                bytes.len(),
            );
            data.set_len(len);
        }
        Some(Buf { data })
    }
}

impl<T: Scalar> From<Vec<T>> for Buf<T> {
    fn from(data: Vec<T>) -> Self {
        Buf { data }
    }
}

impl<T: Scalar> Deref for Buf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Scalar> DerefMut for Buf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Scalar + fmt::Debug> fmt::Debug for Buf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Buf(len={})", self.data.len())?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", &self.data)?;
        }
        Ok(())
    }
}

impl<T: Scalar> Wire for Buf<T> {
    fn encode<W: Writer>(&self, w: &mut W) -> Result<()> {
        w.put_bytes(self.as_bytes());
        Ok(())
    }
    fn decode<R: Reader>(r: &mut R) -> Result<Self> {
        let bytes = r.get_bytes()?;
        Buf::from_bytes(bytes).ok_or(WireError::InvalidLength(bytes.len() as u64))
    }
}

/// Largest payload (in bytes) representable inline inside a [`WireBytes`]
/// handle itself, with no shared allocation behind it. Payloads strictly
/// shorter than 64 bytes fit.
pub const INLINE_CAP: usize = 63;

/// Internal representation: a refcounted shared allocation (the general
/// case, cheap fan-out clones) or a small fixed array stored directly in
/// the handle (the per-message fast path, zero allocations).
#[derive(Clone)]
enum Repr {
    Shared(Arc<[u8]>),
    Inline { len: u8, buf: [u8; INLINE_CAP] },
}

/// An immutable, reference-counted encoded payload.
///
/// Fan-out (broadcasts, section multicasts, collection creation) hands the
/// same encoded bytes to every destination. `WireBytes` makes that sharing
/// explicit and cheap: a clone bumps a refcount, never copies the bytes.
/// The buffer is immutable once built, so shares are safe across the
/// threaded backend's PE threads (`Arc<[u8]>` is `Send + Sync`).
///
/// Whether two handles share one allocation is observable via
/// [`WireBytes::ptr_eq`] — the zero-copy tests assert it.
///
/// Small payloads (< 64 B) built via [`WireBytes::inline`] skip the shared
/// allocation entirely and live inside the handle — the runtime's
/// per-message fast path. Inline handles clone by `memcpy` (still cheap at
/// this size) and are never `ptr_eq` to anything.
#[derive(Clone)]
pub struct WireBytes {
    repr: Repr,
}

impl Default for WireBytes {
    fn default() -> WireBytes {
        WireBytes {
            repr: Repr::Inline {
                len: 0,
                buf: [0; INLINE_CAP],
            },
        }
    }
}

impl WireBytes {
    /// An empty payload.
    pub fn new() -> WireBytes {
        WireBytes::default()
    }

    /// Take ownership of an encoded buffer. One exact-size shared
    /// allocation; the vector's storage is released.
    pub fn from_vec(v: Vec<u8>) -> WireBytes {
        WireBytes {
            repr: Repr::Shared(Arc::from(v)),
        }
    }

    /// Copy `bytes` into a new exact-size shared allocation. This is the
    /// encode-pool path: the scratch buffer stays with the pool and only
    /// the final bytes are published.
    pub fn copy_from_slice(bytes: &[u8]) -> WireBytes {
        WireBytes {
            repr: Repr::Shared(Arc::from(bytes)),
        }
    }

    /// Store `bytes` directly inside the handle with **zero** heap
    /// allocations, when they fit ([`INLINE_CAP`]). Returns `None` for
    /// larger payloads — callers fall back to [`copy_from_slice`].
    ///
    /// [`copy_from_slice`]: WireBytes::copy_from_slice
    pub fn inline(bytes: &[u8]) -> Option<WireBytes> {
        if bytes.len() > INLINE_CAP {
            return None;
        }
        let mut buf = [0u8; INLINE_CAP];
        buf[..bytes.len()].copy_from_slice(bytes);
        Some(WireBytes {
            repr: Repr::Inline {
                len: bytes.len() as u8,
                buf,
            },
        })
    }

    /// Whether this payload is stored inline (no shared allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Length of the encoded payload.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Shared(d) => d.len(),
            Repr::Inline { len, .. } => *len as usize,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The encoded bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Shared(d) => d,
            Repr::Inline { len, buf } => &buf[..*len as usize],
        }
    }

    /// Whether `a` and `b` share one allocation (no copy ever happened
    /// between them). Inline payloads own no allocation, so they are never
    /// `ptr_eq` — compare by value (`==`) instead.
    pub fn ptr_eq(a: &WireBytes, b: &WireBytes) -> bool {
        match (&a.repr, &b.repr) {
            (Repr::Shared(x), Repr::Shared(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// Number of live handles to this allocation (diagnostics/tests).
    /// Inline payloads report 1: each handle is its own storage.
    pub fn ref_count(&self) -> usize {
        match &self.repr {
            Repr::Shared(d) => Arc::strong_count(d),
            Repr::Inline { .. } => 1,
        }
    }
}

impl Deref for WireBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for WireBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for WireBytes {
    fn from(v: Vec<u8>) -> WireBytes {
        WireBytes::from_vec(v)
    }
}

impl From<&[u8]> for WireBytes {
    fn from(bytes: &[u8]) -> WireBytes {
        WireBytes::copy_from_slice(bytes)
    }
}

impl PartialEq for WireBytes {
    fn eq(&self, other: &WireBytes) -> bool {
        WireBytes::ptr_eq(self, other) || self.as_slice() == other.as_slice()
    }
}

impl Eq for WireBytes {}

impl fmt::Debug for WireBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inline() {
            write!(f, "WireBytes({}B, inline)", self.len())
        } else {
            write!(f, "WireBytes({}B, {} refs)", self.len(), self.ref_count())
        }
    }
}

/// One raw byte block under both formats, like [`Buf`]: an envelope that
/// crosses a process boundary writes its payload straight from the shared
/// allocation, and the receiver rebuilds one exact-size allocation.
impl Wire for WireBytes {
    fn encode<W: Writer>(&self, w: &mut W) -> Result<()> {
        w.put_bytes(self.as_slice());
        Ok(())
    }
    fn decode<R: Reader>(r: &mut R) -> Result<Self> {
        r.get_bytes().map(WireBytes::copy_from_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_f64() {
        let b = Buf::from_vec(vec![1.5f64, -2.25, 0.0, f64::MAX]);
        let raw = b.as_bytes().to_vec();
        assert_eq!(raw.len(), 32);
        let back: Buf<f64> = Buf::from_bytes(&raw).unwrap();
        assert_eq!(&*back, &*b);
    }

    #[test]
    fn misaligned_length_rejected() {
        assert!(Buf::<f64>::from_bytes(&[0u8; 9]).is_none());
        assert!(Buf::<u32>::from_bytes(&[0u8; 3]).is_none());
    }

    #[test]
    fn empty_buffer() {
        let b: Buf<f32> = Buf::new();
        assert_eq!(b.as_bytes().len(), 0);
        let back: Buf<f32> = Buf::from_bytes(&[]).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn deref_mutation() {
        let mut b = Buf::<i32>::zeros(4);
        b[2] = 7;
        assert_eq!(b.into_vec(), vec![0, 0, 7, 0]);
    }

    #[test]
    fn wirebytes_clone_shares_allocation() {
        let wb = WireBytes::from_vec(vec![1, 2, 3, 4]);
        let c = wb.clone();
        assert!(WireBytes::ptr_eq(&wb, &c));
        assert_eq!(&c[..], &[1, 2, 3, 4]);
        assert_eq!(wb.ref_count(), 2);
    }

    #[test]
    fn wirebytes_empty_and_eq() {
        let e = WireBytes::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        // Value equality holds across distinct allocations too.
        let a = WireBytes::copy_from_slice(b"abc");
        let b = WireBytes::from_vec(b"abc".to_vec());
        assert!(!WireBytes::ptr_eq(&a, &b));
        assert_eq!(a, b);
    }

    #[test]
    fn wirebytes_inline_fits_under_cap_only() {
        let small = WireBytes::inline(b"hello").expect("5B fits inline");
        assert!(small.is_inline());
        assert_eq!(small.len(), 5);
        assert_eq!(&small[..], b"hello");
        assert_eq!(small.ref_count(), 1);
        let edge = WireBytes::inline(&[7u8; INLINE_CAP]).expect("cap-size fits");
        assert_eq!(edge.len(), INLINE_CAP);
        assert!(WireBytes::inline(&[0u8; INLINE_CAP + 1]).is_none());
    }

    #[test]
    fn wirebytes_inline_clones_and_compares_by_value() {
        let a = WireBytes::inline(b"xyz").unwrap();
        let c = a.clone();
        // Inline handles own their bytes: clones are copies, never shares.
        assert!(!WireBytes::ptr_eq(&a, &c));
        assert_eq!(a, c);
        // Value equality crosses representations.
        let shared = WireBytes::copy_from_slice(b"xyz");
        assert!(!shared.is_inline());
        assert_eq!(a, shared);
        assert_eq!(format!("{a:?}"), "WireBytes(3B, inline)");
    }

    #[test]
    fn wirebytes_shared_constructors_stay_shared() {
        // `from_vec`/`copy_from_slice` must keep producing the shared
        // representation even for tiny inputs — fan-out paths rely on
        // `ptr_eq` to observe one-allocation sharing.
        let v = WireBytes::from_vec(vec![1, 2]);
        let s = WireBytes::copy_from_slice(&[3]);
        assert!(!v.is_inline() && !s.is_inline());
        assert!(WireBytes::ptr_eq(&v, &v.clone()));
    }
}
