//! Identifier types: PEs, collections, chare indices, futures.

use std::fmt;

use charm_wire::wire_struct;

/// A processing element number (`0..num_pes`).
pub type Pe = usize;

/// Globally unique identifier of a chare collection (or singleton chare).
///
/// Allocated deterministically as `(creator_pe, creator_sequence)`, so any
/// PE can mint new ids without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollectionId {
    /// PE that created the collection.
    pub creator: u32,
    /// Creation sequence number on that PE.
    pub seq: u32,
}
wire_struct! { CollectionId { creator, seq } }

impl fmt::Display for CollectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coll{}.{}", self.creator, self.seq)
    }
}

/// Maximum number of array dimensions supported (Charm++ supports 6D; the
/// LeanMD pair-compute array uses all six).
pub const MAX_DIMS: usize = 6;

/// Index of a chare within its collection: an N-dimensional integer tuple
/// (N ≤ [`MAX_DIMS`]). Singletons use the empty index; groups use the
/// 1-tuple of their PE number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Index {
    len: u8,
    v: [i32; MAX_DIMS],
}
wire_struct! { Index { len, v } }

impl Index {
    /// The empty index used by singleton chares.
    pub const SINGLE: Index = Index {
        len: 0,
        v: [0; MAX_DIMS],
    };

    /// Construct from a slice of coordinates (up to [`MAX_DIMS`]).
    ///
    /// # Panics
    /// Panics if `coords.len() > MAX_DIMS`.
    pub fn new(coords: &[i32]) -> Index {
        assert!(
            coords.len() <= MAX_DIMS,
            "index dimensionality {} exceeds MAX_DIMS={}",
            coords.len(),
            MAX_DIMS
        );
        let mut v = [0; MAX_DIMS];
        v[..coords.len()].copy_from_slice(coords);
        Index {
            len: coords.len() as u8,
            v,
        }
    }

    /// The 1-D index used by group members on PE `pe`.
    pub fn pe(pe: Pe) -> Index {
        Index::new(&[pe as i32])
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.len as usize
    }

    /// The coordinates as a slice.
    pub fn coords(&self) -> &[i32] {
        &self.v[..self.len as usize]
    }

    /// First coordinate; convenient for 1-D arrays and groups.
    ///
    /// # Panics
    /// Panics on the empty (singleton) index.
    pub fn first(&self) -> i32 {
        assert!(self.len > 0, "singleton index has no coordinates");
        self.v[0]
    }

    /// A stable hash of the coordinates, used to derive an element's home PE.
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over the used coordinates; must be identical on every PE,
        // so no std RandomState here.
        let mut h: u64 = 0xcbf29ce484222325;
        h = (h ^ self.len as u64).wrapping_mul(0x100000001b3);
        for &c in self.coords() {
            h = (h ^ (c as u32 as u64)).wrapping_mul(0x100000001b3);
        }
        h
    }
}

fn fmt_index(ix: &Index, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "(")?;
    for (i, c) in ix.coords().iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{c}")?;
    }
    write!(f, ")")
}

impl fmt::Debug for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_index(self, f)
    }
}

impl fmt::Display for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_index(self, f)
    }
}

impl From<i32> for Index {
    fn from(v: i32) -> Index {
        Index::new(&[v])
    }
}
impl From<usize> for Index {
    fn from(v: usize) -> Index {
        Index::new(&[v as i32])
    }
}
impl From<(i32, i32)> for Index {
    fn from(v: (i32, i32)) -> Index {
        Index::new(&[v.0, v.1])
    }
}
impl From<(i32, i32, i32)> for Index {
    fn from(v: (i32, i32, i32)) -> Index {
        Index::new(&[v.0, v.1, v.2])
    }
}
impl From<(i32, i32, i32, i32, i32, i32)> for Index {
    fn from(v: (i32, i32, i32, i32, i32, i32)) -> Index {
        Index::new(&[v.0, v.1, v.2, v.3, v.4, v.5])
    }
}
impl From<[i32; 1]> for Index {
    fn from(v: [i32; 1]) -> Index {
        Index::new(&v)
    }
}
impl From<[i32; 2]> for Index {
    fn from(v: [i32; 2]) -> Index {
        Index::new(&v)
    }
}
impl From<[i32; 3]> for Index {
    fn from(v: [i32; 3]) -> Index {
        Index::new(&v)
    }
}
impl From<[i32; 6]> for Index {
    fn from(v: [i32; 6]) -> Index {
        Index::new(&v)
    }
}

/// Fully qualified identity of one chare: its collection plus its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChareId {
    /// The collection this chare belongs to.
    pub coll: CollectionId,
    /// The chare's index within the collection.
    pub index: Index,
}
wire_struct! { ChareId { coll, index } }

impl fmt::Display for ChareId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.coll, self.index)
    }
}

/// Identifier of a distributed future; minted on the waiting PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FutureId {
    /// PE where the future was created (and where its value is delivered).
    pub pe: u32,
    /// Per-PE sequence number.
    pub seq: u64,
}
wire_struct! { FutureId { pe, seq } }

/// Per-PE identifier of a running coroutine (threaded entry method).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoroId(pub u64);

/// Identifier of the chare type in the registry (dense, assigned by
/// registration order, identical on every PE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChareTypeId(pub u32);
wire_struct! { ChareTypeId(a) }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_construction_and_accessors() {
        let i = Index::new(&[3, -4, 5]);
        assert_eq!(i.dims(), 3);
        assert_eq!(i.coords(), &[3, -4, 5]);
        assert_eq!(i.first(), 3);
        assert_eq!(format!("{i}"), "(3,-4,5)");
    }

    #[test]
    fn singleton_index() {
        assert_eq!(Index::SINGLE.dims(), 0);
        assert_eq!(format!("{}", Index::SINGLE), "()");
    }

    #[test]
    fn conversions() {
        assert_eq!(Index::from(7i32), Index::new(&[7]));
        assert_eq!(Index::from(7usize), Index::new(&[7]));
        assert_eq!(Index::from((1, 2)), Index::new(&[1, 2]));
        assert_eq!(Index::from((1, 2, 3)), Index::new(&[1, 2, 3]));
        assert_eq!(Index::from([1, 2, 3]), Index::new(&[1, 2, 3]));
    }

    #[test]
    fn equality_respects_dims() {
        // (1) and (1,0) differ even though the padded storage is identical.
        assert_ne!(Index::new(&[1]), Index::new(&[1, 0]));
        assert_ne!(Index::SINGLE, Index::new(&[0]));
    }

    #[test]
    fn stable_hash_distinguishes_dims_and_is_deterministic() {
        assert_ne!(
            Index::new(&[1]).stable_hash(),
            Index::new(&[1, 0]).stable_hash()
        );
        assert_eq!(
            Index::new(&[5, 6]).stable_hash(),
            Index::new(&[5, 6]).stable_hash()
        );
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DIMS")]
    fn too_many_dims_panics() {
        let _ = Index::new(&[0; 7]);
    }
}
