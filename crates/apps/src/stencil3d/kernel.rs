//! The 7-point Jacobi kernel and ghost-face plumbing.
//!
//! A block stores `(nx+2)·(ny+2)·(nz+2)` doubles: the interior plus one
//! ghost layer per face. Indexing is row-major `[x][y][z]` with `z`
//! fastest. The kernel is what Numba JIT-compiles in the paper — here it is
//! plain Rust, the same "machine-optimized code" end state.

use charm_wire::{wire_enum, wire_struct};

/// The six faces of a block, in the fixed exchange order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Face {
    /// −x neighbor.
    XM = 0,
    /// +x neighbor.
    XP = 1,
    /// −y neighbor.
    YM = 2,
    /// +y neighbor.
    YP = 3,
    /// −z neighbor.
    ZM = 4,
    /// +z neighbor.
    ZP = 5,
}
wire_enum! { Face { XM, XP, YM, YP, ZM, ZP } }

/// All faces, in order.
pub const FACES: [Face; 6] = [Face::XM, Face::XP, Face::YM, Face::YP, Face::ZM, Face::ZP];

impl Face {
    /// Decode from its `u8` discriminant.
    pub fn from_u8(v: u8) -> Face {
        FACES[v as usize]
    }

    /// The opposite face (the one the receiving neighbor applies).
    pub fn opposite(self) -> Face {
        match self {
            Face::XM => Face::XP,
            Face::XP => Face::XM,
            Face::YM => Face::YP,
            Face::YP => Face::YM,
            Face::ZM => Face::ZP,
            Face::ZP => Face::ZM,
        }
    }

    /// Unit offset in block coordinates.
    pub fn offset(self) -> [i32; 3] {
        match self {
            Face::XM => [-1, 0, 0],
            Face::XP => [1, 0, 0],
            Face::YM => [0, -1, 0],
            Face::YP => [0, 1, 0],
            Face::ZM => [0, 0, -1],
            Face::ZP => [0, 0, 1],
        }
    }
}

/// A block with ghost layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Interior extent in x.
    pub nx: usize,
    /// Interior extent in y.
    pub ny: usize,
    /// Interior extent in z.
    pub nz: usize,
    /// `(nx+2)(ny+2)(nz+2)` values, ghosts included.
    pub data: Vec<f64>,
}
wire_struct! { Block { nx, ny, nz, data } }

impl Block {
    /// A zero block of the given interior size.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Block {
        Block {
            nx,
            ny,
            nz,
            data: vec![0.0; (nx + 2) * (ny + 2) * (nz + 2)],
        }
    }

    /// Linear index of padded coordinates (ghosts at 0 and n+1).
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> usize {
        (x * (self.ny + 2) + y) * (self.nz + 2) + z
    }

    /// Fill the interior from a function of *global-ish* coordinates.
    pub fn fill(&mut self, mut f: impl FnMut(usize, usize, usize) -> f64) {
        for x in 1..=self.nx {
            for y in 1..=self.ny {
                for z in 1..=self.nz {
                    let i = self.at(x, y, z);
                    self.data[i] = f(x - 1, y - 1, z - 1);
                }
            }
        }
    }

    /// Copy one interior boundary plane out, for sending to a neighbor.
    pub fn extract_face(&self, face: Face) -> Vec<f64> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let mut out = Vec::with_capacity(match face {
            Face::XM | Face::XP => ny * nz,
            Face::YM | Face::YP => nx * nz,
            Face::ZM | Face::ZP => nx * ny,
        });
        match face {
            Face::XM | Face::XP => {
                let x = if face == Face::XM { 1 } else { nx };
                for y in 1..=ny {
                    for z in 1..=nz {
                        out.push(self.data[self.at(x, y, z)]);
                    }
                }
            }
            Face::YM | Face::YP => {
                let y = if face == Face::YM { 1 } else { ny };
                for x in 1..=nx {
                    for z in 1..=nz {
                        out.push(self.data[self.at(x, y, z)]);
                    }
                }
            }
            Face::ZM | Face::ZP => {
                let z = if face == Face::ZM { 1 } else { nz };
                for x in 1..=nx {
                    for y in 1..=ny {
                        out.push(self.data[self.at(x, y, z)]);
                    }
                }
            }
        }
        out
    }

    /// Write a received neighbor plane into this block's ghost layer on
    /// `face`.
    pub fn apply_ghost(&mut self, face: Face, ghost: &[f64]) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let mut it = ghost.iter();
        match face {
            Face::XM | Face::XP => {
                assert_eq!(ghost.len(), ny * nz, "ghost size mismatch on {face:?}");
                let x = if face == Face::XM { 0 } else { nx + 1 };
                for y in 1..=ny {
                    for z in 1..=nz {
                        let i = self.at(x, y, z);
                        self.data[i] = *it.next().unwrap();
                    }
                }
            }
            Face::YM | Face::YP => {
                assert_eq!(ghost.len(), nx * nz, "ghost size mismatch on {face:?}");
                let y = if face == Face::YM { 0 } else { ny + 1 };
                for x in 1..=nx {
                    for z in 1..=nz {
                        let i = self.at(x, y, z);
                        self.data[i] = *it.next().unwrap();
                    }
                }
            }
            Face::ZM | Face::ZP => {
                assert_eq!(ghost.len(), nx * ny, "ghost size mismatch on {face:?}");
                let z = if face == Face::ZM { 0 } else { nz + 1 };
                for x in 1..=nx {
                    for y in 1..=ny {
                        let i = self.at(x, y, z);
                        self.data[i] = *it.next().unwrap();
                    }
                }
            }
        }
    }

    /// One Jacobi sweep: every interior point becomes the average of itself
    /// and its six neighbors. Returns the new block data; ghost layers are
    /// copied through unchanged.
    pub fn jacobi_step(&self) -> Vec<f64> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let mut next = self.data.clone();
        let syz = (ny + 2) * (nz + 2);
        let sz = nz + 2;
        let d = &self.data;
        for x in 1..=nx {
            for y in 1..=ny {
                let row = x * syz + y * sz;
                for z in 1..=nz {
                    let i = row + z;
                    next[i] = (d[i]
                        + d[i - syz]
                        + d[i + syz]
                        + d[i - sz]
                        + d[i + sz]
                        + d[i - 1]
                        + d[i + 1])
                        / 7.0;
                }
            }
        }
        next
    }

    /// Sum and an index-weighted sum over the interior — a cheap
    /// permutation-sensitive checksum for cross-implementation validation.
    pub fn checksum(&self) -> (f64, f64) {
        let mut s = 0.0;
        let mut w = 0.0;
        let mut k = 0u64;
        for x in 1..=self.nx {
            for y in 1..=self.ny {
                for z in 1..=self.nz {
                    let v = self.data[self.at(x, y, z)];
                    s += v;
                    w += v * ((k % 97) as f64 + 1.0);
                    k += 1;
                }
            }
        }
        (s, w)
    }
}

/// Reference implementation of the full-grid Jacobi sweep (no blocking),
/// used by tests to validate the distributed versions. Boundary is
/// Dirichlet-zero, matching the block version's untouched edge ghosts.
pub fn naive_jacobi(grid: &[f64], dims: [usize; 3], iters: usize) -> Vec<f64> {
    let [gx, gy, gz] = dims;
    let mut cur = grid.to_vec();
    let mut next = vec![0.0; cur.len()];
    let at = |x: i64, y: i64, z: i64, g: &[f64]| -> f64 {
        if x < 0 || y < 0 || z < 0 || x >= gx as i64 || y >= gy as i64 || z >= gz as i64 {
            0.0
        } else {
            g[(x as usize * gy + y as usize) * gz + z as usize]
        }
    };
    for _ in 0..iters {
        for x in 0..gx as i64 {
            for y in 0..gy as i64 {
                for z in 0..gz as i64 {
                    let v = at(x, y, z, &cur)
                        + at(x - 1, y, z, &cur)
                        + at(x + 1, y, z, &cur)
                        + at(x, y - 1, z, &cur)
                        + at(x, y + 1, z, &cur)
                        + at(x, y, z - 1, &cur)
                        + at(x, y, z + 1, &cur);
                    next[(x as usize * gy + y as usize) * gz + z as usize] = v / 7.0;
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn face_opposites() {
        for f in FACES {
            assert_eq!(f.opposite().opposite(), f);
            let o = f.offset();
            let oo = f.opposite().offset();
            assert_eq!([o[0] + oo[0], o[1] + oo[1], o[2] + oo[2]], [0, 0, 0]);
        }
    }

    #[test]
    fn extract_apply_roundtrip() {
        let mut a = Block::zeros(3, 4, 5);
        a.fill(|x, y, z| (x * 100 + y * 10 + z) as f64);
        let mut b = Block::zeros(3, 4, 5);
        for f in FACES {
            let face = a.extract_face(f);
            // The neighbor on face f applies it to its opposite ghost.
            b.apply_ghost(f.opposite(), &face);
        }
        // Spot-check: a's XP interior plane equals b's XM ghost plane.
        for y in 1..=4 {
            for z in 1..=5 {
                assert_eq!(b.data[b.at(0, y, z)], a.data[a.at(3, y, z)]);
            }
        }
    }

    #[test]
    fn jacobi_uniform_block_stays_uniform_inside() {
        let mut b = Block::zeros(4, 4, 4);
        b.fill(|_, _, _| 7.0);
        // Fill the ghosts as if surrounded by identical blocks.
        for f in FACES {
            let plane = b.extract_face(f);
            let same: Vec<f64> = plane.iter().map(|_| 7.0).collect();
            b.apply_ghost(f, &same);
        }
        let next = b.jacobi_step();
        for x in 1..=4usize {
            for y in 1..=4usize {
                for z in 1..=4usize {
                    let i = b.at(x, y, z);
                    assert!((next[i] - 7.0).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn single_block_matches_naive_reference() {
        // One block covering the whole grid with zero ghosts must equal the
        // naive Dirichlet solver.
        let dims = [4usize, 3, 5];
        let mut b = Block::zeros(dims[0], dims[1], dims[2]);
        let mut flat = vec![0.0; dims[0] * dims[1] * dims[2]];
        let mut k = 0;
        b.fill(|x, y, z| {
            let v = ((x * 31 + y * 17 + z * 7) % 13) as f64;
            flat[(x * dims[1] + y) * dims[2] + z] = v;
            k += 1;
            v
        });
        assert_eq!(k, 60);
        let mut cur = b.clone();
        for _ in 0..5 {
            cur.data = cur.jacobi_step();
        }
        let reference = naive_jacobi(&flat, dims, 5);
        for x in 0..dims[0] {
            for y in 0..dims[1] {
                for z in 0..dims[2] {
                    let got = cur.data[cur.at(x + 1, y + 1, z + 1)];
                    let want = reference[(x * dims[1] + y) * dims[2] + z];
                    assert!(
                        (got - want).abs() < 1e-12,
                        "mismatch at ({x},{y},{z}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_detects_permutation() {
        let mut a = Block::zeros(2, 2, 2);
        a.fill(|x, y, z| (x + 2 * y + 4 * z) as f64);
        let mut b = Block::zeros(2, 2, 2);
        b.fill(|x, y, z| (z + 2 * y + 4 * x) as f64); // same multiset, permuted
        assert_eq!(a.checksum().0, b.checksum().0);
        assert_ne!(a.checksum().1, b.checksum().1);
    }
}
