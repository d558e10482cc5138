//! LeanMD — the paper's molecular dynamics mini-app (§V-C).
//!
//! Structure follows the Charm++ original: a dense 3D chare array of
//! *cells* (spatial boxes holding particles) and a *sparse* 6D chare array
//! of *pair computes*, one per adjacent cell pair (self-pairs included).
//! Each timestep every cell sends its particle positions to the computes it
//! participates in; computes evaluate Lennard-Jones forces and return them;
//! cells integrate and periodically exchange particles that crossed cell
//! boundaries. The decomposition is deliberately fine-grained — hundreds of
//! chares per PE at scale — which is exactly the regime where the paper
//! reports CharmPy's ~20% runtime overhead over Charm++.

pub mod charm;
pub mod physics;

use charm_wire::{wire_struct, SplitMix64};

pub use physics::Particle;

/// Cell coordinates.
pub type Cell = [usize; 3];

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct MdParams {
    /// Cell grid extent.
    pub cells: [usize; 3],
    /// Particles initially placed in each cell.
    pub per_cell: usize,
    /// Edge length of one cell (must be ≥ the force cutoff).
    pub cell_size: f64,
    /// Force cutoff radius.
    pub cutoff: f64,
    /// Timestep.
    pub dt: f64,
    /// Steps to run.
    pub steps: u32,
    /// Exchange boundary-crossing particles every this many steps.
    pub migrate_every: u32,
    /// RNG seed for initial velocities.
    pub seed: u64,
}
wire_struct! { MdParams { cells, per_cell, cell_size, cutoff, dt, steps, migrate_every, seed } }

impl MdParams {
    /// A small, stable default configuration.
    pub fn small() -> MdParams {
        MdParams {
            cells: [3, 3, 3],
            per_cell: 8,
            cell_size: 4.0,
            cutoff: 4.0,
            dt: 0.002,
            steps: 20,
            migrate_every: 5,
            seed: 42,
        }
    }

    /// Simulation box dimensions.
    pub fn box_dims(&self) -> [f64; 3] {
        [
            self.cells[0] as f64 * self.cell_size,
            self.cells[1] as f64 * self.cell_size,
            self.cells[2] as f64 * self.cell_size,
        ]
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.iter().product()
    }

    /// Total particles.
    pub fn num_particles(&self) -> usize {
        self.num_cells() * self.per_cell
    }

    /// The cell owning a position.
    pub fn cell_of(&self, pos: [f64; 3]) -> Cell {
        let mut c = [0usize; 3];
        for k in 0..3 {
            let idx = (pos[k] / self.cell_size).floor() as i64;
            c[k] = idx.rem_euclid(self.cells[k] as i64) as usize;
        }
        c
    }

    /// The 26 periodic neighbor cells of `c`, deduplicated (degenerate
    /// small grids fold several offsets onto one cell), sorted, excluding
    /// `c` itself.
    pub fn neighbor_cells(&self, c: Cell) -> Vec<Cell> {
        let mut out = Vec::new();
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let n = [
                        (c[0] as i64 + dx).rem_euclid(self.cells[0] as i64) as usize,
                        (c[1] as i64 + dy).rem_euclid(self.cells[1] as i64) as usize,
                        (c[2] as i64 + dz).rem_euclid(self.cells[2] as i64) as usize,
                    ];
                    if n != c {
                        out.push(n);
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// All pair computes, as sorted unique `(c1, c2)` with `c1 <= c2`;
    /// `c1 == c2` are the self-computes. This enumeration is shared by the
    /// driver (which inserts the sparse array) and the cells (which count
    /// how many force messages to expect).
    pub fn all_computes(&self) -> Vec<(Cell, Cell)> {
        let mut out = Vec::new();
        for x in 0..self.cells[0] {
            for y in 0..self.cells[1] {
                for z in 0..self.cells[2] {
                    let c = [x, y, z];
                    out.push((c, c));
                    for n in self.neighbor_cells(c) {
                        if c <= n {
                            out.push((c, n));
                        }
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// The computes a given cell participates in.
    pub fn computes_of(&self, c: Cell) -> Vec<(Cell, Cell)> {
        let mut out = vec![(c, c)];
        for n in self.neighbor_cells(c) {
            out.push(if c <= n { (c, n) } else { (n, c) });
        }
        out.sort();
        out.dedup();
        out
    }

    /// Deterministic initial particles for one cell: a jittered lattice
    /// with small pseudo-random velocities (net momentum exactly zero per
    /// particle pair, so the global momentum starts at zero).
    pub fn init_particles(&self, c: Cell) -> Vec<Particle> {
        let lin = (c[0] * self.cells[1] + c[1]) * self.cells[2] + c[2];
        let mut rng = SplitMix64::new(self.seed ^ (lin as u64).wrapping_mul(0x9E3779B9));
        let base = [
            c[0] as f64 * self.cell_size,
            c[1] as f64 * self.cell_size,
            c[2] as f64 * self.cell_size,
        ];
        // Lattice side: smallest k with k^3 >= per_cell.
        let mut k = 1usize;
        while k * k * k < self.per_cell {
            k += 1;
        }
        let spacing = self.cell_size / k as f64;
        let mut out = Vec::with_capacity(self.per_cell);
        let mut placed = 0;
        'outer: for i in 0..k {
            for j in 0..k {
                for l in 0..k {
                    if placed >= self.per_cell {
                        break 'outer;
                    }
                    let mut jitter = || (rng.next_f64() - 0.5) * spacing * 0.1;
                    let pos = [
                        base[0] + (i as f64 + 0.5) * spacing + jitter(),
                        base[1] + (j as f64 + 0.5) * spacing + jitter(),
                        base[2] + (l as f64 + 0.5) * spacing + jitter(),
                    ];
                    let mut vel = || (rng.next_f64() - 0.5) * 0.2;
                    out.push(Particle {
                        id: (lin * self.per_cell + placed) as u64,
                        pos,
                        vel: [vel(), vel(), vel()],
                    });
                    placed += 1;
                }
            }
        }
        // Zero the cell's net momentum so the global total starts at 0.
        let m = physics::momentum(&out);
        let n = out.len() as f64;
        for p in &mut out {
            for (vk, mk) in p.vel.iter_mut().zip(&m) {
                *vk -= mk / n;
            }
        }
        out
    }
}

/// Result of one LeanMD run.
#[derive(Debug, Clone)]
pub struct MdResult {
    /// Iteration-loop time, seconds (virtual under sim).
    pub total_time_s: f64,
    /// Time per step, milliseconds.
    pub time_per_step_ms: f64,
    /// Final particle count (conservation check).
    pub particles: u64,
    /// Final total momentum (conservation check; ≈ 0).
    pub momentum: [f64; 3],
    /// Final kinetic energy.
    pub kinetic: f64,
    /// The runtime's report.
    pub report: charm_core::RunReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_cells_full_grid() {
        let p = MdParams {
            cells: [4, 4, 4],
            ..MdParams::small()
        };
        let n = p.neighbor_cells([1, 1, 1]);
        assert_eq!(n.len(), 26);
        assert!(!n.contains(&[1, 1, 1]));
    }

    #[test]
    fn neighbor_cells_degenerate_grid_dedup() {
        let p = MdParams {
            cells: [2, 2, 2],
            ..MdParams::small()
        };
        // On a 2³ torus the 26 offsets fold onto the 7 other cells.
        let n = p.neighbor_cells([0, 0, 0]);
        assert_eq!(n.len(), 7);
    }

    #[test]
    fn computes_cover_every_adjacent_pair_once() {
        let p = MdParams {
            cells: [3, 3, 3],
            ..MdParams::small()
        };
        let all = p.all_computes();
        // Uniqueness.
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        // Every cell's compute list is a subset, and each pair names it.
        for x in 0..3 {
            for y in 0..3 {
                for z in 0..3 {
                    let c = [x, y, z];
                    for pair in p.computes_of(c) {
                        assert!(all.contains(&pair), "{pair:?} missing");
                        assert!(pair.0 == c || pair.1 == c);
                    }
                }
            }
        }
        // 27 self + 27*26/2 unordered neighbor pairs on a 3³ torus (every
        // pair of distinct cells is adjacent there).
        assert_eq!(all.len(), 27 + 27 * 26 / 2);
    }

    #[test]
    fn cell_of_wraps_positions() {
        let p = MdParams::small(); // 3 cells of size 4 per axis
        assert_eq!(p.cell_of([0.5, 5.0, 11.9]), [0, 1, 2]);
        assert_eq!(p.cell_of([-0.5, 12.1, 4.0]), [2, 0, 1]);
    }

    #[test]
    fn init_particles_deterministic_zero_momentum() {
        let p = MdParams::small();
        let a = p.init_particles([1, 2, 0]);
        let b = p.init_particles([1, 2, 0]);
        assert_eq!(a, b);
        assert_eq!(a.len(), p.per_cell);
        let m = physics::momentum(&a);
        for mk in &m {
            assert!(mk.abs() < 1e-12);
        }
        // Particles start inside their cell.
        for q in &a {
            assert_eq!(p.cell_of(q.pos), [1, 2, 0]);
        }
    }

    #[test]
    fn ids_globally_unique() {
        let p = MdParams::small();
        let mut ids = Vec::new();
        for x in 0..3 {
            for y in 0..3 {
                for z in 0..3 {
                    ids.extend(p.init_particles([x, y, z]).iter().map(|q| q.id));
                }
            }
        }
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), p.num_particles());
    }
}
