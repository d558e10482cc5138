//! Lennard-Jones physics: pairwise short-range forces with a cutoff and
//! minimum-image periodic boundaries, plus leapfrog integration — the
//! computation the paper describes as mimicking NAMD's short-range
//! non-bonded force kernel (the Numba-compiled part of LeanMD).

use charm_wire::wire_struct;

/// One particle (unit mass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Stable identity (for conservation checks).
    pub id: u64,
    /// Position (inside the periodic box).
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
}
wire_struct! { Particle { id, pos, vel } }

/// Minimum-image displacement `a - b` in a periodic box.
#[inline]
pub fn min_image(a: [f64; 3], b: [f64; 3], boxd: [f64; 3]) -> [f64; 3] {
    let mut d = [0.0; 3];
    for k in 0..3 {
        let mut x = a[k] - b[k];
        if x > boxd[k] * 0.5 {
            x -= boxd[k];
        } else if x < -boxd[k] * 0.5 {
            x += boxd[k];
        }
        d[k] = x;
    }
    d
}

/// LJ force on particle at displacement `d` (from its partner), with
/// parameters σ=1, ε=1 and the given cutoff. Returns `(force, potential)`.
/// The force is applied along `+d` to the first particle; Newton's third
/// law gives the partner `-force`.
#[inline]
pub fn lj(d: [f64; 3], cutoff: f64) -> ([f64; 3], f64) {
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if r2 >= cutoff * cutoff || r2 == 0.0 {
        return ([0.0; 3], 0.0);
    }
    // Softening floor keeps overlapping initial conditions finite.
    let r2 = r2.max(0.25);
    let inv_r2 = 1.0 / r2;
    let sr2 = inv_r2; // sigma = 1
    let sr6 = sr2 * sr2 * sr2;
    let sr12 = sr6 * sr6;
    // U = 4 (sr12 - sr6);  F = 24 (2 sr12 - sr6) / r^2 * d
    let fmag = 24.0 * (2.0 * sr12 - sr6) * inv_r2;
    ([fmag * d[0], fmag * d[1], fmag * d[2]], 4.0 * (sr12 - sr6))
}

/// Forces between two disjoint particle sets (one per cell). Returns the
/// per-particle forces for each set and the pair potential energy.
pub fn pair_forces(
    a: &[[f64; 3]],
    b: &[[f64; 3]],
    boxd: [f64; 3],
    cutoff: f64,
) -> (Vec<[f64; 3]>, Vec<[f64; 3]>, f64) {
    let mut fa = vec![[0.0; 3]; a.len()];
    let mut fb = vec![[0.0; 3]; b.len()];
    let mut energy = 0.0;
    for (i, &pa) in a.iter().enumerate() {
        for (j, &pb) in b.iter().enumerate() {
            let d = min_image(pa, pb, boxd);
            let (f, u) = lj(d, cutoff);
            for k in 0..3 {
                fa[i][k] += f[k];
                fb[j][k] -= f[k];
            }
            energy += u;
        }
    }
    (fa, fb, energy)
}

/// Forces among particles of one cell (each unordered pair once).
pub fn self_forces(a: &[[f64; 3]], boxd: [f64; 3], cutoff: f64) -> (Vec<[f64; 3]>, f64) {
    let mut fa = vec![[0.0; 3]; a.len()];
    let mut energy = 0.0;
    for i in 0..a.len() {
        for j in (i + 1)..a.len() {
            let d = min_image(a[i], a[j], boxd);
            let (f, u) = lj(d, cutoff);
            for k in 0..3 {
                fa[i][k] += f[k];
                fa[j][k] -= f[k];
            }
            energy += u;
        }
    }
    (fa, energy)
}

/// One leapfrog step for the particles of a cell; positions wrap into the
/// periodic box.
pub fn integrate(particles: &mut [Particle], forces: &[[f64; 3]], dt: f64, boxd: [f64; 3]) {
    assert_eq!(particles.len(), forces.len());
    for (p, f) in particles.iter_mut().zip(forces) {
        for k in 0..3 {
            p.vel[k] += f[k] * dt; // unit mass
            p.pos[k] += p.vel[k] * dt;
            // Wrap into [0, box).
            if p.pos[k] < 0.0 {
                p.pos[k] += boxd[k];
            } else if p.pos[k] >= boxd[k] {
                p.pos[k] -= boxd[k];
            }
        }
    }
}

/// Total momentum of a particle set.
pub fn momentum(particles: &[Particle]) -> [f64; 3] {
    let mut p = [0.0; 3];
    for q in particles {
        for (pk, vk) in p.iter_mut().zip(&q.vel) {
            *pk += vk;
        }
    }
    p
}

/// Total kinetic energy (unit mass).
pub fn kinetic(particles: &[Particle]) -> f64 {
    particles
        .iter()
        .map(|p| 0.5 * (p.vel[0].powi(2) + p.vel[1].powi(2) + p.vel[2].powi(2)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_image_wraps() {
        let boxd = [10.0, 10.0, 10.0];
        let d = min_image([9.5, 0.0, 0.0], [0.5, 0.0, 0.0], boxd);
        assert!((d[0] - -1.0).abs() < 1e-12, "wraps to -1, got {}", d[0]);
        let d = min_image([3.0, 0.0, 0.0], [1.0, 0.0, 0.0], boxd);
        assert_eq!(d[0], 2.0);
    }

    #[test]
    fn lj_zero_beyond_cutoff() {
        let (f, u) = lj([3.0, 0.0, 0.0], 2.5);
        assert_eq!(f, [0.0; 3]);
        assert_eq!(u, 0.0);
    }

    #[test]
    fn lj_repulsive_close_attractive_far() {
        // Inside sigma: repulsive (force pushes the first particle along +d).
        let (f_close, _) = lj([0.9, 0.0, 0.0], 10.0);
        assert!(f_close[0] > 0.0, "repulsion at r<2^1/6: {f_close:?}");
        // Beyond the minimum (r = 2^(1/6) ≈ 1.122): attractive.
        let (f_far, _) = lj([1.5, 0.0, 0.0], 10.0);
        assert!(f_far[0] < 0.0, "attraction at r>2^1/6: {f_far:?}");
        // Potential minimum depth is -1 at r = 2^(1/6).
        let (_, u_min) = lj([2f64.powf(1.0 / 6.0), 0.0, 0.0], 10.0);
        assert!((u_min - -1.0).abs() < 1e-9);
    }

    #[test]
    fn pair_forces_obey_newtons_third_law() {
        let a = vec![[1.0, 1.0, 1.0], [2.0, 1.5, 1.0]];
        let b = vec![[1.5, 2.0, 1.2], [2.5, 2.5, 2.5], [0.5, 0.5, 0.9]];
        let (fa, fb, _) = pair_forces(&a, &b, [20.0; 3], 5.0);
        let mut sum = [0.0; 3];
        for f in fa.iter().chain(fb.iter()) {
            for (sk, fk) in sum.iter_mut().zip(f) {
                *sk += fk;
            }
        }
        for k in 0..3 {
            assert!(sum[k].abs() < 1e-10, "net force must vanish: {sum:?}");
        }
    }

    #[test]
    fn self_forces_sum_to_zero() {
        let a = vec![[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.5, 1.9, 1.3]];
        let (fa, _) = self_forces(&a, [20.0; 3], 5.0);
        let mut sum = [0.0; 3];
        for f in &fa {
            for k in 0..3 {
                sum[k] += f[k];
            }
        }
        for s in &sum {
            assert!(s.abs() < 1e-10);
        }
    }

    #[test]
    fn split_computation_matches_monolithic() {
        // Self(A∪B) == Self(A) + Self(B) + Pair(A,B): the decomposition
        // invariant the distributed version rests on.
        let a = vec![[1.0, 1.0, 1.0], [2.2, 1.1, 0.8]];
        let b = vec![[3.0, 2.0, 1.5], [1.4, 2.6, 2.0]];
        let boxd = [30.0; 3];
        let cutoff = 6.0;
        let mut all = a.clone();
        all.extend(&b);
        let (f_all, e_all) = self_forces(&all, boxd, cutoff);
        let (f_a, e_a) = self_forces(&a, boxd, cutoff);
        let (f_b, e_b) = self_forces(&b, boxd, cutoff);
        let (p_a, p_b, e_ab) = pair_forces(&a, &b, boxd, cutoff);
        assert!((e_all - (e_a + e_b + e_ab)).abs() < 1e-10);
        for i in 0..a.len() {
            for k in 0..3 {
                assert!((f_all[i][k] - (f_a[i][k] + p_a[i][k])).abs() < 1e-10);
            }
        }
        for j in 0..b.len() {
            for k in 0..3 {
                assert!((f_all[a.len() + j][k] - (f_b[j][k] + p_b[j][k])).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn integrate_conserves_momentum_under_zero_force() {
        let mut ps = vec![
            Particle {
                id: 0,
                pos: [1.0, 1.0, 1.0],
                vel: [0.5, -0.25, 0.1],
            },
            Particle {
                id: 1,
                pos: [2.0, 2.0, 2.0],
                vel: [-0.5, 0.25, -0.1],
            },
        ];
        let m0 = momentum(&ps);
        integrate(&mut ps, &[[0.0; 3]; 2], 0.01, [10.0; 3]);
        let m1 = momentum(&ps);
        for k in 0..3 {
            assert!((m0[k] - m1[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn integrate_wraps_positions() {
        let mut ps = vec![Particle {
            id: 0,
            pos: [9.99, 0.0, 5.0],
            vel: [10.0, -10.0, 0.0],
        }];
        integrate(&mut ps, &[[0.0; 3]], 0.1, [10.0; 3]);
        assert!(ps[0].pos[0] >= 0.0 && ps[0].pos[0] < 10.0);
        assert!(ps[0].pos[1] >= 0.0 && ps[0].pos[1] < 10.0);
    }
}
