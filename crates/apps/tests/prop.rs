//! Seeded property tests of the mini-apps: randomized decompositions of the
//! distributed stencil always match the naive reference, and LeanMD
//! conserves particles and momentum for arbitrary (sane) parameters.

use charm_apps::leanmd::{charm::run_charm as run_leanmd, MdParams};
use charm_apps::stencil3d::{charm::run_charm as run_stencil, kernel, StencilParams};
use charm_core::{Backend, Runtime};
use charm_sim::MachineModel;
use charm_wire::SplitMix64;

// Each case runs a full simulated parallel job; keep the count modest.
const CASES: u64 = 10;

fn sim_rt(npes: usize) -> Runtime {
    Runtime::new(npes).backend(Backend::Sim(MachineModel::local(npes)))
}

fn reference_checksum(params: &StencilParams) -> (f64, f64) {
    let [gx, gy, gz] = params.grid;
    let mut grid = vec![0.0; gx * gy * gz];
    for x in 0..gx {
        for y in 0..gy {
            for z in 0..gz {
                grid[(x * gy + y) * gz + z] = charm_apps::stencil3d::init_value(x, y, z);
            }
        }
    }
    let out = kernel::naive_jacobi(&grid, params.grid, params.iters as usize);
    let [bx, by, bz] = params.block_dims();
    let mut s_total = 0.0;
    let mut w_total = 0.0;
    for cx in 0..params.chares[0] {
        for cy in 0..params.chares[1] {
            for cz in 0..params.chares[2] {
                let mut b = kernel::Block::zeros(bx, by, bz);
                b.fill(|x, y, z| {
                    let g = [cx * bx + x, cy * by + y, cz * bz + z];
                    out[(g[0] * gy + g[1]) * gz + g[2]]
                });
                let (s, w) = b.checksum();
                s_total += s;
                w_total += w;
            }
        }
    }
    (s_total, w_total)
}

#[test]
fn any_decomposition_matches_reference() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let mut draw = |lo: u64, hi: u64| (lo + rng.below(hi - lo)) as usize;
        let (bx, by, bz) = (draw(1, 4), draw(1, 3), draw(1, 3));
        let block = draw(2, 5);
        let iters = draw(0, 7) as u32;
        let npes = draw(1, 5);
        let params = StencilParams::new([bx * block, by * block, bz * block], [bx, by, bz], iters);
        let want = reference_checksum(&params);
        let got = run_stencil(params, sim_rt(npes)).checksum;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        assert!(
            close(got.0, want.0) && close(got.1, want.1),
            "seed {seed}: got {got:?}, want {want:?}"
        );
    }
}

#[test]
fn leanmd_conserves_for_random_params() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let mut draw = |lo: u64, hi: u64| lo + rng.below(hi - lo);
        let cells = draw(2, 4) as usize;
        let params = MdParams {
            cells: [cells, cells, cells],
            per_cell: draw(1, 10) as usize,
            cell_size: 4.0,
            cutoff: 4.0,
            dt: 0.004,
            steps: draw(1, 12) as u32,
            migrate_every: draw(1, 5) as u32,
            seed: draw(0, u64::MAX),
        };
        let n0 = params.num_particles() as u64;
        let r = run_leanmd(params, sim_rt(2));
        assert_eq!(r.particles, n0, "seed {seed}: particles conserved");
        for k in 0..3 {
            assert!(
                r.momentum[k].abs() < 1e-9,
                "seed {seed}: momentum conserved: {:?}",
                r.momentum
            );
        }
        assert!(r.kinetic.is_finite(), "seed {seed}");
    }
}
