//! The minimpi stencil3d implementation — the mpi4py baseline of §V-A.
//!
//! One rank per PE, one block per rank, the same kernel and initial
//! condition as the charm version. Ghost exchange uses eager sends plus
//! tag-matched receives (tags carry the face; per-link FIFO keeps
//! iterations ordered, exactly as MPI guarantees).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use charm_core::{RedData, Reducer, Runtime};
use charm_wire::Buf;
use minimpi::Rank;

use super::kernel::{Block, FACES};
use super::{alpha, init_value, StencilParams, StencilResult};

fn coords_of(rank: usize, dims: [usize; 3]) -> [usize; 3] {
    [
        rank / (dims[1] * dims[2]),
        (rank / dims[2]) % dims[1],
        rank % dims[2],
    ]
}

fn rank_of(c: [usize; 3], dims: [usize; 3]) -> usize {
    (c[0] * dims[1] + c[1]) * dims[2] + c[2]
}

fn rank_main(params: &StencilParams, rank: &mut Rank<'_>, out: &Mutex<Option<(f64, (f64, f64))>>) {
    let me = rank.rank();
    let dims = params.chares;
    let coords = coords_of(me, dims);
    let [bx, by, bz] = params.block_dims();
    let mut block = Block::zeros(bx, by, bz);
    let base = [coords[0] * bx, coords[1] * by, coords[2] * bz];
    block.fill(|x, y, z| init_value(base[0] + x, base[1] + y, base[2] + z));

    // Face neighbors in rank space.
    let neighbors: Vec<(super::Face, usize)> = FACES
        .iter()
        .filter_map(|&f| {
            let o = f.offset();
            let n = [
                coords[0] as i64 + o[0] as i64,
                coords[1] as i64 + o[1] as i64,
                coords[2] as i64 + o[2] as i64,
            ];
            if (0..3).all(|d| n[d] >= 0 && n[d] < dims[d] as i64) {
                Some((
                    f,
                    rank_of([n[0] as usize, n[1] as usize, n[2] as usize], dims),
                ))
            } else {
                None
            }
        })
        .collect();

    rank.barrier();
    let t0 = rank.wtime();
    let mut t_kernel_ewma = 0.0f64;
    for iter in 0..params.iters {
        // Post all sends, then receive all faces (tag = face to apply at
        // the receiver; FIFO per (src, tag) keeps iterations in order).
        for &(f, nbr) in &neighbors {
            let plane = Buf::from_vec(block.extract_face(f));
            rank.send(nbr, f.opposite() as i32, &plane);
        }
        for &(f, nbr) in &neighbors {
            let (plane, _) = rank.recv::<Buf<f64>>(Some(nbr), Some(f as i32));
            block.apply_ghost(f, &plane);
        }
        let t_k = Instant::now();
        block.data = block.jacobi_step();
        let kernel_time = t_k.elapsed().as_secs_f64();
        t_kernel_ewma = if t_kernel_ewma == 0.0 {
            kernel_time
        } else {
            0.8 * t_kernel_ewma + 0.2 * kernel_time
        };
        let t_base = match params.nominal_kernel_s {
            Some(t) => {
                rank.charge(Duration::from_secs_f64(t));
                t
            }
            None => t_kernel_ewma,
        };
        if let Some(n) = params.imbalance {
            // MPI cannot rebalance: every rank simply stalls for its alpha.
            let a = alpha(params.coarse_block_of(coords), n, iter);
            rank.charge(Duration::from_secs_f64(t_base * a));
        }
        if params.sync_every > 0 && (iter + 1) % params.sync_every == 0 {
            rank.barrier();
        }
    }
    rank.barrier();
    let t1 = rank.wtime();

    let (s, w) = block.checksum();
    let total = rank.allreduce(RedData::VecF64(vec![s, w]), Reducer::Sum);
    if me == 0 {
        let cs = total.as_vec_f64();
        *out.lock().unwrap() = Some((t1 - t0, (cs[0], cs[1])));
    }
}

/// Run the MPI stencil. The runtime's PE count must equal the block count
/// (one block per rank — the fixed decomposition that is MPI's limitation
/// in the paper's §V-B comparison).
pub fn run_mpi(params: StencilParams, rt: Runtime) -> StencilResult {
    assert_eq!(
        rt.npes(),
        params.num_blocks(),
        "mpi stencil needs exactly one rank per block"
    );
    params.check_backend(&rt);
    let out: super::charm::StencilOut = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let iters = params.iters.max(1) as f64;
    let report = minimpi::run_on(rt, move |rank| rank_main(&params, rank, &out2));
    let (total, checksum) = out
        .lock()
        .unwrap()
        .take()
        .expect("mpi stencil produced no result");
    StencilResult {
        total_time_s: total,
        time_per_step_ms: total * 1e3 / iters,
        checksum,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coordinate_mapping_roundtrips() {
        let dims = [3, 4, 5];
        for r in 0..60 {
            assert_eq!(rank_of(coords_of(r, dims), dims), r);
        }
    }
}
