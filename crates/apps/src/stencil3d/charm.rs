//! The charm-rs stencil3d implementation: one chare per block, ghost
//! exchange with `when`-guarded iteration matching, optional synthetic
//! imbalance and AtSync load balancing — the program of paper §V-A/§V-B.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use charm_core::prelude::*;
use charm_core::Runtime;
use charm_wire::Buf;

use super::kernel::{Block, Face, FACES};
use super::{alpha, init_value, StencilParams, StencilResult};

/// One grid block.
pub struct BlockChare {
    params: StencilParams,
    coords: [usize; 3],
    block: Block,
    iter: u32,
    got: u8,
    expected: u8,
    started: bool,
    /// Between contributing the per-iteration sync barrier and receiving
    /// its result, ghost delivery is deferred (part of the when-condition;
    /// without it a fast neighbor's ghosts could push this block past the
    /// barrier and its own ghosts would carry the wrong iteration).
    waiting_sync: bool,
    /// Smoothed kernel time (seconds) for the synthetic-imbalance charge —
    /// an EWMA so one glitched host measurement is not amplified by alpha.
    t_kernel_ewma: f64,
    done: Option<Future<RedData>>,
}
wire_struct! {
    BlockChare {
        params, coords, block, iter, got, expected, started, waiting_sync, t_kernel_ewma, done
    }
}

/// Block entry methods.
pub enum BlockMsg {
    /// Begin iterating; `done` receives the final `[sum, wsum]` checksum.
    Start {
        /// Completion/checksum reduction target.
        done: Future<RedData>,
    },
    /// A neighbor's boundary plane.
    Ghost {
        /// Iteration the plane belongs to.
        iter: u32,
        /// Face of *this* block the plane applies to.
        face: u8,
        /// The plane (zero-copy buffer — the NumPy path).
        data: Buf<f64>,
    },
}
wire_enum! { BlockMsg { Start { done }, Ghost { iter, face, data } } }

impl BlockChare {
    fn neighbors(&self) -> Vec<(Face, [usize; 3])> {
        let c = self.coords;
        let dims = self.params.chares;
        FACES
            .iter()
            .filter_map(|&f| {
                let o = f.offset();
                let n = [
                    c[0] as i64 + o[0] as i64,
                    c[1] as i64 + o[1] as i64,
                    c[2] as i64 + o[2] as i64,
                ];
                if (0..3).all(|d| n[d] >= 0 && n[d] < dims[d] as i64) {
                    Some((f, [n[0] as usize, n[1] as usize, n[2] as usize]))
                } else {
                    None
                }
            })
            .collect()
    }

    fn send_ghosts(&self, ctx: &mut Ctx) {
        let me = ctx.this_proxy::<BlockChare>();
        for (face, ncoords) in self.neighbors() {
            let data = Buf::from_vec(self.block.extract_face(face));
            me.elem([ncoords[0] as i32, ncoords[1] as i32, ncoords[2] as i32])
                .send(
                    ctx,
                    BlockMsg::Ghost {
                        iter: self.iter,
                        // The neighbor applies it on the opposite side.
                        face: face.opposite() as u8,
                        data,
                    },
                );
        }
    }

    fn step(&mut self, ctx: &mut Ctx) {
        let t0 = Instant::now();
        self.block.data = self.block.jacobi_step();
        let kernel_time = t0.elapsed().as_secs_f64();
        self.t_kernel_ewma = if self.t_kernel_ewma == 0.0 {
            kernel_time
        } else {
            0.8 * self.t_kernel_ewma + 0.2 * kernel_time
        };
        // Modeled-compute mode: charge a deterministic kernel cost.
        let t_base = match self.params.nominal_kernel_s {
            Some(t) => {
                ctx.charge(Duration::from_secs_f64(t));
                t
            }
            None => self.t_kernel_ewma,
        };
        // Synthetic imbalance (§V-B): extend this block's compute by
        // alpha × kernel-time, exactly as the paper does with sleep.
        if let Some(n) = self.params.imbalance {
            let a = alpha(self.params.coarse_block_of(self.coords), n, self.iter);
            ctx.charge(Duration::from_secs_f64(t_base * a));
        }
        self.iter += 1;
        self.got = 0;
        if self.iter == self.params.iters {
            let (s, w) = self.block.checksum();
            let done = self.done.expect("finished without Start");
            ctx.contribute(
                RedData::VecF64(vec![s, w]),
                Reducer::Sum,
                RedTarget::Future(done.id()),
            );
            return;
        }
        // Periodic load balancing (paper: every 30 iterations).
        if let Some(every) = self.params.lb_every {
            if self.iter.is_multiple_of(every) {
                ctx.at_sync();
                return; // resume_from_sync continues the loop
            }
        }
        // Per-iteration global synchronization (residual-style reduction).
        if self.params.sync_every > 0 && self.iter.is_multiple_of(self.params.sync_every) {
            self.waiting_sync = true;
            let target = ctx.this_proxy::<BlockChare>().reduction_target(TAG_SYNC);
            ctx.contribute_barrier(target);
            return; // reduced(TAG_SYNC) continues the loop
        }
        self.send_ghosts(ctx);
    }
}

/// Shared-slot type used to pass results out of the runtime closure.
pub(crate) type StencilOut = Arc<Mutex<Option<(f64, (f64, f64))>>>;

/// Reduction tag for the per-iteration synchronization barrier.
const TAG_SYNC: u32 = 0x57EC;

impl Chare for BlockChare {
    type Msg = BlockMsg;
    type Init = StencilParams;

    fn create(params: StencilParams, ctx: &mut Ctx) -> Self {
        let ix = ctx.my_index();
        let coords = [
            ix.coords()[0] as usize,
            ix.coords()[1] as usize,
            ix.coords()[2] as usize,
        ];
        let [bx, by, bz] = params.block_dims();
        let mut block = Block::zeros(bx, by, bz);
        let base = [coords[0] * bx, coords[1] * by, coords[2] * bz];
        block.fill(|x, y, z| init_value(base[0] + x, base[1] + y, base[2] + z));
        let mut me = BlockChare {
            params,
            coords,
            block,
            iter: 0,
            got: 0,
            expected: 0,
            started: false,
            waiting_sync: false,
            t_kernel_ewma: 0.0,
            done: None,
        };
        me.expected = me.neighbors().len() as u8;
        me
    }

    // The paper's @when('self.iter == iter'): ghosts for future iterations
    // buffer until this block catches up; nothing runs before Start.
    fn guard(&self, msg: &BlockMsg) -> bool {
        match msg {
            BlockMsg::Start { .. } => true,
            BlockMsg::Ghost { iter, .. } => {
                self.started && !self.waiting_sync && *iter == self.iter
            }
        }
    }

    fn receive(&mut self, msg: BlockMsg, ctx: &mut Ctx) {
        match msg {
            BlockMsg::Start { done } => {
                self.started = true;
                self.done = Some(done);
                if self.params.iters == 0 {
                    let (s, w) = self.block.checksum();
                    ctx.contribute(
                        RedData::VecF64(vec![s, w]),
                        Reducer::Sum,
                        RedTarget::Future(done.id()),
                    );
                    return;
                }
                self.send_ghosts(ctx);
                if self.expected == 0 {
                    // Single-block degenerate case: no neighbors to wait on.
                    while self.iter < self.params.iters {
                        self.step(ctx);
                    }
                }
            }
            BlockMsg::Ghost { face, data, .. } => {
                self.block.apply_ghost(Face::from_u8(face), &data);
                self.got += 1;
                if self.got == self.expected {
                    self.step(ctx);
                }
            }
        }
    }

    fn reduced(&mut self, tag: u32, _data: RedData, ctx: &mut Ctx) {
        assert_eq!(tag, TAG_SYNC);
        self.waiting_sync = false;
        self.send_ghosts(ctx);
    }

    fn resume_from_sync(&mut self, ctx: &mut Ctx) {
        // LB epoch finished (possibly on a new PE): next iteration.
        self.send_ghosts(ctx);
    }
}

/// Run the charm-rs stencil on the given runtime. The runtime's PE count is
/// independent of the chare grid (that is the point — §V-B uses 4 chares
/// per PE).
pub fn run_charm(params: StencilParams, rt: Runtime) -> StencilResult {
    params.check_backend(&rt);
    let out: StencilOut = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let use_lb = params.lb_every.is_some();
    let iters = params.iters.max(1) as f64;
    let report = rt.register_migratable::<BlockChare>().run(move |co| {
        let dims = [
            params.chares[0] as i32,
            params.chares[1] as i32,
            params.chares[2] as i32,
        ];
        let arr = co.ctx().create_array_with::<BlockChare>(
            &dims,
            params.clone(),
            ArrayOpts {
                placement: Placement::Block,
                use_lb,
            },
        );
        let done = co.ctx().create_future::<RedData>();
        let t0 = co.ctx().now();
        arr.send(co.ctx(), BlockMsg::Start { done });
        let cs = co.get(&done);
        let t1 = co.ctx().now();
        let cs = cs.as_vec_f64();
        *out2.lock().unwrap() = Some((t1 - t0, (cs[0], cs[1])));
        co.ctx().exit();
    });
    let (total, checksum) = out
        .lock()
        .unwrap()
        .take()
        .expect("stencil run produced no result");
    StencilResult {
        total_time_s: total,
        time_per_step_ms: total * 1e3 / iters,
        checksum,
        report,
    }
}
