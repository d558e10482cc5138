//! The LeanMD chare program: a dense cell array plus a sparse 6D array of
//! pair computes, with guarded iteration matching and periodic particle
//! migration between cells.

use std::sync::{Arc, Mutex};

use charm_core::prelude::*;
use charm_core::Runtime;

use super::physics::{self, Particle};
use super::{Cell, MdParams, MdResult};

fn cell_index(c: Cell) -> Index {
    Index::new(&[c[0] as i32, c[1] as i32, c[2] as i32])
}

fn pair_index(p: (Cell, Cell)) -> Index {
    Index::new(&[
        p.0[0] as i32,
        p.0[1] as i32,
        p.0[2] as i32,
        p.1[0] as i32,
        p.1[1] as i32,
        p.1[2] as i32,
    ])
}

/// Which step phase a cell is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for force contributions from the pair computes.
    Forces,
    /// Waiting for migrant-particle lists from neighbor cells.
    Migrate,
}
wire_enum! { Phase { Forces, Migrate } }

/// Constructor argument of a cell.
#[derive(Clone)]
pub struct CellInit {
    /// Simulation parameters.
    pub params: MdParams,
    /// The sparse pair-compute array.
    pub computes: Proxy<ComputeChare>,
}
wire_struct! { CellInit { params, computes } }

/// A spatial cell holding particles.
pub struct CellChare {
    params: MdParams,
    computes: Proxy<ComputeChare>,
    c: Cell,
    particles: Vec<Particle>,
    iter: u32,
    phase: Phase,
    forces: Vec<[f64; 3]>,
    forces_got: usize,
    expected_computes: usize,
    migr_got: usize,
    expected_neighbors: usize,
    potential: f64,
    started: bool,
    done: Option<Future<RedData>>,
}
wire_struct! {
    CellChare {
        params, computes, c, particles, iter, phase, forces, forces_got, expected_computes,
        migr_got, expected_neighbors, potential, started, done
    }
}

/// Cell entry methods.
pub enum CellMsg {
    /// Begin the simulation.
    Start {
        /// Receives the final `[count, px, py, pz, kinetic, potential]`.
        done: Future<RedData>,
    },
    /// Forces for this cell's particles from one pair compute.
    Forces {
        /// Step the forces belong to.
        iter: u32,
        /// Per-particle forces, aligned with the positions this cell sent.
        forces: Vec<[f64; 3]>,
        /// Pair potential energy (attributed to the first cell only).
        energy: f64,
    },
    /// Particles that crossed into this cell from a neighbor.
    Migrants {
        /// Step of the exchange.
        iter: u32,
        /// The particles (possibly none).
        particles: Vec<Particle>,
    },
}
wire_enum! {
    CellMsg {
        Start { done },
        Forces { iter, forces, energy },
        Migrants { iter, particles },
    }
}

impl CellChare {
    fn send_positions(&self, ctx: &mut Ctx) {
        let pos: Vec<[f64; 3]> = self.particles.iter().map(|p| p.pos).collect();
        for pair in self.params.computes_of(self.c) {
            let which = if pair.0 == self.c { 0u8 } else { 1u8 };
            self.computes.elem(pair_index(pair)).send(
                ctx,
                ComputeMsg::Positions {
                    iter: self.iter,
                    which,
                    pos: pos.clone(),
                },
            );
        }
    }

    fn begin_step(&mut self, ctx: &mut Ctx) {
        self.phase = Phase::Forces;
        self.forces = vec![[0.0; 3]; self.particles.len()];
        self.forces_got = 0;
        self.potential = 0.0;
        self.send_positions(ctx);
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        let m = physics::momentum(&self.particles);
        let ke = physics::kinetic(&self.particles);
        let done = self.done.expect("finish without Start");
        ctx.contribute(
            RedData::VecF64(vec![
                self.particles.len() as f64,
                m[0],
                m[1],
                m[2],
                ke,
                self.potential,
            ]),
            Reducer::Sum,
            RedTarget::Future(done.id()),
        );
    }

    fn after_forces(&mut self, ctx: &mut Ctx) {
        physics::integrate(
            &mut self.particles,
            &self.forces,
            self.params.dt,
            self.params.box_dims(),
        );
        let stepped = self.iter + 1;
        if stepped.is_multiple_of(self.params.migrate_every) && stepped < self.params.steps {
            self.exchange_particles(ctx);
            return;
        }
        self.advance(ctx);
    }

    fn exchange_particles(&mut self, ctx: &mut Ctx) {
        self.phase = Phase::Migrate;
        self.migr_got = 0;
        let me = ctx.this_proxy::<CellChare>();
        let neighbors = self.params.neighbor_cells(self.c);
        let mut outgoing: Vec<Vec<Particle>> = vec![Vec::new(); neighbors.len()];
        let mut keep = Vec::with_capacity(self.particles.len());
        for p in self.particles.drain(..) {
            let owner = self.params.cell_of(p.pos);
            if owner == self.c {
                keep.push(p);
            } else {
                let slot = neighbors
                    .iter()
                    .position(|n| *n == owner)
                    .unwrap_or_else(|| {
                        panic!(
                            "particle {} jumped from cell {:?} to non-adjacent {:?}; \
                             reduce dt or migrate_every",
                            p.id, self.c, owner
                        )
                    });
                outgoing[slot].push(p);
            }
        }
        self.particles = keep;
        for (n, list) in neighbors.into_iter().zip(outgoing) {
            me.elem(cell_index(n)).send(
                ctx,
                CellMsg::Migrants {
                    iter: self.iter,
                    particles: list,
                },
            );
        }
    }

    fn advance(&mut self, ctx: &mut Ctx) {
        self.iter += 1;
        if self.iter >= self.params.steps {
            self.finish(ctx);
        } else {
            self.begin_step(ctx);
        }
    }
}

impl Chare for CellChare {
    type Msg = CellMsg;
    type Init = CellInit;

    fn create(init: CellInit, ctx: &mut Ctx) -> Self {
        let ix = ctx.my_index();
        let c = [
            ix.coords()[0] as usize,
            ix.coords()[1] as usize,
            ix.coords()[2] as usize,
        ];
        let params = init.params;
        let particles = params.init_particles(c);
        let expected_computes = params.computes_of(c).len();
        let expected_neighbors = params.neighbor_cells(c).len();
        CellChare {
            computes: init.computes,
            c,
            particles,
            iter: 0,
            phase: Phase::Forces,
            forces: Vec::new(),
            forces_got: 0,
            expected_computes,
            migr_got: 0,
            expected_neighbors,
            potential: 0.0,
            started: false,
            done: None,
            params,
        }
    }

    // when-conditions: each message kind only lands in its phase and step.
    fn guard(&self, msg: &CellMsg) -> bool {
        match msg {
            CellMsg::Start { .. } => true,
            CellMsg::Forces { iter, .. } => {
                self.started && self.phase == Phase::Forces && *iter == self.iter
            }
            CellMsg::Migrants { iter, .. } => {
                self.started && self.phase == Phase::Migrate && *iter == self.iter
            }
        }
    }

    fn receive(&mut self, msg: CellMsg, ctx: &mut Ctx) {
        match msg {
            CellMsg::Start { done } => {
                self.started = true;
                self.done = Some(done);
                if self.params.steps == 0 {
                    self.finish(ctx);
                } else {
                    self.begin_step(ctx);
                }
            }
            CellMsg::Forces { forces, energy, .. } => {
                assert_eq!(
                    forces.len(),
                    self.particles.len(),
                    "force vector misaligned at cell {:?}",
                    self.c
                );
                for (acc, f) in self.forces.iter_mut().zip(&forces) {
                    for k in 0..3 {
                        acc[k] += f[k];
                    }
                }
                self.potential += energy;
                self.forces_got += 1;
                if self.forces_got == self.expected_computes {
                    self.after_forces(ctx);
                }
            }
            CellMsg::Migrants { particles, .. } => {
                self.particles.extend(particles);
                self.migr_got += 1;
                if self.migr_got == self.expected_neighbors {
                    // Deterministic ordering regardless of arrival order.
                    self.particles.sort_by_key(|p| p.id);
                    self.advance(ctx);
                }
            }
        }
    }
}

/// Constructor argument of a pair compute.
#[derive(Clone)]
pub struct ComputeInit {
    /// Simulation parameters.
    pub params: MdParams,
    /// The cell array, for returning forces.
    pub cells: Proxy<CellChare>,
}
wire_struct! { ComputeInit { params, cells } }

/// A pair compute: evaluates LJ forces between two adjacent cells (or
/// within one, for self-pairs).
pub struct ComputeChare {
    params: MdParams,
    cells: Proxy<CellChare>,
    c1: Cell,
    c2: Cell,
    iter: u32,
    pos1: Option<Vec<[f64; 3]>>,
    pos2: Option<Vec<[f64; 3]>>,
}

/// Compute entry methods.
pub enum ComputeMsg {
    /// One cell's particle positions for a step.
    Positions {
        /// The step.
        iter: u32,
        /// 0 = first cell of the pair, 1 = second.
        which: u8,
        /// Positions, in the cell's particle order.
        pos: Vec<[f64; 3]>,
    },
}
wire_enum! { ComputeMsg { Positions { iter, which, pos } } }

impl Chare for ComputeChare {
    type Msg = ComputeMsg;
    type Init = ComputeInit;

    fn create(init: ComputeInit, ctx: &mut Ctx) -> Self {
        let ix = ctx.my_index();
        let v = ix.coords();
        ComputeChare {
            params: init.params,
            cells: init.cells,
            c1: [v[0] as usize, v[1] as usize, v[2] as usize],
            c2: [v[3] as usize, v[4] as usize, v[5] as usize],
            iter: 0,
            pos1: None,
            pos2: None,
        }
    }

    fn guard(&self, msg: &ComputeMsg) -> bool {
        let ComputeMsg::Positions { iter, .. } = msg;
        *iter == self.iter
    }

    fn receive(&mut self, msg: ComputeMsg, ctx: &mut Ctx) {
        let ComputeMsg::Positions { which, pos, .. } = msg;
        match which {
            0 => self.pos1 = Some(pos),
            _ => self.pos2 = Some(pos),
        }
        let is_self = self.c1 == self.c2;
        let ready = self.pos1.is_some() && (is_self || self.pos2.is_some());
        if !ready {
            return;
        }
        let boxd = self.params.box_dims();
        let cutoff = self.params.cutoff;
        let iter = self.iter;
        if is_self {
            let a = self.pos1.take().unwrap();
            let (fa, energy) = physics::self_forces(&a, boxd, cutoff);
            self.cells.elem(cell_index(self.c1)).send(
                ctx,
                CellMsg::Forces {
                    iter,
                    forces: fa,
                    energy,
                },
            );
        } else {
            let a = self.pos1.take().unwrap();
            let b = self.pos2.take().unwrap();
            let (fa, fb, energy) = physics::pair_forces(&a, &b, boxd, cutoff);
            self.cells.elem(cell_index(self.c1)).send(
                ctx,
                CellMsg::Forces {
                    iter,
                    forces: fa,
                    energy, // attribute pair energy to the first cell only
                },
            );
            self.cells.elem(cell_index(self.c2)).send(
                ctx,
                CellMsg::Forces {
                    iter,
                    forces: fb,
                    energy: 0.0,
                },
            );
        }
        self.iter += 1;
    }
}

/// Shared-slot type used to pass results out of the runtime closure.
type MdOut = Arc<Mutex<Option<(f64, Vec<f64>)>>>;

/// Run LeanMD on the given runtime.
pub fn run_charm(params: MdParams, mut rt: Runtime) -> MdResult {
    assert!(
        params.cell_size >= params.cutoff,
        "cell size must cover the cutoff so neighbor cells suffice"
    );
    // Computes are placed with their first cell (locality, as in LeanMD).
    let p2 = params.clone();
    let placement = rt.add_placement(move |ix, npes| {
        let v = ix.coords();
        let lin = (v[0] as usize * p2.cells[1] + v[1] as usize) * p2.cells[2] + v[2] as usize;
        (lin * npes) / p2.num_cells().max(1)
    });
    let out: MdOut = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let steps = params.steps.max(1) as f64;
    let report = rt
        .register_migratable::<CellChare>()
        .register::<ComputeChare>()
        .run(move |co| {
            let computes = co.ctx().create_sparse::<ComputeChare>(ArrayOpts {
                placement,
                use_lb: false,
            });
            let dims = [
                params.cells[0] as i32,
                params.cells[1] as i32,
                params.cells[2] as i32,
            ];
            let cells = co.ctx().create_array_with::<CellChare>(
                &dims,
                CellInit {
                    params: params.clone(),
                    computes,
                },
                ArrayOpts {
                    placement: Placement::Block,
                    use_lb: false,
                },
            );
            for pair in params.all_computes() {
                computes.insert(
                    co.ctx(),
                    pair_index(pair),
                    ComputeInit {
                        params: params.clone(),
                        cells,
                    },
                    None,
                );
            }
            computes.done_inserting(co.ctx());
            let done = co.ctx().create_future::<RedData>();
            let t0 = co.ctx().now();
            cells.send(co.ctx(), CellMsg::Start { done });
            let stats = co.get(&done);
            let t1 = co.ctx().now();
            *out2.lock().unwrap() = Some((t1 - t0, stats.as_vec_f64().to_vec()));
            co.ctx().exit();
        });
    let (total, stats) = out
        .lock()
        .unwrap()
        .take()
        .expect("leanmd run produced no result");
    MdResult {
        total_time_s: total,
        time_per_step_ms: total * 1e3 / steps,
        particles: stats[0] as u64,
        momentum: [stats[1], stats[2], stats[3]],
        kinetic: stats[4],
        report,
    }
}
