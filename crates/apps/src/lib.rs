//! # charm-apps — the CharmPy paper's mini-apps, reimplemented
//!
//! * [`stencil3d`] — 7-point stencil on a 3D grid (paper §V-A), in both a
//!   charm-rs version (chares, `when`-guards, optional load balancing) and
//!   a `minimpi` version (the mpi4py baseline), sharing one kernel and one
//!   initial condition so results are directly comparable.
//! * [`leanmd`] — a Lennard-Jones molecular dynamics mini-app (paper §V-C)
//!   with the LeanMD structure: a dense 3D array of cells and a sparse
//!   array of pair-compute chares, fine-grained enough for hundreds of
//!   chares per PE.
//! * [`histo`] — histogram sort, the canonical Charm++ example, added as a
//!   third scenario exercising reductions, broadcasts and all-to-all key
//!   exchange in one program.
//! * [`taskbench`] — the Task Bench overhead benchmark: a `width × steps`
//!   task grid under five dependency patterns with a tunable per-task
//!   grain, whose minimum effective task granularity the `tb/*` rows of
//!   `BENCH_tb.json` record (`cargo run -p charm-bench --bin ledger`
//!   rewrites them).

#![forbid(unsafe_code)]

pub mod histo;
pub mod leanmd;
pub mod stencil3d;
pub mod taskbench;
