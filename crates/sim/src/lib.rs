//! # charm-sim — virtual-time machine model for charm-rs
//!
//! The CharmPy paper evaluates on Blue Waters (Cray XE, 3D torus) and Cori
//! (Cray XC40 KNL, dragonfly) at up to 65k cores. This repository cannot
//! assume Cray hardware, so the runtime offers a *simulated* backend in the
//! spirit of BigSim (itself a Charm++ project): every PE gets a virtual
//! clock, handler execution advances the clock of the PE it ran on, and
//! messages arrive after a modeled network delay. Parallel performance is
//! then read off the virtual clocks.
//!
//! This crate holds the reusable substrate pieces:
//!
//! * [`VTime`] — virtual-time instants (nanosecond resolution),
//! * [`EventQueue`] — a deterministic discrete-event queue with FIFO
//!   tie-breaking,
//! * [`Topology`] — hop counts for flat, 3D-torus, and dragonfly networks,
//! * [`MachineModel`] — α/β message costing plus the calibrated interpreter
//!   overhead charged by the dynamic (CharmPy-like) dispatch mode.
//!
//! The event loop that drives PE scheduling lives in `charm-core`; it is a
//! consumer of these types.

#![forbid(unsafe_code)]
// A virtual-time engine: the nondeterminism rule (DESIGN.md §6).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod model;
pub mod permute;
pub mod queue;
pub mod time;
pub mod topology;

pub use model::MachineModel;
pub use permute::PermuteSchedule;
pub use queue::EventQueue;
pub use time::VTime;
pub use topology::Topology;
