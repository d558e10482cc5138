//! # charm-core — a CharmPy-style parallel programming model in Rust
//!
//! A from-scratch implementation of the programming model of
//! *CharmPy: A Python Parallel Programming Model* (Galvez, Senthil, Kale —
//! IEEE CLUSTER 2018) together with the Charm++-equivalent runtime it rests
//! on: distributed migratable objects ("chares") with asynchronous remote
//! method invocation, message-driven per-PE schedulers, collections
//! (groups, dense and sparse N-D arrays), spanning-tree reductions,
//! distributed futures, `when`-guarded delivery, threaded entry methods,
//! chare migration with home-based location management, measured-load
//! AtSync load balancing and quiescence detection.
//!
//! ## Model cheat-sheet (CharmPy → charm-rs)
//!
//! | CharmPy | charm-rs |
//! |---|---|
//! | `class C(Chare)` | `impl Chare for C { type Msg; type Init; … }` |
//! | `charm.start(main)` | `Runtime::new(n).run(main)` |
//! | `Chare(C, onPE=p)` / `Group(C)` / `Array(C, dims)` | `Ctx::create_chare` / `Ctx::create_group` / `Ctx::create_array` |
//! | `proxy.method(args)` | `Proxy::send` (broadcasts from collection proxies) |
//! | `proxy.method(args, ret=True)` | `Proxy::call` → `Future` |
//! | `@when("cond")` | `Chare::guard` |
//! | `@threaded` + `self.wait(...)` | `Ctx::go` + `Co::wait` |
//! | `future.get()` | `Co::get` |
//! | `self.contribute(data, reducer, target)` | `Ctx::contribute` |
//! | `self.migrate(pe)` | `Ctx::migrate_me` |
//! | `self.AtSync()` | `Ctx::at_sync` |
//!
//! ## Backends
//!
//! The same application runs on three interchangeable backends
//! (`runtime::Backend`): real OS threads (one per PE), a deterministic
//! virtual-time simulation driven by a `charm_sim::MachineModel` — the
//! substitute for the paper's Cray testbeds that makes the scaling figures
//! reproducible on any host — and real OS *processes* connected over TCP
//! via `charm-net`, with heartbeat failure detection and process-kill
//! recovery (DESIGN.md §13).

#![forbid(unsafe_code)]
// The payload-copy rule, and the method lists of the blocking and
// nondeterminism rules (crates/clippy.toml; DESIGN.md §6).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub(crate) mod aggregation;
#[cfg(feature = "analyze")]
pub mod analyze;
pub mod chare;
#[cfg(feature = "analyze")]
pub mod check;
pub mod checkpoint;
pub mod collections;
pub mod coro;
pub mod ctx;
pub(crate) mod driver;
pub mod future;
pub mod ids;
pub mod lb;
pub mod location;
pub mod msg;
pub(crate) mod net;
pub mod pe;
pub mod proxy;
pub mod quiescence;
pub mod reduction;
pub mod runtime;
pub(crate) mod sweep;
pub mod tree;

pub use chare::{Chare, MsgGuard, Registry};
#[cfg(feature = "analyze")]
pub use check::{CheckCfg, CheckCounterexample, CheckOracle, CheckReport, ReplayOutcome};
// The schedule-artifact type round-trips between `check` and user code.
#[cfg(feature = "analyze")]
pub use charm_check::Schedule;
pub use checkpoint::{CkptError, Store};
pub use collections::Placement;
pub use coro::Co;
pub use ctx::{ArrayOpts, Ctx};
pub use future::Future;
pub use ids::{ChareId, CollectionId, FutureId, Index, Pe};
pub use lb::{GreedyRefineLb, LbChareStat, LbStats, LbStrategy};
pub use msg::Message;
pub use proxy::{Proxy, Section};
pub use reduction::{RedData, RedTarget, Reducer};
pub use runtime::{
    AggCfg, Backend, DispatchMode, Main, RunError, RunReport, Runtime, TelemetryCfg, TelemetrySink,
};
pub use tree::TreeShape;

// Net backend configuration and process-role helpers (DESIGN.md §13) —
// re-exported so applications select `Backend::Net` without depending on
// `charm-net` directly. `is_net_worker` lets a binary guard root-only work
// that runs *before* `Runtime::run` (after it, worker processes have
// already exited inside the runtime).
pub use charm_net::{is_net_worker, BackoffCfg, NetCfg, Spawn};

// Tracing & metrics (DESIGN.md §7) — the subsystem lives in `charm-trace`;
// re-exported so applications configure and consume traces through one crate.
pub use charm_trace::{MetricFrame, PePerf, PeTrace, TraceConfig, TraceLevel, TraceReport};

// The message contract (DESIGN.md §5) — the trait and its declarative
// impl macros live in `charm-wire`; re-exported so applications declare
// their messages through one crate.
pub use charm_wire::{wire_enum, wire_struct, Wire};

/// Everything an application usually needs.
pub mod prelude {
    pub use crate::chare::Chare;
    pub use crate::chare::MsgGuard;
    pub use crate::checkpoint::{CkptError, Store};
    pub use crate::collections::Placement;
    pub use crate::coro::Co;
    pub use crate::ctx::{ArrayOpts, Ctx};
    pub use crate::future::Future;
    pub use crate::ids::{ChareId, Index, Pe};
    pub use crate::lb::{LbChareStat, LbStats, LbStrategy};
    pub use crate::msg::Message;
    pub use crate::proxy::{Proxy, Section};
    pub use crate::reduction::{RedData, RedTarget, Reducer};
    pub use crate::runtime::{
        AggCfg, Backend, DispatchMode, Main, RunError, RunReport, Runtime, TelemetryCfg,
    };
    pub use crate::tree::TreeShape;
    pub use charm_trace::{MetricFrame, TraceConfig, TraceLevel};
    pub use charm_wire::{wire_enum, wire_struct, Wire};
}
