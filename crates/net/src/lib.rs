//! # charm-net — multi-process TCP transport for charm-rs
//!
//! The Net backend runs each PE as a separate OS process; this crate is the
//! transport layer underneath it (DESIGN.md §13). It carries opaque,
//! length-framed byte payloads (the runtime's encoded envelopes — including
//! TRAM aggregation frames, which go on the socket unchanged) between peers
//! over `TcpStream`s, and owns the *peer lifecycle*:
//!
//! * **Rendezvous** — PE 0 listens; workers register with
//!   `{pe, epoch, nonce}` and their own listen port; the root broadcasts
//!   the peer table; the mesh completes with a fixed dial direction (the
//!   higher PE dials the lower PE's listener), so no connection is ever
//!   established twice. Each wait on the way (`accept`, the mesh wait)
//!   wakes on its event, bounded by a deadline; none polls a timer.
//! * **Heartbeats** — each connection's writer emits a ping whenever it has
//!   been idle for `heartbeat_every`; each reader arms a read timeout of
//!   `heartbeat_timeout`, so silent peer death is detected even when the
//!   TCP stack never reports an error.
//! * **Reconnect** — the dialing side retries a lost connection with
//!   exponential backoff plus deterministic jitter and capped retries; the
//!   accepting side arms a readmission window. Only when both give up does
//!   the loss surface as a [`NetEvent::PeerLost`].
//! * **Incarnation fencing** — every handshake carries the sender's
//!   recovery epoch; an accepting node rejects handshakes from an epoch
//!   older than its own, so zombie processes from before a restart can
//!   never rejoin the mesh (their frames are counted as stale and
//!   dropped at the door).
//! * **Graceful drain** — shutdown flushes every bounded outbound queue,
//!   sends a `Bye` so the peer can distinguish clean close from death, and
//!   bounds the whole teardown with a deadline. A node dropped without a
//!   drain is killed: port closed, connections severed.
//!
//! The crate is std-only and knows nothing about envelopes, chares or
//! checkpoints — `charm-core`'s Net driver maps [`NetEvent`]s onto the
//! restart supervisor. The framing layer is compiled from
//! `charm-wire`'s hardened `frame` module source, so both crates agree on
//! the byte format while this crate stays dependency-free; the backoff
//! jitter draws from `charm-wire`'s `SplitMix64` the same way.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod cfg;
pub mod error;
#[path = "../../wire/src/frame.rs"]
pub mod frame;
pub mod launch;
pub mod node;
pub mod peer;
pub mod proto;
// The jitter source for `backoff`; the rest of the module goes unused here.
#[allow(dead_code)]
#[path = "../../wire/src/rng.rs"]
mod rng;

pub use backoff::{Backoff, BackoffCfg};
pub use cfg::{NetCfg, Spawn};
pub use error::NetError;
pub use launch::{is_net_worker, kill_self_hard, worker_env, Launcher, WorkerEnv};
pub use node::{CounterSnapshot, NetEvent, NetNode};
pub use peer::Body;
