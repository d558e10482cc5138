//! `Ctx` — the runtime handle available inside entry methods, constructors
//! and coroutines (the analog of CharmPy's `charm` object plus the chare's
//! `self.*` runtime methods).
//!
//! All side effects are *deferred*: proxy sends, creations, contributions
//! and control actions are buffered as deferred ops and executed by the
//! scheduler when the handler returns (or when a coroutine yields). This
//! matches the asynchronous model — nothing in an entry method can block —
//! and gives the simulated backend a single point at which to timestamp
//! outgoing traffic.

// Scheduler hot path (DESIGN.md §6): the panic and blocking rules.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use charm_wire::{Codec, WireBytes};

use crate::chare::Chare;
use crate::collections::{CollKind, CollSpec, Placement};
use crate::coro::{run_coroutine, Co, CoroSide};
use crate::future::Future;
use crate::ids::{ChareId, CollectionId, FutureId, Index, Pe};
use crate::msg::{Message, OutPayload};
use crate::proxy::Proxy;
use crate::reduction::{RedData, RedTarget, Reducer};

/// Shared per-PE allocation state usable from both the scheduler and
/// coroutine threads.
#[derive(Clone)]
pub(crate) struct CtxSeed {
    pub pe: Pe,
    pub npes: usize,
    pub codec: Codec,
    /// Machine incarnation (0 until a recovery has happened).
    pub epoch: u64,
    pub fut_seq: Arc<AtomicU64>,
    pub coll_seq: Arc<AtomicU32>,
    pub registry: Arc<crate::chare::Registry>,
}

/// Options for array creation.
#[derive(Debug, Clone, Copy)]
pub struct ArrayOpts {
    /// Element→PE mapping.
    pub placement: Placement,
    /// Whether members take part in at-sync load balancing.
    pub use_lb: bool,
}

impl Default for ArrayOpts {
    fn default() -> Self {
        ArrayOpts {
            placement: Placement::Block,
            use_lb: false,
        }
    }
}

/// Deferred runtime actions produced by a handler.
pub(crate) enum Op {
    SendElem {
        to: ChareId,
        payload: OutPayload,
        reply: Option<FutureId>,
        guard: Option<u32>,
    },
    Broadcast {
        coll: CollectionId,
        bytes: WireBytes,
    },
    Multicast {
        coll: CollectionId,
        members: Vec<Index>,
        bytes: WireBytes,
    },
    CreateCollection {
        spec: CollSpec,
        init_bytes: WireBytes,
    },
    InsertElem {
        coll: CollectionId,
        index: Index,
        init: OutPayload,
        on_pe: Option<Pe>,
    },
    DoneInserting {
        coll: CollectionId,
    },
    SendFuture {
        fid: FutureId,
        payload: OutPayload,
    },
    Contribute {
        data: RedData,
        reducer: Reducer,
        target: RedTarget,
    },
    MigrateMe {
        to: Pe,
    },
    AtSync,
    Go(Box<dyn FnOnce(CoroSide) + Send + 'static>),
    Charge(Duration),
    StartQd {
        fid: FutureId,
    },
    Checkpoint {
        dir: String,
        fid: FutureId,
    },
    Exit,
    TraceMark(String),
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Op::SendElem { .. } => "SendElem",
            Op::Broadcast { .. } => "Broadcast",
            Op::Multicast { .. } => "Multicast",
            Op::CreateCollection { .. } => "CreateCollection",
            Op::InsertElem { .. } => "InsertElem",
            Op::DoneInserting { .. } => "DoneInserting",
            Op::SendFuture { .. } => "SendFuture",
            Op::Contribute { .. } => "Contribute",
            Op::MigrateMe { .. } => "MigrateMe",
            Op::AtSync => "AtSync",
            Op::Go(_) => "Go",
            Op::Charge(_) => "Charge",
            Op::StartQd { .. } => "StartQd",
            Op::Checkpoint { .. } => "Checkpoint",
            Op::Exit => "Exit",
            Op::TraceMark(_) => "TraceMark",
        };
        write!(f, "Op::{name}")
    }
}

/// The runtime context handed to every entry method.
pub struct Ctx {
    pub(crate) seed: CtxSeed,
    pub(crate) now_ns: u64,
    pub(crate) this: Option<ChareId>,
    pub(crate) reply_to: Option<FutureId>,
    pub(crate) ops: Vec<Op>,
}

impl Ctx {
    pub(crate) fn new(seed: CtxSeed, now_ns: u64, this: Option<ChareId>) -> Ctx {
        Ctx {
            seed,
            now_ns,
            this,
            reply_to: None,
            ops: Vec::new(),
        }
    }

    /// The PE this handler is executing on (`charm.myPe()`).
    pub fn my_pe(&self) -> Pe {
        self.seed.pe
    }

    /// Total number of PEs (`charm.numPes()`).
    pub fn num_pes(&self) -> usize {
        self.seed.npes
    }

    /// Current time in seconds — virtual time under the simulated backend,
    /// elapsed wall time under the threaded one.
    pub fn now(&self) -> f64 {
        self.now_ns as f64 / 1e9
    }

    /// Identity of the chare this handler runs on (`None` at top level).
    pub fn this_id(&self) -> Option<ChareId> {
        self.this
    }

    /// The machine's recovery epoch: 0 in a fault-free run, incremented by
    /// the supervisor on every automatic restart. Lets recovery entry
    /// closures distinguish the first incarnation from a re-run.
    pub fn recovery_epoch(&self) -> u64 {
        self.seed.epoch
    }

    /// The current chare, for the accessor `what`.
    #[expect(clippy::panic, reason = "panic: API contract, as in CharmPy")]
    fn this_chare(&self, what: &str) -> ChareId {
        self.this
            .unwrap_or_else(|| panic!("{what} outside a chare"))
    }

    /// Index of the current chare within its collection (`thisIndex`).
    pub fn my_index(&self) -> Index {
        self.this_chare("my_index").index
    }

    /// Proxy to the current chare's whole collection (`thisProxy`).
    pub fn this_proxy<T: Chare>(&self) -> Proxy<T> {
        Proxy::collection(self.this_chare("this_proxy").coll)
    }

    /// Proxy to the current chare itself.
    pub fn this_elem<T: Chare>(&self) -> Proxy<T> {
        let id = self.this_chare("this_elem");
        Proxy::element(id.coll, id.index)
    }

    // ----- futures --------------------------------------------------------

    /// Create a new future on this PE (`charm.createFuture()`).
    pub fn create_future<V: Message>(&mut self) -> Future<V> {
        let seq = self.seed.fut_seq.fetch_add(1, Ordering::Relaxed);
        Future::new(FutureId {
            pe: self.seed.pe as u32,
            seq,
        })
    }

    /// Complete `future` with `value` (the value travels to the creating
    /// PE; any coroutine blocked on `get` resumes there).
    pub fn send_future<V: Message>(&mut self, future: &Future<V>, value: V) {
        self.ops.push(Op::SendFuture {
            fid: future.id,
            payload: OutPayload::new(value),
        });
    }

    /// Reply to the caller of this entry method, if it asked for a return
    /// value via `Proxy::call` (`ret=True`). Silently dropped otherwise,
    /// matching CharmPy's discard of unrequested return values.
    pub fn reply<V: Message>(&mut self, value: V) {
        if let Some(fid) = self.reply_to {
            self.ops.push(Op::SendFuture {
                fid,
                payload: OutPayload::new(value),
            });
        }
    }

    /// Whether the current invocation carries a reply future.
    pub fn has_reply(&self) -> bool {
        self.reply_to.is_some()
    }

    /// The raw reply future id, if any (to forward it elsewhere).
    pub fn reply_future(&self) -> Option<FutureId> {
        self.reply_to
    }

    // ----- chare/collection creation -------------------------------------

    fn alloc_coll(&mut self) -> CollectionId {
        CollectionId {
            creator: self.seed.pe as u32,
            seq: self.seed.coll_seq.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Create a single chare (`Chare(Type, onPE=..)`). With `on_pe: None`
    /// the runtime picks a PE (round-robin by creation sequence).
    pub fn create_chare<T: Chare>(&mut self, init: T::Init, on_pe: Option<Pe>) -> Proxy<T> {
        let id = self.alloc_coll();
        let pe = on_pe.unwrap_or((id.seq as usize) % self.seed.npes);
        assert!(pe < self.seed.npes, "create_chare: PE {pe} out of range");
        let spec = CollSpec {
            id,
            ctype: crate::ids::ChareTypeId(u32::MAX), // resolved by scheduler
            kind: CollKind::Singleton { pe },
            placement: Placement::Hash,
            use_lb: false,
        };
        self.push_create::<T>(spec, init);
        Proxy::element(id, Index::SINGLE)
    }

    /// Create a group: one member per PE (`Group(Type)`).
    pub fn create_group<T: Chare>(&mut self, init: T::Init) -> Proxy<T> {
        let id = self.alloc_coll();
        let spec = CollSpec {
            id,
            ctype: crate::ids::ChareTypeId(u32::MAX),
            kind: CollKind::Group,
            placement: Placement::Hash,
            use_lb: false,
        };
        self.push_create::<T>(spec, init);
        Proxy::collection(id)
    }

    /// Create a dense N-D chare array with default options
    /// (`Array(Type, dims)`).
    pub fn create_array<T: Chare>(&mut self, dims: &[i32], init: T::Init) -> Proxy<T> {
        self.create_array_with::<T>(dims, init, ArrayOpts::default())
    }

    /// Create a dense N-D chare array with explicit placement / LB options.
    pub fn create_array_with<T: Chare>(
        &mut self,
        dims: &[i32],
        init: T::Init,
        opts: ArrayOpts,
    ) -> Proxy<T> {
        assert!(!dims.is_empty(), "array needs at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "array dims must be positive");
        let id = self.alloc_coll();
        let spec = CollSpec {
            id,
            ctype: crate::ids::ChareTypeId(u32::MAX),
            kind: CollKind::Dense {
                #[expect(clippy::disallowed_methods, reason = "payload-copy: a dims slice")]
                dims: dims.to_vec(),
            },
            placement: opts.placement,
            use_lb: opts.use_lb,
        };
        self.push_create::<T>(spec, init);
        Proxy::collection(id)
    }

    /// Create an empty sparse array (`Array(Type, ndims=n)`); elements are
    /// inserted later with [`Proxy::insert`].
    pub fn create_sparse<T: Chare>(&mut self, opts: ArrayOpts) -> Proxy<T> {
        let id = self.alloc_coll();
        let spec = CollSpec {
            id,
            ctype: crate::ids::ChareTypeId(u32::MAX),
            kind: CollKind::Sparse,
            placement: opts.placement,
            use_lb: opts.use_lb,
        };
        // Sparse arrays have no members at creation; the init payload is
        // unused but the spec still replicates to every PE.
        self.push_create_raw::<T>(spec, WireBytes::new());
        Proxy::collection(id)
    }

    fn push_create<T: Chare>(&mut self, spec: CollSpec, init: T::Init) {
        let bytes = self.seed.codec.encode_shared(&init);
        self.push_create_raw::<T>(spec, bytes);
    }

    fn push_create_raw<T: Chare>(&mut self, mut spec: CollSpec, init_bytes: WireBytes) {
        spec.ctype = self.seed.registry.type_of::<T>();
        self.ops.push(Op::CreateCollection { spec, init_bytes });
    }

    // ----- reductions -----------------------------------------------------

    /// Contribute to a reduction over this chare's collection
    /// (`self.contribute(data, reducer, target)`).
    pub fn contribute(&mut self, data: RedData, reducer: Reducer, target: RedTarget) {
        assert!(
            self.this.is_some(),
            "contribute must be called from a chare"
        );
        self.ops.push(Op::Contribute {
            data,
            reducer,
            target,
        });
    }

    /// Contribute a typed value to a gather reduction; the target receives
    /// all values sorted by member index.
    pub fn contribute_gather<V: Message>(&mut self, value: &V, target: RedTarget) {
        let bytes = self.seed.codec.encode(value);
        let index = self.my_index();
        self.contribute(
            RedData::Gather(vec![(index, bytes)]),
            Reducer::Gather,
            target,
        );
    }

    /// Empty reduction: a pure completion barrier (paper §II-F).
    pub fn contribute_barrier(&mut self, target: RedTarget) {
        self.contribute(RedData::Unit, Reducer::Nop, target);
    }

    // ----- migration / LB / control ---------------------------------------

    /// Move this chare to `pe` after the current entry method finishes
    /// (`self.migrate(toPe)`). The type must be registered migratable.
    pub fn migrate_me(&mut self, pe: Pe) {
        assert!(pe < self.seed.npes, "migrate_me: PE {pe} out of range");
        self.ops.push(Op::MigrateMe { to: pe });
    }

    /// Signal that this chare is ready for load balancing (`AtSync`). The
    /// runtime calls `resume_from_sync` when the epoch completes.
    pub fn at_sync(&mut self) {
        assert!(self.this.is_some(), "at_sync must be called from a chare");
        self.ops.push(Op::AtSync);
    }

    /// Launch a threaded entry method on the current chare: `body` runs on
    /// its own coroutine and may suspend via [`Co::wait`]/[`Co::get`] while
    /// the PE keeps delivering other messages (paper §II-H1).
    pub fn go<T: Chare>(&mut self, body: impl FnOnce(&mut Co<T>) + Send + 'static) {
        assert!(self.this.is_some(), "go must be called from a chare");
        self.ops.push(Op::Go(Box::new(move |side: CoroSide| {
            run_coroutine::<T>(side, body)
        })));
    }

    /// Charge `dt` of compute time to this PE. Under the simulated backend
    /// this advances the virtual clock (and the chare's measured load)
    /// without burning host CPU — the analog of the paper's synthetic-load
    /// `sleep(t_k * alpha_i)`. Under the threaded backend it really sleeps.
    pub fn charge(&mut self, dt: Duration) {
        self.ops.push(Op::Charge(dt));
    }

    /// Ask for quiescence detection: `fid` completes (with `()`) once no
    /// application messages are in flight or being processed anywhere.
    pub fn start_quiescence(&mut self, future: &Future<()>) {
        self.ops.push(Op::StartQd { fid: future.id() });
    }

    /// Write a global checkpoint into `dir`: every PE serializes its local
    /// chares and collection metadata; `done` completes with the total
    /// chare count saved. Take checkpoints at an application sync point
    /// with no messages in flight and no suspended coroutines (use
    /// [`Ctx::start_quiescence`] to be sure); all chare types must be
    /// registered migratable. Restore with `Runtime::run_restored`.
    pub fn checkpoint(&mut self, dir: impl Into<String>, done: &Future<i64>) {
        self.ops.push(Op::Checkpoint {
            dir: dir.into(),
            fid: done.id(),
        });
    }

    /// Stop the runtime (`charm.exit()`).
    pub fn exit(&mut self) {
        self.ops.push(Op::Exit);
    }

    /// Drop a labelled instant into this PE's trace (visible in the
    /// Chrome/Perfetto timeline; a no-op below full capture).
    pub fn trace_mark(&mut self, label: impl Into<String>) {
        self.ops.push(Op::TraceMark(label.into()));
    }
}
