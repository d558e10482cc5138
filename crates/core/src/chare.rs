//! The `Chare` trait — the distributed migratable object (paper §II-B) —
//! plus the type registry that lets every PE construct, dispatch to, pack
//! and unpack chares of any registered type.

// Entry-method execution path (DESIGN.md §6): the blocking rule.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::any::{Any, TypeId};
use std::collections::HashMap;

use charm_wire::Codec;
use charm_wire::Wire;

use crate::ctx::Ctx;
use crate::ids::ChareTypeId;
use crate::msg::{BoxMsg, Message};
use crate::reduction::RedData;

/// A distributed object. Implementing this is the analog of subclassing
/// `Chare` in CharmPy.
///
/// Entry methods are the variants of [`Chare::Msg`]: a remote invocation
/// sends one `Msg` value, and [`Chare::receive`] plays the role of the
/// method body dispatch. The `when`-decorator of CharmPy (§II-E) maps to
/// [`Chare::guard`]: a message whose guard returns `false` is buffered by
/// the runtime and retried after every state change of the chare.
pub trait Chare: Sized + Send + 'static {
    /// The entry-method message enum.
    type Msg: Message;
    /// Constructor argument (same value delivered to every member of a
    /// collection, as in CharmPy's `args=[...]`).
    type Init: Message + Clone;

    /// Construct a new instance (the chare's `__init__`).
    fn create(init: Self::Init, ctx: &mut Ctx) -> Self;

    /// Handle one entry-method invocation.
    fn receive(&mut self, msg: Self::Msg, ctx: &mut Ctx);

    /// The `@when` condition: return `false` to defer `msg` until the
    /// chare's state changes. Must be a pure function of `(self, msg)`.
    fn guard(&self, _msg: &Self::Msg) -> bool {
        true
    }

    /// Deliver the result of a reduction targeted at this chare. `tag` is
    /// the application-chosen discriminator passed at `contribute` time
    /// (standing in for CharmPy's `proxy.method` reduction targets).
    fn reduced(&mut self, _tag: u32, _data: RedData, _ctx: &mut Ctx) {}

    /// Called after a load-balancing epoch completes, on every chare that
    /// had called `at_sync` (Charm++'s `ResumeFromSync`).
    fn resume_from_sync(&mut self, _ctx: &mut Ctx) {}
}

/// Object-safe wrapper around a concrete chare. The scheduler stores chares
/// as `Box<dyn ChareBox>` and uses these hooks for typed dispatch.
pub trait ChareBox: Send {
    /// The chare as `Any` (for coroutine downcasts and guard predicates).
    fn any_mut(&mut self) -> &mut dyn Any;
    /// The chare as `Any` (shared).
    fn any_ref(&self) -> &dyn Any;
    /// Deliver an entry message (must be the chare's `Msg` type).
    fn deliver(&mut self, msg: BoxMsg, ctx: &mut Ctx);
    /// Evaluate the when-guard for a pending message.
    fn guard_ok(&self, msg: &BoxMsg) -> bool;
    /// Deliver a reduction result.
    fn reduced_dyn(&mut self, tag: u32, data: RedData, ctx: &mut Ctx);
    /// Notify the chare that load balancing finished.
    fn resume_from_sync_dyn(&mut self, ctx: &mut Ctx);
    /// Serialize the chare for migration; `None` if the type was not
    /// registered as migratable.
    fn pack(&self, codec: Codec) -> Option<charm_wire::Result<Vec<u8>>>;
    /// Registered type of this chare.
    fn type_id(&self) -> ChareTypeId;
}

/// Serializer hook stored by migratable holders.
type PackFn<T> = fn(&T, Codec) -> charm_wire::Result<Vec<u8>>;

/// The concrete `ChareBox` implementation for a chare type `T`.
pub(crate) struct Holder<T: Chare> {
    pub inner: T,
    tid: ChareTypeId,
    pack_fn: Option<PackFn<T>>,
}

impl<T: Chare> ChareBox for Holder<T> {
    fn any_mut(&mut self) -> &mut dyn Any {
        &mut self.inner
    }
    fn any_ref(&self) -> &dyn Any {
        &self.inner
    }
    fn deliver(&mut self, msg: BoxMsg, ctx: &mut Ctx) {
        let msg = *msg.downcast::<T::Msg>().unwrap_or_else(|_| {
            panic!(
                "message type mismatch delivering to {}",
                std::any::type_name::<T>()
            )
        });
        self.inner.receive(msg, ctx);
    }
    fn guard_ok(&self, msg: &BoxMsg) -> bool {
        let msg = msg.downcast_ref::<T::Msg>().unwrap_or_else(|| {
            panic!(
                "message type mismatch in guard for {}",
                std::any::type_name::<T>()
            )
        });
        self.inner.guard(msg)
    }
    fn reduced_dyn(&mut self, tag: u32, data: RedData, ctx: &mut Ctx) {
        self.inner.reduced(tag, data, ctx);
    }
    fn resume_from_sync_dyn(&mut self, ctx: &mut Ctx) {
        self.inner.resume_from_sync(ctx);
    }
    fn pack(&self, codec: Codec) -> Option<charm_wire::Result<Vec<u8>>> {
        self.pack_fn.map(|f| f(&self.inner, codec))
    }
    fn type_id(&self) -> ChareTypeId {
        self.tid
    }
}

/// Deserializer hook for migrated chares.
pub(crate) type UnpackFn = fn(Codec, &[u8], ChareTypeId) -> charm_wire::Result<Box<dyn ChareBox>>;

/// Per-type hooks used by the scheduler when only the registered type id is
/// known (decoding wire messages, constructing members, unpacking
/// migrants).
pub struct ChareVTable {
    /// Human-readable type name (diagnostics).
    pub name: &'static str,
    #[expect(dead_code, reason = "diagnostics only")]
    pub(crate) rust_type: TypeId,
    pub(crate) decode_msg: fn(Codec, &[u8]) -> charm_wire::Result<BoxMsg>,
    pub(crate) encode_msg: fn(&dyn Any, Codec) -> charm_wire::Result<Vec<u8>>,
    pub(crate) decode_init: fn(Codec, &[u8]) -> charm_wire::Result<BoxMsg>,
    pub(crate) encode_init: fn(&dyn Any, Codec) -> charm_wire::Result<Vec<u8>>,
    pub(crate) construct: fn(BoxMsg, &mut Ctx, ChareTypeId) -> Box<dyn ChareBox>,
    pub(crate) unpack: Option<UnpackFn>,
    /// Whether instances can migrate.
    pub migratable: bool,
}

fn decode_msg_impl<T: Chare>(codec: Codec, bytes: &[u8]) -> charm_wire::Result<BoxMsg> {
    Ok(Box::new(codec.decode::<T::Msg>(bytes)?) as BoxMsg)
}
fn encode_msg_impl<T: Chare>(any: &dyn Any, codec: Codec) -> charm_wire::Result<Vec<u8>> {
    let m = any
        .downcast_ref::<T::Msg>()
        .expect("encode_msg type invariant");
    codec.encode(m)
}
fn decode_init_impl<T: Chare>(codec: Codec, bytes: &[u8]) -> charm_wire::Result<BoxMsg> {
    Ok(Box::new(codec.decode::<T::Init>(bytes)?) as BoxMsg)
}
fn encode_init_impl<T: Chare>(any: &dyn Any, codec: Codec) -> charm_wire::Result<Vec<u8>> {
    let m = any
        .downcast_ref::<T::Init>()
        .expect("encode_init type invariant");
    codec.encode(m)
}

/// Build a `Holder` directly from an existing value (used by the runtime
/// for the built-in main chare).
pub(crate) fn holder_for<T: Chare>(inner: T, tid: ChareTypeId) -> impl ChareBox {
    Holder {
        inner,
        tid,
        pack_fn: None,
    }
}
fn construct_impl<T: Chare>(init: BoxMsg, ctx: &mut Ctx, tid: ChareTypeId) -> Box<dyn ChareBox> {
    let init = *init
        .downcast::<T::Init>()
        .expect("constructor argument type invariant");
    Box::new(Holder {
        inner: T::create(init, ctx),
        tid,
        pack_fn: None,
    })
}
fn construct_mig_impl<T: Chare + Wire>(
    init: BoxMsg,
    ctx: &mut Ctx,
    tid: ChareTypeId,
) -> Box<dyn ChareBox> {
    let init = *init
        .downcast::<T::Init>()
        .expect("constructor argument type invariant");
    Box::new(Holder {
        inner: T::create(init, ctx),
        tid,
        pack_fn: Some(|c, codec| codec.encode(c)),
    })
}
fn unpack_impl<T: Chare + Wire>(
    codec: Codec,
    bytes: &[u8],
    tid: ChareTypeId,
) -> charm_wire::Result<Box<dyn ChareBox>> {
    Ok(Box::new(Holder {
        inner: codec.decode::<T>(bytes)?,
        tid,
        pack_fn: Some(|c, codec| codec.encode(c)),
    }) as Box<dyn ChareBox>)
}

/// Type-erased per-message guard: `(chare, msg) -> deliverable?`.
pub(crate) type MsgGuardFn = std::sync::Arc<dyn Fn(&dyn Any, &BoxMsg) -> bool + Send + Sync>;

/// Handle to a registered per-message when-condition (paper §II-E's
/// sender-side conditions, listed there as future work). Attach it to a
/// send with [`crate::Proxy::send_when`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgGuard(pub(crate) u32);

/// Registry of per-message guards.
#[derive(Default, Clone)]
pub struct MsgGuards {
    fns: Vec<MsgGuardFn>,
}

impl MsgGuards {
    /// Register a guard for chare type `T`: the message is delivered only
    /// once `pred(chare, msg)` holds (evaluated at the receiver after every
    /// state change, like the receiver-side `Chare::guard`).
    pub fn register<T: Chare>(
        &mut self,
        pred: impl Fn(&T, &T::Msg) -> bool + Send + Sync + 'static,
    ) -> MsgGuard {
        let id = self.fns.len() as u32;
        self.fns.push(std::sync::Arc::new(move |chare, msg| {
            let chare = chare
                .downcast_ref::<T>()
                .expect("per-message guard evaluated on a chare of a different type");
            let msg = msg
                .downcast_ref::<T::Msg>()
                .expect("per-message guard evaluated on a message of a different type");
            pred(chare, msg)
        }));
        MsgGuard(id)
    }

    pub(crate) fn get(&self, id: u32) -> &MsgGuardFn {
        self.fns
            .get(id as usize)
            .unwrap_or_else(|| panic!("per-message guard {id} not registered"))
    }
}

/// The chare type registry. Populated on the runtime builder *before*
/// start, in the same order on every PE (they share the process, so this is
/// trivially true here; a multi-process port would rely on identical
/// program order, as Charm++ does).
#[derive(Default)]
pub struct Registry {
    tables: Vec<ChareVTable>,
    by_rust: HashMap<TypeId, ChareTypeId>,
}

impl Registry {
    /// Register a (non-migratable) chare type.
    pub fn register<T: Chare>(&mut self) -> ChareTypeId {
        self.insert::<T>(ChareVTable {
            name: std::any::type_name::<T>(),
            rust_type: TypeId::of::<T>(),
            decode_msg: decode_msg_impl::<T>,
            encode_msg: encode_msg_impl::<T>,
            decode_init: decode_init_impl::<T>,
            encode_init: encode_init_impl::<T>,
            construct: construct_impl::<T>,
            unpack: None,
            migratable: false,
        })
    }

    /// Register a migratable chare type (requires `Wire` on the chare state,
    /// the analog of being pickleable in CharmPy §II-I).
    pub fn register_migratable<T: Chare + Wire>(&mut self) -> ChareTypeId {
        self.insert::<T>(ChareVTable {
            name: std::any::type_name::<T>(),
            rust_type: TypeId::of::<T>(),
            decode_msg: decode_msg_impl::<T>,
            encode_msg: encode_msg_impl::<T>,
            decode_init: decode_init_impl::<T>,
            encode_init: encode_init_impl::<T>,
            construct: construct_mig_impl::<T>,
            unpack: Some(unpack_impl::<T>),
            migratable: true,
        })
    }

    fn insert<T: Chare>(&mut self, table: ChareVTable) -> ChareTypeId {
        if let Some(&tid) = self.by_rust.get(&TypeId::of::<T>()) {
            return tid; // idempotent re-registration
        }
        let tid = ChareTypeId(self.tables.len() as u32);
        self.by_rust.insert(TypeId::of::<T>(), tid);
        self.tables.push(table);
        tid
    }

    /// Look up the registered id of `T`, panicking with guidance if absent.
    pub fn type_of<T: Chare>(&self) -> ChareTypeId {
        *self.by_rust.get(&TypeId::of::<T>()).unwrap_or_else(|| {
            panic!(
                "chare type {} was not registered; call .register::<T>() on the runtime builder",
                std::any::type_name::<T>()
            )
        })
    }

    /// Whether `T` is registered.
    pub fn is_registered<T: Chare>(&self) -> bool {
        self.by_rust.contains_key(&TypeId::of::<T>())
    }

    /// VTable for a registered type id.
    pub fn vtable(&self, tid: ChareTypeId) -> &ChareVTable {
        &self.tables[tid.0 as usize]
    }

    /// Display name for a type id; total (traces may carry ids the local
    /// registry has never seen, e.g. after a partial restore).
    pub fn name_of(&self, tid: ChareTypeId) -> &'static str {
        self.tables
            .get(tid.0 as usize)
            .map(|t| t.name)
            .unwrap_or("<unregistered>")
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}
