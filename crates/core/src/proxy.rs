//! Proxies: handles for remote method invocation (paper §II-D).
//!
//! A proxy references either one chare or a whole collection. Calling
//! `send` on a collection proxy broadcasts; `elem` narrows to one member.
//! Proxies are plain data — `Copy`, serializable — so they can be passed to
//! other chares inside messages, as CharmPy allows.

// Scheduler hot path (DESIGN.md §6): the panic and blocking rules.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::fmt;
use std::marker::PhantomData;

use charm_wire::{wire_struct, Reader, Wire, Writer};

use crate::chare::{Chare, MsgGuard};
use crate::ctx::{Ctx, Op};
use crate::future::Future;
use crate::ids::{ChareId, CollectionId, Index, Pe};
use crate::msg::{Message, OutPayload};
use crate::reduction::RedTarget;

/// A typed handle to one chare or a whole collection of chares of type `T`.
pub struct Proxy<T: Chare> {
    coll: CollectionId,
    /// `Some` = element proxy, `None` = whole-collection proxy.
    index: Option<Index>,
    _ph: PhantomData<fn() -> T>,
}

impl<T: Chare> Proxy<T> {
    pub(crate) fn collection(coll: CollectionId) -> Self {
        Proxy {
            coll,
            index: None,
            _ph: PhantomData,
        }
    }

    pub(crate) fn element(coll: CollectionId, index: Index) -> Self {
        Proxy {
            coll,
            index: Some(index),
            _ph: PhantomData,
        }
    }

    /// The collection this proxy refers to.
    pub fn coll_id(&self) -> CollectionId {
        self.coll
    }

    /// Rebuild a collection proxy from a known id — for use after
    /// `Runtime::run_restored`, where the original run's proxies are gone.
    /// Collection ids are deterministic (`(creator_pe, creation_seq)`), so
    /// an application that knows its creation order can always reconstruct
    /// them; persisting `coll_id()` alongside the checkpoint also works.
    pub fn restored(coll: CollectionId) -> Proxy<T> {
        Proxy::collection(coll)
    }

    /// The element index, if this is an element proxy.
    pub fn index(&self) -> Option<Index> {
        self.index
    }

    /// Whether this proxy addresses a whole collection (a send broadcasts).
    pub fn is_collection(&self) -> bool {
        self.index.is_none()
    }

    /// Narrow a collection proxy to one element (`proxy[index]`).
    pub fn elem(&self, index: impl Into<Index>) -> Proxy<T> {
        Proxy::element(self.coll, index.into())
    }

    /// Invoke an entry method: delivers `msg` to the element, or broadcasts
    /// it to every member if this is a collection proxy. Returns
    /// immediately; delivery is asynchronous (§II-D).
    pub fn send(&self, ctx: &mut Ctx, msg: T::Msg) {
        match self.index {
            Some(index) => ctx.ops.push(Op::SendElem {
                to: ChareId {
                    coll: self.coll,
                    index,
                },
                payload: OutPayload::new(msg),
                reply: None,
                guard: None,
            }),
            None => {
                // Broadcasts are encoded once at the call site into shared
                // bytes and decoded per member; every tree hop and local
                // fan-out clones the handle, never the allocation.
                let bytes = ctx.seed.codec.encode_shared(&msg);
                ctx.ops.push(Op::Broadcast {
                    coll: self.coll,
                    bytes,
                });
            }
        }
    }

    /// Invoke an entry method and obtain a future for its reply — the
    /// `ret=True` mechanism (§II-D). The callee fulfills it with
    /// `ctx.reply(value)`. Element proxies only.
    pub fn call<V: Message>(&self, ctx: &mut Ctx, msg: T::Msg) -> Future<V> {
        #[expect(clippy::expect_used, reason = "panic: API contract: element proxies")]
        let index = self
            .index
            .expect("call() needs an element proxy; use reductions for collective results");
        let fut = ctx.create_future::<V>();
        ctx.ops.push(Op::SendElem {
            to: ChareId {
                coll: self.coll,
                index,
            },
            payload: OutPayload::new(msg),
            reply: Some(fut.id()),
            guard: None,
        });
        fut
    }

    /// Invoke an entry method with a *per-message* when-condition (the
    /// sender-side conditions of §II-E, listed there as future work): the
    /// receiver buffers `msg` until the registered `guard` predicate holds
    /// over its state, in addition to the type's own [`Chare::guard`].
    /// Element proxies only.
    pub fn send_when(&self, ctx: &mut Ctx, msg: T::Msg, guard: MsgGuard) {
        #[expect(clippy::expect_used, reason = "panic: API contract: element proxies")]
        let index = self.index.expect("send_when needs an element proxy");
        ctx.ops.push(Op::SendElem {
            to: ChareId {
                coll: self.coll,
                index,
            },
            payload: OutPayload::new(msg),
            reply: None,
            guard: Some(guard.0),
        });
    }

    /// Build a *section*: a proxy over an explicit subset of this
    /// collection's members. Sending through it multicasts to exactly those
    /// members (encoded once at the call site).
    pub fn section(&self, members: impl IntoIterator<Item = impl Into<Index>>) -> Section<T> {
        Section {
            coll: self.coll,
            members: members.into_iter().map(Into::into).collect(),
            _ph: PhantomData,
        }
    }

    /// A reduction target that invokes `Chare::reduced(tag, data)` on this
    /// element (or broadcasts the result to the whole collection).
    pub fn reduction_target(&self, tag: u32) -> RedTarget {
        match self.index {
            Some(index) => RedTarget::Element(
                ChareId {
                    coll: self.coll,
                    index,
                },
                tag,
            ),
            None => RedTarget::Broadcast(self.coll, tag),
        }
    }

    /// Insert an element into a *sparse* array (`ckInsert`); with
    /// `on_pe: None` the element is placed by the array's placement policy.
    pub fn insert(&self, ctx: &mut Ctx, index: impl Into<Index>, init: T::Init, on_pe: Option<Pe>) {
        ctx.ops.push(Op::InsertElem {
            coll: self.coll,
            index: index.into(),
            init: OutPayload::new(init),
            on_pe,
        });
    }

    /// Declare the sparse insertion phase finished (`ckDoneInserting`).
    pub fn done_inserting(&self, ctx: &mut Ctx) {
        ctx.ops.push(Op::DoneInserting { coll: self.coll });
    }
}

impl<T: Chare> Clone for Proxy<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Chare> Copy for Proxy<T> {}

impl<T: Chare> PartialEq for Proxy<T> {
    fn eq(&self, other: &Self) -> bool {
        self.coll == other.coll && self.index == other.index
    }
}
impl<T: Chare> Eq for Proxy<T> {}

impl<T: Chare> fmt::Debug for Proxy<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(ix) => write!(
                f,
                "Proxy<{}>[{}{}]",
                std::any::type_name::<T>(),
                self.coll,
                ix
            ),
            None => write!(f, "Proxy<{}>[{}]", std::any::type_name::<T>(), self.coll),
        }
    }
}

struct ProxyWire {
    coll: CollectionId,
    index: Option<Index>,
}
wire_struct! { ProxyWire { coll, index } }

impl<T: Chare> Wire for Proxy<T> {
    fn encode<W: Writer>(&self, w: &mut W) {
        ProxyWire {
            coll: self.coll,
            index: self.index,
        }
        .encode(w);
    }
    fn decode<R: Reader>(r: &mut R) -> charm_wire::Result<Self> {
        let ProxyWire { coll, index } = ProxyWire::decode(r)?;
        Ok(Proxy {
            coll,
            index,
            _ph: PhantomData,
        })
    }
}

/// A section: an explicit subset of a collection's members, used for
/// multicast (Charm++ array sections). Serializable like a proxy, so it can
/// be handed to other chares.
pub struct Section<T: Chare> {
    coll: CollectionId,
    members: Vec<Index>,
    _ph: PhantomData<fn() -> T>,
}

impl<T: Chare> Section<T> {
    /// The member indices of this section.
    pub fn members(&self) -> &[Index] {
        &self.members
    }

    /// Multicast `msg` to every member of the section: one encode, one
    /// shared allocation, however many members.
    pub fn send(&self, ctx: &mut Ctx, msg: T::Msg) {
        let bytes = ctx.seed.codec.encode_shared(&msg);
        ctx.ops.push(Op::Multicast {
            coll: self.coll,
            members: self.members.clone(),
            bytes,
        });
    }
}

impl<T: Chare> Clone for Section<T> {
    fn clone(&self) -> Self {
        Section {
            coll: self.coll,
            members: self.members.clone(),
            _ph: PhantomData,
        }
    }
}

impl<T: Chare> fmt::Debug for Section<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Section<{}>[{} x{}]",
            std::any::type_name::<T>(),
            self.coll,
            self.members.len()
        )
    }
}

struct SectionWire {
    coll: CollectionId,
    members: Vec<Index>,
}
wire_struct! { SectionWire { coll, members } }

impl<T: Chare> Wire for Section<T> {
    fn encode<W: Writer>(&self, w: &mut W) {
        SectionWire {
            coll: self.coll,
            members: self.members.clone(),
        }
        .encode(w);
    }
    fn decode<R: Reader>(r: &mut R) -> charm_wire::Result<Self> {
        let SectionWire { coll, members } = SectionWire::decode(r)?;
        Ok(Section {
            coll,
            members,
            _ph: PhantomData,
        })
    }
}
