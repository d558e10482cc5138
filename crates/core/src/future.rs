//! Distributed futures (paper §II-H3).
//!
//! A future is created on one PE, can be shipped to any chare in a message,
//! and completed from anywhere with `send`. The creator retrieves the value
//! with `Co::get`, which suspends only the calling coroutine — the PE keeps
//! scheduling other work, exactly as in CharmPy.

use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;

use charm_wire::{Reader, Wire, Writer};

use crate::ids::{CoroId, FutureId};
use crate::msg::{Message, Payload};

/// A typed handle to a value that will arrive later.
///
/// Handles are small, `Copy`, and serializable, so they can be passed to
/// other chares (e.g. the parallel-map pool sends the job's result future
/// to the master). The value must be retrieved on the creating PE.
pub struct Future<V: Message> {
    pub(crate) id: FutureId,
    _ph: PhantomData<fn() -> V>,
}

impl<V: Message> Future<V> {
    pub(crate) fn new(id: FutureId) -> Self {
        Future {
            id,
            _ph: PhantomData,
        }
    }

    /// The raw id (useful as a reduction target).
    pub fn id(&self) -> FutureId {
        self.id
    }

    /// Rebuild a handle from a raw id. The caller asserts the value type:
    /// a mismatch surfaces as a decode/downcast panic at `get`.
    pub fn from_raw(id: FutureId) -> Future<V> {
        Future::new(id)
    }
}

impl<V: Message> Clone for Future<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V: Message> Copy for Future<V> {}

impl<V: Message> fmt::Debug for Future<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Future<{}>({}.{})",
            std::any::type_name::<V>(),
            self.id.pe,
            self.id.seq
        )
    }
}

impl<V: Message> Wire for Future<V> {
    fn encode<W: Writer>(&self, w: &mut W) {
        self.id.encode(w);
    }
    fn decode<R: Reader>(r: &mut R) -> charm_wire::Result<Self> {
        FutureId::decode(r).map(Future::new)
    }
}

/// Per-PE state of one future.
pub enum FutState {
    /// Value arrived before anyone asked.
    Ready(Payload),
    /// A coroutine is suspended waiting for it.
    Waiting(CoroId),
    /// Created, no value, nobody waiting yet.
    Empty,
}

/// Per-PE future table.
pub type FutTable = HashMap<FutureId, FutState>;
