//! Reductions (paper §II-F, §IV-D).
//!
//! All members of a collection call `contribute(data, reducer, target)`;
//! partial results flow up a PE spanning tree and the root delivers the
//! final value to the target — an entry method of a chare, a broadcast to a
//! whole collection, or a future. Reductions are asynchronous: nobody
//! blocks, and multiple reductions (even on one collection) can be in
//! flight, sequenced per member by contribution order.

// Scheduler hot path (DESIGN.md §6): the panic and blocking rules.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use charm_wire::wire_enum;

use crate::ids::{ChareId, CollectionId, FutureId, Index, Pe};
use crate::msg::{EnvKind, OutPayload};
use crate::pe::{Invoke, PeState};

/// Data contributed to (and produced by) a reduction.
///
/// Built-in reducers understand the numeric variants; `Bytes` carries
/// opaque user values for custom reducers and gathers.
#[derive(Debug, Clone, PartialEq)]
pub enum RedData {
    /// No data: the empty reduction, used as a barrier (paper §II-F).
    Unit,
    /// A single signed integer.
    I64(i64),
    /// A single float.
    F64(f64),
    /// A single boolean (for `And`/`Or`).
    Bool(bool),
    /// An integer vector, reduced element-wise.
    VecI64(Vec<i64>),
    /// A float vector, reduced element-wise (the "NumPy array" case).
    VecF64(Vec<f64>),
    /// Opaque bytes for custom reducers.
    Bytes(Vec<u8>),
    /// Per-contributor values keyed by member index, kept sorted by index.
    Gather(Vec<(Index, Vec<u8>)>),
}
wire_enum! { RedData { Unit, I64(a), F64(a), Bool(a), VecI64(a), VecF64(a), Bytes(a), Gather(a) } }

impl RedData {
    /// Short name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            RedData::Unit => "unit",
            RedData::I64(_) => "i64",
            RedData::F64(_) => "f64",
            RedData::Bool(_) => "bool",
            RedData::VecI64(_) => "vec<i64>",
            RedData::VecF64(_) => "vec<f64>",
            RedData::Bytes(_) => "bytes",
            RedData::Gather(_) => "gather",
        }
    }

    /// The `as_*` accessors' failure: the program asked for `expected` but
    /// the reducer yielded another kind.
    #[expect(clippy::panic, reason = "panic: API contract: a user bug")]
    fn mismatch(&self, expected: &str) -> ! {
        panic!("reduction produced {}, expected {expected}", self.kind())
    }

    /// Extract an `i64`, panicking with a clear message otherwise.
    pub fn as_i64(&self) -> i64 {
        match self {
            RedData::I64(v) => *v,
            other => other.mismatch("i64"),
        }
    }

    /// Extract an `f64`.
    pub fn as_f64(&self) -> f64 {
        match self {
            RedData::F64(v) => *v,
            other => other.mismatch("f64"),
        }
    }

    /// Extract a float vector.
    pub fn as_vec_f64(&self) -> &[f64] {
        match self {
            RedData::VecF64(v) => v,
            other => other.mismatch("vec<f64>"),
        }
    }

    /// Extract an integer vector.
    pub fn as_vec_i64(&self) -> &[i64] {
        match self {
            RedData::VecI64(v) => v,
            other => other.mismatch("vec<i64>"),
        }
    }

    /// Approximate payload size in bytes, for network cost accounting.
    pub fn size_hint(&self) -> usize {
        match self {
            RedData::Unit => 1,
            RedData::I64(_) | RedData::F64(_) => 9,
            RedData::Bool(_) => 2,
            RedData::VecI64(v) => 8 * v.len() + 9,
            RedData::VecF64(v) => 8 * v.len() + 9,
            RedData::Bytes(b) => b.len() + 9,
            RedData::Gather(g) => g.iter().map(|(_, b)| b.len() + 32).sum::<usize>() + 9,
        }
    }
}

/// The reduction function applied to contributed data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reducer {
    /// Discard data; used for empty (barrier) reductions.
    Nop,
    /// Arithmetic sum (element-wise for vectors).
    Sum,
    /// Product (element-wise for vectors).
    Product,
    /// Maximum (element-wise for vectors).
    Max,
    /// Minimum (element-wise for vectors).
    Min,
    /// Logical AND over booleans.
    And,
    /// Logical OR over booleans.
    Or,
    /// Collect every contribution, sorted by member index.
    Gather,
    /// A user-registered reducer (paper §II-F1), by registration id.
    Custom(u32),
}
wire_enum! { Reducer { Nop, Sum, Product, Max, Min, And, Or, Gather, Custom(a) } }

/// Signature of a user-defined reducer: combines ≥1 contributions.
pub type CustomReduceFn = dyn Fn(Vec<RedData>) -> RedData + Send + Sync;

/// Registry of custom reducers. Registration must happen identically on the
/// runtime builder before start, mirroring `Reducer.addReducer` in CharmPy.
#[derive(Default, Clone)]
pub struct CustomReducers {
    fns: Vec<(String, Arc<CustomReduceFn>)>,
}

impl CustomReducers {
    /// Register `f` under `name`; returns the `Reducer` handle to pass to
    /// `contribute`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(Vec<RedData>) -> RedData + Send + Sync + 'static,
    ) -> Reducer {
        let id = self.fns.len() as u32;
        self.fns.push((name.into(), Arc::new(f)));
        Reducer::Custom(id)
    }

    /// Look up a reducer registered earlier by name.
    pub fn by_name(&self, name: &str) -> Option<Reducer> {
        self.fns
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| Reducer::Custom(i as u32))
    }

    #[expect(clippy::panic, reason = "panic: an unregistered id is a user bug")]
    fn get(&self, id: u32) -> &CustomReduceFn {
        &*self
            .fns
            .get(id as usize)
            .unwrap_or_else(|| panic!("custom reducer {id} not registered"))
            .1
    }
}

#[expect(clippy::panic, reason = "panic: API contract: a user bug")]
fn combine2(r: Reducer, a: RedData, b: RedData) -> RedData {
    use RedData::*;
    use Reducer::*;
    match (r, a, b) {
        (Nop, _, _) => Unit,
        // Integer sum/product wrap (two's complement), the semantics of
        // C++/NumPy reductions; panicking mid-reduction would be worse.
        (Sum, I64(x), I64(y)) => I64(x.wrapping_add(y)),
        (Sum, F64(x), F64(y)) => F64(x + y),
        (Product, I64(x), I64(y)) => I64(x.wrapping_mul(y)),
        (Product, F64(x), F64(y)) => F64(x * y),
        (Max, I64(x), I64(y)) => I64(x.max(y)),
        (Max, F64(x), F64(y)) => F64(x.max(y)),
        (Min, I64(x), I64(y)) => I64(x.min(y)),
        (Min, F64(x), F64(y)) => F64(x.min(y)),
        (And, Bool(x), Bool(y)) => Bool(x && y),
        (Or, Bool(x), Bool(y)) => Bool(x || y),
        (op, VecI64(mut x), VecI64(y)) => {
            assert_eq!(x.len(), y.len(), "vector reduction length mismatch");
            for (xi, yi) in x.iter_mut().zip(&y) {
                *xi = match op {
                    Sum => xi.wrapping_add(*yi),
                    Product => xi.wrapping_mul(*yi),
                    Max => (*xi).max(*yi),
                    Min => (*xi).min(*yi),
                    _ => panic!("reducer {op:?} not applicable to vec<i64>"),
                };
            }
            VecI64(x)
        }
        (op, VecF64(mut x), VecF64(y)) => {
            assert_eq!(x.len(), y.len(), "vector reduction length mismatch");
            for (xi, yi) in x.iter_mut().zip(&y) {
                *xi = match op {
                    Sum => *xi + yi,
                    Product => *xi * yi,
                    Max => xi.max(*yi),
                    Min => xi.min(*yi),
                    _ => panic!("reducer {op:?} not applicable to vec<f64>"),
                };
            }
            VecF64(x)
        }
        (Reducer::Gather, RedData::Gather(mut x), RedData::Gather(y)) => {
            x.extend(y);
            x.sort_by_key(|a| a.0);
            RedData::Gather(x)
        }
        (op, a, b) => panic!(
            "reducer {op:?} cannot combine {} with {}",
            a.kind(),
            b.kind()
        ),
    }
}

/// Combine a batch of contributions under `reducer`.
///
/// # Panics
/// Panics if contributions have mismatched variants for the reducer — that
/// is an application bug, as in CharmPy.
pub fn combine(reducer: Reducer, mut parts: Vec<RedData>, custom: &CustomReducers) -> RedData {
    if let Reducer::Custom(id) = reducer {
        return custom.get(id)(parts);
    }
    if reducer == Reducer::Nop {
        return RedData::Unit;
    }
    let mut acc = match parts.is_empty() {
        #[expect(clippy::panic, reason = "panic: callers pass at least one part")]
        true => panic!("combine called with no contributions"),
        false => parts.remove(0),
    };
    for p in parts {
        acc = combine2(reducer, acc, p);
    }
    acc
}

/// Where the final reduced value is delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RedTarget {
    /// Complete a future with the value.
    Future(FutureId),
    /// Invoke `reduced(tag, data)` on one chare.
    Element(ChareId, u32),
    /// Invoke `reduced(tag, data)` on every member of a collection.
    Broadcast(CollectionId, u32),
}
wire_enum! { RedTarget { Future(a), Element(a, b), Broadcast(a, b) } }

/// Per-PE state of one in-flight reduction `(collection, redno)`.
struct RedState {
    /// Everything contributed so far, combined on arrival so memory stays
    /// bounded for big fan-ins.
    acc: Option<RedData>,
    /// Members covered by `acc` (locals plus child-subtree counts).
    count: u64,
    /// The reducer, fixed by the first contribution seen.
    reducer: Reducer,
    /// The target, fixed by the first *member* contribution seen.
    target: Option<RedTarget>,
}

/// One PE's in-flight reductions and the custom reducers they may name.
///
/// **Envelopes:** [`RedMsg`] ([`PeState::on_reduction`]); a `RedDeliver`
/// is routed to its chare like an entry message (`pe.rs`).
/// **Invariants:** members number their
/// contributions per collection (`Slot::red_seq`), so reductions on one
/// collection may overlap; a PE sends its subtree's partial up the moment
/// the count reaches `CollState::subtree_members`, and a count above it is
/// a double contribution — fatal, never silently absorbed.
pub(crate) struct Reductions {
    table: HashMap<(CollectionId, u64), RedState>,
    custom: Arc<CustomReducers>,
}

impl Reductions {
    pub(crate) fn new(custom: Arc<CustomReducers>) -> Reductions {
        Reductions {
            table: HashMap::new(),
            custom,
        }
    }

    /// `(collection, redno, members counted so far)` per reduction still
    /// collecting contributions here, for the stall dump.
    pub(crate) fn progress(&self) -> Vec<(CollectionId, u64, u64)> {
        self.table
            .iter()
            .map(|((coll, redno), st)| (*coll, *redno, st.count))
            .collect()
    }
}

/// One value for a known number of consumers: every consumer but the last
/// gets a clone, the last takes the value by move — a fan-out without a
/// gratuitous deep copy per hop.
struct FanOut<T> {
    value: Option<T>,
    left: usize,
}

impl<T: Clone> FanOut<T> {
    fn new(value: T, consumers: usize) -> FanOut<T> {
        FanOut {
            value: Some(value),
            left: consumers,
        }
    }

    fn next(&mut self) -> T {
        self.left = self.left.saturating_sub(1);
        let value = if self.left == 0 {
            self.value.take()
        } else {
            self.value.clone()
        };
        #[expect(clippy::expect_used, reason = "panic: consumer count is announced")]
        value.expect("more fan-out consumers than announced")
    }
}

/// The messages [`PeState::on_reduction`] takes.
#[derive(Debug)]
pub enum RedMsg {
    /// A partial reduction result flowing up the PE tree.
    Partial {
        /// Collection being reduced.
        coll: CollectionId,
        /// Reduction sequence number within the collection.
        redno: u64,
        /// Number of member contributions covered by `data`.
        count: u64,
        /// Combined partial data.
        data: RedData,
        /// The reducer in use.
        reducer: Reducer,
        /// Delivery target (fixed by the first contribution).
        target: Option<RedTarget>,
    },
    /// Final reduction value broadcast to all members of a collection.
    Broadcast {
        /// Destination collection.
        coll: CollectionId,
        /// Application tag.
        tag: u32,
        /// The reduced data.
        data: RedData,
        /// Tree root of the relay.
        root: Pe,
    },
}

impl PeState {
    /// The reduction slice of the dispatch switch.
    pub(crate) fn on_reduction(&mut self, msg: RedMsg) {
        match msg {
            RedMsg::Partial {
                coll,
                redno,
                count,
                data,
                reducer,
                target,
            } => {
                self.red_merge(coll, redno, count, data, reducer, target);
                self.red_try_complete(coll, redno);
            }
            RedMsg::Broadcast {
                coll,
                tag,
                data,
                root,
            } => {
                let tree = self.cfg.tree;
                let members = self.sorted_chares(|id| id.coll == coll);
                // Children first, then local members; the last of them
                // (last member, or last child when this PE hosts none)
                // takes the value by move.
                let consumers = tree.fanout(self.pe, root, self.npes) + members.len();
                let mut data = FanOut::new(data, consumers);
                self.relay(tree, root, || {
                    let data = data.next();
                    EnvKind::Red(RedMsg::Broadcast {
                        coll,
                        tag,
                        data,
                        root,
                    })
                });
                for id in members {
                    self.invoke(id, Invoke::Reduced(tag, data.next()));
                }
            }
        }
    }

    pub(crate) fn contribute_local(
        &mut self,
        id: ChareId,
        data: RedData,
        reducer: Reducer,
        target: RedTarget,
    ) {
        if self.tracer.enabled() {
            self.tracer.red_contributes += 1;
            self.trace_event(|_| charm_trace::EventKind::RedContribute);
        }
        let slot = self.slot_mut(&id);
        let redno = slot.red_seq;
        slot.red_seq += 1;
        self.red_merge(id.coll, redno, 1, data, reducer, Some(target));
        self.red_try_complete(id.coll, redno);
    }

    /// Fold `count` members' worth of `data` into reduction `(coll, redno)`.
    fn red_merge(
        &mut self,
        coll: CollectionId,
        redno: u64,
        count: u64,
        data: RedData,
        reducer: Reducer,
        target: Option<RedTarget>,
    ) {
        let Reductions { table, custom } = &mut self.reds;
        let st = table.entry((coll, redno)).or_insert(RedState {
            acc: None,
            count: 0,
            reducer,
            target: None,
        });
        if st.target.is_none() {
            st.target = target;
        }
        st.count += count;
        st.acc = Some(match st.acc.take() {
            None => data,
            Some(acc) => combine(st.reducer, vec![acc, data], custom),
        });
    }

    /// Send this subtree's partial up (or, at the root, deliver the result)
    /// once every member below has been counted.
    fn red_try_complete(&mut self, coll: CollectionId, redno: u64) {
        let expected = self.subtree_expected(coll);
        let Entry::Occupied(st) = self.reds.table.entry((coll, redno)) else {
            return;
        };
        if expected == 0 || st.get().count < expected {
            return;
        }
        assert!(
            st.get().count == expected,
            "reduction over-contributed: {} > {expected} on {coll} (did members contribute twice?)",
            st.get().count,
        );
        let RedState {
            acc,
            reducer,
            target,
            ..
        } = st.remove();
        #[expect(clippy::expect_used, reason = "panic: every count folds in a value")]
        let data = acc.expect("counted reduction holds no value");
        match self.cfg.tree.parent(self.pe, 0, self.npes) {
            Some(parent) => self.emit(
                parent,
                EnvKind::Red(RedMsg::Partial {
                    coll,
                    redno,
                    count: expected,
                    data,
                    reducer,
                    target,
                }),
            ),
            None => {
                // Root: deliver to the target.
                #[expect(clippy::expect_used, reason = "panic: contributions carry the target")]
                let target = target.expect("reduction completed without target");
                self.red_deliver(target, data);
            }
        }
    }

    pub(crate) fn subtree_expected(&self, coll: CollectionId) -> u64 {
        self.colls.get(coll).map_or(0, |c| c.subtree_members)
    }

    fn red_deliver(&mut self, target: RedTarget, data: RedData) {
        if self.tracer.enabled() {
            self.tracer.red_delivers += 1;
            self.trace_event(|_| charm_trace::EventKind::RedDeliver);
        }
        match target {
            RedTarget::Future(fid) => self.send_future(fid, OutPayload::new(data)),
            RedTarget::Element(to, tag) => {
                self.route(self.pe, to, EnvKind::RedDeliver { to, tag, data })
            }
            RedTarget::Broadcast(coll, tag) => {
                let root = self.pe;
                self.emit(
                    root,
                    EnvKind::Red(RedMsg::Broadcast {
                        coll,
                        tag,
                        data,
                        root,
                    }),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reducers() {
        let c = CustomReducers::default();
        assert_eq!(
            combine(
                Reducer::Sum,
                vec![RedData::I64(1), RedData::I64(2), RedData::I64(3)],
                &c
            ),
            RedData::I64(6)
        );
        assert_eq!(
            combine(
                Reducer::Product,
                vec![RedData::F64(2.0), RedData::F64(4.0)],
                &c
            ),
            RedData::F64(8.0)
        );
        assert_eq!(
            combine(Reducer::Max, vec![RedData::I64(-5), RedData::I64(3)], &c),
            RedData::I64(3)
        );
        assert_eq!(
            combine(
                Reducer::Min,
                vec![RedData::F64(1.5), RedData::F64(-2.5)],
                &c
            ),
            RedData::F64(-2.5)
        );
    }

    #[test]
    fn boolean_reducers() {
        let c = CustomReducers::default();
        assert_eq!(
            combine(
                Reducer::And,
                vec![RedData::Bool(true), RedData::Bool(false)],
                &c
            ),
            RedData::Bool(false)
        );
        assert_eq!(
            combine(
                Reducer::Or,
                vec![RedData::Bool(false), RedData::Bool(true)],
                &c
            ),
            RedData::Bool(true)
        );
    }

    #[test]
    fn vector_reducers_elementwise() {
        let c = CustomReducers::default();
        assert_eq!(
            combine(
                Reducer::Sum,
                vec![
                    RedData::VecF64(vec![1.0, 2.0]),
                    RedData::VecF64(vec![10.0, 20.0])
                ],
                &c
            ),
            RedData::VecF64(vec![11.0, 22.0])
        );
        assert_eq!(
            combine(
                Reducer::Max,
                vec![RedData::VecI64(vec![1, 9]), RedData::VecI64(vec![5, 2])],
                &c
            ),
            RedData::VecI64(vec![5, 9])
        );
    }

    #[test]
    fn nop_yields_unit() {
        let c = CustomReducers::default();
        assert_eq!(
            combine(Reducer::Nop, vec![RedData::Unit, RedData::Unit], &c),
            RedData::Unit
        );
    }

    #[test]
    fn gather_sorts_by_index() {
        let c = CustomReducers::default();
        let a = RedData::Gather(vec![(Index::from(3), vec![3]), (Index::from(1), vec![1])]);
        let b = RedData::Gather(vec![(Index::from(2), vec![2])]);
        let out = combine(Reducer::Gather, vec![a, b], &c);
        match out {
            RedData::Gather(items) => {
                let idx: Vec<i32> = items.iter().map(|(i, _)| i.first()).collect();
                assert_eq!(idx, vec![1, 2, 3]);
            }
            other => panic!("expected gather, got {other:?}"),
        }
    }

    #[test]
    fn custom_reducer_roundtrip() {
        let mut c = CustomReducers::default();
        let r = c.register("hypot", |parts| {
            let s: f64 = parts.iter().map(|p| p.as_f64().powi(2)).sum();
            RedData::F64(s.sqrt())
        });
        assert_eq!(c.by_name("hypot"), Some(r));
        let out = combine(r, vec![RedData::F64(3.0), RedData::F64(4.0)], &c);
        assert_eq!(out, RedData::F64(5.0));
    }

    #[test]
    #[should_panic(expected = "cannot combine")]
    fn mismatched_kinds_panic() {
        let c = CustomReducers::default();
        combine(Reducer::Sum, vec![RedData::I64(1), RedData::F64(1.0)], &c);
    }

    #[test]
    fn combine_is_associative_sum() {
        let c = CustomReducers::default();
        // (a+b)+c == a+(b+c) — the property the tree reduction relies on.
        let abc = combine(
            Reducer::Sum,
            vec![
                combine(Reducer::Sum, vec![RedData::I64(1), RedData::I64(2)], &c),
                RedData::I64(3),
            ],
            &c,
        );
        let abc2 = combine(
            Reducer::Sum,
            vec![
                RedData::I64(1),
                combine(Reducer::Sum, vec![RedData::I64(2), RedData::I64(3)], &c),
            ],
            &c,
        );
        assert_eq!(abc, abc2);
    }
}
