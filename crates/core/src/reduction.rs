//! Reductions (paper §II-F, §IV-D).
//!
//! All members of a collection call `contribute(data, reducer, target)`;
//! partial results flow up a PE spanning tree and the root delivers the
//! final value to the target — an entry method of a chare, a broadcast to a
//! whole collection, or a future. Reductions are asynchronous: nobody
//! blocks, and multiple reductions (even on one collection) can be in
//! flight, sequenced per member by contribution order.

use std::collections::HashMap;
use std::sync::Arc;

use charm_wire::wire_enum;

use crate::ids::{ChareId, CollectionId, FutureId, Index};
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

    /// Extract an `i64`, panicking with a clear message otherwise.
    pub fn as_i64(&self) -> i64 {
        match self {
            RedData::I64(v) => *v,
            // analyze: allow(panic, "API contract: the program asked for i64 but the reducer yielded another kind; user bug surfaced at the boundary")
            other => panic!("reduction produced {}, expected i64", other.kind()),
        }
    }

    /// Extract an `f64`.
    pub fn as_f64(&self) -> f64 {
        match self {
            RedData::F64(v) => *v,
            // analyze: allow(panic, "API contract: result-kind mismatch (expected f64) is a user bug surfaced at the boundary")
            other => panic!("reduction produced {}, expected f64", other.kind()),
        }
    }

    /// Extract a float vector.
    pub fn as_vec_f64(&self) -> &[f64] {
        match self {
            RedData::VecF64(v) => v,
            // analyze: allow(panic, "API contract: result-kind mismatch (expected vec<f64>) is a user bug surfaced at the boundary")
            other => panic!("reduction produced {}, expected vec<f64>", other.kind()),
        }
    }

    /// Extract an integer vector.
    pub fn as_vec_i64(&self) -> &[i64] {
        match self {
            RedData::VecI64(v) => v,
            // analyze: allow(panic, "API contract: result-kind mismatch (expected vec<i64>) is a user bug surfaced at the boundary")
            other => panic!("reduction produced {}, expected vec<i64>", other.kind()),
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

    fn get(&self, id: u32) -> &CustomReduceFn {
        &*self
            .fns
            .get(id as usize)
            // analyze: allow(panic, "using a custom reducer id that was never registered is a user bug; no sane fallback exists")
            .unwrap_or_else(|| panic!("custom reducer {id} not registered"))
            .1
    }
}

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
                    // analyze: allow(panic, "API contract: applying this reducer to vec<i64> is undefined; user bug")
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
                    // analyze: allow(panic, "API contract: applying this reducer to vec<f64> is undefined; user bug")
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
        // analyze: allow(panic, "API contract: contributions of mismatched kinds cannot be combined; user bug")
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
        // analyze: allow(panic, "combine is only called once at least one part exists; empty input is a scheduler bug worth failing fast")
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
#[derive(Default)]
pub struct RedState {
    /// Contributions from members local to this PE (pre-combined lazily).
    pub parts: Vec<RedData>,
    /// Members covered by `parts` (locals plus child-subtree counts).
    pub count: u64,
    /// Local members that have contributed so far.
    pub local_got: usize,
    /// The reducer, fixed by the first contribution seen.
    pub reducer: Option<Reducer>,
    /// The target, fixed by the first *member* contribution seen.
    pub target: Option<RedTarget>,
}

/// Map of in-flight reductions on a PE.
pub type RedTable = HashMap<(CollectionId, u64), RedState>;

/// One PE's in-flight reductions and the custom reducers they may name.
pub(crate) struct Reductions {
    table: RedTable,
    custom: Arc<CustomReducers>,
}

impl Reductions {
    pub(crate) fn new(custom: Arc<CustomReducers>) -> Reductions {
        Reductions {
            table: HashMap::new(),
            custom,
        }
    }

    /// Reductions still collecting contributions on this PE.
    pub(crate) fn in_flight(&self) -> usize {
        self.table.len()
    }

    /// `(collection, redno, members counted so far)` per in-flight
    /// reduction, for the stall dump.
    pub(crate) fn progress(&self) -> Vec<(CollectionId, u64, u64)> {
        self.table
            .iter()
            .map(|((coll, redno), st)| (*coll, *redno, st.count))
            .collect()
    }
}

impl PeState {
    /// The reduction slice of the dispatch switch.
    pub(crate) fn on_reduction(&mut self, kind: EnvKind) {
        match kind {
            EnvKind::RedPartial {
                coll,
                redno,
                count,
                data,
                reducer,
                target,
            } => {
                if !self.colls.contains_key(&coll) {
                    self.park_unknown_coll(
                        coll,
                        EnvKind::RedPartial {
                            coll,
                            redno,
                            count,
                            data,
                            reducer,
                            target,
                        },
                    );
                    return;
                }
                self.red_merge(coll, redno, count, data, Some(reducer), target);
                self.red_try_complete(coll, redno);
            }
            EnvKind::RedDeliver { to, tag, data } => self.route_reduced(to, tag, data),
            EnvKind::RedBroadcast {
                coll,
                tag,
                data,
                root,
            } => {
                if !self.colls.contains_key(&coll) {
                    self.park_unknown_coll(
                        coll,
                        EnvKind::RedBroadcast {
                            coll,
                            tag,
                            data,
                            root,
                        },
                    );
                    return;
                }
                let tree = self.cfg.tree;
                let members = self.local_members(coll);
                // Hand the reduced value out without a gratuitous per-hop
                // deep copy: every consumer but the last clones, and the
                // final one (last local member, or last child when this PE
                // hosts none) takes the value by move.
                let uses = tree.fanout(self.pe, root, self.npes) + members.len();
                let mut data = Some(data);
                let mut used = 0;
                tree.children_for_each(self.pe, root, self.npes, |child| {
                    used += 1;
                    let d = if used == uses {
                        // analyze: allow(panic, "fan-out discipline: exactly `uses` consumers; the last takes, earlier ones clone, so the Option is Some")
                        data.take().unwrap()
                    } else {
                        // analyze: allow(panic, "fan-out discipline: a non-final consumer clones while the Option still holds the value")
                        data.as_ref().unwrap().clone()
                    };
                    self.emit(
                        child,
                        EnvKind::RedBroadcast {
                            coll,
                            tag,
                            data: d,
                            root,
                        },
                    );
                });
                for id in members {
                    used += 1;
                    let d = if used == uses {
                        // analyze: allow(panic, "fan-out discipline: exactly `uses` consumers; the last takes, earlier ones clone, so the Option is Some")
                        data.take().unwrap()
                    } else {
                        // analyze: allow(panic, "fan-out discipline: a non-final consumer clones while the Option still holds the value")
                        data.as_ref().unwrap().clone()
                    };
                    self.invoke(id, Invoke::Reduced(tag, d));
                }
            }
            // analyze: allow(panic, "dispatch hands this module only the three kinds above")
            other => unreachable!("not a reduction envelope: {other:?}"),
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
            if self.tracer.full() {
                let now = self.now_ns();
                self.tracer.push(now, charm_trace::EventKind::RedContribute);
            }
        }
        let coll = id.coll;
        let redno = {
            let slot = self
                .chares
                .get_mut(&id)
                // analyze: allow(panic, "contribute is invoked by a live chare on this PE; its slot exists")
                .expect("contribute from missing chare");
            let n = slot.red_seq;
            slot.red_seq += 1;
            n
        };
        self.red_merge(coll, redno, 1, data, Some(reducer), Some(target));
        // analyze: allow(panic, "the reduction state was created by the entry check just above")
        let st = self.reds.table.get_mut(&(coll, redno)).unwrap();
        st.local_got += 1;
        self.red_try_complete(coll, redno);
    }

    pub(crate) fn red_merge(
        &mut self,
        coll: CollectionId,
        redno: u64,
        count: u64,
        data: RedData,
        reducer: Option<Reducer>,
        target: Option<RedTarget>,
    ) {
        let st = self.reds.table.entry((coll, redno)).or_default();
        if st.reducer.is_none() {
            st.reducer = reducer;
        }
        if st.target.is_none() {
            st.target = target;
        }
        st.count += count;
        st.parts.push(data);
        // Combine incrementally so memory stays bounded for big fan-ins.
        if st.parts.len() >= 2 {
            // analyze: allow(panic, "every contribute path sets the reducer before pushing a part")
            let reducer = st.reducer.expect("reduction without reducer");
            let parts = std::mem::take(&mut st.parts);
            let combined = combine(reducer, parts, &self.reds.custom);
            self.reds
                .table
                .get_mut(&(coll, redno))
                // analyze: allow(panic, "the (coll, redno) entry was fetched mutably two lines up; still present")
                .unwrap()
                .parts
                .push(combined);
        }
    }

    pub(crate) fn red_try_complete(&mut self, coll: CollectionId, redno: u64) {
        let Some(cs) = self.colls.get(&coll) else {
            return;
        };
        let expected = self.subtree_expected(coll);
        let st = self
            .reds
            .table
            .get(&(coll, redno))
            // analyze: allow(panic, "callers only check completion for reductions with live state")
            .expect("red state missing");
        if expected == 0 || st.count < expected {
            return;
        }
        assert!(
            st.count == expected,
            "reduction over-contributed: {} > {} on {} (did members contribute twice?)",
            st.count,
            expected,
            cs.spec.id
        );
        // analyze: allow(panic, "completion runs at most once; the caller verified the state is present")
        let mut st = self.reds.table.remove(&(coll, redno)).unwrap();
        // analyze: allow(panic, "every contribution set the reducer; a reduction cannot complete without one")
        let reducer = st.reducer.expect("completing reduction without reducer");
        let data = if st.parts.len() == 1 {
            // analyze: allow(panic, "the len()==1 branch guarantees a part to pop")
            st.parts.pop().unwrap()
        } else {
            combine(reducer, std::mem::take(&mut st.parts), &self.reds.custom)
        };
        match self.cfg.tree.parent(self.pe, 0, self.npes) {
            Some(parent) => self.emit(
                parent,
                EnvKind::RedPartial {
                    coll,
                    redno,
                    count: expected,
                    data,
                    reducer,
                    target: st.target,
                },
            ),
            None => {
                // Root: deliver to the target.
                // analyze: allow(panic, "the reduction's target was recorded at creation from the contribute call")
                let target = st.target.expect("reduction completed without target");
                self.red_deliver(target, data);
            }
        }
    }

    pub(crate) fn subtree_expected(&self, coll: CollectionId) -> u64 {
        self.colls
            .get(&coll)
            .map(|c| c.subtree_members)
            .unwrap_or(0)
    }

    pub(crate) fn red_deliver(&mut self, target: RedTarget, data: RedData) {
        if self.tracer.enabled() {
            self.tracer.red_delivers += 1;
            if self.tracer.full() {
                let now = self.now_ns();
                self.tracer.push(now, charm_trace::EventKind::RedDeliver);
            }
        }
        match target {
            RedTarget::Future(fid) => {
                let dst = fid.pe as usize;
                let payload = OutPayload::new(data)
                    .into_payload(
                        dst == self.pe,
                        self.cfg.same_pe_byref,
                        self.cfg.codec,
                        &mut self.encode_pool,
                    )
                    // analyze: allow(panic, "encoding the reduction result fails only on a codec bug")
                    .expect("reduction result failed to encode");
                self.emit(dst, EnvKind::FutureValue { fid, payload });
            }
            RedTarget::Element(id, tag) => {
                self.route_reduced(id, tag, data);
            }
            RedTarget::Broadcast(coll, tag) => {
                self.emit(
                    self.pe,
                    EnvKind::RedBroadcast {
                        coll,
                        tag,
                        data,
                        root: self.pe,
                    },
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
            // analyze: allow(panic, "API contract: reading a gather result from a non-gather reduction is a user bug")
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
