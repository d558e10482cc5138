//! Collections of chares (paper §II-C, §II-G): groups (one member per PE),
//! dense N-dimensional arrays, sparse arrays with dynamic insertion, and
//! singleton chares — all described by a [`CollSpec`] replicated to every
//! PE at creation time.
//!
//! Unlike Charm++ (and like CharmPy), a chare type is *not* tied to a
//! collection kind at declaration: the same `Chare` impl can be used for a
//! singleton, a group, and arrays of any dimensionality.

use std::collections::HashMap;
use std::sync::Arc;

use charm_wire::{wire_enum, wire_struct};

use charm_trace::{EntryKind, WorkClass};
use charm_wire::WireBytes;

use crate::ids::{ChareId, ChareTypeId, CollectionId, Index, Pe};
use crate::msg::{BoxMsg, EnvKind, Envelope, Payload};
use crate::pe::{meter_start, PeState, Slot};

/// What shape of collection this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollKind {
    /// A single chare living on one PE.
    Singleton {
        /// The PE it was created on (also its home).
        pe: Pe,
    },
    /// One member per PE, indexed by PE number.
    Group,
    /// Dense N-D array: one member per index in the box `[0,dims_i)`.
    Dense {
        /// Extent in each dimension.
        dims: Vec<i32>,
    },
    /// Sparse array: members inserted dynamically (`ckInsert`).
    Sparse,
}
wire_enum! { CollKind { Singleton { pe }, Group, Dense { dims }, Sparse } }

/// How array elements map to PEs — the `ArrayMap` mechanism (§II-G1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Contiguous blocks of the (row-major) index space per PE.
    Block,
    /// Row-major index order dealt round-robin over PEs.
    RoundRobin,
    /// Placement by stable hash of the index.
    Hash,
    /// A user placement function registered on the runtime builder, by id
    /// (the analog of a custom `ArrayMap` chare).
    Custom(u32),
}
wire_enum! { Placement { Block, RoundRobin, Hash, Custom(a) } }

/// Signature of a custom placement function: `(index, num_pes) -> pe`.
pub type PlacementFn = dyn Fn(&Index, usize) -> Pe + Send + Sync;

/// Registry of custom placement functions (ArrayMaps).
#[derive(Default, Clone)]
pub struct Placements {
    fns: Vec<Arc<PlacementFn>>,
}

impl Placements {
    /// Register a placement function, returning the handle to pass at array
    /// creation.
    pub fn register(
        &mut self,
        f: impl Fn(&Index, usize) -> Pe + Send + Sync + 'static,
    ) -> Placement {
        let id = self.fns.len() as u32;
        self.fns.push(Arc::new(f));
        Placement::Custom(id)
    }

    pub(crate) fn get(&self, id: u32) -> &PlacementFn {
        &**self
            .fns
            .get(id as usize)
            .unwrap_or_else(|| panic!("custom placement {id} not registered"))
    }
}

/// Collection metadata replicated to every PE.
#[derive(Debug, Clone, PartialEq)]
pub struct CollSpec {
    /// The collection's id.
    pub id: CollectionId,
    /// Registered chare type of the members.
    pub ctype: ChareTypeId,
    /// Shape of the collection.
    pub kind: CollKind,
    /// Element→PE mapping (ignored for groups/singletons).
    pub placement: Placement,
    /// Whether members participate in at-sync load balancing.
    pub use_lb: bool,
}
wire_struct! { CollSpec { id, ctype, kind, placement, use_lb } }

impl CollSpec {
    /// Row-major enumeration of all indices of a dense array.
    pub fn dense_indices(dims: &[i32]) -> impl Iterator<Item = Index> + '_ {
        let total: i64 = dims.iter().map(|&d| d.max(0) as i64).product();
        (0..total).map(move |mut lin| {
            let mut coords = [0i32; crate::ids::MAX_DIMS];
            // Row-major: last dimension varies fastest.
            for i in (0..dims.len()).rev() {
                let d = dims[i] as i64;
                coords[i] = (lin % d) as i32;
                lin /= d;
            }
            Index::new(&coords[..dims.len()])
        })
    }

    /// Total member count of a dense array.
    pub fn dense_len(dims: &[i32]) -> u64 {
        dims.iter().map(|&d| d.max(0) as u64).product()
    }

    /// The index at row-major linear position `lin` — the inverse of
    /// [`CollSpec::linear`]. Lets placement fast paths enumerate only a
    /// PE's own linear range instead of walking the whole index space.
    pub fn dense_index_at(dims: &[i32], mut lin: u64) -> Index {
        let mut coords = [0i32; crate::ids::MAX_DIMS];
        for i in (0..dims.len()).rev() {
            let d = dims[i].max(1) as u64;
            coords[i] = (lin % d) as i32;
            lin /= d;
        }
        Index::new(&coords[..dims.len()])
    }

    /// The contiguous linear range `[lo, hi)` of a dense array that
    /// [`Placement::Block`] assigns to `pe` — closed form, so creation
    /// does not have to test every index in the array against `place()`.
    /// `place` maps `lin → (lin · npes) / total`, so PE `p` owns
    /// `lin ∈ [ceil(p · total / npes), ceil((p+1) · total / npes))`.
    pub fn block_range(dims: &[i32], pe: Pe, npes: usize) -> (u64, u64) {
        let total = Self::dense_len(dims);
        let n = npes as u64;
        let lo = (pe as u64 * total).div_ceil(n);
        let hi = ((pe as u64 + 1) * total).div_ceil(n);
        (lo, hi.min(total))
    }

    /// Per-PE member counts a dense array's placement produces, in closed
    /// form where the policy allows (`Block`, `RoundRobin`) — O(npes)
    /// instead of the O(members) enumeration that `Hash`/`Custom`
    /// placements require. Returns `false` when no closed form exists
    /// (the caller falls back to enumeration).
    pub fn dense_counts_closed(&self, counts: &mut [u64], npes: usize) -> bool {
        let CollKind::Dense { dims } = &self.kind else {
            return false;
        };
        let total = Self::dense_len(dims);
        match self.placement {
            Placement::Block => {
                for (pe, c) in counts.iter_mut().enumerate().take(npes) {
                    let (lo, hi) = Self::block_range(dims, pe, npes);
                    *c += hi - lo;
                }
                true
            }
            Placement::RoundRobin => {
                let n = npes as u64;
                for (pe, c) in counts.iter_mut().enumerate().take(npes) {
                    *c += total / n + u64::from((pe as u64) < total % n);
                }
                true
            }
            Placement::Hash | Placement::Custom(_) => false,
        }
    }

    /// Row-major linear position of `index` within `dims`.
    pub fn linear(dims: &[i32], index: &Index) -> u64 {
        let mut lin: u64 = 0;
        for (i, &c) in index.coords().iter().enumerate() {
            lin = lin * dims[i] as u64 + c as u64;
        }
        lin
    }

    /// The *initial* PE an element is placed on, per the placement policy.
    ///
    /// This is also an element's "home" for groups and singletons; dense and
    /// sparse array homes use [`CollSpec::home_pe`] (hash-based) so any PE
    /// can compute them without knowing the placement function.
    pub fn place(&self, index: &Index, npes: usize, placements: &Placements) -> Pe {
        match &self.kind {
            CollKind::Singleton { pe } => *pe,
            CollKind::Group => index.first() as usize,
            CollKind::Dense { dims } => match self.placement {
                Placement::Block => {
                    let total = Self::dense_len(dims).max(1);
                    let lin = Self::linear(dims, index);
                    // Even contiguous blocks, remainder spread over the
                    // first PEs (standard block distribution).
                    ((lin * npes as u64) / total) as usize
                }
                Placement::RoundRobin => (Self::linear(dims, index) % npes as u64) as usize,
                Placement::Hash => (index.stable_hash() % npes as u64) as usize,
                Placement::Custom(id) => placements.get(id)(index, npes) % npes,
            },
            CollKind::Sparse => match self.placement {
                Placement::Custom(id) => placements.get(id)(index, npes) % npes,
                _ => (index.stable_hash() % npes as u64) as usize,
            },
        }
    }

    /// The home PE responsible for tracking an element's location.
    pub fn home_pe(&self, index: &Index, npes: usize) -> Pe {
        match &self.kind {
            CollKind::Singleton { pe } => *pe,
            CollKind::Group => index.first() as usize,
            CollKind::Dense { .. } | CollKind::Sparse => {
                (index.stable_hash() % npes as u64) as usize
            }
        }
    }
}

/// Per-PE live state for one collection.
pub struct CollState {
    /// The replicated spec.
    pub spec: CollSpec,
    /// Members hosted by this PE's reduction-tree subtree (this PE
    /// included). Maintained at creation, insertion and LB migration; the
    /// reduction protocol's completion counts rest on it.
    pub subtree_members: u64,
}

/// One PE's table of known collections, plus the envelopes that arrived
/// for a collection before its spec did.
///
/// **Envelopes:** `CreateCollection`, `InsertElem`, `DoneInserting`,
/// `SubtreeAdd` ([`PeState::on_collection`]). **Invariants:** a spec is
/// installed once per incarnation and never removed; `dispatch` parks every
/// envelope whose [`EnvKind::coll`] is unknown here and installation
/// replays them, so protocol code may take a spec for granted
/// ([`PeState::spec`]); member counts change only through
/// [`PeState::member_delta`], which keeps every ancestor's subtree count
/// in step.
#[derive(Default)]
pub(crate) struct Colls {
    table: HashMap<CollectionId, CollState>,
    parked: HashMap<CollectionId, Vec<Envelope>>,
}

impl Colls {
    /// Read-only view of one collection's state, if its spec has arrived.
    pub(crate) fn get(&self, coll: CollectionId) -> Option<&CollState> {
        self.table.get(&coll)
    }

    /// Every known spec, in no particular order.
    #[expect(clippy::disallowed_methods, reason = "nondeterminism: ckpt_save sorts")]
    pub(crate) fn specs(&self) -> impl Iterator<Item = &CollSpec> {
        self.table.values().map(|cs| &cs.spec)
    }

    /// Collections with parked envelopes, and the envelopes parked in total.
    pub(crate) fn parked(&self) -> (usize, u64) {
        #[expect(clippy::disallowed_methods, reason = "nondeterminism: order-free sum")]
        let msgs = self.parked.values().map(|v| v.len() as u64).sum();
        (self.parked.len(), msgs)
    }
}

// Scheduler code wherever it sits: the hot-path rules (DESIGN.md §6).
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing, clippy::disallowed_types)]
#[deny(clippy::iter_over_hash_type)]
impl PeState {
    /// The collection slice of the dispatch switch.
    pub(crate) fn on_collection(&mut self, kind: EnvKind) {
        match kind {
            EnvKind::CreateCollection { spec, init, root } => {
                self.create_collection(spec, init, root)
            }
            EnvKind::InsertElem {
                coll,
                index,
                init,
                on_pe,
                placed,
            } => self.insert_elem(coll, index, init, on_pe, placed),
            // `ckDoneInserting`: accepted once the collection is known;
            // nothing in this runtime waits on the end of an insertion phase.
            EnvKind::DoneInserting { .. } => {}
            EnvKind::SubtreeAdd { coll, delta } => self.member_delta(coll, delta),
            #[expect(clippy::unreachable, reason = "panic: dispatch sends only these kinds")]
            other => unreachable!("not a collection envelope: {other:?}"),
        }
    }

    /// The spec of a collection the caller knows has reached this PE.
    /// Dispatch parks every envelope of a collection unknown here, and a
    /// chare never outruns its own spec: whoever holds a local chare, a
    /// routed destination or a dispatched envelope holds a known collection.
    pub(crate) fn spec(&self, coll: CollectionId) -> &CollSpec {
        let (known, pe) = (self.colls.table.get(&coll), self.pe);
        #[expect(clippy::panic, reason = "panic: a dispatched collection is known")]
        let known = known.unwrap_or_else(|| panic!("collection {coll} is unknown on PE {pe}"));
        &known.spec
    }

    /// Hold `kind` until `coll`'s spec arrives. The parked envelope names
    /// this PE as its source: once the spec is here, whatever follows is
    /// this PE's own doing.
    pub(crate) fn park_unknown_coll(&mut self, coll: CollectionId, kind: EnvKind) {
        let env = self.wrap(kind);
        self.colls.parked.entry(coll).or_default().push(env);
    }

    /// A member joined (`+1`) or left (`-1`) this PE, or `delta` members
    /// did somewhere below it in the reduction tree: adjust this subtree's
    /// count and pass the news up to every ancestor.
    pub(crate) fn member_delta(&mut self, coll: CollectionId, delta: i64) {
        let (known, pe) = (self.colls.table.get_mut(&coll), self.pe);
        #[expect(clippy::panic, reason = "panic: same invariant as spec()")]
        let cs = known.unwrap_or_else(|| panic!("collection {coll} is unknown on PE {pe}"));
        cs.subtree_members = cs.subtree_members.wrapping_add_signed(delta);
        if let Some(parent) = self.cfg.tree.parent(self.pe, 0, self.npes) {
            self.emit(parent, EnvKind::SubtreeAdd { coll, delta });
        }
    }

    /// Members each PE hosts at creation, by initial placement.
    fn initial_counts(&self, spec: &CollSpec) -> Vec<u64> {
        #[expect(clippy::indexing_slicing, reason = "panic: placement is mod npes")]
        fn bump(counts: &mut [u64], pe: Pe) {
            counts[pe] += 1;
        }
        let mut counts = vec![0u64; self.npes];
        match &spec.kind {
            CollKind::Singleton { pe } => bump(&mut counts, *pe),
            CollKind::Group => counts.iter_mut().for_each(|c| *c += 1),
            CollKind::Dense { dims } => {
                // Closed form for the analytic placements: every PE runs
                // this at creation, so the enumeration fallback is
                // O(members) per PE — O(npes · members) machine-wide,
                // which dominates bootstrap at 65k PEs.
                if !spec.dense_counts_closed(&mut counts, self.npes) {
                    for ix in CollSpec::dense_indices(dims) {
                        bump(&mut counts, spec.place(&ix, self.npes, &self.placements));
                    }
                }
            }
            CollKind::Sparse => {}
        }
        counts
    }

    fn subtree_total(&self, counts: &[u64], pe: Pe) -> u64 {
        let mut total = counts.get(pe).copied().unwrap_or(0);
        self.cfg
            .tree
            .children_for_each(pe, 0, self.npes, |c| total += self.subtree_total(counts, c));
        total
    }

    fn create_collection(&mut self, spec: CollSpec, init: WireBytes, root: Pe) {
        self.relay(self.cfg.tree, root, || EnvKind::CreateCollection {
            spec: spec.clone(),
            init: init.clone(),
            root,
        });
        let counts = self.initial_counts(&spec);
        let coll = spec.id;
        let subtree = self.subtree_total(&counts, self.pe);
        self.install_coll(spec.clone(), subtree);

        // Construct locally-placed members (deterministic index order).
        // The analytic placements enumerate only this PE's own linear
        // positions — the filter-everything fallback is O(members) per PE,
        // O(npes · members) machine-wide.
        let mine: Vec<Index> = match &spec.kind {
            CollKind::Singleton { pe } if *pe == self.pe => vec![Index::SINGLE],
            CollKind::Group => vec![Index::pe(self.pe)],
            CollKind::Dense { dims } => match spec.placement {
                Placement::Block => {
                    let (lo, hi) = CollSpec::block_range(dims, self.pe, self.npes);
                    (lo..hi)
                        .map(|lin| CollSpec::dense_index_at(dims, lin))
                        .collect()
                }
                Placement::RoundRobin => {
                    let total = CollSpec::dense_len(dims);
                    (self.pe as u64..total)
                        .step_by(self.npes)
                        .map(|lin| CollSpec::dense_index_at(dims, lin))
                        .collect()
                }
                _ => CollSpec::dense_indices(dims)
                    .filter(|ix| spec.place(ix, self.npes, &self.placements) == self.pe)
                    .collect(),
            },
            _ => Vec::new(),
        };
        for index in mine {
            let member = self.decode_init(coll, &init);
            self.construct_member(ChareId { coll, index }, member);
        }

        // Anything that raced ahead of the create can now be handled.
        self.replay_parked_coll(coll);
    }

    /// Make `spec` known on this PE with `subtree` members already counted
    /// in its subtree. Cached decode resolutions are dropped: a collection
    /// spec just changed hands.
    pub(crate) fn install_coll(&mut self, spec: CollSpec, subtree_members: u64) {
        let state = CollState {
            subtree_members,
            spec,
        };
        self.colls.table.insert(state.spec.id, state);
        self.dispatch_cache.clear();
    }

    /// Re-dispatch what arrived for `coll` before its spec did.
    pub(crate) fn replay_parked_coll(&mut self, coll: CollectionId) {
        for env in self.colls.parked.remove(&coll).unwrap_or_default() {
            self.dispatch(env);
        }
    }

    #[expect(clippy::panic, reason = "panic: fails only on a codec bug")]
    fn decode_init(&self, coll: CollectionId, bytes: &[u8]) -> BoxMsg {
        (self.vtable_of(coll).decode_init)(self.cfg.codec, bytes)
            .unwrap_or_else(|e| panic!("constructor argument decode failed: {e}"))
    }

    fn construct_member(&mut self, id: ChareId, init: BoxMsg) {
        let ctype = self.spec(id.coll).ctype;
        let construct = self.registry.vtable(ctype).construct;
        let mut ctx = self.new_ctx(Some(id));
        let trace_begin = if self.tracer.enabled() {
            self.now_ns()
        } else {
            0
        };
        let t0 = meter_start();
        let boxed = construct(init, &mut ctx, ctype);
        let measured = self.metered_ns(t0);
        self.chares.insert(id, Slot::new(boxed));
        self.charge_work(measured, Some(&id), WorkClass::Entry);
        if self.tracer.enabled() {
            let end = self.now_ns();
            self.tracer
                .entry(trace_begin, end, measured, ctype.0, EntryKind::Construct);
        }
        self.exec_ops(ctx.ops, Some(id), None);
        self.flush_pending_chare(id);
        self.after_state_change(id);
    }

    fn insert_elem(
        &mut self,
        coll: CollectionId,
        index: Index,
        mut init: Payload,
        on_pe: Option<Pe>,
        placed: bool,
    ) {
        let spec = self.spec(coll);
        if !placed {
            let dst = on_pe.unwrap_or_else(|| spec.place(&index, self.npes, &self.placements));
            // The inserter believed the element local and kept its argument
            // boxed; it must cross a PE boundary after all.
            self.reencode(dst, coll, &mut init, true);
            self.emit(
                dst,
                EnvKind::InsertElem {
                    coll,
                    index,
                    init,
                    on_pe,
                    placed: true,
                },
            );
            return;
        }
        let home = spec.home_pe(&index, self.npes);
        let id = ChareId { coll, index };
        let init = match init {
            Payload::Local(b) => b,
            Payload::Wire(bytes) => self.decode_init(coll, &bytes),
        };
        self.member_delta(coll, 1);
        if home != self.pe {
            let here = EnvKind::LocationUpdate {
                id,
                pe: self.pe,
                seq: 0,
            };
            self.emit(home, here);
        }
        self.construct_member(id, init);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_spec(dims: Vec<i32>, placement: Placement) -> CollSpec {
        CollSpec {
            id: CollectionId { creator: 0, seq: 0 },
            ctype: ChareTypeId(0),
            kind: CollKind::Dense { dims },
            placement,
            use_lb: false,
        }
    }

    #[test]
    fn dense_enumeration_row_major() {
        let idx: Vec<Index> = CollSpec::dense_indices(&[2, 3]).collect();
        assert_eq!(idx.len(), 6);
        assert_eq!(idx[0], Index::from((0, 0)));
        assert_eq!(idx[1], Index::from((0, 1)));
        assert_eq!(idx[3], Index::from((1, 0)));
        assert_eq!(idx[5], Index::from((1, 2)));
    }

    #[test]
    fn linear_inverts_enumeration() {
        let dims = [3, 4, 5];
        for (i, ix) in CollSpec::dense_indices(&dims).enumerate() {
            assert_eq!(CollSpec::linear(&dims, &ix), i as u64);
        }
    }

    #[test]
    fn block_placement_is_contiguous_and_balanced() {
        let spec = dense_spec(vec![8], Placement::Block);
        let pls = Placements::default();
        let pes: Vec<Pe> = (0..8)
            .map(|i| spec.place(&Index::from(i), 4, &pls))
            .collect();
        assert_eq!(pes, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn block_placement_handles_remainders() {
        let spec = dense_spec(vec![7], Placement::Block);
        let pls = Placements::default();
        let mut counts = [0usize; 3];
        for i in 0..7 {
            let pe = spec.place(&Index::from(i), 3, &pls);
            counts[pe] += 1;
        }
        // 7 over 3 PEs: every PE gets 2 or 3.
        assert!(counts.iter().all(|&c| c == 2 || c == 3), "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 7);
    }

    #[test]
    fn round_robin_placement() {
        let spec = dense_spec(vec![6], Placement::RoundRobin);
        let pls = Placements::default();
        let pes: Vec<Pe> = (0..6)
            .map(|i| spec.place(&Index::from(i), 3, &pls))
            .collect();
        assert_eq!(pes, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn custom_placement_like_arraymap() {
        // The paper's MyMap example: procNum = index[0] % 20.
        let mut pls = Placements::default();
        let placement = pls.register(|ix, npes| (ix.first() as usize % 20) % npes);
        let spec = dense_spec(vec![40], placement);
        for i in 0..40 {
            let pe = spec.place(&Index::from(i), 32, &pls);
            assert_eq!(pe, (i as usize % 20) % 32);
        }
    }

    #[test]
    fn group_home_and_place_is_pe() {
        let spec = CollSpec {
            id: CollectionId { creator: 1, seq: 2 },
            ctype: ChareTypeId(0),
            kind: CollKind::Group,
            placement: Placement::Hash,
            use_lb: false,
        };
        let pls = Placements::default();
        for pe in 0..8usize {
            assert_eq!(spec.place(&Index::pe(pe), 8, &pls), pe);
            assert_eq!(spec.home_pe(&Index::pe(pe), 8), pe);
        }
    }

    #[test]
    fn dense_index_at_inverts_linear() {
        let dims = [3, 4, 5];
        for (i, ix) in CollSpec::dense_indices(&dims).enumerate() {
            assert_eq!(CollSpec::dense_index_at(&dims, i as u64), ix);
        }
    }

    #[test]
    fn closed_form_counts_match_enumeration() {
        let pls = Placements::default();
        for placement in [Placement::Block, Placement::RoundRobin] {
            for (dims, npes) in [
                (vec![8], 4usize),
                (vec![7], 3),
                (vec![10, 10], 7),
                (vec![3], 5), // fewer members than PEs
                (vec![4, 3, 2], 5),
            ] {
                let spec = dense_spec(dims.clone(), placement);
                let mut expected = vec![0u64; npes];
                for ix in CollSpec::dense_indices(&dims) {
                    expected[spec.place(&ix, npes, &pls)] += 1;
                }
                let mut got = vec![0u64; npes];
                assert!(spec.dense_counts_closed(&mut got, npes));
                assert_eq!(got, expected, "{placement:?} {dims:?} over {npes}");
            }
        }
        // No closed form for hash placement: caller must enumerate.
        let spec = dense_spec(vec![8], Placement::Hash);
        let mut got = vec![0u64; 4];
        assert!(!spec.dense_counts_closed(&mut got, 4));
    }

    #[test]
    fn block_range_partitions_index_space() {
        for (dims, npes) in [(vec![8], 4usize), (vec![7], 3), (vec![100], 7)] {
            let total = CollSpec::dense_len(&dims);
            let mut next = 0u64;
            for pe in 0..npes {
                let (lo, hi) = CollSpec::block_range(&dims, pe, npes);
                assert_eq!(lo, next, "ranges are contiguous");
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, total, "ranges cover the space");
        }
    }

    #[test]
    fn home_pe_is_stable_and_in_range() {
        let spec = dense_spec(vec![10, 10], Placement::Block);
        for ix in CollSpec::dense_indices(&[10, 10]) {
            let h = spec.home_pe(&ix, 7);
            assert!(h < 7);
            assert_eq!(h, spec.home_pe(&ix, 7));
        }
    }
}
