//! Location management: where a chare lives, and how it moves
//! (DESIGN.md §5 "naming").
//!
//! **State:** [`Locations`] — the location table (forwarding stubs left by
//! departures and locations learned from `LocationUpdate`s, one map of
//! versioned records), the envelopes parked for chares this PE expects to
//! host, and the count of stub forwards (`PePerf::fwd_hops`).
//!
//! **Envelopes:** [`LocMsg`] ([`PeState::on_location`]).
//!
//! **Invariants:** a chare is found by (1) the local slot table, (2) this
//! table, (3) its collection's placement — initial placement for
//! singletons, groups and dense arrays, the home PE (an index hash) for
//! sparse ones. Every chare counts its migrations (`Slot::seq`), and every
//! record says "the `seq`-th migration took it to `pe`": the stub a
//! departure writes, the updates it sends to the home and (on arrival, once
//! the trail behind the chare reaches [`MAX_FWD_HOPS`]) to every stub
//! holder, the update a forwarder sends back to the original sender, and
//! the one it sends *ahead* of the forwarded envelope. [`Locations::learn`]
//! is the table's only writer and keeps the record with the higher `seq`,
//! so a stale update can never replace fresher knowledge. A record naming
//! this PE means the chare is in flight to here (had it come and gone, the
//! departure's stub would be newer): envelopes for it park until it lands.
//! Together these make every forwarding chain climb strictly in `seq` —
//! the next hop either hosts the chare, or is told by the look-ahead update
//! to wait for it, or knows a later migration — so a chase takes at most as
//! many hops as the chare made moves, under any delivery order.

// Scheduler hot path (DESIGN.md §6): the panic, blocking and nondeterminism rules.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::iter_over_hash_type))]

use std::collections::HashMap;

use crate::collections::CollKind;
use crate::ids::{ChareId, FutureId, Pe};
use crate::msg::{EnvKind, Envelope, LbMsg, MigrateMsg};
use crate::pe::{Buffered, PeState, Slot};

/// Longest forwarding-pointer chain a repeatedly-migrating chare may leave
/// behind. Each migration leaves a stub on the departing PE (so in-flight
/// senders still reach the chare in one extra hop); once the trail carried
/// in the migration message reaches this bound, the arrival PE collapses
/// the whole chain with `LocationUpdate`s — location lookups stay O(1)
/// with at most `MAX_FWD_HOPS` extra hops, independent of migration count.
pub const MAX_FWD_HOPS: usize = 4;

/// A packed chare: its state bytes, and its when-guard-deferred messages
/// as `(bytes, reply future, guard id)`.
pub(crate) type PackedChare = (Vec<u8>, Vec<(Vec<u8>, Option<FutureId>, Option<u32>)>);

/// Where an envelope for one chare goes next.
pub(crate) enum Route {
    Local,
    /// `.1` is the `seq` of the location record the destination came from,
    /// `None` when it came from placement instead.
    Remote(Pe, Option<u64>),
    /// This PE is the element's home but does not (yet) know a location.
    BufferHere,
    UnknownColl,
}

/// One PE's view of where chares live.
#[derive(Default)]
pub(crate) struct Locations {
    /// `(pe, seq)`: the chare's `seq`-th migration took it to `pe`.
    table: HashMap<ChareId, (Pe, u64)>,
    /// Envelopes for chares this PE is home to (or will host) but cannot
    /// place yet; re-dispatched when the chare or its location arrives.
    parked: HashMap<ChareId, Vec<Envelope>>,
    /// Entry messages this PE forwarded on behalf of a departed chare.
    fwd_hops: u64,
}

impl Locations {
    /// Record that `id`'s `seq`-th migration took it to `pe` — unless a
    /// later migration is already on record: newer wins, whatever order the
    /// news arrives in. (The test-only `mutation-stale-locupdate` feature
    /// writes unconditionally, so the checkers can be shown to catch it.)
    fn learn(&mut self, id: ChareId, pe: Pe, seq: u64) {
        let stale = self.table.get(&id).is_some_and(|&(_, known)| known >= seq);
        if !stale || cfg!(feature = "mutation-stale-locupdate") {
            self.table.insert(id, (pe, seq));
        }
    }

    /// Hold `env` until `id` (or news of it) arrives here.
    pub(crate) fn park(&mut self, id: ChareId, env: Envelope) {
        self.parked.entry(id).or_default().push(env);
    }

    /// Count one entry message forwarded through a stub.
    pub(crate) fn count_fwd_hop(&mut self) {
        self.fwd_hops += 1;
    }

    /// Stub forwards so far (`PePerf::fwd_hops`).
    pub(crate) fn fwd_hops(&self) -> u64 {
        self.fwd_hops
    }

    /// Chares with parked envelopes, and the envelopes parked in total.
    pub(crate) fn parked(&self) -> (usize, u64) {
        #[expect(clippy::disallowed_methods, reason = "nondeterminism: order-free sum")]
        let msgs = self.parked.values().map(|v| v.len() as u64).sum();
        (self.parked.len(), msgs)
    }
}

/// The messages [`PeState::on_location`] takes.
#[derive(Debug)]
pub enum LocMsg {
    /// A migrating chare: its packed state plus its runtime baggage
    /// (boxed — see [`MigrateMsg`]).
    Migrate {
        /// The migration body.
        msg: Box<MigrateMsg>,
    },
    /// Tell a PE where a chare lives (or is about to land) as of its
    /// `seq`-th migration; the receiver keeps the newest record it has seen.
    Update {
        /// The chare.
        id: ChareId,
        /// The PE that migration took it to.
        pe: Pe,
        /// The chare's migration count at that point.
        seq: u64,
    },
}

impl PeState {
    /// The location slice of the dispatch switch.
    pub(crate) fn on_location(&mut self, msg: LocMsg) {
        match msg {
            LocMsg::Migrate { msg } => self.migrate_in(*msg),
            LocMsg::Update { id, pe, seq } => {
                self.locs.learn(id, pe, seq);
                self.flush_pending_chare(id);
            }
        }
    }

    /// Where an envelope for `id` goes next, as far as this PE knows.
    pub(crate) fn route_of(&self, id: &ChareId) -> Route {
        if self.chares.contains_key(id) {
            return Route::Local;
        }
        let Some(cs) = self.colls.get(id.coll) else {
            return Route::UnknownColl;
        };
        match self.locs.table.get(id) {
            // In flight to this PE: hold the envelope until it lands.
            Some(&(pe, _)) if pe == self.pe => return Route::BufferHere,
            Some(&(pe, seq)) => return Route::Remote(pe, Some(seq)),
            None => {}
        }
        let pe = match &cs.spec.kind {
            // Initial placement is globally computable for these kinds.
            CollKind::Singleton { .. } | CollKind::Group | CollKind::Dense { .. } => {
                cs.spec.place(&id.index, self.npes, &self.placements)
            }
            CollKind::Sparse => cs.spec.home_pe(&id.index, self.npes),
        };
        if pe == self.pe {
            // We host it (or will, when creation or an insert lands), or we
            // are its home and will hear where it went: hold the envelope.
            Route::BufferHere
        } else {
            Route::Remote(pe, None)
        }
    }

    /// Re-dispatch what was parked for `id`: it (or news of it) is here.
    pub(crate) fn flush_pending_chare(&mut self, id: ChareId) {
        for env in self.locs.parked.remove(&id).unwrap_or_default() {
            self.dispatch(env);
        }
    }

    /// Serialize a resting chare for `doing` (a migration, a checkpoint):
    /// its state, and its when-guard-deferred messages with their reply
    /// futures and guard ids.
    #[expect(
        clippy::panic,
        reason = "panic: a type without pack support is a registration bug"
    )]
    pub(crate) fn pack_chare(&self, id: &ChareId, slot: &Slot, doing: &str) -> PackedChare {
        assert!(
            slot.coros.is_empty(),
            "cannot {doing} {id}: a threaded entry method is active"
        );
        let (chare, codec) = (slot.chare(), self.cfg.codec);
        let data = chare.pack(codec).unwrap_or_else(|| {
            panic!(
                "{} is not migratable; to {doing} it, use register_migratable",
                self.registry.vtable(chare.type_id()).name
            )
        });
        let encode_msg = self.vtable_of(id.coll).encode_msg;
        let buffered = slot
            .buffered
            .iter()
            .map(|b| (encode_msg(&*b.msg, codec), b.reply, b.guard));
        (data, buffered.collect())
    }

    pub(crate) fn migrate_out(&mut self, id: ChareId, to: Pe, for_lb: bool) {
        if to == self.pe {
            if for_lb {
                self.emit(0, EnvKind::Lb(LbMsg::Migrated));
            }
            return;
        }
        #[expect(clippy::panic, reason = "panic: only local chares migrate out")]
        let slot = self
            .chares
            .remove(&id)
            .unwrap_or_else(|| panic!("migrate_out of missing chare {id}"));
        let (data, buffered) = self.pack_chare(&id, &slot, "migrate");
        let home = self.spec(id.coll).home_pe(&id.index, self.npes);
        self.member_delta(id.coll, -1);
        let seq = slot.seq + 1;
        self.locs.learn(id, to, seq);
        // The home PE must learn the new location for fresh senders.
        if home != self.pe && home != to {
            self.emit(home, EnvKind::Loc(LocMsg::Update { id, pe: to, seq }));
        }
        self.tracer.counters.migrations += 1;
        self.trace_event(|_| charm_trace::EventKind::MigrateOut {
            bytes: data.len().min(u32::MAX as usize) as u32,
        });
        // This PE joins the chare's stub chain; the arrival side collapses
        // the chain once it reaches MAX_FWD_HOPS.
        let mut trail = slot.fwd_trail;
        trail.push(self.pe);
        let msg = Box::new(MigrateMsg {
            coll: id.coll,
            index: id.index,
            data,
            buffered,
            load_ns: if for_lb { 0 } else { slot.load_ns },
            red_seq: slot.red_seq,
            for_lb,
            trail,
            seq,
        });
        self.emit(to, EnvKind::Loc(LocMsg::Migrate { msg }));
    }

    #[expect(
        clippy::expect_used,
        clippy::panic,
        reason = "panic: a missing unpack is a registration bug; decode fails only on a codec bug"
    )]
    fn migrate_in(&mut self, msg: MigrateMsg) {
        let MigrateMsg {
            coll,
            index,
            data,
            buffered,
            load_ns,
            red_seq,
            for_lb,
            mut trail,
            seq,
        } = msg;
        let id = ChareId { coll, index };
        self.trace_event(|_| charm_trace::EventKind::MigrateIn {
            bytes: data.len().min(u32::MAX as usize) as u32,
        });
        let (ctype, vt) = (self.spec(coll).ctype, self.vtable_of(coll));
        let unpack = vt.unpack.expect("migrated chare type lacks unpack");
        let decode_msg = vt.decode_msg;
        let boxed = unpack(self.cfg.codec, &data, ctype)
            .unwrap_or_else(|e| panic!("migrated chare decode failed: {e}"));
        let mut slot = Slot::new(boxed);
        slot.load_ns = load_ns;
        slot.red_seq = red_seq;
        slot.seq = seq;
        slot.at_sync = for_lb; // LB migrants resume with everyone else
        if trail.len() < MAX_FWD_HOPS {
            // Chain still short: carry it along (emptying `trail` so the
            // collapse loop below has nothing to send).
            slot.fwd_trail = std::mem::take(&mut trail);
        }
        for (bytes, reply, guard) in buffered {
            let msg = decode_msg(self.cfg.codec, &bytes)
                .unwrap_or_else(|e| panic!("buffered message decode failed: {e}"));
            slot.buffered.push_back(Buffered { msg, reply, guard });
        }
        self.chares.insert(id, slot);
        self.member_delta(coll, 1);
        let home = self.spec(coll).home_pe(&index, self.npes);
        let pe = self.pe;
        let here = || EnvKind::Loc(LocMsg::Update { id, pe, seq });
        // A real migration's departure already told the home (or was the
        // home); only a restored chare (`seq` 0) arrives unannounced.
        if home != pe && seq == 0 {
            self.emit(home, here());
        }
        // Chain at the hop bound: tell every stub holder the real location
        // so future sends reach this PE in one hop (`trail` is empty unless
        // the bound was hit above).
        for p in trail {
            if p != self.pe && p != home {
                self.emit(p, here());
            }
        }
        if for_lb {
            self.lb_migrant_arrived();
        }
        self.flush_pending_chare(id);
        self.after_state_change(id);
    }
}
