//! Hierarchical-LB equivalence and scale-structure bounds.
//!
//! `LbMode::Tree { group_size: npes }` degenerates to a one-level tree:
//! every non-root PE is a leaf that ships its full candidate set to the
//! root, whose refine input is then exactly what central
//! [`GreedyRefineLb`] sees. The identity test pins that equivalence
//! migration-for-migration; the peak test pins the point of the
//! hierarchy — no PE materializes O(nchares) stat records.

use std::sync::Arc;
use std::time::Duration;

use charm_core::prelude::*;
use charm_core::{LbMode, LbStrategy, RunReport, Runtime};
use charm_lb::{GreedyRefineLb, RotateLb};
use charm_sim::MachineModel;
use charm_wire::{splitmix64, Reader, Writer};

thread_local! {
    /// Array indices in pack-for-migration order (the sim runs every PE on
    /// the test's own thread).
    static PACKED: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// AtSync worker with a deterministic, skewed, placement-independent load:
/// `load(index, round)` depends only on the chare and the round, so both
/// LB modes see identical stats every epoch regardless of where the
/// balancer put the chare in earlier rounds.
struct Skew {
    round: u32,
    index: LoggedIndex,
    init: SkewInit,
}
wire_struct! { Skew { round, index, init } }

/// The chare's array index; encoding it (packing the chare) logs it.
struct LoggedIndex(u32);

impl Wire for LoggedIndex {
    fn encode<W: Writer>(&self, w: &mut W) -> charm_wire::Result<()> {
        PACKED.with(|p| p.borrow_mut().push(self.0));
        self.0.encode(w)
    }
    fn decode<R: Reader>(r: &mut R) -> charm_wire::Result<Self> {
        u32::decode(r).map(LoggedIndex)
    }
}

#[derive(Clone)]
struct SkewInit {
    rounds: u32,
    nchares: u32,
    done: Future<RedData>,
}
wire_struct! { SkewInit { rounds, nchares, done } }

enum SkewMsg {
    Go,
}
wire_enum! { SkewMsg { Go } }

impl Skew {
    fn work(&mut self, ctx: &mut Ctx) {
        let i = ctx.my_index().first() as u64;
        let r = self.round as u64;
        // Front-loaded skew: the first sixteenth of the index space is
        // heavy, and Block placement stacks it on the first PEs, so
        // refinement must move work off them.
        let heavy = i * 16 < self.init.nchares as u64;
        let ms = (i * 31 + r * 17) % 11 + 1 + if heavy { 40 } else { 0 };
        ctx.charge(Duration::from_millis(ms));
        self.round += 1;
        ctx.at_sync();
    }

    fn report(&self, ctx: &mut Ctx) {
        // One slot per chare; Sum-reducing the one-hot rows yields the
        // final index→PE placement map.
        let mut v = vec![0i64; self.init.nchares as usize];
        v[ctx.my_index().first() as usize] = ctx.my_pe() as i64;
        ctx.contribute(
            RedData::VecI64(v),
            Reducer::Sum,
            RedTarget::Future(self.init.done.id()),
        );
    }
}

impl Chare for Skew {
    type Msg = SkewMsg;
    type Init = SkewInit;

    fn create(init: SkewInit, ctx: &mut Ctx) -> Self {
        Skew {
            round: 0,
            index: LoggedIndex(ctx.my_index().first() as u32),
            init,
        }
    }

    fn receive(&mut self, _msg: SkewMsg, ctx: &mut Ctx) {
        self.work(ctx);
    }

    fn resume_from_sync(&mut self, ctx: &mut Ctx) {
        if self.round < self.init.rounds {
            self.work(ctx);
        } else {
            self.report(ctx);
        }
    }
}

/// Run `nchares` skewed workers over `npes` simulated PEs for `rounds` LB
/// epochs; return the final placement map and the run report.
fn run_skew(npes: usize, nchares: u32, rounds: u32, mode: Option<LbMode>) -> (Vec<i64>, RunReport) {
    run_skew_with(Arc::new(GreedyRefineLb), npes, nchares, rounds, mode)
}

fn run_skew_with(
    strategy: Arc<dyn LbStrategy>,
    npes: usize,
    nchares: u32,
    rounds: u32,
    mode: Option<LbMode>,
) -> (Vec<i64>, RunReport) {
    let out: Arc<std::sync::Mutex<Option<RedData>>> = Arc::new(std::sync::Mutex::new(None));
    let out2 = Arc::clone(&out);
    let mut rt = Runtime::new(npes)
        .backend(Backend::Sim(MachineModel::bluewaters(
            npes.div_ceil(32).max(8),
        )))
        .meter_compute(false)
        .register_migratable::<Skew>()
        .lb_strategy(strategy);
    if let Some(mode) = mode {
        rt = rt.lb_mode(mode);
    }
    let report = rt.run(move |co| {
        let done = co.ctx().create_future::<RedData>();
        let arr = co.ctx().create_array_with::<Skew>(
            &[nchares as i32],
            SkewInit {
                rounds,
                nchares,
                done,
            },
            ArrayOpts {
                placement: Placement::Block,
                use_lb: true,
            },
        );
        arr.send(co.ctx(), SkewMsg::Go);
        let RedData::VecI64(placements) = co.get(&done) else {
            panic!("skew workers produced no placement map");
        };
        *out2.lock().unwrap() = Some(RedData::VecI64(placements));
        co.ctx().exit();
    });
    let Some(RedData::VecI64(placements)) = out.lock().unwrap().take() else {
        panic!("placement map did not surface");
    };
    (placements, report)
}

/// A one-level tree is the central balancer: same migrations, same final
/// placements, same epoch count.
#[test]
fn tree_spanning_all_pes_matches_central() {
    // Eight chares per PE, so the per-PE refine limit (1.05 x average)
    // exceeds the heaviest single chare: a chare heavier than the limit
    // fits nowhere and stays put, and with only such chares overloading a
    // PE neither mode would order a single migration.
    let (npes, nchares, rounds) = (8, 64, 2);
    let (central, central_report) = run_skew(npes, nchares, rounds, None);
    let (tree, tree_report) = run_skew(
        npes,
        nchares,
        rounds,
        Some(LbMode::Tree { group_size: npes }),
    );
    assert_eq!(central, tree, "final placements diverged");
    assert_eq!(
        central_report.migrations, tree_report.migrations,
        "migration counts diverged"
    );
    assert_eq!(central_report.lb_epochs, rounds as u64);
    assert_eq!(tree_report.lb_epochs, rounds as u64);
    assert!(
        central_report.migrations > 0,
        "workload too balanced to exercise the strategies"
    );
}

/// The hierarchy bounds what any PE holds: central PE 0 materializes every
/// stat record, the tree root only its group's truncated residuals.
#[test]
fn tree_mode_bounds_peak_stats_per_pe() {
    let (npes, nchares) = (64, 1024u32);
    let (_, central_report) = run_skew(npes, nchares, 1, None);
    let central_peak = central_report.pe_stats[0].lb_peak_stats;
    assert_eq!(
        central_peak, nchares as u64,
        "central PE 0 should see every stat record"
    );

    let (_, tree_report) = run_skew(npes, nchares, 1, Some(LbMode::Tree { group_size: 4 }));
    let tree_peak = tree_report
        .pe_stats
        .iter()
        .map(|p| p.lb_peak_stats)
        .max()
        .unwrap_or(0);
    assert!(
        tree_peak > 0,
        "tree mode balanced without holding any stats"
    );
    assert!(
        tree_peak <= nchares as u64 / 4,
        "tree peak {tree_peak} is not o(nchares={nchares})"
    );
    assert!(tree_report.migrations > 0);
    assert_eq!(tree_report.lb_epochs, 1);
}

/// Multiple Tree-mode epochs back to back: the epoch/pending-poll
/// machinery must not wedge, and every epoch must improve or hold the
/// placement (the workers complete all rounds).
#[test]
fn tree_mode_survives_repeated_epochs() {
    let (placements, report) = run_skew(16, 128, 3, Some(LbMode::Tree { group_size: 4 }));
    assert_eq!(report.lb_epochs, 3);
    assert_eq!(placements.len(), 128);
    for (i, &pe) in placements.iter().enumerate() {
        assert!((pe as usize) < 16, "chare {i} reported bad PE {pe}");
    }
    assert!(report.clean_exit);
}

/// One `LbMode::Central` epoch at 4,096 chares, pinned migration for
/// migration: each owner packs its chares in the order PE 0 listed them,
/// so however PE 0 looks chares up (a scan per move when the count and
/// digest were generated, one sorted index now) the lists must not move.
#[test]
fn central_rotate_epoch_orders_the_pinned_migrations() {
    let (npes, nchares) = (8usize, 4096u32);
    PACKED.with(|p| p.borrow_mut().clear());
    let (placed, report) = run_skew_with(Arc::new(RotateLb), npes, nchares, 1, None);
    assert_eq!(report.lb_epochs, 1);
    assert_eq!(report.migrations, nchares as u64);

    // Rotate sends every chare one PE up from its Block home.
    let owner = |index: u32| index as usize / (nchares as usize / npes);
    for (i, &pe) in placed.iter().enumerate() {
        assert_eq!(pe as usize, (owner(i as u32) + 1) % npes, "chare {i}");
    }

    // PE 0 sends the owners' orders out of a hash map, so only the order
    // within an owner is the migration list's: digest owner by owner.
    let packed = PACKED.with(|p| p.borrow().clone());
    assert_eq!(packed.len(), nchares as usize);
    let mut digest = 0u64;
    for pe in 0..npes {
        for &index in packed.iter().filter(|&&i| owner(i) == pe) {
            digest = splitmix64(digest ^ index as u64);
        }
    }
    assert_eq!(
        digest, 0xed48_3724_611e_cfa7,
        "the migration list or its order moved"
    );
}
