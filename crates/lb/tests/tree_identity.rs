//! LB tree pins and scale-structure bounds.
//!
//! The default LB tree is one level (`group_size == npes`): every non-root
//! PE is a leaf that ships its full candidate set to the root, which runs
//! the installed strategy over all of them. The pins below fix that
//! shape's decisions migration for migration; they were generated while a
//! separate central balancer still existed and agreed with it. The peak
//! test pins the point of a deeper hierarchy: no PE materializes
//! O(nchares) stat records. The spill test checks that an interior node
//! passes up what its subtree cannot place.

use std::sync::Arc;
use std::time::Duration;

use charm_core::prelude::*;
use charm_core::{LbStrategy, RunReport, Runtime};
use charm_lb::{GreedyLb, GreedyRefineLb, RotateLb};
use charm_sim::MachineModel;
use charm_wire::{splitmix64, Reader, Writer};

thread_local! {
    /// Array indices in pack-for-migration order (the sim runs every PE on
    /// the test's own thread).
    static PACKED: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// AtSync worker with a deterministic, skewed, placement-independent load:
/// `load(index, round)` depends only on the chare and the round, so both
/// tree shapes see identical stats every epoch regardless of where the
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
    fn encode<W: Writer>(&self, w: &mut W) {
        PACKED.with(|p| p.borrow_mut().push(self.0));
        self.0.encode(w);
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
/// epochs (LB tree fan-in `group_size`, `None` for the default); return
/// the final placement map and the run report.
fn run_skew(
    npes: usize,
    nchares: u32,
    rounds: u32,
    group_size: Option<usize>,
) -> (Vec<i64>, RunReport) {
    run_skew_with(Arc::new(GreedyRefineLb), npes, nchares, rounds, group_size)
}

fn run_skew_with(
    strategy: Arc<dyn LbStrategy>,
    npes: usize,
    nchares: u32,
    rounds: u32,
    group_size: Option<usize>,
) -> (Vec<i64>, RunReport) {
    let out: Arc<std::sync::Mutex<Option<RedData>>> = Arc::new(std::sync::Mutex::new(None));
    let out2 = Arc::clone(&out);
    let mut rt = Runtime::new(npes)
        .backend(Backend::Sim(MachineModel::bluewaters(
            npes.div_ceil(32).max(8),
        )))
        .register_migratable::<Skew>()
        .lb_strategy(strategy);
    if let Some(group_size) = group_size {
        rt = rt.lb_group_size(group_size);
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

/// Order-sensitive digest of a final index -> PE placement map.
fn placement_digest(placements: &[i64]) -> u64 {
    placements
        .iter()
        .fold(0, |digest, &pe| splitmix64(digest ^ pe as u64))
}

/// `(placement digest, migrations)` of the 8-PE / 64-chare / 2-round
/// GreedyRefine run below. Generated while a central balancer and the
/// one-level tree both existed and agreed migration for migration.
const GOLD_GREEDY_REFINE: (u64, u64) = (0x1a25_70d3_922a_05c0, 23);

/// The default one-level tree with the default strategy: the GreedyRefine
/// run's final placements and migration count are pinned.
#[test]
fn one_level_tree_greedy_refine_run_is_pinned() {
    // Eight chares per PE, so the per-PE refine limit (1.05 x average)
    // exceeds the heaviest single chare: a chare heavier than the limit
    // fits nowhere and stays put, and with only such chares overloading a
    // PE no migration would be ordered at all.
    let (npes, nchares, rounds) = (8, 64, 2);
    let (placed, report) = run_skew(npes, nchares, rounds, None);
    assert_eq!(report.lb_epochs, rounds as u64);
    assert!(
        report.migrations > 0,
        "workload too balanced to exercise the strategy"
    );
    println!(
        "greedy refine: digest {:#018x}, {} migrations",
        placement_digest(&placed),
        report.migrations
    );
    assert_eq!(
        (placement_digest(&placed), report.migrations),
        GOLD_GREEDY_REFINE,
        "the placements or the migration count moved"
    );
}

/// `(placement digest, migrations)` of the same workload under `GreedyLb`.
const GOLD_GREEDY: (u64, u64) = (0x3676_9496_dcdc_1aab, 117);

/// A strategy other than GreedyRefine at the root: the pin holds only if
/// the root hands it every candidate and every PE's committed load.
#[test]
fn greedy_lb_run_at_the_root_is_pinned() {
    let (npes, nchares, rounds) = (8, 64, 2);
    let (placed, report) = run_skew_with(Arc::new(GreedyLb), npes, nchares, rounds, None);
    assert_eq!(report.lb_epochs, rounds as u64);
    println!(
        "greedy: digest {:#018x}, {} migrations",
        placement_digest(&placed),
        report.migrations
    );
    assert_eq!(
        (placement_digest(&placed), report.migrations),
        GOLD_GREEDY,
        "the placements or the migration count moved"
    );
}

/// The hierarchy bounds what any PE holds: the one-level root materializes
/// every stat record, a 4-ary tree's nodes only their group's truncated
/// residuals.
#[test]
fn tree_mode_bounds_peak_stats_per_pe() {
    let (npes, nchares) = (64, 1024u32);
    let (_, flat_report) = run_skew(npes, nchares, 1, None);
    let flat_peak = flat_report.pe_stats[0].lb_peak_stats;
    assert_eq!(
        flat_peak, nchares as u64,
        "the one-level root should see every stat record"
    );

    let (_, tree_report) = run_skew(npes, nchares, 1, Some(4));
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

/// Multiple epochs back to back on a 4-ary tree, with the default
/// strategy and with `RotateLb` at the root: the epoch/pending-poll
/// machinery must not wedge, and the workers complete all rounds on valid
/// PEs.
#[test]
fn tree_mode_survives_repeated_epochs() {
    for strategy in [
        Arc::new(GreedyRefineLb) as Arc<dyn LbStrategy>,
        Arc::new(RotateLb),
    ] {
        let name = strategy.name();
        let (placements, report) = run_skew_with(strategy, 16, 128, 3, Some(4));
        assert_eq!(report.lb_epochs, 3, "{name}");
        assert_eq!(placements.len(), 128, "{name}");
        for (i, &pe) in placements.iter().enumerate() {
            assert!((pe as usize) < 16, "{name}: chare {i} reported bad PE {pe}");
        }
        assert!(report.clean_exit, "{name}");
    }
}

/// A participant the runtime cannot migrate: charges its slot of the
/// per-index load list once, then syncs.
struct Pinned {
    ms: u64,
}

impl Chare for Pinned {
    type Msg = SkewMsg;
    type Init = Vec<u64>;

    fn create(loads_ms: Vec<u64>, ctx: &mut Ctx) -> Self {
        Pinned {
            ms: loads_ms[ctx.my_index().first() as usize],
        }
    }

    fn receive(&mut self, _msg: SkewMsg, ctx: &mut Ctx) {
        ctx.charge(Duration::from_millis(self.ms));
        ctx.at_sync();
    }
}

/// The migratable counterpart of [`Pinned`]: after the epoch it reports
/// its PE into a one-hot placement map, as [`Skew`] does.
struct Movable {
    ms: u64,
    nchares: u32,
    done: Future<RedData>,
}
wire_struct! { Movable { ms, nchares, done } }

#[derive(Clone)]
struct MovableInit {
    loads_ms: Vec<u64>,
    done: Future<RedData>,
}
wire_struct! { MovableInit { loads_ms, done } }

impl Chare for Movable {
    type Msg = SkewMsg;
    type Init = MovableInit;

    fn create(init: MovableInit, ctx: &mut Ctx) -> Self {
        Movable {
            ms: init.loads_ms[ctx.my_index().first() as usize],
            nchares: init.loads_ms.len() as u32,
            done: init.done,
        }
    }

    fn receive(&mut self, _msg: SkewMsg, ctx: &mut Ctx) {
        ctx.charge(Duration::from_millis(self.ms));
        ctx.at_sync();
    }

    fn resume_from_sync(&mut self, ctx: &mut Ctx) {
        let mut v = vec![0i64; self.nchares as usize];
        v[ctx.my_index().first() as usize] = ctx.my_pe() as i64;
        ctx.contribute(
            RedData::VecI64(v),
            Reducer::Sum,
            RedTarget::Future(self.done.id()),
        );
    }
}

/// A chare that fits nowhere in its subtree spills up to an ancestor,
/// which may place it in another subtree. 4 PEs, 2-ary tree: PE 1's
/// subtree is {1, 3}. Pinned loads are [60, 30, 0, 30] ms, and a 40 ms
/// movable chare runs on PE 1. The subtree's limit is 1.05 · 100 / 2 =
/// 52.5 ms, so the chare fits on neither PE 1 nor PE 3. The root's limit
/// is 1.05 · 160 / 4 = 42 ms, and the root places it on the idle PE 2:
/// max PE load 60 ms. Charged to PE 1 inside the subtree, it would stay
/// there, and PE 1 would carry 70 ms.
#[test]
fn a_chare_that_fits_nowhere_in_its_subtree_spills_to_the_root() {
    let out: Arc<std::sync::Mutex<Option<Vec<i64>>>> = Arc::new(std::sync::Mutex::new(None));
    let out2 = Arc::clone(&out);
    let report = Runtime::new(4)
        .backend(Backend::Sim(MachineModel::bluewaters(8)))
        .register::<Pinned>()
        .register_migratable::<Movable>()
        .lb_group_size(2)
        .run(move |co| {
            let opts = || ArrayOpts {
                placement: Placement::Block,
                use_lb: true,
            };
            let done = co.ctx().create_future::<RedData>();
            let pinned = co
                .ctx()
                .create_array_with::<Pinned>(&[4], vec![60, 30, 0, 30], opts());
            let init = MovableInit {
                loads_ms: vec![0, 40, 0, 0],
                done,
            };
            let movable = co.ctx().create_array_with::<Movable>(&[4], init, opts());
            pinned.send(co.ctx(), SkewMsg::Go);
            movable.send(co.ctx(), SkewMsg::Go);
            let RedData::VecI64(placements) = co.get(&done) else {
                panic!("movable chares produced no placement map");
            };
            *out2.lock().unwrap() = Some(placements);
            co.ctx().exit();
        });
    assert_eq!(report.lb_epochs, 1);
    let placements = out.lock().unwrap().take().expect("placement map");
    assert_eq!(
        placements[1], 2,
        "the 40 ms chare did not reach the idle PE"
    );
}

/// One `RotateLb` epoch at 4,096 chares on the default one-level tree,
/// pinned migration for migration: each owner packs its chares in the
/// order the root listed them, so however the root gathers and looks up
/// chares (a central scan per move when the count and digest were
/// generated) the lists must not move.
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

    // Only the order within an owner is the migration list's: digest owner
    // by owner.
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
