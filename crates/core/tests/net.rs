//! Net backend acceptance suite (`--features analyze`, DESIGN.md §13):
//! real multi-process runs over loopback TCP, with this test binary
//! re-exec'd as the worker processes.
//!
//! The workhorse is the same schedule-independent ring stencil as `ft.rs`:
//! each round every element ships its value to its right neighbor and
//! combines the value arriving from the left, with a quiescence wait
//! between rounds. The acceptance claims:
//!
//! 1. a clean 4-process run computes exactly what the sim backend
//!    computes, with identical logical message/entry counters;
//! 2. a worker SIGKILLed mid-stencil (a real `kill -9`, injected through
//!    the analyze harness) is detected, respawned, restored from the disk
//!    checkpoint, and the run finishes identical to the failure-free run;
//! 3. failure modes are typed errors (`Bootstrap`, `PeerLost`,
//!    `RecoveryImpossible`), never hangs or panics;
//! 4. an AtSync LB epoch over a hierarchical LB tree places every chare
//!    where the sim backend places it;
//! 5. telemetry sweeps reduce their frames across processes to the same
//!    logical series the sim backend produces.
//!
//! Worker processes never return from `Runtime::run` — they exit inside
//! the runtime when the run completes — so everything after `run()` in a
//! test body executes on the root only. Code *before* `run()` runs in
//! every process and must stay idempotent (checkpoint-dir cleanup is
//! guarded by `is_net_worker`).

#![cfg(feature = "analyze")]

use std::sync::{Arc, Mutex};
use std::time::Duration;

use charm_core::analyze::InjectFault;
use charm_core::prelude::*;
use charm_core::{is_net_worker, CollectionId, NetCfg, RunError, Store, TelemetryCfg};

const N: i32 = 8;
const NPES: usize = 4;
const ROUNDS: i64 = 6;

/// Loopback cluster with test-sized timeouts. `test` names the one test
/// the re-exec'd child should run.
fn net_cfg(test: &str) -> NetCfg {
    NetCfg::new()
        .worker_args([test, "--exact"])
        .heartbeat(Duration::from_millis(100), Duration::from_millis(1500))
        .rendezvous_timeout(Duration::from_secs(20))
        .drain_timeout(Duration::from_secs(5))
}

/// A per-test scratch directory shared by all processes of the run. The
/// path must not depend on the pid (workers are different processes), and
/// only the root may wipe it — a respawned worker re-runs the test body
/// and must not delete the checkpoints the recovery is about to restore.
fn shared_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("charmrs-net-{tag}"));
    if !is_net_worker() {
        let _ = std::fs::remove_dir_all(&d);
    }
    d
}

// ---------------------------------------------------------------------------
// The ring stencil (same computation as ft.rs).
// ---------------------------------------------------------------------------

struct Ring {
    cur: i64,
    rounds_done: i64,
    hist: Vec<i64>,
    sent: bool,
    recv: Option<i64>,
}
wire_struct! { Ring { cur, rounds_done, hist, sent, recv } }

enum RingMsg {
    DoRound,
    Shift(i64),
    RoundsDone,
    Hist,
}
wire_enum! { RingMsg { DoRound, Shift(a), RoundsDone, Hist } }

impl Chare for Ring {
    type Msg = RingMsg;
    type Init = ();
    fn create(_: (), ctx: &mut Ctx) -> Self {
        Ring {
            cur: ctx.my_index().first() as i64 + 1,
            rounds_done: 0,
            hist: Vec::new(),
            sent: false,
            recv: None,
        }
    }
    fn receive(&mut self, msg: RingMsg, ctx: &mut Ctx) {
        match msg {
            RingMsg::DoRound => {
                let right = ((ctx.my_index().first() + 1) % N) as usize;
                let arr = ctx.this_proxy::<Ring>();
                arr.elem(right).send(ctx, RingMsg::Shift(self.cur));
                self.sent = true;
            }
            RingMsg::Shift(v) => self.recv = Some(v),
            RingMsg::RoundsDone => ctx.reply(self.rounds_done),
            RingMsg::Hist => {
                let h = self.hist.clone();
                ctx.reply(h);
            }
        }
        // A round commits only once this element both shipped its value
        // and received the neighbor's — arrival order within the round
        // cannot matter.
        if self.sent {
            if let Some(v) = self.recv.take() {
                self.sent = false;
                self.cur = self.cur * 3 + v;
                self.rounds_done += 1;
                self.hist.push(self.cur);
            }
        }
    }
}

fn expected_hists(rounds: i64) -> Vec<Vec<i64>> {
    let n = N as usize;
    let mut cur: Vec<i64> = (0..n).map(|i| i as i64 + 1).collect();
    let mut hists = vec![Vec::new(); n];
    for _ in 0..rounds {
        let prev = cur.clone();
        for (i, h) in hists.iter_mut().enumerate() {
            cur[i] = prev[i] * 3 + prev[(i + n - 1) % n];
            h.push(cur[i]);
        }
    }
    hists
}

/// Drive rounds `from..ROUNDS` (QD between rounds), collect every
/// element's history into `out`, exit.
fn drive(co: &mut Co<Main>, arr: &Proxy<Ring>, from: i64, out: &Arc<Mutex<Vec<Vec<i64>>>>) {
    for _ in from..ROUNDS {
        arr.send(co.ctx(), RingMsg::DoRound);
        let q = co.ctx().create_future::<()>();
        co.ctx().start_quiescence(&q);
        co.get(&q);
    }
    let mut hists = Vec::new();
    for i in 0..N as usize {
        let f = arr.elem(i).call::<Vec<i64>>(co.ctx(), RingMsg::Hist);
        hists.push(co.get(&f));
    }
    *out.lock().unwrap() = hists;
    co.ctx().exit();
}

fn restored_ring() -> Proxy<Ring> {
    Proxy::<Ring>::restored(CollectionId { creator: 0, seq: 0 })
}

/// One fault-free stencil run on the given backend; returns (histories,
/// report).
fn stencil_once(rt: Runtime) -> (Vec<Vec<i64>>, RunReport) {
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    let report = rt.register_migratable::<Ring>().run(move |co| {
        let arr = co.ctx().create_array::<Ring>(&[N], ());
        drive(co, &arr, 0, &sink);
    });
    let hists = out.lock().unwrap().clone();
    (hists, report)
}

// ---------------------------------------------------------------------------
// 1. Clean multi-process run ≡ sim run.
// ---------------------------------------------------------------------------

/// Four real processes over loopback compute the exact stencil result, and
/// the logical counters (QD-counted messages, entry activations,
/// migrations) match the deterministic sim backend bit for bit.
#[test]
fn four_process_run_matches_sim_backend() {
    // The sim baseline is root-only work; workers skip straight to the
    // net run's worker branch.
    let sim = if is_net_worker() {
        None
    } else {
        let rt = Runtime::new(NPES)
            .simulated(charm_sim::MachineModel::local(NPES))
            .meter_compute(false);
        Some(stencil_once(rt))
    };

    let rt = Runtime::new(NPES).backend(Backend::Net(net_cfg(
        "four_process_run_matches_sim_backend",
    )));
    let (hists, report) = stencil_once(rt);

    let (sim_hists, sim_report) = sim.expect("only the root returns from the net run");
    let expected = expected_hists(ROUNDS);
    assert_eq!(sim_hists, expected, "sim baseline diverged");
    assert_eq!(hists, expected, "net run diverged from the expected result");
    assert!(report.clean_exit, "net run must end via exit()");
    assert_eq!(report.recoveries, 0);
    assert_eq!(report.pe_stats.len(), NPES, "one perf block per process");
    assert_eq!(
        (report.msgs, report.entries, report.migrations),
        (sim_report.msgs, sim_report.entries, sim_report.migrations),
        "logical counters must not depend on the backend"
    );
    let stale: u64 = report.pe_stats.iter().map(|p| p.stale_discarded).sum();
    assert_eq!(stale, 0, "no recovery, so nothing may be discarded");
}

// ---------------------------------------------------------------------------
// 2. SIGKILL mid-run: detect, respawn, restore, finish identically.
// ---------------------------------------------------------------------------

/// A worker process SIGKILLs itself mid-stencil (`kill -9` of a real OS
/// process, injected at a deterministic delivery). The root must surface
/// the death, respawn the PE at a bumped incarnation, restore everyone
/// from the shared-disk checkpoint, and finish with results identical to
/// the failure-free run. No stale-epoch envelope may *deliver* (the result
/// comparison and the epoch guard enforce it); discarded ones are counted.
#[test]
fn sigkill_mid_run_recovers_from_disk_checkpoint() {
    let ckpt = shared_dir("sigkill-ckpt");
    let (rt, _probe) = Runtime::new(NPES)
        .backend(Backend::Net(net_cfg(
            "sigkill_mid_run_recovers_from_disk_checkpoint",
        )))
        .auto_checkpoint(1, Store::Disk(ckpt.clone()))
        // PE 2 hosts elements 4 and 5 (Block placement): two QD-counted
        // deliveries per round plus two inserts, so the 11th delivery
        // lands mid-round with committed checkpoint generations behind it.
        .analyze_inject(InjectFault::KillPe {
            pe: 2,
            after_nth: 10,
        });
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    let rt = rt.recover_with(move |co| {
        let arr = restored_ring();
        // Progress is discovered from restored chare state — coroutine
        // stacks are not part of a checkpoint.
        let f = arr.elem(0usize).call::<i64>(co.ctx(), RingMsg::RoundsDone);
        let from = co.get(&f);
        drive(co, &arr, from, &sink);
    });
    let sink = Arc::clone(&out);
    let report = rt.register_migratable::<Ring>().run(move |co| {
        let arr = co.ctx().create_array::<Ring>(&[N], ());
        drive(co, &arr, 0, &sink);
    });

    assert_eq!(report.recoveries, 1, "expected exactly one restart");
    assert!(report.clean_exit);
    assert_eq!(
        out.lock().unwrap().clone(),
        expected_hists(ROUNDS),
        "recovered run diverged from the failure-free result"
    );
    let stale: u64 = report.pe_stats.iter().map(|p| p.stale_discarded).sum();
    println!("recovery survived a real SIGKILL; stale frames discarded: {stale}");
    let _ = std::fs::remove_dir_all(ckpt);
}

/// The same kill without disk checkpointing is a typed error: in-memory
/// buddy images die with the worker processes holding them, and the root
/// must say so rather than attempt a doomed restore.
#[test]
fn sigkill_with_memory_store_is_recovery_impossible() {
    let (rt, _probe) = Runtime::new(NPES)
        .backend(Backend::Net(net_cfg(
            "sigkill_with_memory_store_is_recovery_impossible",
        )))
        .auto_checkpoint(1, Store::Memory)
        .analyze_inject(InjectFault::KillPe {
            pe: 2,
            after_nth: 10,
        });
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    let rt = rt.recover_with(|_co| unreachable!("recovery must be refused"));
    let err = rt
        .register_migratable::<Ring>()
        .try_run(move |co| {
            let arr = co.ctx().create_array::<Ring>(&[N], ());
            drive(co, &arr, 0, &sink);
        })
        .unwrap_err();
    assert!(
        matches!(err, RunError::RecoveryImpossible { .. }),
        "unexpected error: {err}"
    );
}

/// Without recovery armed at all, a killed worker surfaces as `PeerLost`
/// with the incarnation it died in.
#[test]
fn sigkill_without_recovery_is_peer_lost() {
    let (rt, _probe) = Runtime::new(NPES)
        .backend(Backend::Net(net_cfg(
            "sigkill_without_recovery_is_peer_lost",
        )))
        .analyze_inject(InjectFault::KillPe {
            pe: 1,
            after_nth: 10,
        });
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    let err = rt
        .register_migratable::<Ring>()
        .try_run(move |co| {
            let arr = co.ctx().create_array::<Ring>(&[N], ());
            drive(co, &arr, 0, &sink);
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            RunError::PeerLost {
                pe: 1,
                incarnation: 0
            }
        ),
        "unexpected error: {err}"
    );
}

// ---------------------------------------------------------------------------
// 3. Bootstrap and configuration failures are typed, prompt errors.
// ---------------------------------------------------------------------------

/// Externally-launched mode with no launcher ever starting workers: the
/// rendezvous window lapses and `try_run` returns `Bootstrap` naming the
/// missing PEs, instead of hanging.
#[test]
fn bootstrap_times_out_when_no_worker_arrives() {
    let mut cfg = net_cfg("bootstrap_times_out_when_no_worker_arrives")
        .rendezvous_timeout(Duration::from_millis(500));
    cfg = cfg.external("127.0.0.1:0".parse().unwrap());
    let err = Runtime::new(3)
        .backend(Backend::Net(cfg))
        .try_run(|co| co.ctx().exit())
        .unwrap_err();
    match err {
        RunError::Bootstrap(msg) => {
            assert!(
                msg.contains('1') && msg.contains('2'),
                "error should name the missing PEs: {msg}"
            );
        }
        other => panic!("expected Bootstrap, got: {other}"),
    }
}

// ---------------------------------------------------------------------------
// 4. AtSync load balancing across processes ≡ sim.
// ---------------------------------------------------------------------------

/// The LB root's strategy: every candidate that reached it moves to PE 0.
struct AllToZero;

impl LbStrategy for AllToZero {
    fn assign(&self, stats: &LbStats) -> Vec<(ChareId, Pe)> {
        stats
            .chares
            .iter()
            .filter(|c| c.pe != 0)
            .map(|c| (c.id, 0))
            .collect()
    }
}

/// An AtSync participant that reports where it ended up.
struct Balanced {
    done: Option<Future<RedData>>,
}
wire_struct! { Balanced { done } }

enum BalancedMsg {
    Sync { done: Future<RedData> },
}
wire_enum! { BalancedMsg { Sync { done } } }

impl Chare for Balanced {
    type Msg = BalancedMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Balanced { done: None }
    }
    fn receive(&mut self, BalancedMsg::Sync { done }: BalancedMsg, ctx: &mut Ctx) {
        self.done = Some(done);
        // Block placement puts elements 2 and 3 on PE 1, whose LB-tree
        // subtree is {1, 3} under a 2-ary tree: 39 ms overflow PE 1 alone
        // but fit the pair, so interior PE 1 orders element 3 to PE 3. The
        // margins (20 ms against a 20.475 ms limit) dwarf the measured
        // handler time a real process adds.
        let ms = match ctx.my_index().first() {
            2 => 20,
            3 => 19,
            _ => 0,
        };
        ctx.charge(Duration::from_millis(ms));
        ctx.at_sync();
    }
    fn resume_from_sync(&mut self, ctx: &mut Ctx) {
        // One slot per element; Sum-reducing the one-hot rows yields the
        // final index -> PE map.
        let done = self.done.take().expect("resumed without Sync");
        let mut v = vec![0i64; N as usize];
        v[ctx.my_index().first() as usize] = ctx.my_pe() as i64;
        ctx.contribute(
            RedData::VecI64(v),
            Reducer::Sum,
            RedTarget::Future(done.id()),
        );
    }
}

/// One LB epoch over a 2-ary LB tree with [`AllToZero`] at its root;
/// returns (final placements, report).
fn balanced_once(rt: Runtime) -> (Vec<i64>, RunReport) {
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    let report = rt
        .register_migratable::<Balanced>()
        .lb_strategy(Arc::new(AllToZero))
        .lb_group_size(2)
        .run(move |co| {
            let arr = co.ctx().create_array_with::<Balanced>(
                &[N],
                (),
                ArrayOpts {
                    placement: Placement::Block,
                    use_lb: true,
                },
            );
            let done = co.ctx().create_future::<RedData>();
            arr.send(co.ctx(), BalancedMsg::Sync { done });
            let RedData::VecI64(placed) = co.get(&done) else {
                panic!("no placement map");
            };
            *sink.lock().unwrap() = placed;
            co.ctx().exit();
        });
    let placed = out.lock().unwrap().clone();
    (placed, report)
}

/// Interior PEs issue migration orders and the root runs the installed
/// strategy across real processes exactly as in the sim: same placements,
/// same migration and epoch counts.
#[test]
fn four_process_lb_tree_matches_sim_backend() {
    let sim = if is_net_worker() {
        None
    } else {
        let rt = Runtime::new(NPES)
            .simulated(charm_sim::MachineModel::local(NPES))
            .meter_compute(false);
        Some(balanced_once(rt))
    };

    let rt = Runtime::new(NPES).backend(Backend::Net(net_cfg(
        "four_process_lb_tree_matches_sim_backend",
    )));
    let (placed, report) = balanced_once(rt);

    let (sim_placed, sim_report) = sim.expect("only the root returns from the net run");
    // Element 3 moved by interior PE 1, elements 4 and 5 by the root.
    assert_eq!(sim_placed, [0, 0, 1, 3, 0, 0, 3, 3], "sim baseline moved");
    assert_eq!((sim_report.migrations, sim_report.lb_epochs), (3, 1));
    assert!(report.clean_exit, "net run must end via exit()");
    assert_eq!(placed, sim_placed, "net placements diverged from the sim's");
    assert_eq!(
        (report.migrations, report.lb_epochs),
        (sim_report.migrations, sim_report.lb_epochs),
        "LB counters must not depend on the backend"
    );
}

// ---------------------------------------------------------------------------
// 5. Telemetry sweeps across processes ≡ sim.
// ---------------------------------------------------------------------------

/// Telemetry frames cross the process boundary in their wire form: a
/// telemetry-armed stencil on four processes yields the sim's series — as
/// many frames, and per frame the same sweep number, PE count, logical
/// message and entry counters and number of executions recorded.
#[test]
fn telemetry_on_net_matches_sim_backend() {
    let sim = if is_net_worker() {
        None
    } else {
        let rt = Runtime::new(NPES)
            .simulated(charm_sim::MachineModel::local(NPES))
            .meter_compute(false)
            .telemetry(TelemetryCfg::every(1));
        Some(stencil_once(rt))
    };

    let rt = Runtime::new(NPES)
        .backend(Backend::Net(net_cfg(
            "telemetry_on_net_matches_sim_backend",
        )))
        .telemetry(TelemetryCfg::every(1));
    let (hists, report) = stencil_once(rt);

    let (sim_hists, sim_report) = sim.expect("only the root returns from the net run");
    assert_eq!(sim_hists, expected_hists(ROUNDS), "sim baseline diverged");
    assert_eq!(hists, sim_hists, "net run diverged from the sim's");
    let logical = |r: &RunReport| -> Vec<_> {
        r.telemetry
            .iter()
            .map(|f| {
                let counts = (f.msgs_sent, f.msgs_processed, f.entries, f.exec.count());
                (f.seq, f.pes, counts)
            })
            .collect()
    };
    assert_eq!(
        sim_report.telemetry.len(),
        ROUNDS as usize,
        "one frame a round"
    );
    assert_eq!(logical(&report), logical(&sim_report));
}
