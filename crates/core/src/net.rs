//! The Net backend driver: one PE per OS process over `charm-net`
//! (DESIGN.md §13).
//!
//! The process whose environment carries no `CHARMRS_NET_*` variables is
//! the **root**: it runs PE 0's scheduler *and* the restart supervisor —
//! the same supervisor loop as the threads backend, except that a failed
//! incarnation is detected through the transport (peer loss, child-process
//! death) instead of a joined thread, and a restart *respawns a process*
//! and re-rendezvouses instead of re-spawning threads. **Workers** run one
//! scheduler each and obey the root's `Restart` notices: tear down the
//! incarnation, rebuild at the announced epoch, keep serving.
//!
//! The scheduler itself is unchanged — the same `PeState`, the same
//! epoch-stamped envelopes, the same stale-epoch discard rule. This driver
//! only moves envelopes: local ones loop through an in-process queue,
//! remote ones cross the socket as their own [`Wire`] encoding under the
//! run's codec (§13.1).
//!
//! Documented v1 limits (see DESIGN.md §13.5): the root process itself is
//! not recoverable, recovery requires [`Store::Disk`] on a filesystem all
//! processes share, and telemetry sweeps are rejected at configuration
//! time.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use charm_net::{Launcher, NetCfg, NetEvent, NetNode, WorkerEnv};
use charm_trace::{PePerf, PeTrace};
use charm_wire::{Reader, Wire, WireError, Writer};

use crate::checkpoint::Store;
use crate::ids::Pe;
use crate::msg::{EnvKind, Envelope};
use crate::pe::PeState;
use crate::runtime::{finish_report, panic_msg, Launch, RunError, RunReport};

/// Read the wall clock (single sanctioned call site for this module).
fn now() -> Instant {
    // analyze: allow(net-hook, "Net driver deadlines are wall-clock by design, like the threads supervisor's; the sim/check drivers never run this module")
    Instant::now()
}

fn boot_err(e: charm_net::NetError) -> RunError {
    RunError::Bootstrap(e.to_string())
}

/// How one incarnation's drive loop ended.
enum DriveEnd {
    /// The application exited cleanly.
    Exited,
    /// No local or remote progress within the idle timeout.
    Hung(Duration),
    /// Root only: a worker is gone (transport verdict or child death).
    PeerFailed {
        pe: Pe,
        incarnation: u64,
        reason: String,
    },
    /// Worker only: the root announced a recovery restart.
    Restart { epoch: u64, generation: u64 },
    /// Worker only: the connection to the root is gone for good.
    RootLost { incarnation: u64 },
}

/// A worker's end-of-run statistics block — its [`PePerf`] plus the LB
/// epochs it participated in — shipped to the root at shutdown so the
/// [`RunReport`] covers every process. On the wire it is the counters in
/// declaration order; the destructuring below makes a new `PePerf` field a
/// compile error here rather than a silently dropped statistic.
struct WirePerf(PePerf, u64);

macro_rules! wire_perf {
    ($($f:ident),*) => {
        impl Wire for WirePerf {
            fn encode<W: Writer>(&self, w: &mut W) -> charm_wire::Result<()> {
                let WirePerf(PePerf { $($f),* }, lb_epochs) = self;
                vec![$(*$f as u64,)* *lb_epochs].encode(w)
            }
            fn decode<R: Reader>(r: &mut R) -> charm_wire::Result<Self> {
                let mut words = Vec::<u64>::decode(r)?.into_iter();
                let mut next = || words.next().ok_or(WireError::Eof);
                Ok(WirePerf(PePerf { $($f: next()? as _),* }, next()?))
            }
        }
    };
}
wire_perf! {
    pe, wall_ns, busy_ns, idle_ns, overhead_ns, msgs_sent, msgs_processed, sent_remote,
    sent_local, bytes_sent_remote, bytes_sent_local, bytes_recv, bytes_encoded, entries,
    migrations, guard_buffered, guard_drained, red_contributes, red_delivers, bcast_relays,
    ckpt_bytes, stale_discarded, batches_sent, batch_msgs, slab_hits, slab_misses,
    inline_payloads, dispatch_hits, dispatch_misses, events_dropped, fwd_hops, lb_peak_stats
}

/// Envelope-level drop counters (distinct from the transport's frame
/// counters): outbound envelopes with no wire form and undecodable
/// inbound ones. Both are defects worth surfacing, not panics.
#[derive(Default)]
struct DropCounts {
    encode: u64,
    decode: u64,
}

/// Drive one incarnation of the local scheduler against the mesh.
/// `launcher` doubles as the role discriminator: `Some` is the root
/// (supervises children, collects worker stats into `stats`), `None` is a
/// worker (obeys `Restart`, fails on root loss).
#[allow(clippy::too_many_arguments)]
fn drive(
    state: &mut PeState,
    me: Pe,
    node: &NetNode,
    mut launcher: Option<&mut Launcher>,
    local: &mut VecDeque<Envelope>,
    idle_timeout: Duration,
    stats: &mut [Option<WirePerf>],
    drops: &mut DropCounts,
    #[cfg(feature = "analyze")] kill: Option<(Pe, u64)>,
) -> DriveEnd {
    let codec = state.cfg.codec;
    // One encode buffer for the incarnation: an outbound envelope is
    // written once, payload bytes straight from their shared allocation,
    // and handed to the transport as a slice.
    let mut wire = Vec::new();
    let mut last_progress = now();
    // Children that exited without a clean goodbye get a short grace
    // window for the goodbye frame to arrive before they are declared
    // failed (reaping the process can race the last bytes in flight).
    let mut suspects: Vec<(Pe, Instant)> = Vec::new();
    #[cfg(feature = "analyze")]
    let mut qd_handled = 0u64;
    loop {
        let env = if let Some(env) = local.pop_front() {
            env
        } else {
            match node.events().recv_timeout(Duration::from_millis(10)) {
                // The bytes passed framing CRCs, but the decode is still
                // fallible: a peer built with different features must
                // yield a typed error, not a panic.
                Ok(NetEvent::Payload { src: _, bytes }) => match codec.decode(&bytes) {
                    Ok(env) => env,
                    Err(_) => {
                        drops.decode += 1;
                        continue;
                    }
                },
                Ok(NetEvent::PeerUp { .. }) => continue,
                Ok(NetEvent::Restart { epoch, generation }) => {
                    if launcher.is_none() {
                        return DriveEnd::Restart { epoch, generation };
                    }
                    continue;
                }
                Ok(NetEvent::PeerLost {
                    pe,
                    incarnation,
                    reason,
                }) => {
                    // A repaired peer (reconnect won the race against the
                    // verdict) makes the loss moot.
                    if node.peer_live(pe) {
                        continue;
                    }
                    if launcher.is_some() {
                        return DriveEnd::PeerFailed {
                            pe,
                            incarnation,
                            reason,
                        };
                    }
                    if pe == 0 {
                        return DriveEnd::RootLost { incarnation };
                    }
                    // Worker view of a sibling loss: the root supervises;
                    // either a Restart or an Exit will follow.
                    continue;
                }
                Ok(NetEvent::Stats { pe, bytes }) => {
                    if let Some(slot) = stats.get_mut(pe) {
                        *slot = codec.decode::<WirePerf>(&bytes).ok();
                    }
                    continue;
                }
                Err(_) => {
                    // Idle tick: flush parked aggregation buffers (nobody
                    // else will move traffic we sit on), then supervise.
                    if state.flush_aggregation() {
                        ship(state, me, node, local, &mut wire, drops);
                        last_progress = now();
                        continue;
                    }
                    if let Some(l) = launcher.as_deref_mut() {
                        for pe in l.poll_exited() {
                            suspects.push((pe, now() + Duration::from_millis(250)));
                        }
                    }
                    let mut failed = None;
                    suspects.retain(|&(pe, deadline)| {
                        if node.peer_bye(pe) {
                            // The child said goodbye before exiting: a clean
                            // worker shutdown, not a failure.
                            return false;
                        }
                        if now() >= deadline && failed.is_none() {
                            failed = Some(pe);
                            return false;
                        }
                        true
                    });
                    if let Some(pe) = failed {
                        return DriveEnd::PeerFailed {
                            pe,
                            incarnation: node.epoch(),
                            reason: format!("worker process for PE {pe} exited"),
                        };
                    }
                    if now().duration_since(last_progress) >= idle_timeout {
                        return DriveEnd::Hung(idle_timeout);
                    }
                    continue;
                }
            }
        };
        #[cfg(feature = "analyze")]
        if let Some((victim, after_nth)) = kill {
            // Same delivery clock as the threads backend's injector — but
            // here the victim kills its *process*, so the failure the root
            // recovers from is a real SIGKILL, not a caught panic.
            let w = env.kind.qd_weight();
            if victim == me && w > 0 && env.epoch == 0 {
                let n = qd_handled;
                qd_handled += w;
                if n <= after_nth && after_nth < n + w {
                    charm_net::kill_self_hard();
                }
            }
        }
        state.handle(env);
        ship(state, me, node, local, &mut wire, drops);
        last_progress = now();
        if state.exited {
            return DriveEnd::Exited;
        }
    }
}

/// Move the scheduler's outbox: same-PE envelopes loop through the local
/// queue; remote ones are serialized into `wire` and onto the mesh. Send
/// failures are the transport's problem (its loss path reports them) — the
/// driver only counts envelopes that could not even be represented.
fn ship(
    state: &mut PeState,
    me: Pe,
    node: &NetNode,
    local: &mut VecDeque<Envelope>,
    wire: &mut Vec<u8>,
    drops: &mut DropCounts,
) {
    for (dst, env) in state.outbox.drain(..) {
        if dst == me {
            local.push_back(env);
            continue;
        }
        wire.clear();
        match state.cfg.codec.encode_into(wire, &env) {
            Ok(()) => {
                let _ = node.send_payload(dst, wire);
            }
            Err(_) => drops.encode += 1,
        }
    }
}

/// Entry point from [`crate::runtime`]: dispatch on the process's role.
pub(crate) fn run_net(
    launch: Launch,
    netcfg: NetCfg,
    idle_timeout: Duration,
    entry_fn: crate::pe::CoroLauncher,
    #[cfg(feature = "analyze")] inject: Option<crate::analyze::InjectFault>,
) -> Result<RunReport, RunError> {
    match charm_net::worker_env() {
        None => run_root(
            launch,
            netcfg,
            idle_timeout,
            entry_fn,
            #[cfg(feature = "analyze")]
            inject,
        ),
        // Worker processes never return to application code: like
        // `charm.start` on a non-0 PE, the call serves the run and then
        // ends the process (the code after `Runtime::run` is root-only).
        Some(Ok(we)) => run_worker(
            launch,
            netcfg,
            idle_timeout,
            we,
            #[cfg(feature = "analyze")]
            inject,
        ),
        Some(Err(e)) => Err(boot_err(e)),
    }
}

fn run_root(
    mut launch: Launch,
    netcfg: NetCfg,
    idle_timeout: Duration,
    entry_fn: crate::pe::CoroLauncher,
    #[cfg(feature = "analyze")] _inject: Option<crate::analyze::InjectFault>,
) -> Result<RunReport, RunError> {
    let npes = launch.npes;
    // The nonce only has to differ between overlapping runs on one host.
    // analyze: allow(nondeterminism, "run-identity nonce: wall clock + pid is exactly the entropy wanted here")
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64
        ^ (u64::from(std::process::id()) << 32);
    let node = NetNode::root(&netcfg, npes, nonce).map_err(boot_err)?;
    let mut launcher = Launcher::spawn_all(
        &netcfg,
        npes,
        node.listen_addr(),
        nonce,
        launch.ckpt_seq_start,
    )
    .map_err(boot_err)?;
    node.await_workers().map_err(boot_err)?;

    let mut entry_slot = Some(entry_fn);
    let mut restore = launch.restore.take();
    let mut seq_start = launch.ckpt_seq_start;
    let mut recoveries = 0u64;
    let mut stats: Vec<Option<WirePerf>> = (0..npes).map(|_| None).collect();
    let mut drops = DropCounts::default();
    // Envelopes that outlive an incarnation (unprocessed locals, frames
    // arriving during the readmission wait) are re-presented to the next
    // incarnation's scheduler: current-epoch ones deliver, stale ones are
    // discarded *and counted* by the scheduler's epoch guard.
    let mut local = VecDeque::new();

    for epoch in 0u64.. {
        node.set_epoch(epoch);
        let cfg = (launch.mk_cfg)(epoch, restore.take(), seq_start);
        let entry = match entry_slot.take() {
            Some(e) => Some(e),
            None => launch.recovery_entry(),
        };
        let mut state = launch.mk_pe(0, entry, &cfg);
        if epoch > 0 && state.tracer.full() {
            let t = state.now_ns();
            state
                .tracer
                .push(t, charm_trace::EventKind::Recovery { epoch });
        }
        let mut boot = Envelope::new(0, EnvKind::Bootstrap);
        boot.epoch = epoch;
        local.push_front(boot);

        // PE 0's handlers run application code; a panic there is a root
        // failure, and the root hosts the supervisor — v1 does not survive
        // it (§13.5). Caught so the report is typed, not a crash.
        let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(
                &mut state,
                0,
                &node,
                Some(&mut launcher),
                &mut local,
                idle_timeout,
                &mut stats,
                &mut drops,
                #[cfg(feature = "analyze")]
                None,
            )
        }));
        let end = match end {
            Ok(end) => end,
            Err(p) => {
                node.kill();
                return Err(RunError::PePanic {
                    pe: 0,
                    msg: panic_msg(p),
                });
            }
        };
        match end {
            DriveEnd::Exited => {
                // Workers ship their stats right after their own Exit;
                // give the frames the drain window to arrive.
                let deadline = now() + netcfg.drain_timeout;
                while stats[1..].iter().any(Option::is_none) && now() < deadline {
                    if let Ok(NetEvent::Stats { pe, bytes }) =
                        node.events().recv_timeout(Duration::from_millis(10))
                    {
                        if let Some(slot) = stats.get_mut(pe) {
                            *slot = state.cfg.codec.decode::<WirePerf>(&bytes).ok();
                        }
                    }
                }
                node.drain(netcfg.drain_timeout)
                    .map_err(|e| RunError::Drain(e.to_string()))?;
                let trace0 = state.finish_trace();
                let mut lb_total = state.lb_epochs();
                let mut traces = vec![trace0];
                let mut missing = Vec::new();
                for (pe, slot) in stats.iter_mut().enumerate().skip(1) {
                    match slot.take() {
                        Some(WirePerf(perf, lb)) => {
                            lb_total += lb;
                            traces.push(PeTrace {
                                perf,
                                ..PeTrace::default()
                            });
                        }
                        None => missing.push(pe),
                    }
                }
                if !missing.is_empty() {
                    return Err(RunError::Drain(format!(
                        "no final statistics from worker PE(s) {missing:?} within {:?}",
                        netcfg.drain_timeout
                    )));
                }
                let wall = launch.start.elapsed();
                return Ok(finish_report(
                    wall, wall, lb_total, recoveries, true, traces,
                ));
            }
            DriveEnd::Hung(idle) => {
                node.kill();
                return Err(RunError::Hang { pe: 0, idle });
            }
            DriveEnd::PeerFailed {
                pe,
                incarnation,
                reason,
            } => {
                if !launch.recovery_armed() {
                    node.kill();
                    return Err(RunError::PeerLost { pe, incarnation });
                }
                if recoveries >= launch.max_restarts {
                    node.kill();
                    return Err(RunError::RestartsExhausted {
                        attempts: recoveries,
                        last: reason,
                    });
                }
                // Cross-process, only a shared on-disk generation is
                // reachable: the dead worker's memory (and its buddy
                // images, which live in *other workers'* address spaces)
                // cannot be assembled by the root.
                if let Some((_, Store::Memory)) = &launch.auto {
                    node.kill();
                    return Err(RunError::RecoveryImpossible {
                        reason: "Store::Memory buddy images live inside worker processes; \
                                 the Net backend recovers from Store::Disk only (§13.5)"
                            .into(),
                        failure: reason,
                    });
                }
                let (generation, src) = match launch.recovery_source(&[]) {
                    Ok(x) => x,
                    Err(r) => {
                        node.kill();
                        return Err(RunError::RecoveryImpossible {
                            reason: r,
                            failure: reason,
                        });
                    }
                };
                if !launcher.can_respawn() {
                    node.kill();
                    return Err(RunError::RecoveryImpossible {
                        reason: "externally-launched workers cannot be respawned (§13.5)".into(),
                        failure: reason,
                    });
                }
                let next = epoch + 1;
                recoveries += 1;
                restore = Some(src);
                seq_start = generation + 1;
                // Fence first (stale survivors rejected at the door), then
                // tell the survivors, then bring back the dead PE.
                node.set_epoch(next);
                node.broadcast_restart(next, generation);
                launcher
                    .respawn(pe, next, generation + 1)
                    .map_err(boot_err)?;
                let deadline = now() + netcfg.rendezvous_timeout;
                while !node.peer_at_epoch(pe, next) {
                    if now() >= deadline {
                        node.kill();
                        return Err(RunError::Bootstrap(format!(
                            "respawned PE {pe} did not rejoin within {:?}",
                            netcfg.rendezvous_timeout
                        )));
                    }
                    // The wait doubles as event consumption: stale loss
                    // verdicts for the torn-down epoch die here, while
                    // payloads are preserved for the next incarnation's
                    // epoch guard to judge.
                    if let Ok(NetEvent::Payload { src: _, bytes }) =
                        node.events().recv_timeout(Duration::from_millis(10))
                    {
                        match state.cfg.codec.decode(&bytes) {
                            Ok(env) => local.push_back(env),
                            Err(_) => drops.decode += 1,
                        }
                    }
                }
                node.broadcast_table();
            }
            // Only workers receive Restart notices or lose "the root".
            DriveEnd::Restart { .. } | DriveEnd::RootLost { .. } => {
                node.kill();
                return Err(RunError::Bootstrap(
                    "root received a worker-only lifecycle event".into(),
                ));
            }
        }
    }
    unreachable!("restart loop returns from within");
}

/// Worker-process half: serve incarnations until the run completes, then
/// end the process. Exit codes: 0 clean, 2 bootstrap mismatch, 3 hang,
/// 4 root lost, 5 drain failure — a non-zero exit is what the root's child
/// poll turns into a peer failure.
fn run_worker(
    mut launch: Launch,
    netcfg: NetCfg,
    idle_timeout: Duration,
    we: WorkerEnv,
    #[cfg(feature = "analyze")] inject: Option<crate::analyze::InjectFault>,
) -> ! {
    if we.npes != launch.npes {
        eprintln!(
            "charm-net worker PE {}: spawned for {} PEs but the application configured {}",
            we.pe, we.npes, launch.npes
        );
        std::process::exit(2);
    }
    // run_restored() restore state is the root's to distribute; a worker
    // always bootstraps empty and receives its chares over the wire.
    launch.restore = None;
    let node = match NetNode::worker(&netcfg, we.pe, we.npes, we.nonce, we.root, we.epoch) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("charm-net worker PE {}: bootstrap failed: {e}", we.pe);
            std::process::exit(2);
        }
    };
    let mut cur_epoch = we.epoch;
    let mut cur_seq = we.seq;
    let mut drops = DropCounts::default();
    // Survives restarts: leftovers from a torn-down incarnation are
    // re-presented so the new scheduler's epoch guard counts the stale ones.
    let mut local = VecDeque::new();
    loop {
        let cfg = (launch.mk_cfg)(cur_epoch, None, cur_seq);
        let mut state = launch.mk_pe(we.pe, None, &cfg);
        #[cfg(feature = "analyze")]
        let kill = match inject {
            Some(crate::analyze::InjectFault::KillPe { pe, after_nth })
                if pe == we.pe && cur_epoch == 0 =>
            {
                Some((pe, after_nth))
            }
            _ => None,
        };
        // No catch_unwind here: a panic in a worker's handler takes the
        // process down (non-zero exit), which is exactly the failure the
        // root's supervisor recovers from — real-process semantics.
        let end = drive(
            &mut state,
            we.pe,
            &node,
            None,
            &mut local,
            idle_timeout,
            &mut [],
            &mut drops,
            #[cfg(feature = "analyze")]
            kill,
        );
        match end {
            DriveEnd::Exited => {
                let trace = state.finish_trace();
                let lb = state.lb_epochs();
                if let Ok(bytes) = state.cfg.codec.encode(&WirePerf(trace.perf, lb)) {
                    let _ = node.send_stats(&bytes);
                }
                match node.drain(netcfg.drain_timeout) {
                    Ok(()) => std::process::exit(0),
                    Err(e) => {
                        eprintln!("charm-net worker PE {}: drain failed: {e}", we.pe);
                        std::process::exit(5);
                    }
                }
            }
            DriveEnd::Restart { epoch, generation } => {
                // Tear down this incarnation and rebuild at the announced
                // epoch; in-flight frames from the old one are stale by
                // the epoch rule and die in `PeState::handle`.
                cur_epoch = epoch;
                cur_seq = generation + 1;
            }
            DriveEnd::Hung(idle) => {
                node.kill();
                eprintln!("charm-net worker PE {}: idle for {idle:?}", we.pe);
                std::process::exit(3);
            }
            DriveEnd::RootLost { incarnation } => {
                node.kill();
                eprintln!(
                    "charm-net worker PE {}: root lost in incarnation {incarnation}",
                    we.pe
                );
                std::process::exit(4);
            }
            // Only the root turns peer loss into a failure verdict.
            DriveEnd::PeerFailed { .. } => unreachable!("worker drive never fails a peer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_wire::Codec;

    #[test]
    fn wire_perf_round_trips_through_both_codecs() {
        let perf = PePerf {
            pe: 2,
            msgs_sent: 10,
            bytes_recv: 1234,
            stale_discarded: 5,
            lb_peak_stats: 7,
            ..PePerf::default()
        };
        for codec in [Codec::Fast, Codec::Pickle] {
            let bytes = codec.encode(&WirePerf(perf.clone(), 3)).unwrap();
            let WirePerf(back, lb) = codec.decode(&bytes).unwrap();
            assert_eq!((&back, lb), (&perf, 3));
            // A block cut short is a typed error, not a zero-filled report.
            assert!(codec.decode::<WirePerf>(&bytes[..bytes.len() - 1]).is_err());
        }
    }
}
