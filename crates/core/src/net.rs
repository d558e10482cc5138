//! The Net transport: one PE per OS process over `charm-net`
//! (DESIGN.md §13).
//!
//! The process whose environment carries no `CHARMRS_NET_*` variables is
//! the **root**: it runs PE 0's scheduler under the restart supervisor
//! every backend uses (`driver.rs`). What is specific here is how an
//! incarnation fails and restarts: a failure is a transport verdict (peer
//! loss, child-process death) instead of a joined thread or an injected
//! event, and a restart *respawns a process* and re-rendezvouses.
//! **Workers** run one scheduler each and do not supervise; they obey the
//! root's `Restart` notices: tear down the incarnation, rebuild at the
//! announced epoch, keep serving.
//!
//! Local envelopes loop through an in-process queue, remote ones cross
//! the socket as their own [`Wire`] encoding under the run's codec
//! (§13.1).
//!
//! Documented v1 limits (see DESIGN.md §13.5): the root process itself is
//! not recoverable, and recovery requires [`Store::Disk`] on a filesystem
//! all processes share.

// Runs PE 0's scheduler loop (DESIGN.md §6): the blocking and nondeterminism rules.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::iter_over_hash_type))]

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use charm_net::{Launcher, NetCfg, NetEvent, NetNode, WorkerEnv};
use charm_trace::{PePerf, PeTrace};
use charm_wire::Codec;

use crate::checkpoint::Store;
use crate::driver::{drive, supervise, End, Ended, Failed, Poll, Transport};
use crate::ids::Pe;
use crate::msg::Envelope;
use crate::pe::{CoroLauncher, PeState};
use crate::runtime::{panic_msg, Launch, RunError, RunReport};

/// Read the wall clock (single sanctioned call site for this module).
#[expect(clippy::disallowed_methods, reason = "nondeterminism: Net deadlines")]
fn now() -> Instant {
    Instant::now()
}

fn boot_err(e: charm_net::NetError) -> RunError {
    RunError::Bootstrap(e.to_string())
}

/// This process's end of the mesh: the [`NetNode`], a loop-back queue for
/// same-PE envelopes, and one encode buffer reused for every outbound
/// envelope (written once, payload bytes straight from their shared
/// allocation, handed to the node as a slice). `launcher` doubles as the
/// role discriminator: `Some` is the root (supervises children, collects
/// worker stats), `None` is a worker (obeys `Restart`, fails on root loss).
///
/// Envelopes that outlive an incarnation (unprocessed locals, frames
/// arriving during the readmission wait) stay in `local` and are
/// re-presented to the next incarnation's scheduler: current-epoch ones
/// deliver, stale ones are discarded *and counted* by its epoch guard.
struct Net {
    node: NetNode,
    me: Pe,
    launcher: Option<Launcher>,
    codec: Codec,
    local: VecDeque<Envelope>,
    wire: Vec<u8>,
    idle_timeout: Duration,
    /// When the scheduler last finished handling an envelope.
    last_progress: Instant,
    /// A delivery is out with the scheduler; the next `poll` stamps
    /// `last_progress`.
    delivering: bool,
    /// Children that exited without a clean goodbye get a short grace
    /// window for the goodbye frame to arrive before they are declared
    /// failed (reaping the process can race the last bytes in flight).
    suspects: Vec<(Pe, Instant)>,
    /// Root: workers' end-of-run statistics, by PE.
    stats: Vec<Option<PePerf>>,
}

impl Net {
    fn new(
        node: NetNode,
        me: Pe,
        launcher: Option<Launcher>,
        launch: &Launch,
        idle_timeout: Duration,
    ) -> Net {
        Net {
            node,
            me,
            stats: (0..launch.npes).map(|_| None).collect(),
            launcher,
            codec: launch.cfg.codec,
            local: VecDeque::new(),
            wire: Vec::new(),
            idle_timeout,
            last_progress: now(),
            delivering: false,
            suspects: Vec::new(),
        }
    }

    /// Reset the per-incarnation supervision state.
    fn begin(&mut self) {
        self.last_progress = now();
        self.delivering = false;
        self.suspects.clear();
    }

    /// Hand one inbound payload frame to the scheduler's queue. The bytes
    /// passed framing CRCs, but the decode is still fallible: a peer built
    /// with different features yields a dropped frame, not a panic.
    fn decode(&self, bytes: &[u8]) -> Option<Envelope> {
        self.codec.decode(bytes).ok()
    }

    /// A worker's end-of-run [`PePerf`] arrives as its word vector; one
    /// that does not decode, or has the wrong length, leaves the slot empty
    /// (and the drain reports the worker's statistics missing).
    fn record_stats(&mut self, pe: Pe, bytes: &[u8]) {
        if let Some(slot) = self.stats.get_mut(pe) {
            let words = self.codec.decode::<Vec<u64>>(bytes).ok();
            *slot = words.and_then(|w| PePerf::from_words(&w).ok());
        }
    }
}

impl Transport for Net {
    fn start(&mut self, _at_ns: u64, boot: Envelope) {
        self.begin();
        // Ahead of any leftovers from the previous incarnation.
        self.local.push_front(boot);
    }

    /// Same-PE envelopes loop through the local queue, before anything is
    /// encoded, so a by-reference `Payload::Local` never reaches the codec;
    /// remote ones are serialized onto the mesh. Send failures are the
    /// node's problem (its loss path reports them).
    fn send(&mut self, _src: &PeState, dst: Pe, env: Envelope) {
        if dst == self.me {
            self.local.push_back(env);
            return;
        }
        self.wire.clear();
        self.codec.encode_into(&mut self.wire, &env);
        let _ = self.node.send_payload(dst, &self.wire);
    }

    fn poll(&mut self) -> Poll {
        if std::mem::take(&mut self.delivering) {
            self.last_progress = now();
        }
        let env = loop {
            if let Some(env) = self.local.pop_front() {
                break env;
            }
            match self.node.events().recv_timeout(Duration::from_millis(10)) {
                Ok(NetEvent::Payload { src: _, bytes }) => match self.decode(&bytes) {
                    Some(env) => break env,
                    None => continue,
                },
                Ok(NetEvent::PeerUp { .. }) => continue,
                Ok(NetEvent::Restart { epoch, generation }) => {
                    if self.launcher.is_none() {
                        return Poll::End(End::Restart { epoch, generation });
                    }
                }
                Ok(NetEvent::PeerLost {
                    pe,
                    incarnation,
                    reason,
                }) => {
                    // A repaired peer (reconnect won the race against the
                    // verdict) makes the loss moot.
                    if self.node.peer_live(pe) {
                        continue;
                    }
                    if self.launcher.is_some() {
                        return Poll::End(End::PeerFailed {
                            pe,
                            incarnation,
                            reason,
                        });
                    }
                    if pe == 0 {
                        return Poll::End(End::RootLost { incarnation });
                    }
                    // Worker view of a sibling loss: the root supervises;
                    // either a Restart or an Exit will follow.
                }
                Ok(NetEvent::Stats { pe, bytes }) => self.record_stats(pe, &bytes),
                Err(_) => return Poll::Empty,
            }
        };
        self.delivering = true;
        Poll::Ready {
            pe: self.me,
            arrival: 0,
            env,
        }
    }

    /// The idle tick: supervise the children (root) and the hang clock.
    fn idle_wait(&mut self, _pes: &mut [PeState]) -> Poll {
        if let Some(l) = self.launcher.as_mut() {
            for pe in l.poll_exited() {
                self.suspects.push((pe, now() + Duration::from_millis(250)));
            }
        }
        let mut failed = None;
        let node = &self.node;
        self.suspects.retain(|&(pe, deadline)| {
            if node.peer_bye(pe) {
                // The child said goodbye before exiting: a clean worker
                // shutdown, not a failure.
                return false;
            }
            if now() >= deadline && failed.is_none() {
                failed = Some(pe);
                return false;
            }
            true
        });
        if let Some(pe) = failed {
            return Poll::End(End::PeerFailed {
                pe,
                incarnation: self.node.epoch(),
                reason: format!("worker process for PE {pe} exited"),
            });
        }
        if now().duration_since(self.last_progress) >= self.idle_timeout {
            return Poll::End(End::Hung(self.idle_timeout));
        }
        Poll::Empty
    }
}

/// Entry point from [`crate::runtime`]: dispatch on the process's role.
pub(crate) fn run_net(
    launch: Launch,
    netcfg: NetCfg,
    idle_timeout: Duration,
    entry: CoroLauncher,
) -> Result<RunReport, RunError> {
    match charm_net::worker_env() {
        None => run_root(launch, netcfg, idle_timeout, entry),
        // Worker processes never return to application code: like
        // `charm.start` on a non-0 PE, the call serves the run and then
        // ends the process (the code after `Runtime::run` is root-only).
        Some(Ok(we)) => run_worker(launch, netcfg, idle_timeout, we),
        Some(Err(e)) => Err(boot_err(e)),
    }
}

/// Root-process half: PE 0's scheduler under the restart supervisor. A
/// failed incarnation is detected through the transport (peer loss,
/// child-process death) and a restart *respawns a process* and
/// re-rendezvouses before the next incarnation starts.
fn run_root(
    launch: Launch,
    netcfg: NetCfg,
    idle_timeout: Duration,
    entry: CoroLauncher,
) -> Result<RunReport, RunError> {
    let npes = launch.npes;
    // The nonce only has to differ between overlapping runs on one host.
    #[expect(clippy::disallowed_methods, reason = "nondeterminism: a run nonce")]
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64
        ^ (u64::from(std::process::id()) << 32);
    let node = NetNode::root(&netcfg, npes, nonce).map_err(boot_err)?;
    let launcher = Launcher::spawn_all(
        &netcfg,
        npes,
        node.listen_addr(),
        nonce,
        launch.cfg.ckpt_seq_start,
    )
    .map_err(boot_err)?;
    node.await_workers().map_err(boot_err)?;
    let mut t = Net::new(node, 0, Some(launcher), &launch, idle_timeout);
    // The worker the previous incarnation lost, and why.
    let mut lost: Option<(Pe, String)> = None;

    let report = supervise(&launch, entry, 0..1, |mut pes, boot, _kill| {
        let epoch = boot.epoch;
        // Fence first (stale survivors rejected at the door), then tell the
        // survivors, then bring back the dead PE.
        t.node.set_epoch(epoch);
        if let Some((pe, failure)) = lost.take() {
            let launcher = t.launcher.as_mut().expect("the root owns the launcher");
            if !launcher.can_respawn() {
                return Err(RunError::RecoveryImpossible {
                    reason: "externally-launched workers cannot be respawned (§13.5)".into(),
                    failure,
                });
            }
            let seq_start = pes[0].cfg.ckpt_seq_start;
            t.node.broadcast_restart(epoch, seq_start - 1);
            launcher.respawn(pe, epoch, seq_start).map_err(boot_err)?;
            let deadline = now() + netcfg.rendezvous_timeout;
            while !t.node.peer_at_epoch(pe, epoch) {
                if now() >= deadline {
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
                    t.node.events().recv_timeout(Duration::from_millis(10))
                {
                    t.local.extend(t.decode(&bytes));
                }
            }
            t.node.broadcast_table();
        }
        t.start(0, boot);

        // PE 0's handlers run application code; a panic there is a root
        // failure, and the root hosts the supervisor — v1 does not survive
        // it (§13.5), which is also why an injected kill of PE 0 is not
        // honored. Caught so the report is typed, not a crash.
        let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(&mut pes, &mut t, None)
        }))
        .map_err(|p| RunError::PePanic {
            pe: 0,
            msg: panic_msg(p),
        })?;
        match end {
            End::Exited => {
                // Workers ship their stats right after their own Exit;
                // give the frames the drain window to arrive.
                let deadline = now() + netcfg.drain_timeout;
                while t.stats[1..].iter().any(Option::is_none) && now() < deadline {
                    if let Ok(NetEvent::Stats { pe, bytes }) =
                        t.node.events().recv_timeout(Duration::from_millis(10))
                    {
                        t.record_stats(pe, &bytes);
                    }
                }
                t.node
                    .drain(netcfg.drain_timeout)
                    .map_err(|e| RunError::Drain(e.to_string()))?;
                let mut traces = vec![pes[0].finish_trace()];
                let mut missing = Vec::new();
                for (pe, slot) in t.stats.iter_mut().enumerate().skip(1) {
                    match slot.take() {
                        Some(perf) => traces.push(PeTrace {
                            perf,
                            ..PeTrace::default()
                        }),
                        None => missing.push(pe),
                    }
                }
                if !missing.is_empty() {
                    return Err(RunError::Drain(format!(
                        "no final statistics from worker PE(s) {missing:?} within {:?}",
                        netcfg.drain_timeout
                    )));
                }
                Ok(Ended::Finished {
                    traces,
                    time: None,
                    clean_exit: true,
                })
            }
            End::Hung(idle) => Err(RunError::Hang { pe: 0, idle }),
            End::PeerFailed {
                pe,
                incarnation,
                reason,
            } => {
                lost = Some((pe, reason.clone()));
                // No in-memory salvage: the dead worker's memory (and its
                // buddy images, which live in *other workers'* address
                // spaces) cannot be assembled by the root.
                Ok(Ended::Failed(Failed {
                    unarmed: RunError::PeerLost { pe, incarnation },
                    describe: reason,
                    stores: Vec::new(),
                    at_ns: 0,
                }))
            }
            // Only workers receive Restart notices, lose "the root" or die
            // by injection, and a live mesh never drains.
            End::Restart { .. } | End::RootLost { .. } | End::Killed(..) | End::Drained => Err(
                RunError::Bootstrap("root received a worker-only lifecycle event".into()),
            ),
        }
    });
    report.map_err(|e| {
        // Abandon the run: from the workers' side the root just died.
        t.node.kill();
        match e {
            // Cross-process, only a shared on-disk generation is reachable;
            // say so instead of "no generation survives".
            RunError::RecoveryImpossible { failure, .. }
                if matches!(launch.cfg.auto_ckpt, Some((_, Store::Memory))) =>
            {
                RunError::RecoveryImpossible {
                    reason: "Store::Memory buddy images live inside worker processes; \
                             the Net backend recovers from Store::Disk only (§13.5)"
                        .into(),
                    failure,
                }
            }
            e => e,
        }
    })
}

/// Worker-process half: serve the incarnations the root announces until
/// the run completes, then end the process. Exit codes: 0 clean, 2
/// bootstrap mismatch, 3 hang, 4 root lost, 5 drain failure — a non-zero
/// exit is what the root's child poll turns into a peer failure.
fn run_worker(launch: Launch, netcfg: NetCfg, idle_timeout: Duration, we: WorkerEnv) -> ! {
    let die = |code: i32, why: String| -> ! {
        eprintln!("charm-net worker PE {}: {why}", we.pe);
        std::process::exit(code)
    };
    if we.npes != launch.npes {
        die(
            2,
            format!(
                "spawned for {} PEs but the application configured {}",
                we.npes, launch.npes
            ),
        );
    }
    let node = NetNode::worker(&netcfg, we.pe, we.npes, we.nonce, we.root, we.epoch)
        .unwrap_or_else(|e| die(2, format!("bootstrap failed: {e}")));
    let mut t = Net::new(node, we.pe, None, &launch, idle_timeout);
    let mut cur_epoch = we.epoch;
    let mut cur_seq = we.seq;
    loop {
        // run_restored() restore state is the root's to distribute; a
        // worker always bootstraps empty and receives its chares over the
        // wire.
        let cfg = launch.cfg(cur_epoch, None, cur_seq);
        let mut state = launch.mk_pe(we.pe, None, &cfg);
        t.begin();
        // No catch_unwind here: a panic in a worker's handler takes the
        // process down (non-zero exit), which is exactly the failure the
        // root's supervisor recovers from — real-process semantics.
        let kill = launch.kill().filter(|_| cur_epoch == 0);
        match drive(std::slice::from_mut(&mut state), &mut t, kill) {
            End::Exited => {
                let trace = state.finish_trace();
                let _ = t.node.send_stats(&t.codec.encode(&trace.perf.to_words()));
                match t.node.drain(netcfg.drain_timeout) {
                    Ok(()) => std::process::exit(0),
                    Err(e) => die(5, format!("drain failed: {e}")),
                }
            }
            End::Restart { epoch, generation } => {
                // Tear down this incarnation and rebuild at the announced
                // epoch; in-flight frames from the old one are stale by
                // the epoch rule and die in `PeState::handle`.
                cur_epoch = epoch;
                cur_seq = generation + 1;
            }
            // Same delivery clock as every backend's injector — but here
            // the victim kills its *process*, so the failure the root
            // recovers from is a real SIGKILL.
            End::Killed(..) => charm_net::kill_self_hard(),
            End::Hung(idle) => {
                t.node.kill();
                die(3, format!("idle for {idle:?}"));
            }
            End::RootLost { incarnation } => {
                t.node.kill();
                die(4, format!("root lost in incarnation {incarnation}"));
            }
            // Only the root turns peer loss into a failure verdict, and a
            // live mesh never drains.
            End::PeerFailed { .. } | End::Drained => {
                unreachable!("worker transport never fails a peer or drains")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_perf_round_trips_through_both_codecs() {
        let perf = PePerf {
            pe: 2,
            msgs_sent: 10,
            bytes_recv: 1234,
            stale_discarded: 5,
            lb_peak_stats: 7,
            lb_epochs: 3,
            ..PePerf::default()
        };
        for codec in [Codec::Fast, Codec::Pickle] {
            let bytes = codec.encode(&perf.to_words());
            let words: Vec<u64> = codec.decode(&bytes).unwrap();
            assert_eq!(PePerf::from_words(&words), Ok(perf.clone()));
            // A block cut short is a typed error, not a zero-filled report.
            assert!(codec.decode::<Vec<u64>>(&bytes[..bytes.len() - 1]).is_err());
            assert!(PePerf::from_words(&words[1..]).is_err());
        }
    }
}
