//! Process launching: how the root starts, tracks, kills, and respawns the
//! worker PEs of a self-exec cluster.
//!
//! The rendezvous coordinates travel through `CHARMRS_NET_*` environment
//! variables: a process that finds them set knows it is a worker and which
//! PE it is; their absence means it is the root (or a plain single-process
//! run). Respawn after a failure reuses the same mechanism with a bumped
//! epoch, so a recovered worker is indistinguishable from a fresh one
//! except for the epoch in its handshake.

use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

use crate::cfg::{NetCfg, Spawn};
use crate::error::NetError;

/// Worker's PE number.
pub const ENV_PE: &str = "CHARMRS_NET_PE";
/// Cluster size.
pub const ENV_NPES: &str = "CHARMRS_NET_NPES";
/// Root listener address.
pub const ENV_ROOT: &str = "CHARMRS_NET_ROOT";
/// Run nonce (fences crossed runs).
pub const ENV_NONCE: &str = "CHARMRS_NET_NONCE";
/// Recovery epoch to start in (0 at bootstrap, >0 after a respawn).
pub const ENV_EPOCH: &str = "CHARMRS_NET_EPOCH";
/// First checkpoint sequence number this incarnation may write.
pub const ENV_SEQ: &str = "CHARMRS_NET_SEQ";

/// The decoded worker-side environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerEnv {
    /// This process's PE.
    pub pe: usize,
    /// Cluster size.
    pub npes: usize,
    /// The root's listener.
    pub root: SocketAddr,
    /// Run nonce.
    pub nonce: u64,
    /// Epoch to start in.
    pub epoch: u64,
    /// First checkpoint sequence number to use.
    pub seq: u64,
}

fn env_parse<T: std::str::FromStr>(key: &str) -> Result<T, NetError> {
    let v =
        std::env::var(key).map_err(|_| NetError::Bootstrap(format!("worker env {key} missing")))?;
    v.parse()
        .map_err(|_| NetError::Bootstrap(format!("worker env {key}={v} unparsable")))
}

/// Decode the worker environment, if present. `None` means this process is
/// the root (or not a Net run at all); `Some(Err)` means the variables are
/// present but torn — a bootstrap error, not a silent fallback.
pub fn worker_env() -> Option<Result<WorkerEnv, NetError>> {
    std::env::var_os(ENV_PE)?;
    Some((|| {
        Ok(WorkerEnv {
            pe: env_parse(ENV_PE)?,
            npes: env_parse(ENV_NPES)?,
            root: env_parse(ENV_ROOT)?,
            nonce: env_parse(ENV_NONCE)?,
            epoch: env_parse(ENV_EPOCH)?,
            seq: env_parse(ENV_SEQ)?,
        })
    })())
}

/// Whether this process is a spawned worker (cheap check for test guards).
pub fn is_net_worker() -> bool {
    std::env::var_os(ENV_PE).is_some()
}

/// Kill the current process the hard way (`SIGKILL`-equivalent): no
/// destructors, no flushes, no goodbye on the wire. This is the fault
/// *injection* primitive — recovery tests use it so the failure the root
/// observes is a real process death, not a simulated one.
pub fn kill_self_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = Command::new("kill").args(["-9", &pid]).status();
    // Non-unix (or a sandbox that forbids kill): abort still skips all
    // cleanup, which is the property the tests rely on.
    std::process::abort();
}

/// The root's handle on its spawned worker processes.
pub struct Launcher {
    children: Vec<Option<Child>>,
    cfg: NetCfg,
    npes: usize,
    root: SocketAddr,
    nonce: u64,
}

impl Launcher {
    /// A launcher that manages no processes (external spawning, or the
    /// worker side).
    pub fn empty(npes: usize) -> Launcher {
        Launcher {
            children: (0..npes).map(|_| None).collect(),
            cfg: NetCfg::default(),
            npes,
            root: SocketAddr::from(([127, 0, 0, 1], 0)),
            nonce: 0,
        }
    }

    /// Spawn workers `1..npes` per `cfg.spawn`. With [`Spawn::External`]
    /// this records the coordinates but starts nothing.
    pub fn spawn_all(
        cfg: &NetCfg,
        npes: usize,
        root: SocketAddr,
        nonce: u64,
        seq_start: u64,
    ) -> Result<Launcher, NetError> {
        let mut l = Launcher {
            children: (0..npes).map(|_| None).collect(),
            cfg: cfg.clone(),
            npes,
            root,
            nonce,
        };
        if matches!(cfg.spawn, Spawn::External) {
            return Ok(l);
        }
        for pe in 1..npes {
            l.respawn(pe, 0, seq_start)?;
        }
        Ok(l)
    }

    /// Whether this launcher can respawn a dead worker.
    pub fn can_respawn(&self) -> bool {
        !matches!(self.cfg.spawn, Spawn::External)
    }

    /// (Re-)start worker `pe` at `epoch`, allowed to write checkpoints from
    /// sequence `seq_start`. Any previous child for the slot is reaped.
    pub fn respawn(&mut self, pe: usize, epoch: u64, seq_start: u64) -> Result<(), NetError> {
        if pe == 0 || pe >= self.npes {
            return Err(NetError::Bootstrap(format!("cannot spawn pe {pe}")));
        }
        if let Some(mut old) = self.children[pe].take() {
            let _ = old.kill();
            let _ = old.wait();
        }
        let exe = std::env::current_exe()
            .map_err(|e| NetError::Bootstrap(format!("current_exe: {e}")))?;
        let mut cmd = Command::new(exe);
        match &self.cfg.spawn {
            Spawn::SelfExec { args, inherit_args } => {
                if *inherit_args {
                    cmd.args(std::env::args().skip(1));
                } else {
                    cmd.args(args);
                }
            }
            Spawn::External => {
                return Err(NetError::Bootstrap(
                    "externally-launched workers cannot be respawned".into(),
                ))
            }
        }
        cmd.env(ENV_PE, pe.to_string())
            .env(ENV_NPES, self.npes.to_string())
            .env(ENV_ROOT, self.root.to_string())
            .env(ENV_NONCE, self.nonce.to_string())
            .env(ENV_EPOCH, epoch.to_string())
            .env(ENV_SEQ, seq_start.to_string())
            .stdin(Stdio::null());
        let child = cmd
            .spawn()
            .map_err(|e| NetError::Bootstrap(format!("spawning worker {pe}: {e}")))?;
        self.children[pe] = Some(child);
        Ok(())
    }

    /// Poll for dead children without blocking; returns the PEs whose
    /// process has exited since the last poll. This is the fastest of the
    /// three failure detectors (the others being heartbeat timeout and
    /// reconnect exhaustion) when root and workers share a machine.
    pub fn poll_exited(&mut self) -> Vec<usize> {
        let mut dead = Vec::new();
        for (pe, slot) in self.children.iter_mut().enumerate() {
            let exited = match slot {
                Some(child) => matches!(child.try_wait(), Ok(Some(_)) | Err(_)),
                None => false,
            };
            if exited {
                *slot = None;
                dead.push(pe);
            }
        }
        dead
    }

    /// Kill and reap every remaining child.
    pub fn kill_all(&mut self) {
        for slot in self.children.iter_mut() {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl Drop for Launcher {
    fn drop(&mut self) {
        // Never leave orphan workers behind, whatever path exited the run.
        self.kill_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_env_absent_means_root() {
        // The test runner itself is not a worker.
        if std::env::var_os(ENV_PE).is_none() {
            assert!(worker_env().is_none());
            assert!(!is_net_worker());
        }
    }

    #[test]
    fn empty_launcher_has_no_children() {
        let mut l = Launcher::empty(4);
        assert!(l.poll_exited().is_empty());
        l.kill_all();
    }
}
