//! Net backend configuration.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::Duration;

use crate::backoff::BackoffCfg;

/// How worker processes come to exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spawn {
    /// The root re-execs the current binary once per worker PE, passing the
    /// rendezvous coordinates through `CHARMRS_NET_*` environment
    /// variables. `args` replaces the child argv; with `inherit_args` the
    /// child gets the parent's own arguments instead (the right default
    /// for a plain application binary, whose `main` simply runs again and
    /// takes the worker branch inside `Runtime::try_run`).
    SelfExec {
        /// Explicit child arguments (ignored when `inherit_args`).
        args: Vec<String>,
        /// Re-use the parent's argv.
        inherit_args: bool,
    },
    /// Workers are started by an external launcher (mpirun-style); the root
    /// only listens. The root cannot respawn a worker it did not start, so
    /// process-kill recovery is unavailable in this mode.
    External,
}

/// Tunables for the Net backend (`Backend::Net`). The defaults suit a
/// loopback cluster; every timeout is explicit so tests can shrink them.
#[derive(Debug, Clone)]
pub struct NetCfg {
    /// Interface to bind listeners on.
    pub bind_ip: IpAddr,
    /// Fixed root endpoint for externally-launched clusters; `None` lets
    /// the root bind an ephemeral port (self-exec spawns pass the actual
    /// address to workers through the environment).
    pub root_addr: Option<SocketAddr>,
    /// Writer-side heartbeat: a ping is sent on any connection idle this
    /// long, so the peer's read timeout only ever fires on real silence.
    pub heartbeat_every: Duration,
    /// Reader-side liveness bound: a connection with no traffic (not even
    /// pings) for this long is declared dead.
    pub heartbeat_timeout: Duration,
    /// Per-attempt TCP connect / handshake-read timeout.
    pub connect_timeout: Duration,
    /// Total window for the whole mesh to assemble at bootstrap (and for a
    /// respawned worker to rejoin after a recovery).
    pub rendezvous_timeout: Duration,
    /// Deadline for flushing and closing every connection at shutdown.
    pub drain_timeout: Duration,
    /// Reconnect schedule for the dialing side of a lost connection.
    pub reconnect: BackoffCfg,
    /// How long a send may wait before the peer is treated as collapsed:
    /// on a full outbound queue, or, for a frame of 64 KiB or more that the
    /// sending thread writes itself, on the socket (it is the socket's write
    /// timeout, so a writer thread's batch is bounded by it too). A write
    /// that times out severs the connection.
    pub send_timeout: Duration,
    /// Largest frame payload a reader will accept.
    pub max_frame: usize,
    /// How worker processes are started.
    pub spawn: Spawn,
}

impl Default for NetCfg {
    fn default() -> NetCfg {
        NetCfg {
            bind_ip: IpAddr::V4(Ipv4Addr::LOCALHOST),
            root_addr: None,
            heartbeat_every: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(2),
            rendezvous_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            reconnect: BackoffCfg::default(),
            send_timeout: Duration::from_secs(5),
            max_frame: crate::frame::DEFAULT_MAX_FRAME,
            spawn: Spawn::SelfExec {
                args: Vec::new(),
                inherit_args: true,
            },
        }
    }
}

impl NetCfg {
    /// Default config (loopback, self-exec workers).
    pub fn new() -> NetCfg {
        NetCfg::default()
    }

    /// Spawn workers by re-execing the current binary with these arguments
    /// (replacing the parent's argv). Test binaries use this to re-enter a
    /// single named test in the child: `["test_name", "--exact"]`.
    pub fn worker_args<S: Into<String>>(mut self, args: impl IntoIterator<Item = S>) -> Self {
        self.spawn = Spawn::SelfExec {
            args: args.into_iter().map(Into::into).collect(),
            inherit_args: false,
        };
        self
    }

    /// Workers are launched externally; the root listens on `addr`.
    pub fn external(mut self, addr: SocketAddr) -> Self {
        self.spawn = Spawn::External;
        self.root_addr = Some(addr);
        self
    }

    /// Set both heartbeat knobs: pings every `every`, death after `timeout`
    /// of silence.
    pub fn heartbeat(mut self, every: Duration, timeout: Duration) -> Self {
        self.heartbeat_every = every;
        self.heartbeat_timeout = timeout;
        self
    }

    /// Set the bootstrap/readmission rendezvous window.
    pub fn rendezvous_timeout(mut self, t: Duration) -> Self {
        self.rendezvous_timeout = t;
        self
    }

    /// Set the shutdown drain deadline.
    pub fn drain_timeout(mut self, t: Duration) -> Self {
        self.drain_timeout = t;
        self
    }

    /// Set the reconnect backoff schedule.
    pub fn reconnect(mut self, b: BackoffCfg) -> Self {
        self.reconnect = b;
        self
    }
}
