//! Typed transport failures.

use crate::frame::FrameError;

/// Why a transport operation failed. Everything a socket can do to us maps
/// here — the crate never panics on network input or peer misbehavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Underlying socket/OS error.
    Io(std::io::ErrorKind, String),
    /// Framing-layer rejection (bad magic, checksum, torn read, over-cap).
    Frame(FrameError),
    /// A structurally invalid control message from an admitted peer.
    Proto(String),
    /// Rendezvous failed: a worker never arrived, the root was unreachable,
    /// or the mesh did not complete within the rendezvous window.
    Bootstrap(String),
    /// A peer's connection died and every reconnect/readmission attempt was
    /// exhausted. `incarnation` is the recovery epoch the lost connection
    /// was admitted under.
    PeerLost {
        /// The lost peer's PE.
        pe: usize,
        /// The epoch its connection belonged to.
        incarnation: u64,
        /// Human-readable cause (EOF, heartbeat timeout, ...).
        reason: String,
    },
    /// A send was asked of a peer with no live connection.
    PeerDown {
        /// The unreachable PE.
        pe: usize,
    },
    /// A send could not hand its frame on within the send timeout: the
    /// peer's bounded outbound queue stayed full, or the socket would not
    /// take a large frame's bytes (the connection is then severed). The
    /// peer is alive-but-stuck or the link has collapsed.
    QueueTimeout {
        /// The backpressuring PE.
        pe: usize,
    },
    /// Graceful shutdown could not flush and close every connection within
    /// the drain deadline.
    Drain(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(kind, msg) => write!(f, "io error ({kind:?}): {msg}"),
            NetError::Frame(e) => write!(f, "framing error: {e}"),
            NetError::Proto(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Bootstrap(msg) => write!(f, "bootstrap failed: {msg}"),
            NetError::PeerLost {
                pe,
                incarnation,
                reason,
            } => {
                write!(f, "peer PE {pe} (incarnation {incarnation}) lost: {reason}")
            }
            NetError::PeerDown { pe } => write!(f, "no live connection to PE {pe}"),
            NetError::QueueTimeout { pe } => {
                write!(f, "send to PE {pe} stalled past the send timeout")
            }
            NetError::Drain(msg) => write!(f, "drain failed: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.kind(), e.to_string())
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}
