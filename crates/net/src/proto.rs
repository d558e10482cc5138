//! Control-plane messages and their hand-rolled little-endian codec.
//!
//! The frame `kind` byte selects the message; payload layouts are fixed
//! little-endian with length-prefixed variable parts. The codec is written
//! against untrusted input: every read is bounds-checked and returns a
//! typed error, mirroring the framing layer's never-panic contract.
//! Application traffic ([`K_PAYLOAD`]) is opaque here — the runtime's own
//! envelope codec owns those bytes; this layer only prefixes the sending
//! PE for attribution.

use std::net::SocketAddr;

use crate::error::NetError;

/// Handshake: first frame on every new connection, dialer → acceptor.
pub const K_HELLO: u8 = 1;
/// Peer table broadcast, root → everyone.
pub const K_TABLE: u8 = 2;
/// Heartbeat; carries the sender's current epoch.
pub const K_PING: u8 = 3;
/// Opaque runtime envelope, `src_pe`-prefixed.
pub const K_PAYLOAD: u8 = 4;
/// Recovery restart notice, root → survivors.
pub const K_RESTART: u8 = 5;
/// Worker's end-of-run counters, worker → root, opaque to this layer.
pub const K_STATS: u8 = 6;
/// Graceful close notice: distinguishes drain from death.
pub const K_BYE: u8 = 7;

/// Bounds-checked little-endian reader over an untrusted payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                NetError::Proto(format!(
                    "truncated message: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, NetError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, NetError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, NetError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `u16`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, NetError> {
        let n = self.u16()? as usize;
        let b = self.take(n)?;
        std::str::from_utf8(b).map_err(|_| NetError::Proto("non-UTF-8 string field".into()))
    }

    /// All remaining bytes.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Error unless the whole payload was consumed.
    pub fn finish(self) -> Result<(), NetError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(NetError::Proto(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Handshake sent as the first frame of every connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The dialer's PE.
    pub pe: u32,
    /// Cluster size the dialer was configured with (must match).
    pub npes: u32,
    /// The dialer's recovery epoch; acceptors fence out older epochs.
    pub epoch: u64,
    /// Run nonce minted by the root; fences out crossed runs.
    pub nonce: u64,
    /// Port the dialer's own listener is bound to (its IP is taken from
    /// the connection), so the root can build the peer table.
    pub listen_port: u16,
}

impl Hello {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(26);
        out.extend_from_slice(&self.pe.to_le_bytes());
        out.extend_from_slice(&self.npes.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out.extend_from_slice(&self.listen_port.to_le_bytes());
        out
    }

    /// Decode from a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Hello, NetError> {
        let mut r = Reader::new(buf);
        let h = Hello {
            pe: r.u32()?,
            npes: r.u32()?,
            epoch: r.u64()?,
            nonce: r.u64()?,
            listen_port: r.u16()?,
        };
        r.finish()?;
        Ok(h)
    }
}

/// One row of the peer table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// The peer's PE.
    pub pe: u32,
    /// Epoch the root last admitted it under.
    pub epoch: u64,
    /// Its listener address.
    pub addr: SocketAddr,
}

/// The root's view of the mesh, broadcast after rendezvous and after every
/// readmission (survivors re-dial entries whose address or epoch changed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// The root's current epoch at broadcast time.
    pub epoch: u64,
    /// One entry per PE, root included.
    pub entries: Vec<TableEntry>,
}

impl Table {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.entries.len() * 32);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.pe.to_le_bytes());
            out.extend_from_slice(&e.epoch.to_le_bytes());
            put_str(&mut out, &e.addr.to_string());
        }
        out
    }

    /// Decode from a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Table, NetError> {
        let mut r = Reader::new(buf);
        let epoch = r.u64()?;
        let n = r.u32()? as usize;
        // A table can hold at most one entry per PE; anything bigger than
        // the payload could even represent is hostile.
        if n > buf.len() {
            return Err(NetError::Proto(format!("table claims {n} entries")));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let pe = r.u32()?;
            let epoch = r.u64()?;
            let addr = r
                .str()?
                .parse::<SocketAddr>()
                .map_err(|e| NetError::Proto(format!("bad table address: {e}")))?;
            entries.push(TableEntry { pe, epoch, addr });
        }
        r.finish()?;
        Ok(Table { epoch, entries })
    }
}

/// Restart notice: the root bumped the epoch after a peer failure; rebuild
/// per-incarnation state and restore from checkpoint `generation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restart {
    /// The new recovery epoch.
    pub epoch: u64,
    /// The checkpoint generation being restored.
    pub generation: u64,
}

impl Restart {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out
    }

    /// Decode from a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Restart, NetError> {
        let mut r = Reader::new(buf);
        let v = Restart {
            epoch: r.u64()?,
            generation: r.u64()?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// Prefix opaque bytes with the sending PE: the payload of a payload or
/// stats frame as a buffer of its own. The node builds that layout inside
/// the frame buffer instead (`frame::build`), or writes the prefix and the
/// bytes side by side (`frame::header_of`), so this and [`decode_from`]
/// serve callers that hold a bare payload.
pub fn encode_from(pe: u32, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&pe.to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Split a `src`-prefixed payload into `(src_pe, bytes)`.
pub fn decode_from(mut buf: Vec<u8>) -> Result<(u32, Vec<u8>), NetError> {
    if buf.len() < 4 {
        return Err(NetError::Proto(
            "payload shorter than its src prefix".into(),
        ));
    }
    let pe = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    // Shift in place: no second buffer.
    buf.copy_within(4.., 0);
    buf.truncate(buf.len() - 4);
    Ok((pe, buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trip() {
        let h = Hello {
            pe: 3,
            npes: 8,
            epoch: 2,
            nonce: 0xdead_beef_f00d_cafe,
            listen_port: 45231,
        };
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn hello_truncated_is_typed_error() {
        let h = Hello {
            pe: 1,
            npes: 4,
            epoch: 0,
            nonce: 7,
            listen_port: 1,
        };
        let bytes = h.encode();
        for cut in 0..bytes.len() {
            assert!(matches!(
                Hello::decode(&bytes[..cut]),
                Err(NetError::Proto(_))
            ));
        }
    }

    #[test]
    fn hello_trailing_bytes_rejected() {
        let mut bytes = Hello {
            pe: 1,
            npes: 4,
            epoch: 0,
            nonce: 7,
            listen_port: 1,
        }
        .encode();
        bytes.push(0);
        assert!(matches!(Hello::decode(&bytes), Err(NetError::Proto(_))));
    }

    #[test]
    fn table_round_trip() {
        let t = Table {
            epoch: 5,
            entries: vec![
                TableEntry {
                    pe: 0,
                    epoch: 5,
                    addr: "127.0.0.1:9000".parse().unwrap(),
                },
                TableEntry {
                    pe: 1,
                    epoch: 4,
                    addr: "[::1]:9001".parse().unwrap(),
                },
            ],
        };
        assert_eq!(Table::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn table_bad_addr_rejected() {
        let mut t = Table {
            epoch: 0,
            entries: vec![TableEntry {
                pe: 0,
                epoch: 0,
                addr: "127.0.0.1:1".parse().unwrap(),
            }],
        }
        .encode();
        // Corrupt the address string in place ("127." -> "xxx.").
        let pos = t.len() - "127.0.0.1:1".len();
        t[pos..pos + 3].copy_from_slice(b"xxx");
        assert!(matches!(Table::decode(&t), Err(NetError::Proto(_))));
    }

    #[test]
    fn table_hostile_count_rejected() {
        let mut out = Vec::new();
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Table::decode(&out), Err(NetError::Proto(_))));
    }

    #[test]
    fn restart_round_trip() {
        let m = Restart {
            epoch: 3,
            generation: 12,
        };
        assert_eq!(Restart::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn from_prefix_round_trip() {
        let (pe, bytes) = decode_from(encode_from(7, b"envelope")).unwrap();
        assert_eq!(pe, 7);
        assert_eq!(bytes, b"envelope");
        assert!(matches!(decode_from(vec![1, 2]), Err(NetError::Proto(_))));
    }
}
