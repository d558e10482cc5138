//! Machine model: turns (src, dst, size) into message delays and prices the
//! interpreter overhead of the dynamic (CharmPy-like) dispatch mode.
//!
//! This is the substitution for the paper's physical testbeds (Blue Waters
//! and Cori): the simulated backend charges virtual time from this model
//! instead of running on Cray hardware. Parameters are rough public numbers
//! for the two machines; the figures reproduced from them depend on the
//! *relationships* (latency vs bandwidth vs compute), not the absolute
//! values.

use std::time::Duration;

use crate::topology::Topology;

/// Cost parameters of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// PEs per node; PEs `[k*cpn, (k+1)*cpn)` share node `k`.
    pub cores_per_node: usize,
    /// Interconnect topology over nodes.
    pub topology: Topology,
    /// Fixed software+NIC cost per off-node message (the α term), ns.
    pub base_latency_ns: u64,
    /// Extra latency per network hop beyond the first, ns.
    pub per_hop_ns: u64,
    /// Latency of an intra-node (shared-memory) message, ns.
    pub same_node_latency_ns: u64,
    /// Link bandwidth in bytes per nanosecond (1.0 = 1 GB/s).
    pub bytes_per_ns: f64,
    /// Dynamic-dispatch mode: fixed interpreter cost charged per entry
    /// method invocation (attribute lookup, frame setup — the cost CharmPy
    /// pays to run each entry method in Python), ns.
    pub py_entry_overhead_ns: u64,
    /// Dynamic-dispatch mode: per-payload-byte interpreter cost in
    /// picoseconds (header parsing, argument unpacking in Python).
    pub py_byte_overhead_ps: u64,
}

impl MachineModel {
    /// Node index hosting `pe`.
    #[inline]
    pub fn node_of(&self, pe: usize) -> usize {
        pe / self.cores_per_node.max(1)
    }

    /// Network delay for a `bytes`-byte message from `src` PE to `dst` PE.
    ///
    /// Same-PE messages are free here (the runtime bypasses the network for
    /// them entirely — the paper's §II-D optimization).
    ///
    /// This prices one *envelope*, whatever it carries: a TRAM aggregation
    /// batch (`Runtime::aggregation`) therefore pays the fixed per-message
    /// latency once for the whole frame plus bandwidth on the total frame
    /// bytes — which is exactly the modeled benefit of coalescing; the
    /// receiver then pays per-constituent unpack cost when it splits the
    /// frame.
    pub fn msg_delay(&self, src: usize, dst: usize, bytes: usize) -> Duration {
        if src == dst {
            return Duration::ZERO;
        }
        let (na, nb) = (self.node_of(src), self.node_of(dst));
        let fixed_ns = if na == nb {
            self.same_node_latency_ns
        } else {
            let hops = self.topology.hops(na, nb) as u64;
            self.base_latency_ns + self.per_hop_ns * hops.saturating_sub(1)
        };
        let transfer_ns = if self.bytes_per_ns > 0.0 {
            (bytes as f64 / self.bytes_per_ns) as u64
        } else {
            0
        };
        Duration::from_nanos(fixed_ns + transfer_ns)
    }

    /// Interpreter overhead charged per entry-method delivery in dynamic
    /// dispatch mode for a `bytes`-byte payload. Zero-sized in native mode
    /// (the runtime simply does not call this).
    pub fn dynamic_overhead(&self, bytes: usize) -> Duration {
        let ps = (bytes as u64).saturating_mul(self.py_byte_overhead_ps);
        Duration::from_nanos(self.py_entry_overhead_ns + ps / 1000)
    }

    /// Blue Waters-like: Cray XE6, 3D torus (Gemini), 32 cores/node.
    pub fn bluewaters(nodes_hint: usize) -> Self {
        // Pick torus dimensions that cover at least `nodes_hint` nodes.
        let d = (nodes_hint.max(1) as f64).cbrt().ceil() as usize;
        MachineModel {
            cores_per_node: 32,
            topology: Topology::Torus3D {
                dims: [d.max(1), d.max(1), d.max(1)],
            },
            base_latency_ns: 1_500,
            per_hop_ns: 100,
            same_node_latency_ns: 400,
            bytes_per_ns: 6.0, // ~6 GB/s per direction on Gemini
            py_entry_overhead_ns: 4_000,
            py_byte_overhead_ps: 40,
        }
    }

    /// Cori-like: Cray XC40, dragonfly (Aries), KNL nodes (64 usable cores).
    pub fn cori_knl() -> Self {
        MachineModel {
            cores_per_node: 64,
            topology: Topology::Dragonfly { group_size: 384 },
            base_latency_ns: 1_200,
            per_hop_ns: 150,
            same_node_latency_ns: 600, // KNL cores are slow; on-node msgs too
            bytes_per_ns: 8.0,
            py_entry_overhead_ns: 12_000, // KNL single-thread Python is slower
            py_byte_overhead_ps: 100,
        }
    }

    /// Single shared-memory node (laptop-scale), flat topology.
    pub fn local(cores: usize) -> Self {
        MachineModel {
            cores_per_node: cores.max(1),
            topology: Topology::Flat,
            base_latency_ns: 500,
            per_hop_ns: 0,
            same_node_latency_ns: 300,
            bytes_per_ns: 12.0,
            py_entry_overhead_ns: 8_000,
            py_byte_overhead_ps: 40,
        }
    }

    /// An idealized zero-latency machine, useful in unit tests where only
    /// event ordering matters.
    pub fn instant() -> Self {
        MachineModel {
            cores_per_node: 1,
            topology: Topology::Flat,
            base_latency_ns: 0,
            per_hop_ns: 0,
            same_node_latency_ns: 0,
            bytes_per_ns: 0.0,
            py_entry_overhead_ns: 0,
            py_byte_overhead_ps: 0,
        }
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel::local(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_pe_is_free() {
        let m = MachineModel::bluewaters(64);
        assert_eq!(m.msg_delay(5, 5, 1 << 20), Duration::ZERO);
    }

    #[test]
    fn same_node_cheaper_than_cross_node() {
        let m = MachineModel::bluewaters(64);
        // PEs 0 and 1 share node 0; PE 32 is on node 1.
        let near = m.msg_delay(0, 1, 1024);
        let far = m.msg_delay(0, 32, 1024);
        assert!(near < far, "near={near:?} far={far:?}");
    }

    #[test]
    fn delay_monotone_in_size() {
        let m = MachineModel::cori_knl();
        let small = m.msg_delay(0, 200, 64);
        let large = m.msg_delay(0, 200, 1 << 20);
        assert!(small < large);
    }

    #[test]
    fn delay_monotone_in_hops_on_torus() {
        let m = MachineModel::bluewaters(512); // 8x8x8 torus
        let cpn = m.cores_per_node;
        let one_hop = m.msg_delay(0, cpn, 0); // node 0 -> node 1
        let many_hops = m.msg_delay(0, cpn * (4 + 4 * 8 + 4 * 64), 0); // opposite corner
        assert!(one_hop < many_hops, "{one_hop:?} vs {many_hops:?}");
    }

    #[test]
    fn dynamic_overhead_grows_with_payload() {
        let m = MachineModel::local(4);
        let d0 = m.dynamic_overhead(0);
        let d1 = m.dynamic_overhead(1 << 20);
        assert_eq!(d0, Duration::from_nanos(m.py_entry_overhead_ns));
        assert!(d1 > d0);
    }

    #[test]
    fn instant_model_is_all_zero() {
        let m = MachineModel::instant();
        assert_eq!(m.msg_delay(0, 1, 12345), Duration::ZERO);
        assert_eq!(m.dynamic_overhead(12345), Duration::ZERO);
    }

    #[test]
    fn node_mapping() {
        let m = MachineModel::bluewaters(8);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(31), 0);
        assert_eq!(m.node_of(32), 1);
        assert_eq!(m.node_of(95), 2);
    }
}
