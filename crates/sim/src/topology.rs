//! Network topologies for hop-count latency modeling.
//!
//! The paper's machines are a Cray XE with a 3D torus (Blue Waters) and a
//! Cray XC40 with a dragonfly interconnect (Cori). The simulated backend
//! charges per-hop latency from these models; the reduction framework also
//! uses hop counts when building topology-aware spanning trees (§IV-D).

/// Interconnect topology over *nodes* (PEs map to nodes elsewhere).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Every pair of distinct nodes is one hop apart.
    Flat,
    /// 3D torus with the given dimensions; hops are wrapped Manhattan
    /// distance. `dims` must all be non-zero.
    Torus3D {
        /// Extent of the torus in each dimension.
        dims: [usize; 3],
    },
    /// Two-level dragonfly approximation: nodes within one group are 1 hop
    /// apart, nodes in different groups are 3 (local–global–local).
    Dragonfly {
        /// Number of nodes per group. Must be non-zero.
        group_size: usize,
    },
}

impl Topology {
    /// Coordinates of `node` in a 3D torus.
    fn torus_coords(dims: [usize; 3], node: usize) -> [usize; 3] {
        [
            node % dims[0],
            (node / dims[0]) % dims[1],
            (node / (dims[0] * dims[1])) % dims[2],
        ]
    }

    /// Wrapped per-dimension distance on a ring of length `n`.
    fn ring_dist(a: usize, b: usize, n: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(n - d)
    }

    /// Number of network hops between two nodes. Zero when equal.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        if a == b {
            return 0;
        }
        match *self {
            Topology::Flat => 1,
            Topology::Torus3D { dims } => {
                let ca = Self::torus_coords(dims, a);
                let cb = Self::torus_coords(dims, b);
                (0..3)
                    .map(|i| Self::ring_dist(ca[i], cb[i], dims[i]))
                    .sum::<usize>()
                    .max(1)
            }
            Topology::Dragonfly { group_size } => {
                let g = group_size.max(1);
                if a / g == b / g {
                    1
                } else {
                    3
                }
            }
        }
    }

    /// Total node count this topology describes, if bounded (`Flat` and
    /// `Dragonfly` are unbounded).
    pub fn node_count(&self) -> Option<usize> {
        match *self {
            Topology::Torus3D { dims } => Some(dims[0] * dims[1] * dims[2]),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_hops() {
        let t = Topology::Flat;
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 99), 1);
        assert_eq!(t.hops(99, 0), 1);
    }

    #[test]
    fn torus_adjacent_and_wrap() {
        let t = Topology::Torus3D { dims: [4, 4, 4] };
        assert_eq!(t.hops(0, 1), 1); // +x neighbor
        assert_eq!(t.hops(0, 3), 1); // wraps around the x ring
        assert_eq!(t.hops(0, 4), 1); // +y neighbor
        assert_eq!(t.hops(0, 16), 1); // +z neighbor
                                      // Opposite corner of a 4-ring in each dim: 2+2+2.
        assert_eq!(t.hops(0, 2 + 2 * 4 + 2 * 16), 6);
    }

    #[test]
    fn torus_symmetry() {
        let t = Topology::Torus3D { dims: [3, 5, 2] };
        for a in 0..30 {
            for b in 0..30 {
                assert_eq!(t.hops(a, b), t.hops(b, a), "{a} vs {b}");
                if a == b {
                    assert_eq!(t.hops(a, b), 0);
                } else {
                    assert!(t.hops(a, b) >= 1);
                }
            }
        }
    }

    #[test]
    fn dragonfly_groups() {
        let t = Topology::Dragonfly { group_size: 8 };
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 8), 3);
        assert_eq!(t.hops(15, 16), 3);
        assert_eq!(t.hops(9, 9), 0);
    }

    #[test]
    fn torus_node_count() {
        assert_eq!(Topology::Torus3D { dims: [4, 3, 2] }.node_count(), Some(24));
        assert_eq!(Topology::Flat.node_count(), None);
    }
}
