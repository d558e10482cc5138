//! Task Bench dependency patterns (Slaughter et al.): pure, deterministic
//! functions describing which tasks of step `s+1` consume the output of
//! task `(s, i)`.
//!
//! Everything here is side-effect free and shared between the chare app,
//! the sequential oracle and the tests: the runtime never gets a chance to
//! disagree with the oracle about the graph.

use charm_wire::{splitmix64, wire_enum};

/// A Task Bench dependency pattern. The graph is `width` columns by
/// `steps` rows; edges always go from step `s` to step `s+1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Each column chains to itself — no cross-task communication. The
    /// floor: pure per-message scheduling overhead on the same-PE path.
    Trivial,
    /// 1-D stencil: column `i` feeds `{i-1, i, i+1}` clamped to the grid.
    Stencil,
    /// FFT butterfly: column `i` feeds itself and `i ^ (1 << (s % log2 w))`
    /// — the communication distance doubles every step.
    Fft,
    /// Seeded random fan-out: a self edge (keeps every column live) plus
    /// `fanout - 1` pseudo-random targets drawn per `(seed, step, column)`.
    Random,
    /// Binary tree: column `i` feeds its heap children `{2i+1, 2i+2}`;
    /// the root also feeds itself so every column has a producer.
    Tree,
}
wire_enum! { Pattern { Trivial, Stencil, Fft, Random, Tree } }

impl Pattern {
    /// All patterns, in the order the benches sweep them.
    pub const ALL: [Pattern; 5] = [
        Pattern::Trivial,
        Pattern::Stencil,
        Pattern::Fft,
        Pattern::Random,
        Pattern::Tree,
    ];

    /// Short display name (bench tables, CLI knobs).
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Trivial => "trivial",
            Pattern::Stencil => "stencil",
            Pattern::Fft => "fft",
            Pattern::Random => "random",
            Pattern::Tree => "tree",
        }
    }

    /// Parse a pattern from its [`name`](Pattern::name).
    pub fn parse(s: &str) -> Option<Pattern> {
        Pattern::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// The value task `(step, col)` produces from the wrapping sum `acc` of its
/// dependencies' values. Masked to 32 bits so a whole run's reduction sum
/// stays far from `i64` overflow.
pub fn task_value(seed: u64, step: u32, col: u32, acc: u64) -> u64 {
    splitmix64(seed ^ acc ^ ((step as u64) << 32) ^ col as u64) & 0xFFFF_FFFF
}

fn log2_floor(w: u32) -> u32 {
    31 - w.leading_zeros()
}

/// Call `f` with each column of step `step + 1` that consumes the output
/// of task `(step, col)`, in edge order. Duplicate targets are meaningful
/// (two messages).
pub fn for_each_dependent(
    pattern: Pattern,
    width: u32,
    step: u32,
    col: u32,
    seed: u64,
    fanout: u32,
    mut f: impl FnMut(u32),
) {
    debug_assert!(width >= 1 && col < width);
    match pattern {
        Pattern::Trivial => f(col),
        Pattern::Stencil => {
            if col > 0 {
                f(col - 1);
            }
            f(col);
            if col + 1 < width {
                f(col + 1);
            }
        }
        Pattern::Fft => {
            f(col);
            if width > 1 {
                let partner = col ^ (1 << (step % log2_floor(width).max(1)));
                if partner < width {
                    f(partner);
                }
            }
        }
        Pattern::Random => {
            f(col);
            for k in 1..fanout.max(1) {
                let draw = splitmix64(
                    seed ^ 0xA5A5_5A5A_0000_0000
                        ^ ((step as u64) << 40)
                        ^ ((col as u64) << 16)
                        ^ k as u64,
                );
                f((draw % width as u64) as u32);
            }
        }
        Pattern::Tree => {
            if col == 0 {
                f(0);
            }
            if 2 * col + 1 < width {
                f(2 * col + 1);
            }
            if 2 * col + 2 < width {
                f(2 * col + 2);
            }
        }
    }
}

/// The columns [`for_each_dependent`] visits, collected.
pub fn dependents(
    pattern: Pattern,
    width: u32,
    step: u32,
    col: u32,
    seed: u64,
    fanout: u32,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(fanout.max(3) as usize);
    for_each_dependent(pattern, width, step, col, seed, fanout, |d| out.push(d));
    out
}

/// How many messages task `(step, col)` expects from step `step - 1`
/// (counting multiplicity). Every pattern keeps this ≥ 1 for every column,
/// so the whole grid executes — `width × steps` tasks exactly.
pub fn indegree(pattern: Pattern, width: u32, step: u32, col: u32, seed: u64, fanout: u32) -> u32 {
    debug_assert!(step >= 1);
    let prev = step - 1;
    match pattern {
        // Cheap closed forms where the edge relation inverts trivially.
        Pattern::Trivial => 1,
        Pattern::Stencil => 1 + u32::from(col > 0) + u32::from(col + 1 < width),
        Pattern::Fft => {
            let mut n = 1;
            if width > 1 {
                let partner = col ^ (1 << (prev % log2_floor(width).max(1)));
                if partner < width {
                    n += 1;
                }
            }
            n
        }
        // Tree: every non-root column has exactly its heap parent (which
        // is on-grid whenever the column is); the root feeds itself.
        Pattern::Tree => 1,
        // Random has no closed inverse: count over the senders' draws, an
        // O(width · fanout) scan of hashes that touches no heap.
        Pattern::Random => {
            let mut n = 0;
            for src in 0..width {
                for_each_dependent(pattern, width, prev, src, seed, fanout, |d| {
                    n += u32::from(d == col);
                });
            }
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// For every pattern: dependents stay on the grid, the receiver-side
    /// expectation matches the sender-side edge multiset, and every column
    /// keeps at least one producer (the grid never stalls).
    #[test]
    fn indegree_matches_dependents_and_never_starves() {
        for pattern in Pattern::ALL {
            for width in [1u32, 2, 5, 8, 16] {
                for step in 0..4u32 {
                    let mut counted = vec![0u32; width as usize];
                    for col in 0..width {
                        for d in dependents(pattern, width, step, col, 7, 3) {
                            assert!(d < width, "{pattern:?} off-grid dependent");
                            counted[d as usize] += 1;
                        }
                    }
                    for col in 0..width {
                        let expect = indegree(pattern, width, step + 1, col, 7, 3);
                        assert_eq!(
                            counted[col as usize], expect,
                            "{pattern:?} w={width} s={step} col={col}"
                        );
                        assert!(expect >= 1, "{pattern:?} starves column {col}");
                    }
                }
            }
        }
    }

    #[test]
    fn random_pattern_is_seed_deterministic() {
        let a = dependents(Pattern::Random, 16, 3, 5, 42, 4);
        let b = dependents(Pattern::Random, 16, 3, 5, 42, 4);
        let c = dependents(Pattern::Random, 16, 3, 5, 43, 4);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds draw different targets");
        assert_eq!(a[0], 5, "self edge first");
    }

    #[test]
    fn task_value_is_masked_and_mixes() {
        let v = task_value(1, 2, 3, 4);
        assert!(v <= 0xFFFF_FFFF);
        assert_ne!(task_value(1, 2, 3, 4), task_value(1, 2, 3, 5));
        assert_ne!(task_value(1, 2, 3, 4), task_value(2, 2, 3, 4));
    }

    #[test]
    fn pattern_names_round_trip() {
        for p in Pattern::ALL {
            assert_eq!(Pattern::parse(p.name()), Some(p));
        }
        assert_eq!(Pattern::parse("nope"), None);
    }
}
