//! Stateless DPOR exploration over delivery schedules.
//!
//! The explorer owns no runtime state: each execution re-runs the program
//! from scratch through a caller-supplied closure that takes a prescribed
//! prefix of channel choices and returns the full delivery trace. A DFS
//! stack of per-state nodes (enabled set, backtrack set, sleep set, chosen
//! transition) records which alternatives still need exploring; races found
//! in each trace seed backtrack points à la Flanagan-Godefroid, and sleep
//! sets inherited down the stack prune re-orderings of independent steps.

use std::collections::BTreeSet;

use crate::shrink;
use crate::Chan;

/// One delivery step as reported by the runtime under exploration.
#[derive(Debug, Clone)]
pub struct StepInfo {
    /// The channel whose head message was delivered.
    pub chan: Chan,
    /// Channels with a deliverable head at this state, in default-priority
    /// order (index 0 is what the uncontrolled scheduler would pick). The
    /// chosen channel always appears in this list.
    pub enabled: Vec<Chan>,
    /// Sender's vector clock at the moment the message was shipped
    /// (one component per PE; all-zero for bootstrap/environment sends).
    pub send_clock: Vec<u64>,
    /// Receiver's vector clock *after* executing the delivery.
    pub clock_after: Vec<u64>,
}

/// The outcome of one controlled execution.
#[derive(Debug, Clone, Default)]
pub struct Execution {
    /// Every delivery, in order: the prescribed prefix followed by the
    /// default extension.
    pub steps: Vec<StepInfo>,
    /// `Some` when the final step ended the run by exiting the program
    /// (`None`: every queue drained): the channel heads still undelivered
    /// at that point, each with its sender's vector clock at ship time.
    /// Exit disables them, so each is a transition some other schedule
    /// takes and this one did not.
    pub exit: Option<Vec<(Chan, Vec<u64>)>>,
    /// A violation description (detector finding, panic, typed run error,
    /// oracle mismatch), if the execution failed.
    pub failure: Option<String>,
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct ExploreCfg {
    /// Stop (and set `truncated`) after this many executions. 0 = unlimited.
    pub max_executions: usize,
    /// Maximum total deviation from the default schedule, measured as the
    /// sum over decisions of the chosen channel's index in the enabled
    /// list. `None` = unbounded (full DPOR).
    pub delay_bound: Option<u64>,
    /// `true`: DPOR with sleep sets (backtrack only where races demand).
    /// `false`: naive enumeration of every enabled choice at every state —
    /// exponentially larger; exists so reports can quote both numbers.
    pub dpor: bool,
    /// Minimize a failing schedule with delta debugging before reporting.
    pub shrink: bool,
}

impl Default for ExploreCfg {
    fn default() -> Self {
        ExploreCfg {
            max_executions: 10_000,
            delay_bound: None,
            dpor: true,
            shrink: true,
        }
    }
}

/// A failing schedule, minimized if shrinking was enabled.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The failure message of the (shrunk) reproducing execution.
    pub failure: String,
    /// Channel choices that reproduce the failure when replayed with
    /// skip-if-disabled semantics.
    pub schedule: Vec<Chan>,
    /// Decision count of the schedule as first discovered, pre-shrink.
    pub original_len: usize,
    /// Extra executions spent by the shrinker.
    pub shrink_runs: u64,
}

/// Exploration summary.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Executions visited (shrink runs not included).
    pub executions: u64,
    /// Distinct Mazurkiewicz trace-equivalence classes seen, identified by
    /// a hash of per-PE delivery sequences.
    pub equivalence_classes: usize,
    /// True if `max_executions` or `delay_bound` cut exploration short —
    /// i.e. the state space was *not* exhausted.
    pub truncated: bool,
    /// First failure found, if any (exploration stops at the first one).
    pub counterexample: Option<Counterexample>,
}

/// Per-state DFS node.
struct Node {
    /// Choice currently being explored from this state.
    chosen: Chan,
    /// Enabled channels at this state, default-priority order.
    enabled: Vec<Chan>,
    /// Channels that must (still) be explored from this state.
    backtrack: BTreeSet<Chan>,
    /// Channels proven redundant here: inherited sleep set plus choices
    /// whose subtrees are already fully explored.
    sleep: BTreeSet<Chan>,
    /// Choices seen to end the run from this state. An exit disables every
    /// other transition, so it is independent of none of them.
    exits: BTreeSet<Chan>,
}

impl Node {
    /// Sleep set for the child state reached by taking `self.chosen`:
    /// sleeping transitions independent of the chosen one stay asleep —
    /// deliveries at other PEs, except an exit (dependent with everything:
    /// "exit, then the chosen step" is not an execution at all).
    fn child_sleep(&self) -> BTreeSet<Chan> {
        self.sleep
            .iter()
            .filter(|z| z.1 != self.chosen.1 && !self.exits.contains(z))
            .copied()
            .collect()
    }
}

/// Did delivery step `j` happen-before the *send* of a message shipped
/// with `send_clock`? Step `j` executed at PE `dj`; its per-PE clock
/// component after executing is `clock_after[dj]`. The send saw it iff the
/// sender's clock already includes that component.
fn hb_step_to_send(step_j: &StepInfo, send_clock: &[u64]) -> bool {
    let dj = step_j.chan.1;
    match (step_j.clock_after.get(dj), send_clock.get(dj)) {
        (Some(a), Some(s)) => s >= a,
        _ => false,
    }
}

/// State `node` must also try `chan`, or — if `chan` had no deliverable
/// head there (its message was still in flight) — conservatively every
/// alternative.
fn seed_backtrack(node: &mut Node, chan: Chan) {
    if node.enabled.contains(&chan) {
        node.backtrack.insert(chan);
    } else {
        let all: Vec<Chan> = node.enabled.clone();
        node.backtrack.extend(all);
    }
}

/// Mazurkiewicz class key: FNV-1a over the per-PE sequences of
/// `(src, k-th message on that channel)`. Executions that only permute
/// deliveries across different PEs hash identically.
fn class_key(steps: &[StepInfo]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let npes = steps
        .iter()
        .map(|s| s.chan.1 + 1)
        .max()
        .unwrap_or(1)
        .max(steps.iter().map(|s| s.chan.0 + 1).max().unwrap_or(1));
    let mut per_pe = vec![FNV_OFFSET; npes];
    let mut chan_seq: std::collections::BTreeMap<Chan, u64> = std::collections::BTreeMap::new();
    for s in steps {
        let k = chan_seq.entry(s.chan).or_insert(0);
        let dst = s.chan.1;
        for byte in s
            .chan
            .0
            .to_le_bytes()
            .into_iter()
            .chain(k.to_le_bytes())
            .chain([0xfe])
        {
            per_pe[dst] = (per_pe[dst] ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        *k += 1;
    }
    // Combine per-PE streams order-independently across PEs (each stream is
    // already salted by src/seq content; mix in the PE index).
    let mut key = 0u64;
    for (pe, h) in per_pe.iter().enumerate() {
        key ^= h.wrapping_mul((pe as u64).wrapping_mul(FNV_PRIME) | 1);
    }
    key
}

/// Explore all schedules of the program behind `run`, up to happens-before
/// equivalence (or exhaustively when `cfg.dpor` is false).
///
/// `run(prefix)` must re-execute the program from its initial state,
/// delivering messages per `prefix` (skipping a prescribed channel that has
/// no pending message) and then extending with the default schedule until
/// completion. Exploration stops at the first failing execution; the
/// failing schedule is minimized with [`shrink::ddmin`] when `cfg.shrink`
/// is set.
pub fn explore<F>(cfg: &ExploreCfg, mut run: F) -> Report
where
    F: FnMut(&[Chan]) -> Execution,
{
    let mut report = Report::default();
    let mut classes: BTreeSet<u64> = BTreeSet::new();
    let mut stack: Vec<Node> = Vec::new();

    let mut exec = run(&[]);
    report.executions = 1;

    loop {
        classes.insert(class_key(&exec.steps));
        report.equivalence_classes = classes.len();

        if let Some(failure) = exec.failure.clone() {
            let schedule: Vec<Chan> = exec.steps.iter().map(|s| s.chan).collect();
            let original_len = schedule.len();
            let mut shrink_runs = 0u64;
            let (schedule, failure) = if cfg.shrink {
                let reduced = shrink::ddmin(&schedule, |cand| {
                    shrink_runs += 1;
                    run(cand).failure.is_some()
                });
                let final_failure = run(&reduced).failure.unwrap_or_else(|| failure.clone());
                shrink_runs += 1;
                (reduced, final_failure)
            } else {
                (schedule, failure)
            };
            report.counterexample = Some(Counterexample {
                failure,
                schedule,
                original_len,
                shrink_runs,
            });
            return report;
        }

        // Grow the stack with nodes for the fresh suffix of this execution.
        while stack.len() < exec.steps.len() {
            let i = stack.len();
            let step = &exec.steps[i];
            let sleep = if i == 0 {
                BTreeSet::new()
            } else if cfg.dpor {
                stack[i - 1].child_sleep()
            } else {
                BTreeSet::new()
            };
            let backtrack = if cfg.dpor {
                BTreeSet::new()
            } else {
                step.enabled.iter().copied().collect()
            };
            stack.push(Node {
                chosen: step.chan,
                enabled: step.enabled.clone(),
                backtrack,
                sleep,
                exits: BTreeSet::new(),
            });
        }
        if let (Some(last), Some(_)) = (stack.last_mut(), &exec.exit) {
            last.exits.insert(last.chosen);
        }

        // Seed backtrack points from races: for each step i, the *last*
        // earlier dependent delivery on a different channel that is not
        // happens-before the send of i's message is a race — some
        // interleaving delivers i's message first, so state j must also try
        // i's channel (or, if it is not yet enabled there, everything).
        // Deliveries depend on each other when they share a PE; the exit
        // step disables every channel, so it depends on all of them.
        if cfg.dpor {
            let exit_step = exec.exit.as_ref().and(exec.steps.len().checked_sub(1));
            for i in 0..exec.steps.len() {
                let (dst_i, chan_i) = (exec.steps[i].chan.1, exec.steps[i].chan);
                let race = (0..i).rev().find(|&j| {
                    (exec.steps[j].chan.1 == dst_i || Some(i) == exit_step)
                        && exec.steps[j].chan != chan_i
                        && !hb_step_to_send(&exec.steps[j], &exec.steps[i].send_clock)
                });
                if let Some(j) = race {
                    seed_backtrack(&mut stack[j], chan_i);
                }
            }
            // A message stranded by the exit races with the exit itself
            // unless the exit handler sent it: some schedule delivers it
            // first. Once it is a delivered step, the loop above finds its
            // same-PE races.
            if let (Some(last), Some(stranded)) = (exit_step, &exec.exit) {
                for (chan, send_clock) in stranded {
                    if !hb_step_to_send(&exec.steps[last], send_clock) {
                        seed_backtrack(&mut stack[last], *chan);
                    }
                }
            }
        }

        // Backtrack: retire finished subtrees until a state still owes us an
        // unexplored, non-sleeping choice.
        let mut next: Option<(usize, Chan)> = None;
        while !stack.is_empty() {
            let j = stack.len() - 1;
            let chosen = stack[j].chosen;
            stack[j].sleep.insert(chosen);
            // Deviation cost of the path *above* this state; fixed for the
            // lifetime of node j (ancestors' choices only change after j is
            // truncated away).
            let path: u64 = stack[..j]
                .iter()
                .map(|n| n.enabled.iter().position(|c| *c == n.chosen).unwrap_or(0) as u64)
                .sum();
            let candidates: Vec<Chan> = stack[j]
                .backtrack
                .iter()
                .filter(|b| !stack[j].sleep.contains(*b))
                .copied()
                .collect();
            let mut picked = None;
            for b in candidates {
                if let Some(bound) = cfg.delay_bound {
                    let idx = stack[j]
                        .enabled
                        .iter()
                        .position(|c| *c == b)
                        .unwrap_or(stack[j].enabled.len()) as u64;
                    if path + idx > bound {
                        // Over budget at this state, permanently: prune.
                        report.truncated = true;
                        stack[j].sleep.insert(b);
                        continue;
                    }
                }
                picked = Some(b);
                break;
            }
            if let Some(b) = picked {
                next = Some((j, b));
                break;
            }
            stack.pop();
        }

        let Some((j, b)) = next else {
            // Every state exhausted: the space is fully explored.
            return report;
        };

        if cfg.max_executions != 0 && report.executions as usize >= cfg.max_executions {
            report.truncated = true;
            return report;
        }

        stack[j].chosen = b;
        stack.truncate(j + 1);
        let prefix: Vec<Chan> = stack.iter().map(|n| n.chosen).collect();
        exec = run(&prefix);
        report.executions += 1;

        // The prescribed prefix must replay verbatim (every choice came
        // from an enabled set of the same state).
        debug_assert!(
            exec.steps.len() >= prefix.len()
                && exec.steps.iter().zip(&prefix).all(|(s, c)| s.chan == *c),
            "controlled replay diverged from prescribed prefix"
        );
        // Drop stale deep nodes; they will be rebuilt from the new trace.
        stack.truncate(j + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy message machine: channels carry abstract messages; delivering
    /// message `k` on channel `c` may trigger sends on other channels
    /// (effects). Vector clocks follow the runtime's Detector rules.
    struct Toy {
        npes: usize,
        /// (chan, k-th message on chan) -> channels to send on.
        effects: Vec<((Chan, usize), Vec<Chan>)>,
        /// Initial in-flight messages (environment sends, zero clocks).
        initial: Vec<Chan>,
        /// Failure predicate over the delivered (chan, k) sequence.
        fail: fn(&[(Chan, usize)]) -> Option<String>,
        /// Delivering this (chan, k) ends the run with whatever is still
        /// pending left undelivered (the program called `exit`).
        exit_on: Option<(Chan, usize)>,
    }

    struct Pending {
        send_clock: Vec<u64>,
        seq: u64,
    }

    impl Toy {
        fn run(&self, prefix: &[Chan]) -> Execution {
            use std::collections::BTreeMap;
            let mut clocks = vec![vec![0u64; self.npes]; self.npes];
            let mut pending: BTreeMap<Chan, std::collections::VecDeque<Pending>> = BTreeMap::new();
            let mut ship_seq = 0u64;
            for &c in &self.initial {
                pending.entry(c).or_default().push_back(Pending {
                    send_clock: vec![0; self.npes],
                    seq: ship_seq,
                });
                ship_seq += 1;
            }
            let mut delivered: Vec<(Chan, usize)> = Vec::new();
            let mut chan_count: BTreeMap<Chan, usize> = BTreeMap::new();
            let mut steps = Vec::new();
            let mut prefix_iter = prefix.iter().copied();
            let mut exit = None;
            loop {
                // Enabled channels: those with pending messages, default
                // priority = smallest front seq (FIFO arrival order).
                let mut enabled: Vec<(u64, Chan)> = pending
                    .iter()
                    .filter(|(_, q)| !q.is_empty())
                    .map(|(c, q)| (q.front().unwrap().seq, *c))
                    .collect();
                if enabled.is_empty() {
                    break;
                }
                enabled.sort();
                let enabled: Vec<Chan> = enabled.into_iter().map(|(_, c)| c).collect();
                let chosen = loop {
                    match prefix_iter.next() {
                        Some(c) if enabled.contains(&c) => break c,
                        Some(_) => continue, // skip-if-disabled
                        None => break enabled[0],
                    }
                };
                let msg = pending.get_mut(&chosen).unwrap().pop_front().unwrap();
                let dst = chosen.1;
                for (c, m) in clocks[dst].iter_mut().zip(&msg.send_clock) {
                    *c = (*c).max(*m);
                }
                clocks[dst][dst] += 1;
                let k = *chan_count.entry(chosen).or_insert(0);
                *chan_count.get_mut(&chosen).unwrap() += 1;
                delivered.push((chosen, k));
                for &((ec, ek), ref sends) in &self.effects {
                    if ec == chosen && ek == k {
                        for &s in sends {
                            pending.entry(s).or_default().push_back(Pending {
                                send_clock: clocks[dst].clone(),
                                seq: ship_seq,
                            });
                            ship_seq += 1;
                        }
                    }
                }
                steps.push(StepInfo {
                    chan: chosen,
                    enabled,
                    send_clock: msg.send_clock,
                    clock_after: clocks[dst].clone(),
                });
                if self.exit_on == Some((chosen, k)) {
                    exit = Some(
                        pending
                            .iter()
                            .filter_map(|(c, q)| q.front().map(|m| (*c, m.send_clock.clone())))
                            .collect(),
                    );
                    break;
                }
            }
            Execution {
                steps,
                exit,
                failure: (self.fail)(&delivered),
            }
        }
    }

    fn no_fail(_: &[(Chan, usize)]) -> Option<String> {
        None
    }

    /// Four independent one-shot messages, two per destination PE: naive
    /// enumeration visits 4! = 24 interleavings, but only the relative
    /// order at each PE matters (2 × 2 = 4 classes).
    fn two_by_two() -> Toy {
        Toy {
            npes: 3,
            effects: vec![],
            initial: vec![(0, 1), (2, 1), (0, 2), (1, 2)],
            fail: no_fail,
            exit_on: None,
        }
    }

    #[test]
    fn naive_enumerates_all_interleavings() {
        let toy = two_by_two();
        let cfg = ExploreCfg {
            dpor: false,
            ..Default::default()
        };
        let report = explore(&cfg, |p| toy.run(p));
        assert_eq!(report.executions, 24);
        assert_eq!(report.equivalence_classes, 4);
        assert!(!report.truncated);
        assert!(report.counterexample.is_none());
    }

    #[test]
    fn dpor_visits_fewer_executions_same_classes() {
        let toy = two_by_two();
        let report = explore(&ExploreCfg::default(), |p| toy.run(p));
        assert!(
            report.executions < 24,
            "DPOR should beat naive 24, got {}",
            report.executions
        );
        assert_eq!(report.equivalence_classes, 4);
        assert!(!report.truncated);
    }

    #[test]
    fn causality_prunes_ordered_pairs() {
        // env -> PE1 (channel (0,1)); its handler sends PE2 (channel (1,2));
        // env also sends PE2 directly (channel (0,2)). Only the (1,2) vs
        // (0,2) order at PE2 is a real race: 2 classes.
        let toy = Toy {
            npes: 3,
            effects: vec![(((0, 1), 0), vec![(1, 2)])],
            initial: vec![(0, 1), (0, 2)],
            fail: no_fail,
            exit_on: None,
        };
        let report = explore(&ExploreCfg::default(), |p| toy.run(p));
        assert_eq!(report.equivalence_classes, 2);
        assert!(!report.truncated);
    }

    /// PE 0 exits on its second self-message while PE 1 and PE 2 each
    /// have a message in flight to it (one of them the reply to a request
    /// PE 0's first step made): which of them land before the exit is
    /// part of the class, and DPOR must find every class naive does.
    #[test]
    fn early_exit_strands_messages_dpor_still_covers_every_class() {
        let toy = Toy {
            npes: 3,
            effects: vec![
                (((0, 0), 0), vec![(0, 1), (0, 0)]),
                (((0, 1), 0), vec![(1, 0)]),
            ],
            initial: vec![(0, 0), (2, 0), (2, 1)],
            fail: no_fail,
            exit_on: Some(((0, 0), 1)),
        };
        let naive = explore(
            &ExploreCfg {
                dpor: false,
                ..Default::default()
            },
            |p| toy.run(p),
        );
        let dpor = explore(&ExploreCfg::default(), |p| toy.run(p));
        assert!(!naive.truncated && !dpor.truncated);
        assert!(naive.equivalence_classes > 2, "{naive:?}");
        assert_eq!(dpor.equivalence_classes, naive.equivalence_classes);
        assert!(dpor.executions <= naive.executions);
    }

    #[test]
    fn finds_and_shrinks_ordering_bug() {
        // Failure iff channel (2,0)'s message lands before (1,0)'s, buried
        // among six irrelevant messages to other PEs.
        fn fail(d: &[(Chan, usize)]) -> Option<String> {
            let pos = |c: Chan| d.iter().position(|(x, _)| *x == c);
            match (pos((2, 0)), pos((1, 0))) {
                (Some(a), Some(b)) if a < b => Some("late-joiner overtook".into()),
                _ => None,
            }
        }
        let toy = Toy {
            npes: 4,
            effects: vec![],
            initial: vec![
                (1, 0),
                (2, 0),
                (0, 1),
                (2, 1),
                (0, 2),
                (1, 2),
                (0, 3),
                (1, 3),
            ],
            fail,
            exit_on: None,
        };
        let report = explore(&ExploreCfg::default(), |p| toy.run(p));
        let cx = report.counterexample.expect("bug must be found");
        assert!(cx.failure.contains("overtook"));
        assert!(
            cx.schedule.len() <= 2,
            "ddmin should shrink to <= 2 decisions, got {:?}",
            cx.schedule
        );
        // The shrunk schedule must still reproduce under replay semantics.
        assert!(toy.run(&cx.schedule).failure.is_some());
    }

    #[test]
    fn delay_bound_truncates() {
        let toy = two_by_two();
        let cfg = ExploreCfg {
            delay_bound: Some(1),
            ..Default::default()
        };
        let report = explore(&cfg, |p| toy.run(p));
        assert!(report.truncated, "tight delay bound must truncate");
        assert!(report.executions >= 1);
    }

    #[test]
    fn max_executions_truncates() {
        let toy = two_by_two();
        let cfg = ExploreCfg {
            max_executions: 3,
            dpor: false,
            ..Default::default()
        };
        let report = explore(&cfg, |p| toy.run(p));
        assert!(report.truncated);
        assert_eq!(report.executions, 3);
    }

    #[test]
    fn single_channel_is_deterministic() {
        let toy = Toy {
            npes: 2,
            effects: vec![],
            initial: vec![(0, 1), (0, 1), (0, 1)],
            fail: no_fail,
            exit_on: None,
        };
        let report = explore(&ExploreCfg::default(), |p| toy.run(p));
        assert_eq!(report.executions, 1);
        assert_eq!(report.equivalence_classes, 1);
        assert!(!report.truncated);
    }
}
