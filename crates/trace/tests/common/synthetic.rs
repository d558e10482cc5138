//! Seeded synthetic trace data for the pin suites (`tests/pins.rs` here and
//! in `charm-perf`, which includes this file by path). Built through the
//! public API only, so one generator serves both crates; change it and
//! every pin moves.

// An `expect` would fail in the includers that happen to use all of it.
#![allow(dead_code, reason = "each includer uses a different part of it")]

use charm_trace::{
    EntryKind, EntryStat, EntrySummary, Event, EventKind, Hist, MetricFrame, PePerf, PeSummary,
    PeTrace, SummaryBin, TopItem, TraceReport,
};

/// splitmix64: tiny deterministic PRNG, no dependencies.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A value whose magnitude spans many octaves.
    pub fn wide(&mut self) -> u64 {
        let shift = self.below(48) as u32;
        self.next() >> (16 + shift)
    }
}

/// FNV-1a over bytes: the fingerprint of a text too long to pin verbatim.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut d = charm_trace::fnv::Fnv::new();
    bytes.iter().for_each(|&b| d.eat(b));
    d.finish()
}

/// Quote, backslash, control bytes (short and `\u` escapes), non-ASCII.
pub const NASTY: &str = "q\"b\\n\nt\tr\rc\u{1}\u{1f} π 😀 <T>";

const KINDS: [EntryKind; 5] = [
    EntryKind::Construct,
    EntryKind::Receive,
    EntryKind::Reduced,
    EntryKind::ResumeFromSync,
    EntryKind::Coroutine,
];

/// One event of every shape the Chrome exporter distinguishes, in a fixed
/// order: paired and orphan begin/end of both span kinds, every instant,
/// both `LbEpoch` cases (duration inside and past the clock), the nasty
/// mark.
fn every_kind(ts: &mut u64) -> Vec<Event> {
    let entry = |ctype, kind| EventKind::EntryBegin { ctype, kind };
    let end = |ctype, kind| EventKind::EntryEnd { ctype, kind };
    let kinds = vec![
        // A ring cut leaves an orphan end first.
        end(0, EntryKind::Receive),
        EventKind::IdleEnd,
        entry(0, EntryKind::Receive),
        end(0, EntryKind::Receive),
        // Begin whose end names another entry: both go out as instants.
        entry(1, EntryKind::Reduced),
        end(1, EntryKind::Coroutine),
        // A chare type the entry table does not name.
        entry(9, EntryKind::Construct),
        end(9, EntryKind::Construct),
        EventKind::IdleBegin,
        EventKind::IdleEnd,
        EventKind::IdleBegin,
        EventKind::MsgSend {
            bytes: 4_096,
            remote: true,
        },
        EventKind::MsgSend {
            bytes: 0,
            remote: false,
        },
        EventKind::MsgRecv { bytes: u32::MAX },
        EventKind::BatchFlush {
            msgs: 64,
            bytes: 65_536,
        },
        EventKind::GuardBuffer { depth: 3 },
        EventKind::GuardDrain { depth: 2 },
        EventKind::RedContribute,
        EventKind::RedDeliver,
        EventKind::BcastFanout {
            children: 4,
            members: 1_000,
        },
        EventKind::MigrateOut { bytes: 777 },
        EventKind::MigrateIn { bytes: 778 },
        EventKind::LbEpoch { dur_ns: 1_500 },
        EventKind::LbEpoch { dur_ns: u64::MAX },
        EventKind::Ckpt { bytes: 1 << 40 },
        EventKind::Recovery { epoch: 2 },
        EventKind::StaleDrop,
        EventKind::Mark {
            label: NASTY.to_string(),
        },
        EventKind::Mark {
            label: String::new(),
        },
        entry(2, EntryKind::ResumeFromSync),
    ];
    kinds
        .into_iter()
        .map(|kind| {
            *ts += 1_001;
            Event { ts_ns: *ts, kind }
        })
        .collect()
}

/// A seeded stream: mostly paired entry spans and message instants, as a
/// scheduler records them, with timestamps that end past 2^53 ns so the
/// microsecond formatter meets every magnitude.
fn seeded_events(rng: &mut SplitMix64, n: usize, ts: &mut u64) -> Vec<Event> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let step = if out.len() * 8 > n * 7 {
            rng.next() >> (8 + rng.below(40))
        } else {
            rng.below(50_000)
        };
        *ts = ts.saturating_add(step);
        let ctype = rng.below(5) as u32;
        let kind = KINDS[rng.below(5) as usize];
        match rng.below(8) {
            0..=3 => {
                out.push(Event {
                    ts_ns: *ts,
                    kind: EventKind::EntryBegin { ctype, kind },
                });
                *ts = ts.saturating_add(rng.below(90_000));
                out.push(Event {
                    ts_ns: *ts,
                    kind: EventKind::EntryEnd { ctype, kind },
                });
            }
            4 => {
                out.push(Event {
                    ts_ns: *ts,
                    kind: EventKind::IdleBegin,
                });
                *ts = ts.saturating_add(rng.below(300_000));
                out.push(Event {
                    ts_ns: *ts,
                    kind: EventKind::IdleEnd,
                });
            }
            5 => out.push(Event {
                ts_ns: *ts,
                kind: EventKind::MsgSend {
                    bytes: rng.below(1 << 20) as u32,
                    remote: rng.below(4) != 0,
                },
            }),
            6 => out.push(Event {
                ts_ns: *ts,
                kind: EventKind::MsgRecv {
                    bytes: rng.below(1 << 20) as u32,
                },
            }),
            _ => out.push(Event {
                ts_ns: *ts,
                kind: EventKind::LbEpoch {
                    dur_ns: rng.below(1_000_000),
                },
            }),
        }
    }
    out
}

fn entry_stat(rng: &mut SplitMix64, calls: usize) -> EntryStat {
    let mut s = EntryStat::default();
    for _ in 0..calls {
        s.record(rng.wide());
    }
    s
}

fn summary(rng: &mut SplitMix64, bins: usize) -> PeSummary {
    PeSummary {
        quantum_ns: 1_000_000 << rng.below(4),
        merges: rng.below(4) as u32,
        bins: (0..bins)
            .map(|_| SummaryBin {
                busy_ns: rng.below(1_000_000),
                idle_ns: rng.below(1_000_000),
                overhead_ns: rng.below(100_000),
                entries: rng.below(500),
                msgs: rng.below(500),
                bytes: rng.below(1 << 24),
            })
            .collect(),
    }
}

/// A three-PE report: PEs 0 and 1 carry a summary profile, PE 2 does not;
/// PE 0 opens with [`every_kind`], then every PE gets `events_per_pe`
/// seeded events. Entry names include one that needs escaping.
pub fn report(seed: u64, events_per_pe: usize) -> TraceReport {
    let mut rng = SplitMix64(seed);
    let names = ["demo::Worker", "demo::Cell<\"π\">", "Main"];
    let pes = (0..3usize)
        .map(|pe| {
            let mut ts = rng.below(1_000);
            let mut events = if pe == 0 {
                every_kind(&mut ts)
            } else {
                Vec::new()
            };
            events.extend(seeded_events(&mut rng, events_per_pe, &mut ts));
            let summary = (pe < 2).then(|| summary(&mut rng, 3 + pe * 4));
            let (busy_ns, idle_ns, overhead_ns) = match &summary {
                Some(s) => s.totals(),
                None => (rng.below(1 << 30), rng.below(1 << 30), rng.below(1 << 20)),
            };
            let mut latency = Hist::default();
            for _ in 0..200 * pe {
                latency.record(rng.wide());
            }
            PeTrace {
                perf: PePerf {
                    pe,
                    wall_ns: busy_ns + idle_ns + overhead_ns,
                    busy_ns,
                    idle_ns,
                    overhead_ns,
                    msgs_sent: rng.below(10_000),
                    msgs_processed: rng.below(10_000),
                    bytes_sent_remote: rng.below(1 << 30),
                    batches_sent: rng.below(100),
                    batch_msgs: rng.below(6_400),
                    slab_hits: rng.below(1_000),
                    slab_misses: rng.below(10) * pe as u64,
                    inline_payloads: rng.below(1_000),
                    dispatch_hits: rng.below(1_000) * pe as u64,
                    dispatch_misses: rng.below(10) * pe as u64,
                    events_dropped: rng.below(3) * 1_000,
                    ..PePerf::default()
                },
                entries: names
                    .iter()
                    .enumerate()
                    .map(|(ctype, name)| EntrySummary {
                        ctype: ctype as u32,
                        name: name.to_string(),
                        kind: KINDS[(ctype + pe) % 5],
                        stat: entry_stat(&mut rng, 50 * (pe + 1)),
                    })
                    .collect(),
                events,
                latency,
                summary,
                telemetry: Vec::new(),
                enabled: true,
                captured: true,
            }
        })
        .collect();
    TraceReport { pes }
}

/// A seeded telemetry series of `n` frames. Histogram grids vary by frame
/// (`sub_bits` 1, 5, 10); frame 0 is empty; frame 1 holds the grid's top
/// bucket; labels include one with spaces.
pub fn frames(seed: u64, n: usize) -> Vec<MetricFrame> {
    let mut rng = SplitMix64(seed);
    (0..n)
        .map(|i| {
            let sub_bits = [5, 1, 10][i % 3];
            let mut f = MetricFrame {
                seq: i as u64,
                pes: 1 + rng.below(64),
                exec: Hist::new(sub_bits),
                latency: Hist::new(sub_bits),
                top_cap: 4,
                ..MetricFrame::default()
            };
            if i == 0 {
                return f;
            }
            f.sampled_at_ns = i as u64 * 1_000_000 + rng.below(1_000);
            f.busy_ns = rng.below(1 << 32);
            f.idle_ns = rng.below(1 << 32);
            f.overhead_ns = rng.below(1 << 24);
            f.util_min = rng.below(1_000) as f64 / 4_000.0;
            f.util_max = 0.5 + rng.below(1_000) as f64 / 2_000.0;
            f.util_sum = f.pes as f64 * (f.util_min + f.util_max) / 2.0;
            f.util_sumsq = f.util_sum * f.util_sum / f.pes as f64 + rng.below(100) as f64 / 7.0;
            f.msgs_sent = rng.below(1 << 20);
            f.msgs_processed = rng.below(1 << 20);
            f.entries = rng.below(1 << 20);
            f.bytes_remote = rng.below(1 << 40);
            f.queue_depth = rng.below(100);
            f.queue_depth_max = rng.below(100);
            for _ in 0..40 * i {
                f.exec.record(500 + rng.below(60_000));
                f.latency.record(rng.wide());
            }
            if i == 1 {
                f.exec.record(u64::MAX);
                f.latency.record_n(u64::MAX - 1, 3);
            }
            f.top = (0..rng.below(5))
                .map(|k| TopItem {
                    label: if k == 2 {
                        format!("Odd label [{i}]")
                    } else {
                        format!("Chare{k}[{i}]")
                    },
                    weight: rng.below(1 << 30),
                    err: rng.below(1 << 10),
                })
                .collect();
            f
        })
        .collect()
}
