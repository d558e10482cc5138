//! Property tests: [`Hist::quantile`] against a sorted-vector oracle over
//! deterministic pseudo-random samples, plus merge equivalence — the
//! bounded-relative-error contract charm-perf and the telemetry reducer
//! lean on. Then what the windowed layout must keep: equality and digests
//! that depend on the samples only, every answer equal to a dense
//! full-grid reference kept here, and the heap each structure owns (under
//! a counting allocator).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
#[path = "common/synthetic.rs"]
mod synthetic;

use charm_trace::{EntryKind, Hist, MetricFrame, PeTracer, TopItem, TraceConfig, WorkClass};
use counting_alloc::measure;
use synthetic::SplitMix64;

/// Oracle: nearest-rank quantile on the sorted sample vector.
fn oracle(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[test]
fn quantiles_match_oracle_within_relative_error() {
    for seed in [1u64, 0xdead_beef, 0x1234_5678_9abc_def0] {
        let mut rng = SplitMix64(seed);
        let mut h = Hist::default();
        let mut vals: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            let v = rng.wide();
            h.record(v);
            vals.push(v);
        }
        vals.sort_unstable();
        let tol = h.max_rel_error();
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let got = h.quantile(q).expect("non-empty histogram") as f64;
            let want = oracle(&vals, q) as f64;
            // The histogram's answer must sit within the grid's relative
            // error of SOME sample adjacent to the oracle rank: buckets
            // blur ties, so compare against the nearest bucket-compatible
            // truth, allowing one rank of slack on either side.
            let n = vals.len();
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let lo = vals[rank.saturating_sub(2)] as f64;
            let hi = vals[(rank).min(n - 1)] as f64;
            let ok = got >= lo * (1.0 - tol) - 1.0 && got <= hi * (1.0 + tol) + 1.0;
            assert!(
                ok,
                "seed {seed:#x} q={q}: got {got}, oracle {want} (window [{lo}, {hi}], tol {tol})"
            );
        }
    }
}

#[test]
fn merged_histogram_equals_histogram_of_union() {
    let mut rng = SplitMix64(42);
    let mut a = Hist::default();
    let mut b = Hist::default();
    let mut whole = Hist::default();
    for i in 0..4_000 {
        let v = rng.wide();
        if i % 2 == 0 {
            a.record(v);
        } else {
            b.record(v);
        }
        whole.record(v);
    }
    a.merge(&b);
    assert_eq!(a.count(), whole.count());
    assert_eq!(a.min(), whole.min());
    assert_eq!(a.max(), whole.max());
    assert_eq!(a.digest(), whole.digest(), "merge is bucket-exact");
    for &q in &[0.5, 0.9, 0.99] {
        assert_eq!(a.quantile(q), whole.quantile(q));
    }
}

#[test]
fn extremes_and_degenerate_inputs() {
    let mut h = Hist::default();
    assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
    h.record(7);
    assert_eq!(h.quantile(0.0), Some(7));
    assert_eq!(h.quantile(1.0), Some(7));
    let mut big = Hist::default();
    big.record(u64::MAX);
    big.record(0);
    assert_eq!(big.quantile(0.0), Some(0));
    assert_eq!(big.quantile(1.0), Some(u64::MAX), "clamped to observed max");
}

/// Fisher-Yates with the test's PRNG.
fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
}

/// Fold `parts` into one histogram by merging random neighbours until one
/// is left: a random merge tree.
fn merge_tree(rng: &mut SplitMix64, mut parts: Vec<Hist>) -> Hist {
    while parts.len() > 1 {
        let i = (rng.next() % (parts.len() as u64 - 1)) as usize;
        let right = parts.remove(i + 1);
        // Either side may be the destination.
        if rng.next().is_multiple_of(2) {
            parts[i].merge(&right);
        } else {
            let mut right = right;
            right.merge(&parts[i]);
            parts[i] = right;
        }
    }
    parts.pop().unwrap_or_default()
}

#[test]
fn equal_samples_mean_equal_histograms_whatever_the_order_or_merge_tree() {
    for seed in [3u64, 0xfeed, 0x0dd_ba11] {
        let mut rng = SplitMix64(seed);
        for sub_bits in 1..=10 {
            let mut vals: Vec<u64> = (0..600).map(|_| rng.wide()).collect();
            let mut reference = Hist::new(sub_bits);
            vals.iter().for_each(|&v| reference.record(v));
            for round in 0..4 {
                shuffle(&mut rng, &mut vals);
                // Split the shuffled stream into 1..=8 parts, record each,
                // merge them along a random tree.
                let nparts = 1 + (rng.next() % 8) as usize;
                let mut parts = vec![Hist::new(sub_bits); nparts];
                for &v in &vals {
                    let part = (rng.next() % nparts as u64) as usize;
                    parts[part].record(v);
                }
                let got = merge_tree(&mut rng, parts);
                assert_eq!(
                    got, reference,
                    "seed {seed:#x} sub_bits {sub_bits} round {round}"
                );
                assert_eq!(got.digest(), reference.digest(), "seed {seed:#x}");
            }
        }
    }
    // Empty histograms are equal however they came to be empty.
    let mut merged = Hist::new(5);
    merged.merge(&Hist::new(5));
    merged.record_n(77, 0);
    assert_eq!(merged, Hist::new(5));
}

/// The layout `Hist` had before it stored a window: every bucket of the
/// grid, dense. Kept as the reference the windowed one must equal.
#[derive(Clone)]
struct Dense {
    sub_bits: u32,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Dense {
    fn new(b: u32) -> Dense {
        Dense {
            sub_bits: b,
            counts: vec![0; ((64 - b + 1) as usize) << b],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(&self, v: u64) -> usize {
        let b = self.sub_bits;
        if v < (1 << b) {
            v as usize
        } else {
            let e = 63 - v.leading_zeros();
            let sub = ((v >> (e - b)) as usize) & ((1 << b) - 1);
            ((((e - b + 1) as usize) << b) | sub).min(self.counts.len() - 1)
        }
    }

    fn bounds(&self, idx: usize) -> (u64, u64) {
        let b = self.sub_bits;
        if idx < (1 << b) {
            (idx as u64, idx as u64)
        } else {
            let octave = (idx >> b) as u32 + b - 1;
            let sub = (idx & ((1 << b) - 1)) as u64;
            let width = 1u64 << (octave - b);
            let lo = ((1u64 << b) + sub) << (octave - b);
            (lo, lo + (width - 1))
        }
    }

    fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(v);
        self.counts[idx] += n;
        self.total += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &Dense) {
        if other.total == 0 {
            return;
        }
        if other.sub_bits == self.sub_bits {
            for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
                *dst += src;
            }
            self.total += other.total;
        } else {
            for (idx, &n) in other.counts.iter().enumerate() {
                if n > 0 {
                    let (lo, hi) = other.bounds(idx);
                    let i = self.index_of(lo + (hi - lo) / 2);
                    self.counts[i] += n;
                    self.total += n;
                }
            }
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.total {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = self.bounds(idx);
                return Some((lo + (hi - lo) / 2).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    fn buckets(&self) -> Vec<(u64, u64, u64)> {
        (0..self.counts.len())
            .filter(|&i| self.counts[i] > 0)
            .map(|i| {
                let (lo, hi) = self.bounds(i);
                (lo, hi, self.counts[i])
            })
            .collect()
    }
}

fn assert_same(h: &Hist, d: &Dense, what: &str) {
    assert_eq!(
        (h.count(), h.sum(), h.max()),
        (d.total, d.sum, d.max),
        "{what}"
    );
    assert_eq!(h.min(), if d.total == 0 { 0 } else { d.min }, "{what}");
    assert_eq!(h.buckets().collect::<Vec<_>>(), d.buckets(), "{what}");
    for q in [0.0, 0.001, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
        assert_eq!(h.quantile(q), d.quantile(q), "{what} q={q}");
    }
}

#[test]
fn windowed_answers_equal_the_dense_reference_on_every_grid() {
    for seed in [7u64, 0xc0ffee] {
        let mut rng = SplitMix64(seed);
        for sub_bits in 1..=10 {
            // Two streams a side, so both merge kinds have something to add.
            let mut pairs: Vec<(Hist, Dense)> = (0..2)
                .map(|_| (Hist::new(sub_bits), Dense::new(sub_bits)))
                .collect();
            for (k, (h, d)) in pairs.iter_mut().enumerate() {
                for i in 0..400 {
                    // One stream wide, one narrow and far from zero (its
                    // window opens high and grows at the front).
                    let v = if k == 0 {
                        rng.wide()
                    } else {
                        (1 << 40) - (rng.next() % (1 << 39)) / (i + 1)
                    };
                    let n = if i.is_multiple_of(7) {
                        rng.next() % 5
                    } else {
                        1
                    };
                    h.record_n(v, n);
                    d.record_n(v, n);
                }
                if k == 0 {
                    for v in [0, u64::MAX, u64::MAX - 1] {
                        h.record(v);
                        d.record_n(v, 1);
                    }
                }
                assert_same(
                    h,
                    d,
                    &format!("seed {seed:#x} sub_bits {sub_bits} stream {k}"),
                );
            }
            // Equal grids, both directions.
            for (dst, src) in [(0, 1), (1, 0)] {
                let (mut h, mut d) = pairs[dst].clone();
                h.merge(&pairs[src].0);
                d.merge(&pairs[src].1);
                assert_same(
                    &h,
                    &d,
                    &format!("seed {seed:#x} sub_bits {sub_bits} merge {src}->{dst}"),
                );
            }
            // Unequal grids: into and out of a coarser and a finer one.
            for other_bits in [1, 5, 10] {
                if other_bits == sub_bits {
                    continue;
                }
                let (mut h, mut d) = (Hist::new(other_bits), Dense::new(other_bits));
                for _ in 0..100 {
                    let v = rng.wide();
                    h.record(v);
                    d.record_n(v, 1);
                }
                let what = format!("seed {seed:#x} grids {sub_bits}/{other_bits}");
                let (mut into_h, mut into_d) = (h.clone(), d.clone());
                into_h.merge(&pairs[0].0);
                into_d.merge(&pairs[0].1);
                assert_same(&into_h, &into_d, &what);
                let (mut from_h, mut from_d) = pairs[1].clone();
                from_h.merge(&h);
                from_d.merge(&d);
                assert_same(&from_h, &from_d, &what);
            }
        }
    }
}

#[test]
fn counts_saturate_instead_of_wrapping() {
    let mut h = Hist::new(5);
    h.record_n(1_000, u64::MAX);
    h.record_n(1_000, 1);
    h.record_n(2_000, 5);
    assert_eq!(h.count(), u64::MAX);
    assert_eq!(h.sum(), u64::MAX);
    assert_eq!(
        h.buckets().map(|(_, _, n)| n).collect::<Vec<_>>(),
        [u64::MAX, 5]
    );
    // Past saturation the buckets sum to more than the total; every
    // quantile still answers from inside the recorded range.
    for q in [0.0, 0.5, 0.999_999, 1.0] {
        let v = h.quantile(q).expect("non-empty");
        assert!((1_000..=2_000).contains(&v), "q={q}: {v}");
    }
    let mut merged = h.clone();
    merged.merge(&h);
    assert_eq!(merged.count(), u64::MAX);
    assert_eq!(
        merged.buckets().map(|(_, _, n)| n).collect::<Vec<_>>(),
        [u64::MAX, 10]
    );
}

#[test]
fn empty_structures_own_no_heap() {
    let (_h, heap) = measure(Hist::default);
    assert_eq!(heap.requested, 0, "Hist::default()");
    let (_t, heap) = measure(PeTracer::default);
    assert_eq!(heap.requested, 0, "PeTracer::default()");
    let (_t, heap) = measure(|| PeTracer::new(&TraceConfig::off()));
    assert_eq!(heap.requested, 0, "PeTracer::new(off)");
    let (_f, heap) = measure(MetricFrame::default);
    assert_eq!(heap.requested, 0, "MetricFrame::default()");
}

#[test]
fn a_counters_level_tracer_after_one_delivery_owns_under_a_kibibyte() {
    let (_t, heap) = measure(|| {
        let mut t = PeTracer::new(&TraceConfig::counters());
        t.msg_recv(128);
        t.latency(40_000);
        t.work(WorkClass::Entry, 12_000);
        t.entry(0, 12_000, 12_000, 3, EntryKind::Receive);
        t.msg_send(64, true);
        t
    });
    assert!(heap.retained < 1024, "{heap:?}");
}

#[test]
fn cloning_a_frame_copies_its_occupied_buckets_only() {
    let mut rng = SplitMix64(99);
    let mut f = MetricFrame::default();
    // ~100 occupied buckets a histogram: three octaves of the default grid.
    for _ in 0..2_000 {
        f.exec.record(4_096 + rng.next() % 28_000);
        f.latency.record(65_536 + rng.next() % 450_000);
    }
    let occupied = f.exec.buckets().count() + f.latency.buckets().count();
    assert!((180..=220).contains(&occupied), "{occupied}");
    let (_copy, heap) = measure(|| f.clone());
    assert!(heap.requested < 4096, "{heap:?}");
}

/// A frame of `n` hot chares labelled `{prefix}{k}`, weights from `rng`
/// below `max`, and histograms over the same value range.
fn hot_frame(rng: &mut SplitMix64, prefix: &str, n: u64, max: u64) -> MetricFrame {
    let mut f = MetricFrame {
        top_cap: 8,
        ..MetricFrame::default()
    };
    for v in [100, 5_000, 70_000] {
        f.exec.record(v);
        f.latency.record(v);
    }
    f.top = (0..n)
        .map(|k| TopItem {
            label: format!("{prefix}{k}"),
            weight: rng.below(max),
            err: rng.below(10),
        })
        .collect();
    f
}

/// The top-K merge as it was: clone every new label, sort, truncate.
fn merge_top_by_full_sort(a: &MetricFrame, b: &MetricFrame) -> Vec<TopItem> {
    let mut top = a.top.clone();
    for it in &b.top {
        match top.iter_mut().find(|t| t.label == it.label) {
            Some(t) => {
                t.weight += it.weight;
                t.err += it.err;
            }
            None => top.push(it.clone()),
        }
    }
    top.sort_by(|x, y| (y.weight, &x.label).cmp(&(x.weight, &y.label)));
    top.truncate(a.top_cap.max(b.top_cap).max(1));
    top
}

#[test]
fn top_k_merge_keeps_what_a_full_sort_keeps() {
    let mut rng = SplitMix64(0x70b);
    for case in 0..500 {
        // Overlapping label sets of any size, ties included.
        let (na, nb) = (rng.below(12), rng.below(12));
        let mut a = hot_frame(&mut rng, "C", na, 6);
        let mut b = hot_frame(&mut rng, "C", nb, 6);
        b.top.retain(|t| !t.label.ends_with('3'));
        a.top_cap = 1 + rng.below(9) as usize;
        b.top_cap = rng.below(9) as usize;
        let want = merge_top_by_full_sort(&a, &b);
        a.merge(&b);
        assert_eq!(a.top, want, "case {case}");
    }
}

#[test]
fn top_k_merge_of_lists_longer_than_64_keeps_what_a_full_sort_keeps() {
    let mut rng = SplitMix64(0x64b);
    for case in 0..200 {
        // Past the 64 items the merge marks by bit, shared labels too.
        let (na, nb) = (rng.below(100), 60 + rng.below(60));
        let (wa, wb) = (1 << (rng.below(20) + 1), 1 << (rng.below(20) + 1));
        let mut a = hot_frame(&mut rng, "C", na, wa);
        let b = hot_frame(&mut rng, "C", nb, wb);
        a.top_cap = 1 + rng.below(120) as usize;
        let want = merge_top_by_full_sort(&a, &b);
        a.merge(&b);
        assert_eq!(a.top, want, "case {case}");
    }
}

#[test]
fn merging_a_frame_whose_top_items_all_lose_allocates_nothing() {
    let mut rng = SplitMix64(0x10e);
    let mut a = hot_frame(&mut rng, "heavy", 8, 1 << 20);
    a.top.iter_mut().for_each(|t| t.weight += 1 << 20);
    let b = hot_frame(&mut rng, "light", 8, 1 << 20);
    let want = merge_top_by_full_sort(&a, &b);
    let (_, heap) = measure(|| a.merge(&b));
    assert_eq!(heap.allocs, 0, "{heap:?}");
    assert_eq!(a.top, want);
    assert_eq!(a.exec.count(), 6);
}

/// Where the other frame's histogram windows lie against the receiving
/// frame's: the four ways a merge can have to grow a window.
const GROWTH: [&str; 4] = ["neither", "front", "back", "both"];

/// Samples spanning `[lo, hi)` ("neither"), or reaching past its front,
/// its back or both.
fn samples(rng: &mut SplitMix64, growth: &str, lo: u64, hi: u64) -> Vec<u64> {
    let (lo, hi) = match growth {
        "front" => (lo / 8, hi),
        "back" => (lo, hi * 8),
        "both" => (lo / 8, hi * 8),
        _ => (lo, hi),
    };
    let mut v: Vec<u64> = (0..1 + rng.below(40))
        .map(|_| lo + rng.below(hi - lo))
        .collect();
    // Pin the ends, so a "neither" window is exactly the receiving one.
    v.extend([lo, hi - 1]);
    v
}

/// A frame pair for `growth` with top lists of `cap` same-width labels
/// that share `shared` of them; each histogram is returned with the
/// histogram of both sides' samples, the reference its merge must equal.
fn frame_pair(
    rng: &mut SplitMix64,
    growth: &str,
    cap: usize,
    shared: usize,
) -> (MetricFrame, MetricFrame, [Hist; 2]) {
    let sub_bits = 1 + rng.below(10) as u32;
    let frame = |labels: &mut dyn Iterator<Item = usize>, rng: &mut SplitMix64| MetricFrame {
        top_cap: cap,
        top: labels
            .map(|k| TopItem {
                label: format!("Chare[{k:03}]"),
                // Small weights tie often; large ones rarely.
                weight: rng.below(if k % 2 == 0 { 6 } else { 1 << 30 }),
                err: rng.below(10),
            })
            .collect(),
        exec: Hist::new(sub_bits),
        latency: Hist::new(sub_bits),
        ..MetricFrame::default()
    };
    let mut a = frame(&mut (0..cap), rng);
    let mut b = frame(&mut (cap - shared..2 * cap - shared), rng);
    let mut union = [Hist::new(sub_bits), Hist::new(sub_bits)];
    for (i, (lo, hi)) in [(4_000, 60_000), (20_000, 400_000)].into_iter().enumerate() {
        for &v in &samples(rng, "neither", lo, hi) {
            [&mut a.exec, &mut a.latency][i].record(v);
            union[i].record(v);
        }
        for &v in &samples(rng, growth, lo, hi) {
            [&mut b.exec, &mut b.latency][i].record(v);
            union[i].record(v);
        }
    }
    (a, b, union)
}

#[test]
fn frame_merge_equals_the_histogram_of_the_union_and_the_full_sort() {
    let mut rng = SplitMix64(0x3e7);
    for case in 0..400 {
        let growth = GROWTH[case % 4];
        let cap = 1 + rng.below(9) as usize;
        let shared = rng.below(cap as u64 + 1) as usize;
        let (mut a, b, union) = frame_pair(&mut rng, growth, cap, shared);
        let want = merge_top_by_full_sort(&a, &b);
        a.merge(&b);
        let what = format!("case {case}: {growth}, cap {cap}, {shared} shared");
        assert_eq!(a.exec, union[0], "{what}");
        assert_eq!(a.latency, union[1], "{what}");
        assert_eq!(a.top, want, "{what}");
    }
    // Either side empty: the union is the other side.
    let (a, _, _) = frame_pair(&mut rng, "both", 8, 3);
    let mut empty = MetricFrame {
        top_cap: 8,
        exec: Hist::new(a.exec.sub_bits()),
        latency: Hist::new(a.exec.sub_bits()),
        ..MetricFrame::default()
    };
    let mut full = a.clone();
    full.merge(&empty);
    assert_eq!((&full.exec, &full.latency), (&a.exec, &a.latency));
    assert_eq!(full.top, merge_top_by_full_sort(&a, &empty));
    empty.merge(&a);
    assert_eq!((&empty.exec, &empty.latency), (&a.exec, &a.latency));
    assert_eq!(
        empty.top,
        merge_top_by_full_sort(&MetricFrame::default(), &a)
    );
}

#[test]
fn a_frame_merge_allocates_once_per_histogram_window_that_grows() {
    let mut rng = SplitMix64(0xa11c);
    for case in 0..400 {
        let growth = GROWTH[case % 4];
        let cap = 1 + rng.below(9) as usize;
        let shared = rng.below(cap as u64 + 1) as usize;
        // Full lists of same-width labels: a label that makes the cut fits
        // the buffer of the one it pushes out.
        let (mut a, b, _) = frame_pair(&mut rng, growth, cap, shared);
        let grows = |mine: &Hist, theirs: &Hist| {
            let ends = |h: &Hist| (h.buckets().next(), h.buckets().last());
            let ((lo, hi), (theirs_lo, theirs_hi)) = (ends(mine), ends(theirs));
            theirs_lo.unwrap().0 < lo.unwrap().0 || theirs_hi.unwrap().0 > hi.unwrap().0
        };
        let windows =
            usize::from(grows(&a.exec, &b.exec)) + usize::from(grows(&a.latency, &b.latency));
        assert_eq!(windows > 0, growth != "neither", "case {case}");
        let (_, heap) = measure(|| a.merge(&b));
        assert!(
            heap.allocs <= windows,
            "case {case}: {growth}, cap {cap}, {shared} shared: {heap:?}"
        );
    }
}

#[test]
fn recording_a_pair_equals_recording_each_and_grows_the_window_once() {
    let mut rng = SplitMix64(0x9a1);
    for case in 0..2_000 {
        let sub_bits = 1 + rng.below(10) as u32;
        let mut h = Hist::new(sub_bits);
        // An empty start half the time, else a window somewhere.
        for _ in 0..rng.below(2) * (1 + rng.below(4)) {
            h.record(rng.wide());
        }
        let mut draw = || {
            (
                rng.wide(),
                [0, 1, rng.below(1 << 20), u64::MAX][rng.below(4) as usize],
            )
        };
        let (a, b) = (draw(), draw());
        let mut want = h.clone();
        want.record_n(a.0, a.1);
        want.record_n(b.0, b.1);
        let (_, heap) = measure(|| h.record_pair(a, b));
        assert_eq!(h, want, "case {case}: {a:?} {b:?}");
        assert!(heap.allocs <= 1, "case {case}: {heap:?}");
    }
}
