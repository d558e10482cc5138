//! Histogram sort — the canonical Charm++ example application, added here
//! as a third mini-app. Each chare holds random keys; a histogram
//! reduction picks splitters; chares exchange key ranges all-to-all and
//! sort locally, yielding a globally sorted distribution.
//!
//! Exercises, in one program: vector reductions, reduction-to-broadcast
//! targets, `when`-guarded phases, and element-to-element traffic.

use std::sync::{Arc, Mutex};

use charm_core::prelude::*;
use charm_core::Runtime;
use charm_wire::SplitMix64;

/// Sort parameters.
#[derive(Debug, Clone)]
pub struct HistoParams {
    /// Number of sorter chares.
    pub chares: usize,
    /// Keys per chare (initially).
    pub keys_per_chare: usize,
    /// Number of histogram probe bins (≥ chares).
    pub bins: usize,
    /// Key space is `[0, key_max)`.
    pub key_max: u64,
    /// RNG seed.
    pub seed: u64,
}
wire_struct! { HistoParams { chares, keys_per_chare, bins, key_max, seed } }

impl HistoParams {
    /// A small default configuration.
    pub fn small() -> HistoParams {
        HistoParams {
            chares: 8,
            keys_per_chare: 500,
            bins: 64,
            key_max: 1 << 20,
            seed: 99,
        }
    }
}

/// Result of a sort run.
#[derive(Debug, Clone)]
pub struct HistoResult {
    /// Keys in the system after sorting (must equal the input count).
    pub total_keys: u64,
    /// Sum of all keys (conservation check).
    pub key_sum: u64,
    /// Whether the global distribution is sorted (chare i's max ≤ chare
    /// i+1's min, and each chare locally sorted).
    pub sorted: bool,
    /// Largest chare's share divided by the average (balance metric).
    pub imbalance: f64,
    /// Runtime report.
    pub report: charm_core::RunReport,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Histogram,
    Exchange,
}
wire_enum! { Phase { Histogram, Exchange } }

/// One sorter chare.
pub struct Sorter {
    params: HistoParams,
    keys: Vec<u64>,
    phase: Phase,
    splitters: Vec<u64>,
    recv_count: usize,
    done: Option<Future<RedData>>,
}
wire_struct! { Sorter { params, keys, phase, splitters, recv_count, done } }

/// Sorter entry methods.
pub enum SorterMsg {
    /// Begin: histogram, exchange, sort, report.
    Start {
        /// Receives `[count, key_sum_lo..]` plus the gathered summaries.
        done: Future<RedData>,
    },
    /// A partition of keys destined for this chare's range.
    Keys {
        /// The keys (possibly empty).
        keys: Vec<u64>,
    },
}
wire_enum! { SorterMsg { Start { done }, Keys { keys } } }

const TAG_HISTOGRAM: u32 = 1;
const TAG_SUMMARY: u32 = 2;

impl Sorter {
    fn histogram(&self) -> Vec<i64> {
        let mut h = vec![0i64; self.params.bins];
        let w = (self.params.key_max / self.params.bins as u64).max(1);
        for &k in &self.keys {
            let b = ((k / w) as usize).min(self.params.bins - 1);
            h[b] += 1;
        }
        h
    }

    /// Turn the global histogram into `chares - 1` splitters giving each
    /// chare an approximately equal share.
    fn splitters_from(&self, hist: &[i64]) -> Vec<u64> {
        let total: i64 = hist.iter().sum();
        let per = (total as f64 / self.params.chares as f64).ceil() as i64;
        let w = (self.params.key_max / self.params.bins as u64).max(1);
        let mut out = Vec::with_capacity(self.params.chares - 1);
        let mut acc = 0i64;
        let mut next = per;
        for (b, &c) in hist.iter().enumerate() {
            acc += c;
            while acc >= next && out.len() < self.params.chares - 1 {
                out.push((b as u64 + 1) * w);
                next += per;
            }
        }
        while out.len() < self.params.chares - 1 {
            out.push(self.params.key_max);
        }
        out
    }

    fn owner_of(&self, key: u64) -> usize {
        self.splitters.partition_point(|&s| s <= key)
    }

    fn exchange(&mut self, ctx: &mut Ctx) {
        self.phase = Phase::Exchange;
        let n = self.params.chares;
        let mut parts: Vec<Vec<u64>> = vec![Vec::new(); n];
        let keys = std::mem::take(&mut self.keys);
        for k in keys {
            let owner = self.owner_of(k);
            parts[owner].push(k);
        }
        let me = ctx.this_proxy::<Sorter>();
        for (dest, keys) in parts.into_iter().enumerate() {
            // Every chare sends to every chare (possibly empty), so the
            // expected receive count is deterministic.
            me.elem(dest as i32).send(ctx, SorterMsg::Keys { keys });
        }
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        self.keys.sort_unstable();
        let count = self.keys.len() as i64;
        let sum = self.keys.iter().fold(0u64, |a, &k| a.wrapping_add(k)) as i64;
        let lo = self.keys.first().copied().unwrap_or(u64::MAX) as i64;
        let hi = self.keys.last().copied().unwrap_or(0) as i64;
        let done = self.done.expect("finish without Start");
        // Gather per-chare summaries at the caller, sorted by index.
        ctx.contribute_gather(&vec![count, sum, lo, hi], RedTarget::Future(done.id()));
        let _ = TAG_SUMMARY;
    }
}

impl Chare for Sorter {
    type Msg = SorterMsg;
    type Init = HistoParams;

    fn create(params: HistoParams, ctx: &mut Ctx) -> Self {
        let me = ctx.my_index().first() as u64;
        let mut rng = SplitMix64::new(params.seed ^ me.wrapping_mul(0x9E3779B9));
        // A skewed distribution (quadratic) so uniform splitters would be
        // badly unbalanced — the histogram has to earn its keep.
        let keys: Vec<u64> = (0..params.keys_per_chare)
            .map(|_| {
                let u = rng.next_f64();
                ((u * u) * params.key_max as f64) as u64
            })
            .collect();
        Sorter {
            params,
            keys,
            phase: Phase::Histogram,
            splitters: Vec::new(),
            recv_count: 0,
            done: None,
        }
    }

    fn guard(&self, msg: &SorterMsg) -> bool {
        match msg {
            SorterMsg::Start { .. } => true,
            // Key partitions only land once the splitters are known.
            SorterMsg::Keys { .. } => self.phase == Phase::Exchange,
        }
    }

    fn receive(&mut self, msg: SorterMsg, ctx: &mut Ctx) {
        match msg {
            SorterMsg::Start { done } => {
                self.done = Some(done);
                let h = self.histogram();
                let target = ctx.this_proxy::<Sorter>().reduction_target(TAG_HISTOGRAM);
                ctx.contribute(RedData::VecI64(h), Reducer::Sum, target);
            }
            SorterMsg::Keys { keys } => {
                self.keys.extend(keys);
                self.recv_count += 1;
                if self.recv_count == self.params.chares {
                    self.finish(ctx);
                }
            }
        }
    }

    fn reduced(&mut self, tag: u32, data: RedData, ctx: &mut Ctx) {
        assert_eq!(tag, TAG_HISTOGRAM);
        self.splitters = self.splitters_from(data.as_vec_i64());
        self.exchange(ctx);
    }
}

/// Run the histogram sort; the caller supplies the runtime (backend,
/// dispatch mode, PE count).
pub fn run_histo(params: HistoParams, rt: Runtime) -> HistoResult {
    assert!(params.chares >= 1 && params.bins >= params.chares);
    let out: Arc<Mutex<Option<RedData>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let n = params.chares;
    // Gather payloads carry the active wire codec of the runtime.
    let codec = match rt.dispatch_mode() {
        DispatchMode::Native => charm_wire::Codec::Fast,
        DispatchMode::Dynamic => charm_wire::Codec::Pickle,
    };
    let report = rt.register_migratable::<Sorter>().run(move |co| {
        let arr = co
            .ctx()
            .create_array::<Sorter>(&[params.chares as i32], params.clone());
        let done = co.ctx().create_future::<RedData>();
        arr.send(co.ctx(), SorterMsg::Start { done });
        *out2.lock().unwrap() = Some(co.get(&done));
        co.ctx().exit();
    });
    let gathered = out
        .lock()
        .unwrap()
        .take()
        .expect("histo produced no result");
    let RedData::Gather(items) = gathered else {
        panic!("expected gathered summaries");
    };
    let mut total = 0u64;
    let mut key_sum = 0u64;
    let mut sorted = items.len() == n;
    let mut prev_hi: i64 = -1;
    let mut max_share = 0u64;
    for (k, (ix, bytes)) in items.iter().enumerate() {
        sorted &= ix.first() as usize == k;
        let v: Vec<i64> = codec.decode(bytes).expect("summary decode");
        let (count, sum, lo, hi) = (v[0], v[1], v[2], v[3]);
        total += count as u64;
        key_sum = key_sum.wrapping_add(sum as u64);
        max_share = max_share.max(count as u64);
        if count > 0 {
            sorted &= lo >= prev_hi; // ranges must not overlap out of order
            sorted &= lo <= hi;
            prev_hi = hi;
        }
    }
    let avg = total as f64 / n as f64;
    HistoResult {
        total_keys: total,
        key_sum,
        sorted,
        imbalance: if avg > 0.0 {
            max_share as f64 / avg
        } else {
            1.0
        },
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitters_balance_a_skewed_histogram() {
        let params = HistoParams {
            chares: 4,
            bins: 16,
            ..HistoParams::small()
        };
        let sorter = Sorter {
            params: params.clone(),
            keys: Vec::new(),
            phase: Phase::Histogram,
            splitters: Vec::new(),
            recv_count: 0,
            done: None,
        };
        // All mass in the first quarter of the key space.
        let mut hist = vec![0i64; 16];
        for (b, h) in hist.iter_mut().enumerate().take(4) {
            *h = 100 - 10 * b as i64;
        }
        let sp = sorter.splitters_from(&hist);
        assert_eq!(sp.len(), 3);
        // Splitters must sit inside the occupied quarter, not spread evenly.
        let w = params.key_max / 16;
        assert!(sp.iter().all(|&s| s <= 5 * w), "{sp:?}");
        assert!(sp.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn owner_of_respects_splitters() {
        let mut sorter = Sorter {
            params: HistoParams::small(),
            keys: Vec::new(),
            phase: Phase::Histogram,
            splitters: vec![10, 20, 30],
            recv_count: 0,
            done: None,
        };
        sorter.params.chares = 4;
        assert_eq!(sorter.owner_of(5), 0);
        assert_eq!(sorter.owner_of(10), 1);
        assert_eq!(sorter.owner_of(19), 1);
        assert_eq!(sorter.owner_of(25), 2);
        assert_eq!(sorter.owner_of(1000), 3);
    }
}
