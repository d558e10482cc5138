//! # charm-bench — the benchmark harness that regenerates the paper's
//! evaluation (one target per figure) plus design-choice ablations.
//!
//! Figures run the mini-apps on the *simulated* backend (virtual time; see
//! DESIGN.md §1 for the substitution rationale) and print the same series
//! the paper plots. Scale is reduced by default and controlled by:
//!
//! * `CHARMRS_MAX_PES` — largest simulated PE count (default 64),
//! * `CHARMRS_ITERS`   — iterations per run (default figure-specific),
//! * `CHARMRS_BLOCK`   — stencil block edge (default figure-specific).

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shortest timed sample [`bench`] accepts: bodies faster than this are
/// looped inside one sample, since a single call would sit below the
/// clock's resolution.
const MIN_SAMPLE: Duration = Duration::from_millis(2);

/// Time `f` with the std clock and print `min / median / p90` per call.
/// The warm-up doubles as calibration — the inner loop grows until one
/// sample spans [`MIN_SAMPLE`] — then `reps` samples are timed.
pub fn bench<R>(name: &str, reps: usize, mut f: impl FnMut() -> R) {
    let mut time = |inner: u32| {
        let t = Instant::now();
        for _ in 0..inner {
            black_box(f());
        }
        t.elapsed()
    };
    let mut inner = 1u32;
    while time(inner) < MIN_SAMPLE && inner < 1 << 24 {
        inner *= 2;
    }
    let mut ns: Vec<f64> = (0..reps.max(1))
        .map(|_| time(inner).as_secs_f64() * 1e9 / f64::from(inner))
        .collect();
    ns.sort_by(f64::total_cmp);
    let at = |q: f64| ns[((ns.len() - 1) as f64 * q).round() as usize];
    println!(
        "{name:<44} min {:>12}  median {:>12}  p90 {:>12}  ({} x {inner} calls)",
        fmt_ns(ns[0]),
        fmt_ns(at(0.5)),
        fmt_ns(at(0.9)),
        ns.len()
    );
}

/// Nanoseconds with a readable unit.
fn fmt_ns(ns: f64) -> String {
    match ns {
        n if n < 1e3 => format!("{n:.1} ns"),
        n if n < 1e6 => format!("{:.2} us", n / 1e3),
        n if n < 1e9 => format!("{:.2} ms", n / 1e6),
        n => format!("{:.3} s", n / 1e9),
    }
}

/// Read a positive integer knob from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Like [`env_usize`], but with no default: `None` when unset or invalid.
pub fn env_usize_opt(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Geometric PE series `start, 2·start, …` capped by `CHARMRS_MAX_PES`
/// (default `max_default`).
pub fn pe_series(start: usize, max_default: usize) -> Vec<usize> {
    let max = env_usize("CHARMRS_MAX_PES", max_default);
    let mut v = Vec::new();
    let mut p = start;
    while p <= max {
        v.push(p);
        p *= 2;
    }
    if v.is_empty() {
        v.push(start);
    }
    v
}

/// One plotted series: a label and `(x, time-per-step)` points.
pub struct Series {
    /// Legend label (matches the paper's).
    pub label: String,
    /// `(simulated cores, ms per step)` points.
    pub points: Vec<(usize, f64)>,
}

/// Print a paper-style table: one row per x value, one column per series.
pub fn print_table(title: &str, xlabel: &str, series: &[Series]) {
    println!("\n# {title}");
    print!("{xlabel:>8}");
    for s in series {
        print!("  {:>14}", s.label);
    }
    println!();
    let xs: Vec<usize> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    for (row, &x) in xs.iter().enumerate() {
        print!("{x:>8}");
        for s in series {
            match s.points.get(row) {
                Some(&(_, v)) => print!("  {v:>14.3}"),
                None => print!("  {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Print ratio columns (e.g. charmpy/charm++) for quick band checks.
pub fn print_ratios(label: &str, a: &Series, b: &Series) {
    println!("\n## ratio {label} ({} / {})", a.label, b.label);
    for (&(x, va), &(_, vb)) in a.points.iter().zip(&b.points) {
        if vb > 0.0 {
            println!("{x:>8}  {:>8.3}", va / vb);
        }
    }
}

/// Milliseconds from a duration, as f64.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` `CHARMRS_REPS` times (default 2) and keep the smallest value —
/// the standard way to damp host-timing noise in metered simulations.
pub fn best_of(f: impl Fn() -> f64) -> f64 {
    let reps = env_usize("CHARMRS_REPS", 2);
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------------
// METG (minimum effective task granularity, Task Bench) helpers
// ---------------------------------------------------------------------------

/// Halving grain series from `start_ns` down to (at least) `floor_ns`,
/// largest first — the sweep order of `benches/metg.rs`.
pub fn grain_series(start_ns: u64, floor_ns: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut g = start_ns.max(1);
    loop {
        v.push(g);
        if g <= floor_ns.max(1) {
            break;
        }
        g /= 2;
    }
    v
}

/// Task Bench efficiency: ideal time over actual. Ideal is the useful work
/// spread perfectly over the PEs (`width · steps · grain / npes`); every
/// nanosecond beyond it is runtime overhead.
pub fn taskbench_efficiency(
    grain_ns: u64,
    width: u64,
    steps: u64,
    npes: u64,
    actual_ns: u64,
) -> f64 {
    if actual_ns == 0 {
        return 0.0;
    }
    let ideal = (width * steps * grain_ns) as f64 / npes as f64;
    ideal / actual_ns as f64
}

/// A grain sweep: `(grain_ns, efficiency)` points, largest grain first.
pub struct MetgSweep {
    /// The sweep, as measured.
    pub points: Vec<(u64, f64)>,
}

impl MetgSweep {
    /// The METG: smallest swept grain still reaching ≥ 50% efficiency
    /// (Task Bench's definition), or `None` if no swept point did.
    pub fn metg_ns(&self) -> Option<u64> {
        self.points
            .iter()
            .filter(|&&(_, e)| e >= 0.5)
            .map(|&(g, _)| g)
            .min()
    }
}

/// Where figure runs drop their trace files: the `CHARMRS_TRACE_DIR`
/// directory, or `None` (the default — no trace run, no files).
pub fn trace_dir() -> Option<std::path::PathBuf> {
    std::env::var_os("CHARMRS_TRACE_DIR").map(std::path::PathBuf::from)
}

/// Write `<name>.trace.json` (Chrome trace events, load in Perfetto or
/// chrome://tracing) into [`trace_dir`] and print the utilization summary.
/// A no-op when `CHARMRS_TRACE_DIR` is unset or the run carried no trace.
pub fn emit_trace(name: &str, report: &charm_core::RunReport) {
    let (Some(dir), Some(trace)) = (trace_dir(), report.trace.as_ref()) else {
        return;
    };
    let path = dir.join(format!("{name}.trace.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| trace.write_chrome(&path)) {
        Ok(()) => println!("\n# trace: {}", path.display()),
        Err(e) => {
            eprintln!("trace write failed for {}: {e}", path.display());
            return;
        }
    }
    println!("{}", trace.summary());
}
