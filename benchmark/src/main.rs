//! `charm-benchmark` — the repo benchmark: Net transport latency, rate and
//! bandwidth, and the trace pipeline, timed from outside through the public
//! functions of `charm-net`, `charm-trace` and `charm-perf`.
//!
//! ```text
//! charm-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! charm-benchmark [--seed N] [--seconds S] [--runs R] [--trace]   every workload, each run in its own child process
//! charm-benchmark compare base.json new.json                      verdict per workload and end-to-end metric
//! charm-benchmark manifest                                        BENCHMARK.json as the metric registry states it
//! ```
//!
//! See `benchmark/README.md` for every metric and why each workload exists.

mod checks;
mod layers;
mod metrics;
mod net;
mod pipeline;
mod results;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: charm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
       charm-benchmark [--seed <n>] [--seconds <s>] [--runs <r>] [--trace] [--out <dir>]
       charm-benchmark compare <base.json> <new.json>
       charm-benchmark manifest";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    runs: usize,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 3.0,
        runs: 5,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or(format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or("--runs needs a positive count")?
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            // The driver passes `--trace 0|1`; by hand a bare `--trace` turns it on.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn one_run(workload: &str, args: &Args) -> Result<ExitCode, String> {
    let out = workloads::run(workload, args.seed, args.seconds, args.trace, &args.out)?;
    for e in &out.checks.errors {
        eprintln!("charm-benchmark: {workload}: {e}");
    }
    let registry = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for (name, v) in &out.metrics {
        let unit = metrics::unit_of(registry, name);
        eprintln!("{name:<42} {v:>16.4} {unit}");
    }
    println!("{}", results::result_line(&out, registry));
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn suite(args: &Args) -> Result<ExitCode, String> {
    let (results, failed_runs) =
        results::suite(args.seed, args.seconds, args.runs, args.trace, &args.out);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("results.json");
    std::fs::write(&path, results::to_json(&results))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    let failed_ops: u64 = results.values().map(|w| w.failed).sum();
    Ok(if failed_runs == 0 && failed_ops == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("charm-benchmark: {failed_runs} failed run(s), {failed_ops} failed operation(s)");
        ExitCode::FAILURE
    })
}

fn compare(base: &Path, new: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        results::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let regressed = results::compare(&load(base)?, &load(new)?);
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("charm-benchmark: {regressed} row(s) regressed");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let ran = match argv.as_slice() {
        [cmd, base, new] if cmd == "compare" => compare(Path::new(base), Path::new(new)),
        [cmd, ..] if cmd == "compare" => Err(USAGE.to_string()),
        [cmd] if cmd == "manifest" => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_args(&argv).and_then(|args| match &args.workload {
            Some(w) => one_run(w, &args),
            None => suite(&args),
        }),
    };
    ran.unwrap_or_else(|e| {
        eprintln!("charm-benchmark: {e}");
        ExitCode::FAILURE
    })
}
