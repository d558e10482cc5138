//! The suite (every workload, each run in a child process of its own),
//! its results file, and `compare`.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use charm_trace::json::{self, Value};

use crate::metrics::{unit_of, Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{quartiles, spread};
use crate::workloads::Outcome;

/// The driver's own limit on one run; a child past it is killed and
/// counted as failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(180);

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(out: &Outcome, registry: &[Metric]) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v)| {
            let unit = unit_of(registry, name);
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.correct(),
        out.checks.attempted,
        out.checks.failed,
        metrics.join(", ")
    )
}

/// A parsed result line.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

pub fn parse_result_line(line: &str) -> Result<RunResult, String> {
    let doc = json::parse(line)?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("result line lacks `{key}`"))
    };
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line lacks `metrics`".to_string());
    };
    Ok(RunResult {
        correct: doc
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("result line lacks `correct`")?,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Run this binary on one workload in a child process; the last line of
/// its standard output is the result. Ends in an error, never a hang.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "{workload}: no result within {CHILD_DEADLINE:?}; killed"
                ));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader.join().map_err(|_| "stdout reader panicked")?;
    let line = text
        .lines()
        .last()
        .ok_or(format!("{workload}: no output ({status})"))?;
    let result = parse_result_line(line)?;
    if !status.success() || !result.correct {
        return Err(format!(
            "{workload}: {status}, correct {}, failed {} of {}",
            result.correct, result.failed, result.attempted
        ));
    }
    Ok(result)
}

/// One workload's section of a results file.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadResults {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metric → one value per untraced run.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric → the traced run's value.
    pub per_layer: BTreeMap<String, f64>,
}

pub type Results = BTreeMap<String, WorkloadResults>;

fn fmt_q(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q2, q3)) => format!(
            "{q2:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}%",
            100.0 * spread(values).unwrap_or(0.0)
        ),
        None => format!(
            "{:>14.4} {:>14} {:>14} {:>8}",
            values.first().copied().unwrap_or(0.0),
            "-",
            "-",
            "-"
        ),
    }
}

/// Run every workload `runs` times untraced (seeds `seed..`) and, with
/// `trace`, once traced; print every metric by name with its unit; return
/// the results and the number of failed runs.
pub fn suite(seed: u64, seconds: f64, runs: usize, trace: bool, out_dir: &Path) -> (Results, u64) {
    let mut results = Results::new();
    let mut failed_runs = 0u64;
    for (workload, why) in WORKLOADS {
        println!("\n== {workload}: {why}");
        let section = results.entry(workload.to_string()).or_default();
        for i in 0..runs {
            match child_run(workload, seed + i as u64, seconds, false, out_dir) {
                Ok(r) => {
                    section.attempted += r.attempted;
                    section.failed += r.failed;
                    for (name, v) in r.metrics {
                        section.end_to_end.entry(name).or_default().push(v);
                    }
                }
                Err(e) => {
                    failed_runs += 1;
                    println!("FAILED run {i}: {e}");
                }
            }
        }
        println!(
            "{:<16} {:<6} {:>14} {:>14} {:>14} {:>8} {:>6}   ({} runs of {seconds} s)",
            "end-to-end", "unit", "median", "q1", "q3", "spread", "bound", runs
        );
        for m in END_TO_END {
            let values = section.end_to_end.get(m.name).cloned().unwrap_or_default();
            println!(
                "{:<16} {:<6} {} {:>5.0}%",
                m.name,
                m.unit,
                fmt_q(&values),
                100.0 * m.bound
            );
        }
        println!(
            "{:<16} {:<6} {:>14.6}   ({} failed of {} attempted)",
            "failed_ops_share",
            "share",
            section.failed as f64 / section.attempted.max(1) as f64,
            section.failed,
            section.attempted
        );
        if trace {
            match child_run(workload, seed, seconds, true, out_dir) {
                Ok(r) => {
                    println!(
                        "{:<42} {:<6} {:>16}   (traced run)",
                        "per-layer", "unit", "value"
                    );
                    for m in PER_LAYER {
                        let v = r.metrics.get(m.name).copied().unwrap_or(0.0);
                        println!("{:<42} {:<6} {v:>16.4}", m.name, m.unit);
                    }
                    section.per_layer = r.metrics;
                }
                Err(e) => {
                    failed_runs += 1;
                    println!("FAILED traced run: {e}");
                }
            }
        }
    }
    (results, failed_runs)
}

/// Serialise results. The registry's unit, direction and bound travel
/// with the values, so `compare` needs nothing but the two files.
pub fn to_json(results: &Results) -> String {
    let nums = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ");
    let workloads: Vec<String> = results
        .iter()
        .map(|(name, w)| {
            let e2e: Vec<String> = END_TO_END
                .iter()
                .filter_map(|m| {
                    let values = w.end_to_end.get(m.name)?;
                    Some(format!(
                        r#"      "{}": {{"unit": "{}", "better": "{}", "bound": {}, "values": [{}]}}"#,
                        m.name,
                        m.unit,
                        m.better.as_str(),
                        m.bound,
                        nums(values)
                    ))
                })
                .collect();
            let layers: Vec<String> = PER_LAYER
                .iter()
                .filter_map(|m| {
                    let v = w.per_layer.get(m.name)?;
                    Some(format!(
                        r#"      "{}": {{"unit": "{}", "value": {v}}}"#,
                        m.name, m.unit
                    ))
                })
                .collect();
            format!(
                "  \"{}\": {{\n    \"attempted\": {}, \"failed\": {},\n    \"end_to_end\": {{\n{}\n    }},\n    \"per_layer\": {{\n{}\n    }}\n  }}",
                json::escape(name),
                w.attempted,
                w.failed,
                e2e.join(",\n"),
                layers.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\"schema\": \"charm-benchmark-results-v1\", \"workloads\": {{\n{}\n}}}}\n",
        workloads.join(",\n")
    )
}

pub fn from_json(text: &str) -> Result<Results, String> {
    let doc = json::parse(text)?;
    let Some(Value::Obj(workloads)) = doc.get("workloads") else {
        return Err("results file lacks `workloads`".to_string());
    };
    let mut out = Results::new();
    for (name, w) in workloads {
        let count = |key: &str| w.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let mut section = WorkloadResults {
            attempted: count("attempted"),
            failed: count("failed"),
            ..WorkloadResults::default()
        };
        if let Some(Value::Obj(metrics)) = w.get("end_to_end") {
            for (metric, body) in metrics {
                let values = body.get("values").and_then(Value::as_arr).unwrap_or(&[]);
                section.end_to_end.insert(
                    metric.clone(),
                    values.iter().filter_map(Value::as_f64).collect(),
                );
            }
        }
        if let Some(Value::Obj(metrics)) = w.get("per_layer") {
            for (metric, body) in metrics {
                if let Some(v) = body.get("value").and_then(Value::as_f64) {
                    section.per_layer.insert(metric.clone(), v);
                }
            }
        }
        out.insert(name.clone(), section);
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
    /// The run-to-run spread is wider than the bound, and the medians do
    /// not differ by more than the spread: no call can be made.
    Unresolved,
}

/// Judge `new` against `base` for one metric.
pub fn verdict(m: &Metric, base: &[f64], new: &[f64]) -> Verdict {
    let (Some((_, a, _)), Some((_, b, _))) = (quartiles(base), quartiles(new)) else {
        return Verdict::Unresolved;
    };
    if a == 0.0 {
        return Verdict::Unresolved;
    }
    let worse = match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let noise = spread(base).unwrap_or(0.0).max(spread(new).unwrap_or(0.0));
    if worse > m.bound && worse > noise {
        Verdict::Regressed
    } else if -worse > m.bound && -worse > noise {
        Verdict::Improved
    } else if noise > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// Print the comparison of two results files, one row per workload and
/// end-to-end metric; returns how many rows regressed.
pub fn compare(base: &Results, new: &Results) -> usize {
    let mut regressed = 0;
    println!(
        "{:<18} {:<14} {:>12} {:>25} {:>12} {:>25} {:>17} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "[q1, q3]",
        "new median",
        "[q1, q3]",
        "new/base",
        "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let values = |r: &Results| {
                r.get(workload)
                    .and_then(|w| w.end_to_end.get(m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (a, b) = (values(base), values(new));
            let v = verdict(m, &a, &b);
            regressed += usize::from(v == Verdict::Regressed);
            let q = |v: &[f64]| quartiles(v).unwrap_or((0.0, 0.0, 0.0));
            let ((a1, a2, a3), (b1, b2, b3)) = (q(&a), q(&b));
            println!(
                "{workload:<18} {:<14} {a2:>12.4} {:>25} {b2:>12.4} {:>25} {:>17} {:>5.0}%  {}",
                m.name,
                format!("[{a1:.4}, {a3:.4}]"),
                format!("[{b1:.4}, {b3:.4}]"),
                format!("{:.4} of {a2:.4}", if a2 != 0.0 { b2 / a2 } else { 0.0 }),
                100.0 * m.bound,
                match v {
                    Verdict::Within => "within",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Improved => "improved",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |r: &Results| r.get(workload).map_or(0, |w| w.failed);
        if failed(new) > failed(base) {
            regressed += 1;
            println!(
                "{workload:<18} failed operations rose from {} to {}: REGRESSED",
                failed(base),
                failed(new)
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_json_parser() {
        let out = Outcome {
            checks: crate::checks::Checks {
                attempted: 1000,
                ..Default::default()
            },
            metrics: vec![("op_us_p50", 120.25), ("setup_s", 0.0123)],
        };
        let line = result_line(&out, END_TO_END);
        let back = parse_result_line(&line).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1000, 0));
        assert_eq!(back.metrics["op_us_p50"], 120.25);
        assert_eq!(back.metrics["setup_s"], 0.0123);
        let doc = json::parse(&line).unwrap();
        let unit = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("unit"));
        assert_eq!(unit.and_then(Value::as_str), Some("s"));
        let Value::Obj(keys) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }

    #[test]
    fn results_file_round_trips() {
        let mut r = Results::new();
        let w = r.entry("net_flood_64B".to_string()).or_default();
        w.attempted = 5;
        w.end_to_end.insert(
            "ops_per_s".to_string(),
            vec![150_000.5, 151_000.25, 149_000.0],
        );
        w.per_layer.insert("frame.fnv1a_MBps".to_string(), 720.5);
        assert_eq!(from_json(&to_json(&r)).unwrap(), r);
    }

    #[test]
    fn verdicts_on_synthetic_inputs() {
        // A 10 % bound whatever the registry holds today.
        let metric = |name, better| Metric {
            name,
            unit: "x",
            better,
            bound: 0.10,
        };
        let (lat, rate) = (
            &metric("latency", Better::Lower),
            &metric("rate", Better::Higher),
        );
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scale = |k: f64| steady.map(|v| v * k);
        assert_eq!(verdict(lat, &steady, &scale(1.05)), Verdict::Within);
        assert_eq!(verdict(lat, &steady, &scale(1.2)), Verdict::Regressed);
        assert_eq!(verdict(lat, &steady, &scale(0.8)), Verdict::Improved);
        assert_eq!(verdict(rate, &steady, &scale(0.8)), Verdict::Regressed);
        assert_eq!(verdict(rate, &steady, &scale(1.2)), Verdict::Improved);
        let noisy = [100.0, 130.0, 75.0, 120.0, 85.0];
        assert_eq!(
            verdict(lat, &noisy, &noisy.map(|v| v * 1.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(lat, &noisy, &noisy.map(|v| v * 3.0)),
            Verdict::Regressed
        );
        assert_eq!(verdict(lat, &steady, &[]), Verdict::Unresolved);
    }

    #[test]
    fn compare_counts_regressed_rows() {
        let mut a = Results::new();
        let mut b = Results::new();
        for (name, _) in WORKLOADS {
            for m in END_TO_END {
                let base = vec![10.0, 10.1, 9.9];
                let worse = if name == "net_stream_1MiB" && m.name == "goodput_MBps" {
                    0.5
                } else {
                    1.0
                };
                a.entry(name.to_string())
                    .or_default()
                    .end_to_end
                    .insert(m.name.to_string(), base.clone());
                let new = base.iter().map(|v| v * worse).collect();
                b.entry(name.to_string())
                    .or_default()
                    .end_to_end
                    .insert(m.name.to_string(), new);
            }
        }
        assert_eq!(compare(&a, &a), 0);
        assert_eq!(compare(&a, &b), 1);
    }
}
