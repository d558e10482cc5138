//! `charm-analyze` CLI.
//!
//! ```text
//! charm-analyze --workspace [--root <path>] [--strict]   lint the tree
//! charm-analyze --self-test                              seed synthetic violations
//! charm-analyze --list-rules                             print the rule table
//! ```
//!
//! Stale `analyze: allow(..)` annotations (well-formed but suppressing
//! nothing) print as warnings; `--strict` promotes them to findings.
//!
//! Exit codes: 0 = clean, 1 = findings (for `--self-test`: every seeded
//! violation was detected, i.e. the linter works — CI asserts exactly 1),
//! 2 = usage/io error, or a self-test in which the linter *missed* a rule.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use charm_analyze::{count_allows, lint_workspace, self_test, Rule};

fn usage() -> ExitCode {
    eprintln!(
        "usage: charm-analyze --workspace [--root <path>] [--strict] | --self-test | --list-rules"
    );
    ExitCode::from(2)
}

/// Locate the workspace root: `--root` wins; else the manifest dir baked in
/// at compile time (two levels up from crates/analyze); else the cwd.
fn find_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(r) = explicit {
        return r;
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Some(ws) = manifest.parent().and_then(|p| p.parent()) {
        if ws.join("Cargo.toml").is_file() {
            return ws.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut mode = None;
    let mut root = None;
    let mut strict = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => mode = Some("workspace"),
            "--self-test" => mode = Some("self-test"),
            "--list-rules" => mode = Some("list-rules"),
            "--strict" => strict = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    match mode {
        Some("list-rules") => {
            for r in Rule::all() {
                println!("{:<14} {}", r.key(), r.describe());
            }
            for (key, what) in [
                ("trace-hook", "allow-key for scheduler trace instrumentation: suppresses panic + blocking on the annotated line"),
                ("recovery-hook", "allow-key for fault-tolerance paths: suppresses panic + blocking on the annotated line"),
                ("telemetry-hook", "allow-key for in-band telemetry sweep paths: suppresses panic + blocking on the annotated line"),
                ("net-hook", "allow-key for the net transport: suppresses panic + blocking + nondeterminism on the annotated line"),
                ("stale-allow", "audit: allow(..) annotations that suppress nothing (warning; finding under --strict)"),
            ] {
                println!("{key:<14} {what}");
            }
            ExitCode::SUCCESS
        }
        Some("self-test") => match self_test() {
            Ok(findings) => {
                println!(
                    "self-test: all {} rules detected their seeded violations ({} findings):",
                    Rule::all().len(),
                    findings.len()
                );
                for f in &findings {
                    println!("  {f}");
                }
                // Nonzero by design: a tree with these violations must fail.
                ExitCode::from(1)
            }
            Err(missed) => {
                eprintln!(
                    "self-test FAILED: linter missed rule(s): {}",
                    missed
                        .iter()
                        .map(|r| r.key())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                ExitCode::from(2)
            }
        },
        Some("workspace") => {
            let root = find_root(root);
            match lint_workspace(&root) {
                Ok(findings) => {
                    // Stale allows are advisory unless --strict promotes them.
                    let (stale, errors): (Vec<_>, Vec<_>) = findings
                        .into_iter()
                        .partition(|f| f.rule == Rule::StaleAllow);
                    if !stale.is_empty() && !strict {
                        eprintln!(
                            "charm-analyze: {} stale allow(s) (warnings; --strict fails on them):",
                            stale.len()
                        );
                        for f in &stale {
                            eprintln!("  {f}");
                        }
                    }
                    let mut fatal: Vec<_> = if strict {
                        errors.into_iter().chain(stale).collect()
                    } else {
                        errors
                    };
                    fatal.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
                    if fatal.is_empty() {
                        // The exception list is part of the verdict: a clean
                        // tree says how many reasoned allows it took.
                        let allows = count_allows(&root, "").unwrap_or_default();
                        let by_key: Vec<String> =
                            allows.iter().map(|(k, n)| format!("{k} {n}")).collect();
                        println!(
                            "charm-analyze: workspace clean ({}); allows: {} ({})",
                            root.display(),
                            allows.values().sum::<usize>(),
                            by_key.join(", ")
                        );
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("charm-analyze: {} finding(s):", fatal.len());
                        for f in &fatal {
                            eprintln!("  {f}");
                        }
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("charm-analyze: io error walking {}: {e}", root.display());
                    ExitCode::from(2)
                }
            }
        }
        _ => usage(),
    }
}
