//! # charm-analyze — the workspace invariant linter
//!
//! A small, dependency-free static analyzer that enforces the repo's
//! correctness rules as CI-failing lints (DESIGN.md §6):
//!
//! * **`panic`** — no `unwrap()` / `expect()` / explicit `panic!` / slice
//!   or map indexing in the runtime hot paths (the files of
//!   [`PANIC_SCOPE`], plus every `impl PeState` block wherever in
//!   `crates/core/src` it lives: the scheduler's protocols sit in their own
//!   modules, and the rule follows the code, not the file name) without an
//!   explicit justification annotation. Every panic that survives must
//!   document the invariant that makes it unreachable.
//! * **`payload-copy`** — `WireBytes` payloads are shared, never deep
//!   copied (DESIGN.md §5): `.to_vec()` / `.into_vec()` / `Vec::from(`
//!   inside `crates/core/src` and `crates/wire/src` non-test code must be
//!   annotated as a sanctioned decode/extraction site.
//! * **`unsafe`** — every crate root carries `#![forbid(unsafe_code)]`,
//!   or `#![deny(unsafe_code)]` plus an annotation naming why unsafe is
//!   genuinely needed.
//! * **`blocking`** — no `std::thread::sleep` or blocking `Mutex`/`RwLock`
//!   use inside entry-method execution paths (the scheduler files): entry
//!   methods are asynchronous and must never block the PE.
//! * **`nondeterminism`** — no `HashMap`/`HashSet` iteration-order
//!   dependence (`.keys()`, `.values()`, `.drain()`, …) and no wall-clock
//!   reads (`Instant::now` / `SystemTime::now`) in the
//!   scheduling-order-sensitive paths: the PE scheduler, the driver and
//!   supervisor, every transport (including the model checker's and the
//!   Net one), the sim crate and the net crate.
//!   Anything that feeds message emission order or virtual time must be
//!   sorted/key-ordered or virtual; every surviving site documents why its
//!   order or time cannot leak into observable scheduling. (The scanner is
//!   token-based: `for _ in &hash_map` evades it — the rule catches the
//!   unambiguous accessor spellings, review catches the rest.)
//!
//! The workspace walk additionally audits annotations for staleness
//! (**`stale-allow`**): a well-formed `analyze: allow(..)` that no longer
//! suppresses anything is reported — as a warning by default, as a
//! CI-failing finding under `charm-analyze --workspace --strict`.
//!
//! ## Annotation syntax
//!
//! ```text
//! // analyze: allow(<rule>, "reason the invariant holds")
//! ```
//!
//! placed either at the end of the offending line or on a comment line
//! directly above it (a block of consecutive comment lines counts). The
//! reason string is mandatory — an allow without a reason is itself a
//! finding (`annotation`).
//!
//! The scanner is line/token based: comments and string literals are
//! masked out before pattern matching, so a `panic!` inside a string or a
//! doc comment never trips a lint. It does not type-check; the rules are
//! scoped to files where the patterns are unambiguous enough that a
//! heuristic match is a real finding or worth a one-line annotation.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Panicking construct in a runtime hot path.
    Panic,
    /// Deep copy of a shared wire payload.
    PayloadCopy,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// Blocking call inside entry-method execution paths.
    Blocking,
    /// Hash-order iteration or wall-clock read in a scheduling-order-
    /// sensitive path.
    Nondeterminism,
    /// Malformed or unknown `analyze: allow(..)` annotation.
    Annotation,
    /// Well-formed `analyze: allow(..)` that suppresses nothing (workspace
    /// audit only; a warning unless `--strict`).
    StaleAllow,
}

impl Rule {
    /// The key used in `analyze: allow(<key>, "...")` annotations.
    pub fn key(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::PayloadCopy => "payload-copy",
            Rule::ForbidUnsafe => "unsafe",
            Rule::Blocking => "blocking",
            Rule::Nondeterminism => "nondeterminism",
            Rule::Annotation => "annotation",
            Rule::StaleAllow => "stale-allow",
        }
    }

    /// All enforceable rules (excludes the meta `annotation` and
    /// `stale-allow` rules, which fire on the annotations themselves).
    pub fn all() -> [Rule; 5] {
        [
            Rule::Panic,
            Rule::PayloadCopy,
            Rule::ForbidUnsafe,
            Rule::Blocking,
            Rule::Nondeterminism,
        ]
    }

    /// One-line description, for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::Panic => {
                "no unwrap()/expect()/panic!/indexing in runtime hot paths without justification"
            }
            Rule::PayloadCopy => {
                "no .to_vec()/.into_vec()/Vec::from deep copies of wire payloads outside sanctioned sites"
            }
            Rule::ForbidUnsafe => {
                "every crate root carries #![forbid(unsafe_code)] (or deny + documented exception)"
            }
            Rule::Blocking => {
                "no thread::sleep or blocking Mutex/RwLock in entry-method execution paths"
            }
            Rule::Nondeterminism => {
                "no hash-order iteration or Instant/SystemTime::now() in scheduling-order-sensitive paths"
            }
            Rule::Annotation => "analyze: allow(..) annotations must be well-formed with a reason",
            Rule::StaleAllow => {
                "analyze: allow(..) annotations must suppress something (workspace audit; --strict)"
            }
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.key(),
            self.msg
        )
    }
}

/// Files subject to the `panic` rule (the runtime hot paths).
pub const PANIC_SCOPE: &[&str] = &[
    "crates/core/src/pe.rs",
    "crates/core/src/location.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/aggregation.rs",
    "crates/core/src/msg.rs",
    "crates/core/src/ctx.rs",
    "crates/core/src/proxy.rs",
    "crates/core/src/reduction.rs",
];

/// Directory whose `impl PeState` blocks are scheduler code whatever file
/// they sit in: the `panic`, `blocking` and `nondeterminism` rules apply
/// inside them exactly as they do to the whole of `pe.rs`.
pub const SCHEDULER_IMPL_DIR: &str = "crates/core/src/";

/// Directory prefixes subject to the `payload-copy` rule.
pub const COPY_SCOPE: &[&str] = &["crates/core/src/", "crates/wire/src/"];

/// Files subject to the `blocking` rule (entry-method execution paths; the
/// Net transport runs PE 0's scheduler loop in-process, so it counts).
pub const BLOCKING_SCOPE: &[&str] = &[
    "crates/core/src/pe.rs",
    "crates/core/src/location.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/aggregation.rs",
    "crates/core/src/msg.rs",
    "crates/core/src/ctx.rs",
    "crates/core/src/proxy.rs",
    "crates/core/src/reduction.rs",
    "crates/core/src/chare.rs",
    "crates/core/src/coro.rs",
    "crates/core/src/net.rs",
];

/// Directory prefixes subject to the `blocking` rule. The transport crate
/// *does* block by design (writer threads, heartbeats, backoff sleeps) —
/// scoping it forces every such site behind a reasoned `net-hook` allow,
/// so a blocking call can never sneak into the crate unexamined.
pub const BLOCKING_PREFIX: &[&str] = &["crates/net/src/"];

/// Files subject to the `nondeterminism` rule: everything whose control
/// flow decides message emission order or virtual time — the PE scheduler,
/// the driver and supervisor, and every transport.
pub const NONDET_SCOPE: &[&str] = &[
    "crates/core/src/pe.rs",
    "crates/core/src/location.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/aggregation.rs",
    "crates/core/src/driver.rs",
    "crates/core/src/runtime.rs",
    "crates/core/src/check.rs",
    "crates/core/src/net.rs",
];

/// Directory prefixes subject to the `nondeterminism` rule: the whole sim
/// crate (a virtual-time engine must never consult hash order or the host
/// clock) and the whole net crate (its wall-clock reads are legitimate but
/// each must carry a `net-hook` allow naming why the time never feeds
/// scheduling decisions visible to the deterministic backends).
pub const NONDET_PREFIX: &[&str] = &["crates/sim/src/", "crates/net/src/"];

/// A source line after lexical masking: `code` has comments and string
/// literals replaced by spaces (same length), `comment` holds the text of
/// any comment on the line.
#[derive(Debug, Default, Clone)]
struct MaskedLine {
    code: String,
    comment: String,
}

/// Lexical masking: walk the source once, routing characters into per-line
/// code and comment buffers. Strings (incl. raw strings and chars) are
/// blanked from the code buffer; comment text is collected separately so
/// annotations can be read without code patterns matching inside comments.
fn mask(src: &str) -> Vec<MaskedLine> {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut lines = vec![MaskedLine::default()];
    let mut st = St::Code;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    macro_rules! cur {
        () => {
            lines.last_mut().expect("lines never empty")
        };
    }
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            lines.push(MaskedLine::default());
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied().unwrap_or('\0');
                let prev_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                if c == '/' && next == '/' {
                    st = St::LineComment;
                    cur!().code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == '*' {
                    st = St::BlockComment(1);
                    cur!().code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    cur!().code.push(' ');
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw/byte string start: r", r#", br", b"...
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw =
                        (c == 'r' || (c == 'b' && j > i + 1)) && chars.get(j) == Some(&'"');
                    if is_raw {
                        for _ in i..=j {
                            cur!().code.push(' ');
                        }
                        st = St::RawStr(hashes);
                        i = j + 1;
                    } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        cur!().code.push_str("  ");
                        st = St::Str;
                        i += 2;
                    } else {
                        cur!().code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal is 'x' or '\..'.
                    let is_char = next == '\\' || (chars.get(i + 2) == Some(&'\'') && next != '\'');
                    if is_char {
                        st = St::Char;
                        cur!().code.push(' ');
                        i += 1;
                    } else {
                        cur!().code.push(c);
                        i += 1;
                    }
                } else {
                    cur!().code.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                cur!().comment.push(c);
                i += 1;
            }
            St::BlockComment(depth) => {
                let next = chars.get(i + 1).copied().unwrap_or('\0');
                if c == '*' && next == '/' {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == '*' {
                    st = St::BlockComment(depth + 1);
                    cur!().comment.push_str("  ");
                    i += 2;
                } else {
                    cur!().comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    cur!().code.push(' ');
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if chars.get(i + 1 + k as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        st = St::Code;
                        i += 1 + hashes as usize;
                        cur!().code.push(' ');
                        continue;
                    }
                }
                i += 1;
            }
            St::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    cur!().code.push(' ');
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    lines
}

/// A parsed `analyze: allow(rule, "reason")` annotation.
struct Allow {
    rule: String,
    has_reason: bool,
}

/// Parse an annotation from one comment string. The annotation must be the
/// start of the comment text (`// analyze: allow(..)` — whether trailing a
/// code line or alone on its own line); this keeps prose and doc comments
/// that merely *mention* the syntax from parsing as annotations (doc
/// comment text begins with a third `/`, so it never matches).
fn parse_allows(comment: &str) -> Vec<Allow> {
    const NEEDLE: &str = "analyze: allow(";
    let Some(body) = comment.trim_start().strip_prefix(NEEDLE) else {
        return Vec::new();
    };
    let rule: String = body
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
        .collect();
    let after = &body[rule.len()..];
    // A reason is `, "non-empty"` right after the rule key.
    let has_reason = after
        .trim_start()
        .strip_prefix(',')
        .map(|s| {
            let s = s.trim_start();
            s.starts_with('"') && s.len() > 2 && !s.starts_with("\"\"")
        })
        .unwrap_or(false);
    vec![Allow { rule, has_reason }]
}

/// Whether line `idx` (0-based) is covered by an `allow(rule)` annotation:
/// on the same line, or on the block of pure-comment lines directly above.
/// Malformed annotations are reported into `out` (once, by the caller
/// scanning every line's comments — this helper only answers coverage).
/// A successful hit records the annotation's line in `used`, which feeds
/// the stale-allow audit.
fn allowed(
    lines: &[MaskedLine],
    idx: usize,
    rule: Rule,
    used: &mut std::collections::BTreeSet<usize>,
) -> bool {
    // Scheduler trace hooks may index/probe state the surrounding dispatch
    // already validated; `allow(trace-hook, "...")` is an umbrella key that
    // suppresses the panic and blocking rules for such instrumentation
    // lines without widening either rule's general budget.
    // `allow(recovery-hook, "...")` is the same umbrella for the
    // fault-tolerance paths (checkpoint encode, injected kills, restore
    // bootstrap), where a panic is either deliberate or pre-validated.
    // `allow(telemetry-hook, "...")` covers the in-band telemetry sweep
    // and metric-sampling paths (frame encode, sink dispatch), where the
    // same pre-validated indexing and deliberate-panic patterns recur.
    // `allow(net-hook, "...")` is the transport umbrella: it additionally
    // covers the nondeterminism rule, because the Net backend's sanctioned
    // sites are precisely blocking I/O *and* wall-clock reads (heartbeat
    // deadlines, backoff sleeps) that by design never reach the
    // deterministic schedulers.
    let umbrella = matches!(rule, Rule::Panic | Rule::Blocking);
    let net_umbrella = matches!(rule, Rule::Panic | Rule::Blocking | Rule::Nondeterminism);
    let hit = |l: &MaskedLine| {
        parse_allows(&l.comment).iter().any(|a| {
            a.has_reason
                && (a.rule == rule.key()
                    || (umbrella
                        && (a.rule == "trace-hook"
                            || a.rule == "recovery-hook"
                            || a.rule == "telemetry-hook"))
                    || (net_umbrella && a.rule == "net-hook"))
        })
    };
    if hit(&lines[idx]) {
        used.insert(idx);
        return true;
    }
    // Scan upward through pure-comment lines.
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        if !l.code.trim().is_empty() {
            return false; // a code line interrupts the comment block
        }
        if l.comment.trim().is_empty() {
            return false; // a blank line ends the comment block
        }
        if hit(l) {
            used.insert(i);
            return true;
        }
    }
    false
}

/// Report malformed/unknown annotations anywhere in the file.
fn check_annotations(path: &str, lines: &[MaskedLine], out: &mut Vec<Finding>) {
    let mut valid: Vec<&str> = Rule::all().iter().map(|r| r.key()).collect();
    valid.push("trace-hook");
    valid.push("recovery-hook");
    valid.push("telemetry-hook");
    valid.push("net-hook");
    for (i, l) in lines.iter().enumerate() {
        for a in parse_allows(&l.comment) {
            if !valid.contains(&a.rule.as_str()) {
                out.push(Finding {
                    file: path.to_string(),
                    line: i + 1,
                    rule: Rule::Annotation,
                    msg: format!(
                        "unknown rule `{}` in analyze: allow(..) — valid: {}",
                        a.rule,
                        valid.join(", ")
                    ),
                });
            } else if !a.has_reason {
                out.push(Finding {
                    file: path.to_string(),
                    line: i + 1,
                    rule: Rule::Annotation,
                    msg: format!(
                        "allow({}) without a reason — write analyze: allow({}, \"why the invariant holds\")",
                        a.rule, a.rule
                    ),
                });
            }
        }
    }
}

/// Positions of indexing expressions in a masked code line: a `[` directly
/// following an identifier character, `)` or `]` is an `Index`/`IndexMut`
/// call (or slice), which panics out of bounds. Attribute lines are skipped
/// (`#[..]` is not an expression).
fn has_indexing(code: &str) -> bool {
    let t = code.trim_start();
    if t.starts_with("#[") || t.starts_with("#![") {
        return false;
    }
    let chars: Vec<char> = code.chars().collect();
    for i in 1..chars.len() {
        if chars[i] == '[' {
            let p = chars[i - 1];
            if p.is_alphanumeric() || p == '_' || p == ')' || p == ']' {
                return true;
            }
        }
    }
    false
}

/// Which lines sit inside an `impl PeState { .. }` block of a file under
/// [`SCHEDULER_IMPL_DIR`]. rustfmt puts a top-level impl's header and its
/// closing brace at column 0, which is all the bracketing this needs.
fn scheduler_impl_lines(path: &str, lines: &[MaskedLine]) -> Vec<bool> {
    let mut inside = false;
    let in_dir = path.starts_with(SCHEDULER_IMPL_DIR);
    lines
        .iter()
        .map(|l| {
            if in_dir && l.code.starts_with("impl PeState") {
                inside = true;
            } else if inside && l.code.trim_end() == "}" {
                inside = false;
                return true;
            }
            inside
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn find_pattern(
    path: &str,
    lines: &[MaskedLine],
    in_scope: &dyn Fn(usize) -> bool,
    rule: Rule,
    patterns: &[&str],
    what: &str,
    out: &mut Vec<Finding>,
    used: &mut std::collections::BTreeSet<usize>,
) {
    for (i, l) in lines.iter().enumerate() {
        if !in_scope(i) {
            continue;
        }
        for pat in patterns {
            if l.code.contains(pat) && !allowed(lines, i, rule, used) {
                out.push(Finding {
                    file: path.to_string(),
                    line: i + 1,
                    rule,
                    msg: format!(
                        "{what} `{}` — justify with `// analyze: allow({}, \"..\")` or rework",
                        pat.trim_end_matches('('),
                        rule.key()
                    ),
                });
                break; // one finding per line per rule
            }
        }
    }
}

/// Path-scoped source rules over pre-masked lines, recording which allow
/// annotations earned their keep in `used`.
fn scan_source(
    path: &str,
    lines: &[MaskedLine],
    out: &mut Vec<Finding>,
    used: &mut std::collections::BTreeSet<usize>,
) {
    check_annotations(path, lines, out);
    let sched = scheduler_impl_lines(path, lines);
    let any_sched = sched.contains(&true);
    // Test modules sit at file end by repo convention; everything after a
    // `#[cfg(test)]` line is test code, exempt from the copy and
    // nondeterminism rules (tests may copy buffers to build fixtures, read
    // the wall clock and iterate hash maps freely).
    let cut = lines
        .iter()
        .position(|l| l.code.trim() == "#[cfg(test)]")
        .unwrap_or(lines.len());

    let panic_file = PANIC_SCOPE.contains(&path);
    if panic_file || any_sched {
        let in_scope = |i: usize| panic_file || sched[i];
        find_pattern(
            path,
            lines,
            &in_scope,
            Rule::Panic,
            &[
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ],
            "panicking construct in runtime hot path:",
            out,
            used,
        );
        for (i, l) in lines.iter().enumerate() {
            if in_scope(i) && has_indexing(&l.code) && !allowed(lines, i, Rule::Panic, used) {
                out.push(Finding {
                    file: path.to_string(),
                    line: i + 1,
                    rule: Rule::Panic,
                    msg: "indexing expression in runtime hot path (panics out of bounds / on \
                          missing key) — justify with `// analyze: allow(panic, \"..\")` or use get()"
                        .to_string(),
                });
            }
        }
    }

    if COPY_SCOPE.iter().any(|p| path.starts_with(p)) {
        find_pattern(
            path,
            lines,
            &|i| i < cut,
            Rule::PayloadCopy,
            &[".to_vec()", ".into_vec()", "Vec::from("],
            "deep copy of a byte buffer in payload-handling code:",
            out,
            used,
        );
    }

    let blocking_file =
        BLOCKING_SCOPE.contains(&path) || BLOCKING_PREFIX.iter().any(|p| path.starts_with(p));
    if blocking_file || any_sched {
        find_pattern(
            path,
            lines,
            &|i| blocking_file || sched[i],
            Rule::Blocking,
            &[
                "thread::sleep",
                "Mutex<",
                "Mutex::new",
                "RwLock<",
                ".lock()",
            ],
            "blocking construct in entry-method execution path:",
            out,
            used,
        );
    }

    let nondet_file =
        NONDET_SCOPE.contains(&path) || NONDET_PREFIX.iter().any(|p| path.starts_with(p));
    if nondet_file || any_sched {
        find_pattern(
            path,
            lines,
            &|i| i < cut && (nondet_file || sched[i]),
            Rule::Nondeterminism,
            &[
                ".keys()",
                ".into_keys()",
                ".values()",
                ".values_mut()",
                ".into_values()",
                ".drain()",
                "Instant::now(",
                "SystemTime::now(",
            ],
            "hash-order iteration or wall-clock read in a scheduling-order-sensitive path:",
            out,
            used,
        );
    }
}

/// Apply all path-scoped rules to one source file. `path` must be
/// workspace-relative with forward slashes. (No stale-allow audit — that
/// needs the crate-root rule's usage too; see [`lint_file`].)
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let lines = mask(src);
    let mut out = Vec::new();
    let mut used = std::collections::BTreeSet::new();
    scan_source(path, &lines, &mut out, &mut used);
    out
}

/// The unsafe-code policy over pre-masked lines (see [`lint_crate_root`]).
fn scan_crate_root(
    path: &str,
    lines: &[MaskedLine],
    out: &mut Vec<Finding>,
    used: &mut std::collections::BTreeSet<usize>,
) {
    let mut forbid = false;
    let mut deny_line = None;
    for (i, l) in lines.iter().enumerate() {
        let code: String = l.code.split_whitespace().collect::<Vec<_>>().join("");
        if code.contains("#![forbid(unsafe_code)]") {
            forbid = true;
        }
        if code.contains("#![deny(unsafe_code)]") {
            deny_line = Some(i);
        }
    }
    match (forbid, deny_line) {
        (true, _) => {}
        (false, Some(i)) => {
            if !allowed(lines, i, Rule::ForbidUnsafe, used) {
                out.push(Finding {
                    file: path.to_string(),
                    line: i + 1,
                    rule: Rule::ForbidUnsafe,
                    msg: "deny(unsafe_code) without a documented exception — add \
                          `// analyze: allow(unsafe, \"why unsafe is needed here\")`"
                        .to_string(),
                });
            }
        }
        (false, None) => {
            out.push(Finding {
                file: path.to_string(),
                line: 1,
                rule: Rule::ForbidUnsafe,
                msg: "crate root lacks #![forbid(unsafe_code)] (or deny + documented exception)"
                    .to_string(),
            });
        }
    }
}

/// Check one crate root for the unsafe-code policy: `#![forbid(unsafe_code)]`
/// passes; `#![deny(unsafe_code)]` passes only with an
/// `analyze: allow(unsafe, "..")` annotation nearby (same or preceding
/// comment lines); anything else is a finding.
pub fn lint_crate_root(path: &str, src: &str) -> Vec<Finding> {
    let lines = mask(src);
    let mut out = Vec::new();
    let mut used = std::collections::BTreeSet::new();
    scan_crate_root(path, &lines, &mut out, &mut used);
    out
}

/// Lint one file completely: source rules, the crate-root rule when the
/// file is a crate root, and the stale-allow audit — a well-formed,
/// reasoned annotation that suppressed nothing across *all* rules is dead
/// weight and gets a [`Rule::StaleAllow`] finding. (Malformed annotations
/// already fire [`Rule::Annotation`] and are not double-reported.)
pub fn lint_file(path: &str, src: &str, is_crate_root: bool) -> Vec<Finding> {
    let lines = mask(src);
    let mut out = Vec::new();
    let mut used = std::collections::BTreeSet::new();
    scan_source(path, &lines, &mut out, &mut used);
    if is_crate_root {
        scan_crate_root(path, &lines, &mut out, &mut used);
    }
    let mut valid: Vec<&str> = Rule::all().iter().map(|r| r.key()).collect();
    valid.push("trace-hook");
    valid.push("recovery-hook");
    valid.push("telemetry-hook");
    valid.push("net-hook");
    for (i, l) in lines.iter().enumerate() {
        for a in parse_allows(&l.comment) {
            if a.has_reason && valid.contains(&a.rule.as_str()) && !used.contains(&i) {
                out.push(Finding {
                    file: path.to_string(),
                    line: i + 1,
                    rule: Rule::StaleAllow,
                    msg: format!(
                        "allow({}) suppresses nothing — the pattern is gone, the file is out of \
                         the rule's scope, or the annotation drifted from the offending line; \
                         remove it or move it back",
                        a.rule
                    ),
                });
            }
        }
    }
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            // target/ never lives under src/, but be safe
            if p.file_name().map(|n| n == "target").unwrap_or(false) {
                continue;
            }
            walk(&p, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    Ok(())
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Every source file the workspace walk covers (under `crates/*/src` and
/// `src/`, sorted), and which of them are crate roots: `lib.rs` (or
/// `main.rs` for bin-only crates) of every member plus the umbrella crate.
fn workspace_sources(root: &Path) -> io::Result<(Vec<PathBuf>, Vec<PathBuf>)> {
    let mut files = Vec::new();
    let mut roots = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
                let (lib, main) = (src.join("lib.rs"), src.join("main.rs"));
                if lib.is_file() {
                    roots.push(lib);
                } else if main.is_file() {
                    roots.push(main);
                }
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    if root_src.join("lib.rs").is_file() {
        roots.push(root_src.join("lib.rs"));
    }
    files.sort();
    Ok((files, roots))
}

/// Lint the whole workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`). Every source file gets the path-scoped rules
/// plus the stale-allow audit; crate roots additionally get the
/// unsafe-code policy.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let (files, roots) = workspace_sources(root)?;
    let mut findings = Vec::new();
    for f in &files {
        let content = fs::read_to_string(f)?;
        findings.extend(lint_file(&rel(root, f), &content, roots.contains(f)));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// The size of the exception list the rules carry: well-formed
/// `analyze: allow(..)` annotations in the workspace files whose relative
/// path starts with `prefix` (`""` = all), counted by allow-key.
pub fn count_allows(
    root: &Path,
    prefix: &str,
) -> io::Result<std::collections::BTreeMap<String, usize>> {
    let mut counts = std::collections::BTreeMap::new();
    for f in workspace_sources(root)?.0 {
        if !rel(root, &f).starts_with(prefix) {
            continue;
        }
        for line in mask(&fs::read_to_string(&f)?) {
            for a in parse_allows(&line.comment) {
                if a.has_reason {
                    *counts.entry(a.rule).or_insert(0) += 1;
                }
            }
        }
    }
    Ok(counts)
}

// ---------------------------------------------------------------------------
// Self-test corpus: one synthetic violation per rule, linted in memory.
// ---------------------------------------------------------------------------

/// Synthetic sources, each seeded with exactly one violation of one rule.
/// Returns `(rule, label, source)` triples; `label` selects the rule scope.
pub fn self_test_corpus() -> Vec<(Rule, &'static str, &'static str)> {
    vec![
        (
            Rule::Panic,
            "crates/core/src/pe.rs",
            "fn hot(map: &std::collections::HashMap<u32, u32>) -> u32 {\n    *map.get(&0).unwrap()\n}\n",
        ),
        (
            Rule::Panic,
            "crates/core/src/msg.rs",
            "fn idx(v: &[u8]) -> u8 {\n    v[3]\n}\n",
        ),
        (
            Rule::PayloadCopy,
            "crates/core/src/pe.rs",
            "fn copy(bytes: &charm_wire::WireBytes) -> Vec<u8> {\n    bytes.to_vec()\n}\n",
        ),
        (
            Rule::ForbidUnsafe,
            "crates/fake/src/lib.rs",
            "//! A crate that forgot the unsafe policy.\npub fn f() {}\n",
        ),
        (
            Rule::Blocking,
            "crates/core/src/ctx.rs",
            "fn nap() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n",
        ),
        (
            Rule::Nondeterminism,
            "crates/core/src/runtime.rs",
            "fn order(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n    m.keys().copied().collect()\n}\n",
        ),
        (
            Rule::Nondeterminism,
            "crates/sim/src/queue.rs",
            "fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
        ),
    ]
}

/// Run the linter over the synthetic corpus. Returns `Ok(findings)` when
/// every seeded violation was detected (the expected outcome — the caller
/// exits nonzero, as a real violating tree would), or `Err(missed)` naming
/// rules the linter failed to catch.
pub fn self_test() -> Result<Vec<Finding>, Vec<Rule>> {
    let mut all = Vec::new();
    let mut missed = Vec::new();
    for (rule, label, src) in self_test_corpus() {
        let found = if rule == Rule::ForbidUnsafe {
            lint_crate_root(label, src)
        } else {
            lint_source(label, src)
        };
        if !found.iter().any(|f| f.rule == rule) {
            missed.push(rule);
        }
        all.extend(found);
    }
    // Over-firing guard: an annotated site must pass clean.
    let annotated = "fn hot(v: &[u8]) -> u8 {\n    // analyze: allow(panic, \"caller bounds-checks\")\n    v[0]\n}\n";
    if lint_source("crates/core/src/pe.rs", annotated)
        .iter()
        .any(|f| f.rule == Rule::Panic)
    {
        missed.push(Rule::Annotation);
    }
    // The trace-hook umbrella must also suppress panic-rule hits on
    // instrumentation lines.
    let hooked = "fn hot(v: &[u8]) -> u8 {\n    // analyze: allow(trace-hook, \"depth probe; the slot was validated by the dispatch above\")\n    v[0]\n}\n";
    if lint_source("crates/core/src/pe.rs", hooked)
        .iter()
        .any(|f| f.rule == Rule::Panic)
    {
        missed.push(Rule::Annotation);
    }
    // Likewise the recovery-hook umbrella for the fault-tolerance paths.
    let recovery = "fn die() {\n    // analyze: allow(recovery-hook, \"injected PE failure the supervisor catches\")\n    panic!(\"boom\");\n}\n";
    if lint_source("crates/core/src/pe.rs", recovery)
        .iter()
        .any(|f| f.rule == Rule::Panic)
    {
        missed.push(Rule::Annotation);
    }
    // And the telemetry-hook umbrella for the metric-sampling paths.
    let sampled = "fn sample(v: &[u8]) -> u8 {\n    // analyze: allow(telemetry-hook, \"frame encode of a value the sampler just built\")\n    v[0]\n}\n";
    if lint_source("crates/core/src/pe.rs", sampled)
        .iter()
        .any(|f| f.rule == Rule::Panic)
    {
        missed.push(Rule::Annotation);
    }
    // The net-hook umbrella must cover blocking I/O *and* wall-clock reads
    // in the transport crate — but never a non-umbrella rule elsewhere.
    let netted = "fn beat() {\n    // analyze: allow(net-hook, \"heartbeat cadence: wall-clock sleep on a supervision thread\")\n    std::thread::sleep(d());\n    // analyze: allow(net-hook, \"deadline arithmetic for the same heartbeat\")\n    let _ = std::time::Instant::now();\n}\n";
    if lint_source("crates/net/src/peer.rs", netted)
        .iter()
        .any(|f| matches!(f.rule, Rule::Blocking | Rule::Nondeterminism))
    {
        missed.push(Rule::Annotation);
    }
    // Stale-allow audit: a dead annotation must be flagged by the full
    // file lint, a load-bearing one must not.
    let stale = "// analyze: allow(panic, \"there is no panic here any more\")\nfn fine() {}\n";
    if !lint_file("crates/core/src/pe.rs", stale, false)
        .iter()
        .any(|f| f.rule == Rule::StaleAllow)
    {
        missed.push(Rule::StaleAllow);
    }
    let live = "fn hot(v: &[u8]) -> u8 {\n    // analyze: allow(panic, \"caller bounds-checks\")\n    v[0]\n}\n";
    if lint_file("crates/core/src/pe.rs", live, false)
        .iter()
        .any(|f| f.rule == Rule::StaleAllow)
    {
        missed.push(Rule::StaleAllow);
    }
    if missed.is_empty() {
        Ok(all)
    } else {
        Err(missed)
    }
}
