//! The ledger files: rendering, parsing and the comparison the workspace
//! suite runs.
//!
//! A file is one JSON object with one row per line, keyed by row name;
//! each row is an object of integer fields:
//!
//! ```text
//! {
//! "fig1/charm++/pes=1": {"virtual_ns": 50000, "envelopes": 2, "bytes": 0},
//! "tb/stencil/allocs": {"allocs_per_100_tasks": 497}
//! }
//! ```
//!
//! Every field is exact except the heap fields in [`CEILINGS`]: the
//! optimiser may remove allocations between the debug and release
//! profiles, so the committed value (regenerated in debug) is a ceiling.

use std::collections::BTreeMap;

/// One ledger row: a name and its integer fields, in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Unique within its file, e.g. `fig1/charm++/pes=1024`.
    pub name: String,
    /// `(field, value)` pairs.
    pub fields: Vec<(String, u64)>,
}

impl Row {
    /// A row from `(field, value)` pairs.
    pub fn new(name: impl Into<String>, fields: &[(&str, u64)]) -> Row {
        let fields = fields.iter().map(|&(f, v)| (f.to_string(), v)).collect();
        Row {
            name: name.into(),
            fields,
        }
    }
}

/// Fields that may fall without failing the comparison (a fall only asks
/// for a regeneration); a rise still fails.
pub const CEILINGS: [&str; 2] = ["allocs_per_100_tasks", "peak_heap_per_pe"];

/// The file text for `rows`, in their order.
pub fn render(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let fields: Vec<String> = r
                .fields
                .iter()
                .map(|(f, v)| format!("\"{f}\": {v}"))
                .collect();
            format!("\"{}\": {{{}}}", r.name, fields.join(", "))
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Read back what [`render`] writes (and nothing looser).
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let body = text
        .trim_end()
        .strip_prefix("{\n")
        .and_then(|t| t.strip_suffix("\n}"))
        .ok_or("not a one-row-per-line JSON object")?;
    let row = |line: &str| -> Option<Row> {
        let line = line.strip_suffix(',').unwrap_or(line);
        let (name, fields) = line.strip_prefix('"')?.split_once("\": {")?;
        let mut parsed = Vec::new();
        for field in fields.strip_suffix('}')?.split(", ") {
            let (f, v) = field.strip_prefix('"')?.split_once("\": ")?;
            parsed.push((f.to_string(), v.parse().ok()?));
        }
        Some(Row {
            name: name.to_string(),
            fields: parsed,
        })
    };
    body.lines()
        .enumerate()
        .map(|(i, line)| row(line).ok_or_else(|| format!("line {}: cannot read {line:?}", i + 2)))
        .collect()
}

/// What a comparison found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Differences that fail the ledger: a changed exact field, a risen
    /// ceiling, a missing or extra row or field.
    pub failures: Vec<String>,
    /// Ceilings that fell: the file should be regenerated.
    pub regenerate: Vec<String>,
}

/// Compare the rows just computed against the text of committed `file`.
/// Only committed rows whose name passes `scope` are expected; every
/// computed row must be committed.
pub fn compare(
    file: &str,
    committed: &str,
    fresh: &[Row],
    scope: impl Fn(&str) -> bool,
) -> Verdict {
    let mut v = Verdict::default();
    let committed = match parse(committed) {
        Ok(rows) => rows,
        Err(e) => {
            v.failures.push(format!("{file}: {e}"));
            return v;
        }
    };
    let map = |rows: &[Row]| -> BTreeMap<String, BTreeMap<String, u64>> {
        let fields = |r: &Row| r.fields.iter().cloned().collect();
        rows.iter().map(|r| (r.name.clone(), fields(r))).collect()
    };
    let (old, new) = (map(&committed), map(fresh));
    for (rows, map, what) in [
        (&committed[..], &old, "committed"),
        (fresh, &new, "computed"),
    ] {
        if map.len() < rows.len() {
            v.failures
                .push(format!("{file}: a row name repeats in the {what} rows"));
        }
    }
    for name in old.keys().filter(|n| scope(n) && !new.contains_key(*n)) {
        v.failures.push(format!(
            "{file}: row {name}: committed but no longer computed"
        ));
    }
    for (name, fields) in &new {
        let Some(was) = old.get(name) else {
            v.failures
                .push(format!("{file}: row {name}: computed but not committed"));
            continue;
        };
        for f in was.keys().filter(|f| !fields.contains_key(*f)) {
            v.failures.push(format!(
                "{file}: row {name}: field {f}: committed but no longer computed"
            ));
        }
        for (f, &now) in fields {
            let at = format!("{file}: row {name}: field {f}");
            match was.get(f) {
                None => v.failures.push(format!("{at}: computed but not committed")),
                Some(&then) if now == then => {}
                Some(&then) if now < then && CEILINGS.contains(&f.as_str()) => v
                    .regenerate
                    .push(format!("{at}: ceiling {then}, now {now}: regenerate")),
                Some(&then) => v
                    .failures
                    .push(format!("{at}: committed {then}, computed {now}")),
            }
        }
    }
    v
}
