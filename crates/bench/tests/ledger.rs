//! The ledger: recompute every row of the committed `BENCH_*.json` files
//! and demand equality (heap fields: no rise). A row that moves fails
//! here by file, row and field; regenerate with
//! `cargo run -p charm-bench --bin ledger` and say why in CHANGES.md.
//! Then the comparison itself, on rows made up here.

#[path = "../../trace/tests/common/counting_alloc.rs"]
mod counting_alloc;

use charm_bench::ledger::{compare, parse, render, Row};
use charm_bench::SIM_PES;

const COUNTER: charm_bench::Counter = charm_bench::Counter {
    measure: |f| {
        let ((), h) = counting_alloc::measure(f);
        charm_bench::Heap {
            allocs: h.allocs as u64,
            peak: h.peak as u64,
        }
    },
    hold: counting_alloc::hold,
};

/// Compare `rows` with committed `file`, over the committed rows in `scope`.
fn check(file: &str, rows: &[Row], scope: impl Fn(&str) -> bool) {
    let path = charm_bench::path(file);
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let verdict = compare(file, &committed, rows, scope);
    for note in &verdict.regenerate {
        eprintln!("{note}");
    }
    assert!(
        verdict.failures.is_empty(),
        "{file} differs from what the code computes; if the change is meant, \
         regenerate with `cargo run -p charm-bench --bin ledger` and say why in CHANGES.md:\n{}",
        verdict.failures.join("\n")
    );
}

#[test]
fn e2e() {
    check("BENCH_e2e.json", &charm_bench::e2e(), |_| true);
}

#[test]
fn coll() {
    check("BENCH_coll.json", &charm_bench::coll(), |_| true);
}

#[test]
fn tb() {
    check("BENCH_tb.json", &charm_bench::tb(COUNTER), |_| true);
}

/// The largest ring pulse's row name; [`sim_largest`] checks it.
fn largest(name: &str) -> bool {
    name.ends_with(&format!("/pes={}", SIM_PES[SIM_PES.len() - 1]))
}

#[test]
fn sim() {
    let rows = charm_bench::sim(COUNTER, &SIM_PES[..SIM_PES.len() - 1]);
    check("BENCH_sim.json", &rows, |name| !largest(name));
}

#[test]
#[ignore = "65,536 PEs: ~40 s and ~0.5 GB in debug; CI runs it in release"]
fn sim_largest() {
    let rows = charm_bench::sim(COUNTER, &SIM_PES[SIM_PES.len() - 1..]);
    check("BENCH_sim.json", &rows, largest);
}

// ---------------------------------------------------------------------------
// The comparison itself
// ---------------------------------------------------------------------------

fn made_up() -> Vec<Row> {
    vec![
        Row::new(
            "a/pes=2",
            &[("virtual_ns", 10), ("allocs_per_100_tasks", 50)],
        ),
        Row::new("b (lb)", &[("envelopes", 3), ("peak_heap_per_pe", 700)]),
    ]
}

#[test]
fn a_changed_value_fails_naming_file_row_and_field() {
    let text = render(&made_up());
    assert_eq!(parse(&text).unwrap(), made_up());
    let mut fresh = made_up();
    fresh[1].fields[0].1 = 4;
    let v = compare("BENCH_x.json", &text, &fresh, |_| true);
    assert_eq!(
        v.failures,
        ["BENCH_x.json: row b (lb): field envelopes: committed 3, computed 4"]
    );
}

#[test]
fn a_missing_or_extra_row_or_field_fails() {
    let text = render(&made_up());
    let v = compare("BENCH_x.json", &text, &made_up()[..1], |_| true);
    assert_eq!(
        v.failures,
        ["BENCH_x.json: row b (lb): committed but no longer computed"]
    );
    // Outside the scope a committed row is not expected.
    let v = compare("BENCH_x.json", &text, &made_up()[..1], |n| {
        n.starts_with("a/")
    });
    assert!(v.failures.is_empty());

    let mut fresh = made_up();
    fresh.push(Row::new("c", &[("bytes", 1)]));
    fresh[0].fields.push(("bytes".into(), 9));
    let v = compare("BENCH_x.json", &text, &fresh, |_| true);
    assert_eq!(
        v.failures,
        [
            "BENCH_x.json: row a/pes=2: field bytes: computed but not committed",
            "BENCH_x.json: row c: computed but not committed",
        ]
    );
    let v = compare("BENCH_x.json", "{\n\"c\": 1\n}\n", &fresh, |_| true);
    assert_eq!(
        v.failures,
        [r#"BENCH_x.json: line 2: cannot read "\"c\": 1""#]
    );
}

#[test]
fn heap_fields_are_ceilings() {
    let text = render(&made_up());
    let mut fresh = made_up();
    fresh[0].fields[1].1 = 49;
    fresh[1].fields[1].1 = 699;
    let v = compare("BENCH_x.json", &text, &fresh, |_| true);
    assert!(v.failures.is_empty(), "{:?}", v.failures);
    assert_eq!(
        v.regenerate,
        [
            "BENCH_x.json: row a/pes=2: field allocs_per_100_tasks: ceiling 50, now 49: regenerate",
            "BENCH_x.json: row b (lb): field peak_heap_per_pe: ceiling 700, now 699: regenerate",
        ]
    );
    fresh[0].fields[1].1 = 51;
    let v = compare("BENCH_x.json", &text, &fresh, |_| true);
    assert_eq!(
        v.failures,
        ["BENCH_x.json: row a/pes=2: field allocs_per_100_tasks: committed 50, computed 51"]
    );
}
