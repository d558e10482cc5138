#!/usr/bin/env bash
# The lint checks clippy cannot make by itself (DESIGN.md §6).
#
#   bash ci/lints.sh ceiling     the exception list only shrinks
#   bash ci/lints.sh map-index   no `map[&k]` in the scheduler's hot path
#   bash ci/lints.sh manifests   every crate takes the workspace's lint table
#   bash ci/lints.sh bite        every lint fails clippy on a seeded violation
#
# Run from the repository root. `bite` lints a copy of the tree in a
# temporary directory, one seeded violation at a time (a few minutes).
set -euo pipefail

# `#[expect(` attributes in non-test code under crates/*/src: test modules
# sit at the end of their file, after `#[cfg(test)]`. Lower it when an
# exception goes; never raise it.
CEILING=86

ceiling() {
    local n
    n=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        !t && /#!?\[expect\(/ { n++ }
        END { print n + 0 }')
    echo "#[expect(..)] in non-test code under crates/*/src: $n (ceiling $CEILING)"
    test "$n" -le "$CEILING"
}

# Clippy misses some map indexing: `indexing_slicing` flags a map held by
# value (`self.table[&k]`) but not one reached through a reference
# (`m[&k]` with `m: &HashMap<..>`), and a `disallowed-methods` entry for
# `Index::index` never fires on the `[]` operator. So look for `[&` right
# after an identifier, `)` or `]` wherever the panic rule holds: files that
# deny `indexing_slicing` at the top, and the `impl PeState` blocks of
# crates/core/src. (`m[k]` with `k` already a reference gets through both.)
map_index() {
    awk '
        FNR == 1 { whole = 0; sched = 0; t = 0 }
        /^#!\[cfg_attr\(not\(test\), deny\(.*clippy::indexing_slicing/ { whole = 1 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        /^impl PeState/ { sched = 1 }
        { code = $0; sub(/\/\/.*/, "", code) }
        !t && (whole || sched) && code ~ /[[:alnum:]_)\]]\[&/ {
            print FILENAME ":" FNR ": map indexing panics on a missing key; use get()"
            bad = 1
        }
        sched && /^}/ { sched = 0 }
        END { exit bad }' crates/core/src/*.rs
}

# A crate without `[lints] workspace = true` loses the unsafe policy and the
# reason rule, and every listed call in it becomes a warning. Clippy sees
# the last only where the crate makes such a call (`bite` seeds charm-core's
# manifest); a crate that makes none (charm-sim, today) passes it either way.
manifests() {
    local bad=0 m
    for m in crates/*/Cargo.toml; do
        if ! grep -A1 -x '\[lints\]' "$m" | grep -qx 'workspace = true'; then
            echo "$m: missing [lints] workspace = true"
            bad=1
        fi
    done
    return "$bad"
}

# One seeded violation: append `code` to `file` (or run `edit` on it), lint
# `pkg` (its lib, or the targets `targets` names), and demand that clippy
# fails with `want` in its output.
seed() {
    local name=$1 pkg=$2 file=$3 want=$4 code=$5 targets=${6:---lib} out
    if [ -n "$code" ]; then
        printf '\n%s\n' "$code" >>"$tmp/$file"
    else
        "$edit" "$tmp/$file"
    fi
    if out=$(cd "$tmp" && cargo clippy --offline --locked --color never -q -p "$pkg" "$targets" \
        -- -D warnings 2>&1); then
        echo "NOT CAUGHT: $name ($file)"
        failed=1
    elif ! grep -qF -- "$want" <<<"$out"; then
        echo "WRONG FAILURE: $name ($file) did not report: $want"
        echo "$out" | head -n 20
        failed=1
    else
        echo "caught: $name"
    fi
    cp "$file" "$tmp/$file"
}

drop_lints_table() {
    sed -i '/^\[lints\]$/,/^workspace = true$/d' "$1"
}

bite() {
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git ls-files -z --cached --others --exclude-standard |
        tar --null -T - --ignore-failed-read -cf - 2>/dev/null | tar -xf - -C "$tmp"
    export CARGO_TARGET_DIR="$tmp/target"
    failed=0
    local allow='#[allow(dead_code, reason = "seeded violation")]'
    local map='std::collections::HashMap<u32, u32>'
    seed unwrap charm-core crates/core/src/pe.rs 'unwrap_used' \
        "$allow fn seeded(m: &$map) -> u32 { *m.get(&0).unwrap() }"
    seed indexing charm-core crates/core/src/msg.rs 'indexing_slicing' \
        "$allow fn seeded(v: &[u8]) -> u8 { v[3] }"
    seed payload-copy charm-core crates/core/src/pe.rs 'disallowed method `slice::to_vec`' \
        "$allow fn seeded(b: &[u8]) -> Vec<u8> { b.to_vec() }"
    seed sleep charm-core crates/core/src/ctx.rs 'disallowed method `std::thread::sleep`' \
        "$allow fn seeded() { std::thread::sleep(std::time::Duration::from_millis(1)) }"
    seed hash-order charm-core crates/core/src/runtime.rs \
        'disallowed method `std::collections::HashMap::keys`' \
        "$allow fn seeded(m: &$map) -> Vec<u32> { m.keys().copied().collect() }"
    seed hash-loop charm-core crates/core/src/driver.rs 'iter_over_hash_type' \
        "$allow fn seeded(m: &$map) -> u32 { let mut s = 0; for (k, _) in m { s ^= k; } s }"
    seed clock charm-sim crates/sim/src/model.rs 'disallowed method `std::time::Instant::now`' \
        "$allow fn seeded() -> std::time::Instant { std::time::Instant::now() }"
    seed unsafe charm-wire crates/wire/src/varint.rs 'usage of an `unsafe` block' \
        "$allow fn seeded(p: *const u8) -> u8 { unsafe { *p } }"
    seed stale-expect charm-core crates/core/src/pe.rs 'this lint expectation is unfulfilled' \
        "$allow #[expect(clippy::unwrap_used, reason = \"panic: nothing here unwraps\")] fn seeded() {}"
    seed no-reason charm-core crates/core/src/pe.rs 'without specifying a reason' \
        "$allow #[expect(clippy::unwrap_used)] fn seeded(o: Option<u8>) -> u8 { o.unwrap() }"
    edit=drop_lints_table
    seed "no [lints] table" charm-core crates/core/Cargo.toml 'use of a disallowed' '' --all-targets
    return "$failed"
}

case "${1:-}" in
    ceiling) ceiling ;;
    map-index) map_index ;;
    manifests) manifests ;;
    bite) bite ;;
    *)
        echo "usage: bash ci/lints.sh ceiling|map-index|manifests|bite" >&2
        exit 2
        ;;
esac
