#!/usr/bin/env bash
# Build the benchmark (release, offline, from the committed lock file) and
# hand it every argument. Run from the root of a checkout:
#
#   benchmark/run.sh                          every workload, results in benchmark/out/results.json
#   benchmark/run.sh --trace                  the same plus one traced run each (per-layer numbers, trace.json)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare base.json new.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/charm-benchmark" "$@"
