#!/usr/bin/env bash
# Builds the `algst` binary and the service benchmark from source, then
# runs the benchmark. Run from the repository root:
#
#   bash svcbench/run.sh --workload warm-replay --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's
# progress goes to stderr, so standard output carries only the report,
# whose last line is the JSON result.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/server || ! -f svcbench/Cargo.toml ]]; then
    echo "svcbench/run.sh: run from the root of an AlgST checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin algst >&2
cargo build --release --offline --quiet --manifest-path svcbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/algst-svcbench" --algst "$CARGO_TARGET_DIR/release/algst" "$@"
