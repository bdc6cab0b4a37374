#!/usr/bin/env bash
# Builds the release `deepn` binary and the benchmark, then runs the
# benchmark with the given arguments, e.g.
#
#   bash deepnbench/run.sh --workload small_burst --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output and run files go under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin deepn >&2
cargo build --release --offline --quiet --manifest-path deepnbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/deepnbench" \
    --deepn "$CARGO_TARGET_DIR/release/deepn" \
    --work "$CARGO_TARGET_DIR/deepnbench-run" \
    --spec BENCHMARK.json \
    "$@"
