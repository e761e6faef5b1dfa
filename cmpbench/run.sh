#!/usr/bin/env bash
# Builds the simulator's `serve` binary and the benchmark from source,
# then runs the benchmark with the given arguments. Run from the root of
# a cmpsim checkout:
#
#   bash cmpbench/run.sh --workload table5_steady --seed 11 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); build
# logs go to stderr, so the benchmark's JSON result stays the last line
# of stdout.
set -euo pipefail

root=$(pwd)
bench="$root/cmpbench"
target=${CARGO_TARGET_DIR:-.bench_build}
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p cmpsim-bench --bin serve >&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2
exec "$target/release/cmpbench" --serve-bin "$target/release/serve" --out-dir "$target/cmpbench" "$@"
