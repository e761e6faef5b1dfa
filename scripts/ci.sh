#!/usr/bin/env bash
# Tier-1 CI: build + test the whole workspace fully offline, then verify
# no crate manifest has reintroduced a registry dependency.
#
# The workspace is hermetic by construction — every dependency is a
# path dependency on a sibling crate, and the test/bench harness lives
# in crates/harness — so `--offline` must always succeed. Run from
# anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: offline build =="
cargo build --release --offline

echo "== tier-1: offline tests (whole workspace) =="
cargo test -q --offline --workspace

echo "== supervision, store resume/quarantine + determinism suites =="
# Named explicitly (they also run as part of --workspace above) so a
# failure in the resilience contract (fault isolation, resume and
# quarantine through the result store, thread invariance of run_grid)
# is unmissable in the CI log.
cargo test -q --offline -p cmpsim-harness supervise
cargo test -q --offline --test determinism --test resilience --test chaos

echo "== codec conformance + differential oracle suites =="
# Cross-codec law kit (round-trip, sizing agreement, zero-fill
# monotonicity, never-expands) against FPC/BDI/ZCA, plus the oracle test
# pinning trait-routed FPC byte-for-byte to the historical fast path
# (including the exhaustive 2^16 zero-mask sweep).
cargo test -q --offline --test codecs
cargo test -q --offline -p cmpsim-fpc --test codec_oracle

echo "== invariant-checked smoke cell (CMPSIM_CHECK=1) =="
CMPSIM_CHECK=1 cargo run -q --release --offline --example checked_smoke

echo "== hot-path bit-identity gate (run_grid vs seed golden) =="
# The smoke grid's FNV-1a digest over every seed-era result field must
# match tests/golden/grid_digest.txt, recorded from the pre-optimization
# engine: the hot-path data structures (fastmap, timing-wheel event
# queue, flat tag arrays, word-parallel FPC sizing) must never change
# simulation results. The same run also gates the BDI/ZCA smoke grids
# against the goldens recorded when the pluggable codec suite landed,
# and an 8-core steady-state grid (200k warmup + 60k measured
# instructions per core, full shared L2: VSC eviction, victim tags,
# writebacks) against tests/golden/grid_digest_steady.txt.
cargo run -q --release --offline --example grid_digest

echo "== tracing-inertness gate (grid digest under CMPSIM_TRACE=1) =="
# The flight recorder and cycle sampler must be observe-only: the same
# digest gate, re-run with tracing armed, must match the golden recorded
# without tracing. Telemetry artifacts land in a scratch dir and one is
# schema-checked by the timeline consumer.
trace_dir=$(mktemp -d)
CMPSIM_TRACE=1 CMPSIM_TELEMETRY_DIR="$trace_dir" \
    cargo run -q --release --offline --example grid_digest
ls "$trace_dir"/*.jsonl > /dev/null || {
    echo "traced grid left no telemetry artifacts in $trace_dir" >&2
    exit 1
}
cargo run -q --release --offline --example timeline -- --check \
    "$(ls "$trace_dir"/*.jsonl | head -1)"
rm -rf "$trace_dir"

echo "== chaos gates: disarmed inertness + seeded bit-reproducibility =="
# Disarmed inertness is already pinned by the digest gates above: the
# chaos engine is compiled in but unarmed there, and the goldens predate
# it — any leak of fault machinery into a disarmed run churns the
# digest. Armed runs must be bit-reproducible from the seed alone, so
# the chaos smoke (which also asserts 1/2/8-thread invariance and
# prints the per-site fault table) is run twice and diffed byte-for-byte.
chaos_a=$(mktemp) chaos_b=$(mktemp)
CMPSIM_CHAOS=7:0.02 cargo run -q --release --offline --example chaos_smoke > "$chaos_a"
CMPSIM_CHAOS=7:0.02 cargo run -q --release --offline --example chaos_smoke > "$chaos_b"
diff "$chaos_a" "$chaos_b" || {
    echo "armed chaos run is not bit-reproducible from its seed" >&2
    exit 1
}
rm -f "$chaos_a" "$chaos_b"

echo "== throughput baseline (smoke grid, JSON artifact) =="
# Engine events/sec and committed MIPS per variant on the smoke grid;
# the artifact lands in target/bench/throughput.json so CI runs leave a
# comparable record (see DESIGN.md, Performance).
CMPSIM_BENCH_WARMUP=1 CMPSIM_BENCH_ITERS=3 \
    cargo bench -q --offline -p cmpsim-bench --bench throughput
test -s target/bench/throughput.json || {
    echo "throughput bench artifact missing" >&2
    exit 1
}

echo "== codec-throughput gate (vs BENCH_codec_throughput.json baseline) =="
# The bench stage above also re-measured per-codec compress/decompress
# rates into target/bench/codec_throughput.json. Compare against the
# committed baseline: print the PR-over-PR delta table, fail on any
# >2x throughput regression, and require the FPC dispatch-table decoder
# to keep its >=2x speedup over the in-tree scalar reference on
# zero-heavy lines. The committed baseline changes only on an explicit
# refresh (see .claude/skills/verify/SKILL.md), never as a side effect
# of a CI run, so one noisy run cannot become the next baseline.
test -s target/bench/codec_throughput.json || {
    echo "codec throughput bench artifact missing" >&2
    exit 1
}
cargo run -q --release --offline --example codec_gate

echo "== result-store gate (cold -> warm: 0 recomputes, digest unchanged) =="
# The smoke grid runs twice against one store: the cold pass computes and
# publishes every cell, the warm pass must compute 0 cells with a >=95%
# hit rate (it achieves 100%), zero CRC/framing errors, and both passes
# must produce the exact grid_digest golden — the store changes *when*
# results are computed, never *what* they are.
store_dir=$(mktemp -d)
CMPSIM_STORE="$store_dir" cargo run -q --release --offline --example store_gate

echo "== store warm-rerun speedup (JSON artifact) =="
# Cold-vs-warm wall-clock for the same grid, recorded to
# target/bench/store_warm.json (speedup, hit rate, recomputed cells).
cargo bench -q --offline -p cmpsim-bench --bench store_warm
test -s target/bench/store_warm.json || {
    echo "store warm-rerun bench artifact missing" >&2
    exit 1
}

echo "== serve daemon smoke (two sweeps on stdin share the store) =="
# Two identical sweep requests through the daemon: the first computes,
# the second must be served entirely from the store (0 misses) with a
# 100% hit rate and no corrupt records. A {"metrics":1} query on the
# same stream must answer one flat-JSON registry snapshot covering all
# three instrumented layers (store_*, grid_*, serve_*).
serve_out=$(printf '%s\n' \
    '{"sweep":"ci-cold","workloads":"apsi,mgrid","variants":"base,pf","cores":2,"warmup":2000,"measure":8000,"threads":2}' \
    '{"sweep":"ci-warm","workloads":"apsi,mgrid","variants":"base,pf","cores":2,"warmup":2000,"measure":8000,"threads":2}' \
    '{"metrics":1}' \
    | CMPSIM_STORE="$store_dir" \
        cargo run -q --release --offline -p cmpsim-bench --bin serve)
echo "$serve_out" | grep '"sweep":"ci-warm","done":1' \
        | grep '"store_misses":0' | grep -q '"corrupt_skipped":0' || {
    echo "serve daemon warm sweep was not served from the store:" >&2
    echo "$serve_out" >&2
    exit 1
}
metrics_line=$(echo "$serve_out" | grep '^{"metrics":1')
for key in store_hits store_misses store_resident_bytes grid_cells_computed \
        grid_cells_cached serve_requests serve_sweeps serve_request_nanos_p99; do
    echo "$metrics_line" | grep -q "\"$key\":" || {
        echo "serve metrics snapshot is missing \"$key\":" >&2
        echo "$metrics_line" >&2
        exit 1
    }
done
echo "$metrics_line" | grep -q '"serve_sweeps":2' || {
    echo "serve metrics snapshot did not count both sweeps: $metrics_line" >&2
    exit 1
}
rm -rf "$store_dir"

echo "== metrics gate: inertness + accounting + export schema =="
# Metrics recording is always on, and the digest gate above already ran
# with it against goldens that predate the registry, so counters and
# latency histograms are pinned observe-only there. metrics_gate asserts
# the same goldens through a cold and a warm store pass, that the warm
# pass is all cache, and that the flat-JSON snapshot (after the store
# exports its StoreStats) parses under the repo framing with every
# required key; it also writes the target/bench/service_metrics.json
# artifact (the committed BENCH_service_metrics.json is refreshed by
# hand only).
metrics_store=$(mktemp -d)
CMPSIM_STORE="$metrics_store" cargo run -q --release --offline --example metrics_gate
rm -rf "$metrics_store"
test -s target/bench/service_metrics.json || {
    echo "service metrics bench artifact missing" >&2
    exit 1
}

echo "== hermeticity gate: no registry dependencies =="
# A registry dependency in a manifest is one whose spec carries a
# `version` requirement (string or inline-table form) instead of being a
# pure `path`/`workspace = true` reference. The workspace-level versions
# of the cmpsim-* crates live in [workspace.dependencies] with `path`
# keys; anything else is a regression.
violations=$(
    find . -name Cargo.toml -not -path './target/*' -print0 \
        | xargs -0 awk '
            /^\[/ { in_deps = ($0 ~ /dependencies/) }
            in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ \
                && !/path[[:space:]]*=/ && !/workspace[[:space:]]*=/ {
                print FILENAME ":" FNR ": " $0
            }
        '
)
if [ -n "$violations" ]; then
    echo "registry dependencies found in Cargo.toml manifests:" >&2
    echo "$violations" >&2
    exit 1
fi

# Belt and braces: the resolved dependency graph must contain only
# workspace crates (all paths under this repo, no registry sources).
if cargo tree --offline --workspace --prefix none 2>/dev/null \
        | grep -vE '^\s*$' | grep -v '(/' | grep -q .; then
    echo "cargo tree reports crates outside the workspace:" >&2
    cargo tree --offline --workspace --prefix none | grep -v '(/' >&2
    exit 1
fi

echo "CI OK: offline build + tests passed, dependency graph is workspace-only"
