//! Service-metrics inertness + SLO gate (`scripts/ci.sh`).
//!
//! Runs the smoke grid cold then warm through `run_grid` with a store
//! and asserts the metrics contract from three sides:
//!
//! - **bit-inertness** — both runs produce the exact `grid_digest`
//!   golden (`tests/golden/grid_digest.txt`): recording counters and
//!   latency histograms changes nothing the simulator computes;
//! - **accounting** — the compute-latency histogram counted exactly the
//!   computed cells and the warm run is all cache
//!   (`grid_cells_cached == cells`, `grid_cells_computed == 0`);
//! - **export** — after the store copies its `StoreStats` into the
//!   registry, the flat-JSON snapshot parses under the repo's own
//!   flat-JSON framing with every required key.
//!
//! Writes `target/bench/service_metrics.json` (snapshot/export costs
//! plus headline service numbers) for CI to track as
//! `BENCH_service_metrics.json`.
//!
//! Usage:
//!   CMPSIM_STORE=$(mktemp -d) cargo run --release --example metrics_gate

use cmpsim::core::flatjson::parse_flat;
use cmpsim::core::store::ResultStore;
use cmpsim::trace::WorkloadSpec;
use cmpsim::{
    all_workloads, report, run_grid, CellError, GridCell, RunOptions, SimLength, SystemConfig,
    Variant,
};
use cmpsim_harness::bench::Runner;
use cmpsim_harness::metrics;
use std::sync::Arc;
use std::time::Instant;

const VARIANTS: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

const GOLDEN_PATH: &str = "tests/golden/grid_digest.txt";

/// Every key the `{"metrics":1}` snapshot line must carry for the
/// serve-daemon contract: store, driver and histogram coverage.
const REQUIRED_KEYS: [&str; 10] = [
    "store_hits",
    "store_misses",
    "store_published",
    "store_corrupt_skipped",
    "store_evicted_files",
    "store_resident_bytes",
    "grid_cells_computed",
    "grid_cells_cached",
    "grid_cell_compute_nanos_count",
    "grid_cell_compute_nanos_p95",
];

/// One smoke-grid sweep on 4 workers against `store`.
fn sweep(
    specs: &[WorkloadSpec],
    base: &SystemConfig,
    len: SimLength,
    store: &Arc<ResultStore>,
) -> Result<Vec<GridCell>, CellError> {
    let opts = RunOptions::threads(4).with_store(Arc::clone(store));
    run_grid(specs, base, &VARIANTS, len, &opts).into_iter().collect()
}

fn main() {
    let base = SystemConfig::paper_default(4).with_seed(11);
    let len = SimLength { warmup: 5_000, measure: 20_000 };
    let specs = all_workloads();
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH}: {e}"));
    let golden = golden.trim();

    let dir = std::env::var("CMPSIM_STORE")
        .unwrap_or_else(|_| "target/metrics-gate-store".to_string());
    let _ = std::fs::remove_dir_all(&dir);

    let t0 = Instant::now();
    let cold_store = ResultStore::open(&dir);
    let cold = sweep(&specs, &base, len, &cold_store)
        .expect("cold smoke grid simulates");
    let cold_digest = report::grid_digest(&cold);
    let cold_stats = cold_store.stats();
    let cold_snap = metrics::global().snapshot();
    let cold_secs = t0.elapsed().as_secs_f64();
    println!(
        "cold: {} cells in {cold_secs:.2}s, compute histogram count {}",
        cold.len(),
        cold_snap.histogram("grid_cell_compute_nanos").map_or(0, |h| h.count),
    );

    // Fresh counters for the warm phase so its accounting gates read the
    // warm run alone (registered handles stay live across the reset).
    metrics::global().reset();
    let t1 = Instant::now();
    let warm_store = ResultStore::open(&dir);
    let warm = sweep(&specs, &base, len, &warm_store)
        .expect("warm smoke grid resolves");
    let warm_digest = report::grid_digest(&warm);
    let warm_stats = warm_store.stats();
    warm_store.export_metrics();
    let warm_snap = metrics::global().snapshot();
    let warm_secs = t1.elapsed().as_secs_f64();
    println!(
        "warm: {} cells in {warm_secs:.2}s, hit rate {:.1}%",
        warm.len(),
        warm_stats.hit_rate_pct(),
    );

    let flat = warm_snap.to_flat_json();

    let mut ok = true;
    let mut gate = |label: &str, pass: bool| {
        if pass {
            println!("metrics gate: {label}: ok");
        } else {
            eprintln!("metrics gate: {label}: FAILED");
            ok = false;
        }
    };

    gate("cold digest matches golden", cold_digest == golden);
    gate("warm digest matches golden", warm_digest == golden);
    gate(
        "cold histogram counted every computed cell",
        cold_snap.histogram("grid_cell_compute_nanos").map_or(0, |h| h.count)
            == cold_stats.published,
    );
    gate(
        "warm run is all cache",
        warm_snap.counter("grid_cells_cached") == Some(warm.len() as u64)
            && warm_snap.counter("grid_cells_computed") == Some(0)
            && warm_stats.misses == 0,
    );
    gate(
        "no corrupt records in either phase",
        cold_stats.corrupt_skipped == 0 && warm_stats.corrupt_skipped == 0,
    );
    gate(
        "flat-JSON snapshot parses under the repo framing",
        parse_flat(&flat).is_some(),
    );
    gate(
        "flat-JSON snapshot carries every required key",
        REQUIRED_KEYS.iter().all(|k| flat.contains(&format!("\"{k}\":"))),
    );

    // Artifact: the cost of the observability itself plus the headline
    // service numbers, tracked as BENCH_service_metrics.json.
    let mut runner = Runner::new("service_metrics", 2, 20);
    runner.bench("metrics/registry_snapshot", || metrics::global().snapshot());
    runner.bench("metrics/flat_json_export", || {
        metrics::global().snapshot().to_flat_json()
    });
    runner.metric("cold_cells", cold.len() as f64);
    runner.metric("cold_wall_s", cold_secs);
    runner.metric("warm_wall_s", warm_secs);
    runner.metric("warm_hit_rate_pct", warm_stats.hit_rate_pct());
    runner.metric(
        "compute_p50_ns",
        cold_snap.histogram("grid_cell_compute_nanos").map_or(0, |h| h.quantile(0.50)) as f64,
    );
    runner.metric(
        "compute_p95_ns",
        cold_snap.histogram("grid_cell_compute_nanos").map_or(0, |h| h.quantile(0.95)) as f64,
    );
    runner.metric(
        "compute_p99_ns",
        cold_snap.histogram("grid_cell_compute_nanos").map_or(0, |h| h.quantile(0.99)) as f64,
    );
    runner.metric(
        "store_resident_bytes",
        warm_snap.gauge("store_resident_bytes").unwrap_or(0) as f64,
    );
    runner.write_json().expect("write service_metrics.json");

    if !ok {
        eprintln!(
            "cold digest {cold_digest}, warm digest {warm_digest}, golden {golden} \
             (store dir: {dir})\nsnapshot: {flat}"
        );
        std::process::exit(1);
    }
}
