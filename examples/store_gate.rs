//! Result-store bit-inertness gate (`scripts/ci.sh`).
//!
//! Runs the same smoke grid as `examples/grid_digest.rs` twice through
//! `run_grid` against one result store: cold (empty
//! store — every cell computed and published) and warm (fresh store
//! handle over the same directory — every cell served back). The gate
//! asserts the store is *bit-inert* and actually *working*:
//!
//! - the warm run computes **0 cells** (misses = 0, published = 0) and
//!   its hit rate is 100% (CI requires ≥ 95%),
//! - no record was skipped for a CRC/framing failure in either run,
//! - both runs produce the exact `grid_digest` golden recorded from the
//!   seed engine (`tests/golden/grid_digest.txt`) — the store changed
//!   *when* results were computed, never *what* they are.
//!
//! Usage:
//!   CMPSIM_STORE=$(mktemp -d) cargo run --release --example store_gate

use cmpsim::core::store::ResultStore;
use cmpsim::trace::WorkloadSpec;
use cmpsim::{
    all_workloads, report, run_grid, CellError, GridCell, RunOptions, SimLength, SystemConfig,
    Variant,
};
use std::sync::Arc;
use std::time::Instant;

const VARIANTS: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

const GOLDEN_PATH: &str = "tests/golden/grid_digest.txt";

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

    // The gate owns its store directory: CMPSIM_STORE if the caller set
    // one (ci.sh passes a mktemp dir), else a scratch path under target/.
    // Either way it starts empty so "cold" means cold.
    let dir = std::env::var("CMPSIM_STORE")
        .unwrap_or_else(|_| "target/store-gate".to_string());
    let _ = std::fs::remove_dir_all(&dir);

    let t0 = Instant::now();
    let cold_store = ResultStore::open(&dir);
    let cold = sweep(&specs, &base, len, &cold_store)
        .expect("cold smoke grid simulates");
    let cold_stats = cold_store.stats();
    let cold_digest = report::grid_digest(&cold);
    println!(
        "cold: {} cells computed in {:.2}s ({} hits, {} misses, {} published)",
        cold.len(),
        t0.elapsed().as_secs_f64(),
        cold_stats.hits,
        cold_stats.misses,
        cold_stats.published,
    );

    let t1 = Instant::now();
    let warm_store = ResultStore::open(&dir);
    let warm = sweep(&specs, &base, len, &warm_store)
        .expect("warm smoke grid resolves");
    let warm_stats = warm_store.stats();
    let warm_digest = report::grid_digest(&warm);
    println!(
        "warm: {} cells served in {:.2}s ({} hits, {} misses, hit rate {:.1}%)",
        warm.len(),
        t1.elapsed().as_secs_f64(),
        warm_stats.hits,
        warm_stats.misses,
        warm_stats.hit_rate_pct(),
    );

    let mut ok = true;
    let mut gate = |label: &str, pass: bool| {
        if pass {
            println!("store gate: {label}: ok");
        } else {
            eprintln!("store gate: {label}: FAILED");
            ok = false;
        }
    };
    gate(
        "cold run computed every cell",
        cold_stats.published == cold.len() as u64 && cold_stats.hits == 0,
    );
    gate(
        "warm run computed 0 cells",
        warm_stats.misses == 0 && warm_stats.published == 0,
    );
    gate(
        "warm hit rate >= 95%",
        warm_stats.hits == warm.len() as u64 && warm_stats.hit_rate_pct() >= 95.0,
    );
    gate(
        "no store CRC/framing errors",
        cold_stats.corrupt_skipped == 0 && warm_stats.corrupt_skipped == 0,
    );
    gate("cold digest matches golden", cold_digest == golden);
    gate("warm digest bit-identical to golden", warm_digest == golden);
    if !ok {
        eprintln!(
            "cold digest {cold_digest}, warm digest {warm_digest}, golden {golden} \
             (store dir: {dir})"
        );
        std::process::exit(1);
    }
}
