//! Integration tests for the service-metrics layer: the grid driver's
//! registry accounting is exact and never perturbs results, and the
//! store's one count of its events (`StoreStats`) is what reaches the
//! registry.

use cmpsim::core::store::ResultStore;
use cmpsim::{run_grid, RunOptions, SimLength, SystemConfig, Variant};
use cmpsim_harness::metrics;
use std::sync::Arc;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cmpsim-metrics-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything registry-dependent lives in this one test: the registry is
/// process-global, so spreading assertions on counter deltas across
/// concurrently-running tests would race.
#[test]
fn grid_metrics_account_and_stay_inert() {
    let dir = temp_dir("grid");
    let base = SystemConfig::paper_default(2).with_seed(7);
    let len = SimLength { warmup: 1_000, measure: 4_000 };
    let specs = vec![
        cmpsim::workload("apsi").expect("known workload"),
        cmpsim::workload("mgrid").expect("known workload"),
    ];
    let variants = [Variant::Base, Variant::Prefetch];
    let cells = (specs.len() * variants.len()) as u64;

    let before = metrics::global().snapshot();
    let cold_store: Arc<ResultStore> = ResultStore::open(&dir);
    let sweep = |store: &Arc<ResultStore>| -> Vec<cmpsim::GridCell> {
        let opts = RunOptions::threads(2).with_store(Arc::clone(store));
        run_grid(&specs, &base, &variants, len, &opts)
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("grid simulates")
    };
    let cold = sweep(&cold_store);
    let after_cold = metrics::global().snapshot();

    let d = |snap: &metrics::MetricsSnapshot, prev: &metrics::MetricsSnapshot, k: &str| {
        snap.counter(k).unwrap_or(0) - prev.counter(k).unwrap_or(0)
    };
    assert_eq!(d(&after_cold, &before, "grid_cells_computed"), cells);
    assert_eq!(d(&after_cold, &before, "grid_cells_cached"), 0);
    let cold_stats = cold_store.stats();
    assert_eq!((cold_stats.misses, cold_stats.published), (cells, cells));
    assert_eq!(
        after_cold.histogram("grid_cell_compute_nanos").map_or(0, |h| h.count)
            - before.histogram("grid_cell_compute_nanos").map_or(0, |h| h.count),
        cells,
        "the compute-latency histogram records exactly the computed cells"
    );

    // Warm pass through a fresh handle: all cache, and — the inertness
    // contract — bit-identical results to the cold pass.
    let warm_store: Arc<ResultStore> = ResultStore::open(&dir);
    let warm = sweep(&warm_store);
    let after_warm = metrics::global().snapshot();
    assert_eq!(d(&after_warm, &after_cold, "grid_cells_computed"), 0);
    assert_eq!(d(&after_warm, &after_cold, "grid_cells_cached"), cells);
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.workload, w.workload);
        assert_eq!(c.variant, w.variant);
        assert_eq!(c.result, w.result, "metrics recording must not perturb results");
    }

    // The store counts each event once, in its own stats; the export
    // copies exactly those into the registry.
    let stats = warm_store.stats();
    assert_eq!((stats.hits, stats.misses, stats.published), (cells, 0, 0));
    assert!(warm_store.resident_bytes() > 0);
    warm_store.export_metrics();
    let exported = metrics::global().snapshot();
    for (key, want) in [
        ("store_hits", stats.hits),
        ("store_misses", stats.misses),
        ("store_published", stats.published),
        ("store_corrupt_skipped", stats.corrupt_skipped),
        ("store_resident_bytes", warm_store.resident_bytes()),
    ] {
        assert_eq!(exported.gauge(key), Some(want), "{key}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The flat-JSON snapshot line parses under the repo's own framing —
/// the exact contract the serve daemon's `{"metrics":1}` reply relies
/// on.
#[test]
fn snapshot_flat_json_roundtrips_through_repo_framing() {
    let snap = metrics::global().snapshot();
    let flat = snap.to_flat_json();
    let kvs = cmpsim::core::flatjson::parse_flat(&flat)
        .expect("snapshot line must be valid flat JSON");
    assert!(kvs.iter().any(|(k, v)| k == "metrics" && v.as_u64() == Some(1)));
}
