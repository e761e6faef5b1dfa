//! Acceptance properties of the content-addressed result store:
//!
//! - **bit-inertness**: warm-store reruns return results bit-identical
//!   to the cold run (and to a storeless one-thread run) at 1, 2 and 8
//!   threads;
//! - **sweep dedup**: two overlapping sweeps sharing a store compute
//!   each shared cell exactly once — sequentially (the second computes
//!   only its delta) and concurrently (in-flight leases);
//! - **corruption safety**: CRC-corrupted and torn records are skipped
//!   and recomputed, never served, and a record published after a torn
//!   tail survives the loss of the index;
//! - **bounded size**: LRU eviction keeps the data files under budget
//!   while the most recently used sweep stays warm;
//! - the supervised driver's cell seam never runs a stored cell.

use cmpsim::core::experiment::{run_grid, run_grid_with, run_variant, RunOptions, SimLength};
use cmpsim::core::record::fingerprint;
use cmpsim::core::store::{CellKey, ResultStore};
use cmpsim::{workload, GridCell, RunResult, SimStats, SystemConfig, Variant};
use cmpsim_harness::Supervisor;
use cmpsim_trace::WorkloadSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const VARIANTS: [Variant; 2] = [Variant::Base, Variant::PrefetchCompression];

fn short() -> SimLength {
    SimLength { warmup: 2_000, measure: 8_000 }
}

fn small_base() -> SystemConfig {
    SystemConfig::paper_default(2).with_seed(11)
}

/// `run_grid` on `threads` workers (against `store`, if any), every cell
/// required to succeed.
fn grid(
    specs: &[WorkloadSpec],
    len: SimLength,
    threads: usize,
    store: Option<&Arc<ResultStore>>,
) -> Vec<GridCell> {
    let mut opts = RunOptions::threads(threads);
    opts.store = store.cloned();
    run_grid(specs, &small_base(), &VARIANTS, len, &opts)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap()
}

/// A unique, pre-cleaned store directory for one test.
fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("cmpsim-store-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_store_is_bit_identical_at_1_2_and_8_threads() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let dir = temp_store("bit-identity");
    let serial = grid(&specs, short(), 1, None);

    let cold_store = ResultStore::with_capacity(&dir, u64::MAX);
    let cold = grid(&specs, short(), 2, Some(&cold_store));
    // RunResult derives PartialEq over every counter and every f64, so
    // == here is bit-exactness, not approximation.
    assert_eq!(serial, cold, "store-fed cold run must match the serial engine");
    assert_eq!(cold_store.stats().published, serial.len() as u64);

    for threads in [1, 2, 8] {
        let warm_store = ResultStore::with_capacity(&dir, u64::MAX);
        let warm = grid(&specs, short(), threads, Some(&warm_store));
        assert_eq!(serial, warm, "warm store diverged at {threads} threads");
        let s = warm_store.stats();
        assert_eq!(s.published, 0, "warm rerun must compute 0 cells ({threads} threads)");
        assert_eq!(s.misses, 0, "{threads} threads");
        assert_eq!(s.hits, serial.len() as u64, "{threads} threads");
        assert_eq!(s.corrupt_skipped, 0, "{threads} threads");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_sequential_sweeps_compute_only_the_delta() {
    let dir = temp_store("overlap-seq");

    let sweep_a = vec![workload("apsi").unwrap(), workload("mgrid").unwrap()];
    let store = ResultStore::with_capacity(&dir, u64::MAX);
    grid(&sweep_a, short(), 2, Some(&store));
    assert_eq!(store.stats().published, 4);

    // Sweep B shares apsi/mgrid with A and adds art: only art's cells
    // are simulated, through a *fresh handle* (a separate process would
    // behave identically).
    let sweep_b = vec![
        workload("apsi").unwrap(),
        workload("mgrid").unwrap(),
        workload("art").unwrap(),
    ];
    let store_b = ResultStore::with_capacity(&dir, u64::MAX);
    let cells_b = grid(&sweep_b, short(), 2, Some(&store_b));
    let s = store_b.stats();
    assert_eq!(s.published, 2, "only art × 2 variants computed");
    assert_eq!(s.hits, 4, "apsi/mgrid served from sweep A's results");
    // And the shared cells are bit-identical to a from-scratch run.
    let scratch = grid(&sweep_b, short(), 1, None);
    assert_eq!(scratch, cells_b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_sweeps_sharing_a_store_compute_each_cell_once() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let dir = temp_store("overlap-concurrent");
    let store = ResultStore::with_capacity(&dir, u64::MAX);
    let serial = grid(&specs, short(), 1, None);

    // Two identical sweeps race on one store handle. Leases guarantee
    // each of the 4 cells is simulated exactly once; the loser of each
    // race blocks until the winner publishes and is served its result.
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let specs = specs.clone();
            let store = Arc::clone(&store);
            std::thread::spawn(move || grid(&specs, short(), 2, Some(&store)))
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().unwrap(), serial, "every concurrent sweep sees identical cells");
    }
    let s = store.stats();
    assert_eq!(s.published, serial.len() as u64, "each cell computed exactly once");
    assert_eq!(s.hits + s.misses, 2 * serial.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_torn_records_are_recomputed_not_served() {
    let specs = vec![workload("apsi").unwrap()];
    let base = small_base();
    let dir = temp_store("corruption");

    let store = ResultStore::with_capacity(&dir, u64::MAX);
    let cold = grid(&specs, short(), 1, Some(&store));
    drop(store);

    // Flip a digit inside the first record's body and tear the tail off
    // the last one — an in-place bitrot plus a mid-append crash.
    let fp = fingerprint(&base, short());
    let data = dir.join(format!("{fp:016x}.jsonl"));
    let text = std::fs::read_to_string(&data).unwrap();
    let mangled = text.replacen("\"seed\":11", "\"seed\":91", 1);
    assert_ne!(mangled, text, "corruption must actually hit a record");
    let mangled = &mangled[..mangled.len() - 15];
    std::fs::write(&data, mangled).unwrap();
    let _ = std::fs::remove_file(dir.join(format!("{fp:016x}.idx")));

    let warm_store = ResultStore::with_capacity(&dir, u64::MAX);
    let warm = grid(&specs, short(), 1, Some(&warm_store));
    assert_eq!(cold, warm, "recomputed cells must be bit-identical");
    let s = warm_store.stats();
    assert_eq!(s.published, 2, "both damaged cells recomputed");
    assert!(s.corrupt_skipped >= 1, "the mangled record was detected");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The regression the single torn-tail policy exists for: a record
/// published after a kill tore the data file must survive the loss of
/// the index. Appending onto the torn line used to splice the two
/// records into one line that failed its CRC on the next scan, although
/// the module docs promise the index is disposable.
#[test]
fn record_published_after_a_torn_tail_survives_index_loss() {
    let dir = temp_store("torn-then-publish");
    let fp = 0x7e57;
    let result = |cycles: u64| RunResult {
        stats: SimStats::default(),
        cycles,
        clock_ghz: 5,
        events: 2 * cycles,
        retired: 3 * cycles,
        host_nanos: 1,
    };
    let (a, b, c) = (
        CellKey::new("apsi", Variant::Base, 1),
        CellKey::new("mgrid", Variant::Base, 1),
        CellKey::new("art", Variant::Base, 1),
    );
    {
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        store.publish(fp, &a, &result(10)).unwrap();
        store.publish(fp, &b, &result(20)).unwrap();
    }
    // Kill 20 bytes into b's record, and lose the index with it.
    let data = dir.join(format!("{fp:016x}.jsonl"));
    let index = dir.join(format!("{fp:016x}.idx"));
    let text = std::fs::read_to_string(&data).unwrap();
    let b_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
    std::fs::write(&data, &text[..b_start + 20]).unwrap();
    std::fs::remove_file(&index).unwrap();
    {
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        store.publish(fp, &c, &result(30)).unwrap();
        assert_eq!(store.get(fp, &c), Some(result(30)), "served in-session");
    }
    std::fs::remove_file(&index).unwrap();
    let store = ResultStore::with_capacity(&dir, u64::MAX);
    assert_eq!(store.get(fp, &a), Some(result(10)));
    assert_eq!(store.get(fp, &b), None, "the torn record recomputes");
    assert_eq!(store.get(fp, &c), Some(result(30)), "the later record survives");
    assert_eq!(store.stats().corrupt_skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resilient_driver_uses_and_feeds_the_store() {
    let specs = vec![workload("apsi").unwrap(), workload("mgrid").unwrap()];
    let base = small_base();
    let dir = temp_store("resilient");
    let supervisor =
        Supervisor { threads: 2, deadline: None, retries: 0, backoff: Duration::from_millis(1) };

    // Pre-warm the store with one sweep.
    let store = ResultStore::with_capacity(&dir, u64::MAX);
    let warm = grid(&specs, short(), 2, Some(&store));

    // A supervised sweep over the same grid must simulate nothing: every
    // cell is a store hit, counted via the injected cell function.
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let opts = RunOptions { supervisor, store: Some(Arc::clone(&store)) };
    let len = short();
    let out = run_grid_with(&specs, &base, &VARIANTS, len, &opts, move |s, b, v| {
        counter.fetch_add(1, Ordering::SeqCst);
        run_variant(s, b, v, len)
    });
    assert_eq!(calls.load(Ordering::SeqCst), 0, "warm supervised sweep computed a cell");
    let cells: Vec<_> = out.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(cells, warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_grid_populates_the_store_for_later_sweeps() {
    let specs = vec![workload("zeus").unwrap()];
    let base = small_base();
    let dir = temp_store("resilient-feeds");
    let store = ResultStore::with_capacity(&dir, u64::MAX);

    let opts = RunOptions {
        supervisor: Supervisor {
            threads: 2,
            deadline: None,
            retries: 0,
            backoff: Duration::from_millis(1),
        },
        store: Some(Arc::clone(&store)),
    };
    let first = run_grid(&specs, &base, &VARIANTS, short(), &opts);
    assert!(first.iter().all(|r| r.is_ok()));
    assert_eq!(store.stats().published, 2);

    // The published cells are directly addressable by key.
    let fp = fingerprint(&base, short());
    for &v in &VARIANTS {
        assert!(
            store.get(fp, &CellKey::new("zeus", v, base.seed)).is_some(),
            "cell zeus/{v} missing from store"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_eviction_keeps_recent_sweeps_warm_within_budget() {
    let specs = vec![workload("apsi").unwrap()];
    let dir = temp_store("lru-bound");

    // Size one sweep's data file, then budget for ~1.5 of them.
    let probe_dir = temp_store("lru-bound-probe");
    let probe = ResultStore::with_capacity(&probe_dir, u64::MAX);
    grid(&specs, short(), 1, Some(&probe));
    let fp0 = fingerprint(&small_base(), short());
    let one = std::fs::metadata(probe_dir.join(format!("{fp0:016x}.jsonl"))).unwrap().len();
    let _ = std::fs::remove_dir_all(&probe_dir);

    let budget = one + one / 2;
    let store = ResultStore::with_capacity(&dir, budget);
    // Three sweeps with different lengths → three fingerprint files, of
    // which the budget can hold one.
    let lens = [short(), SimLength { warmup: 2_000, measure: 8_100 },
        SimLength { warmup: 2_000, measure: 8_200 }];
    for len in lens {
        grid(&specs, len, 1, Some(&store));
    }
    assert!(store.stats().evicted_files >= 1, "budget forced evictions");
    let total: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| {
            let n = e.file_name();
            n.to_string_lossy().ends_with(".jsonl") && n.to_string_lossy() != "lru.jsonl"
        })
        .map(|e| e.metadata().unwrap().len())
        .sum();
    assert!(total <= budget, "data files {total} bytes exceed budget {budget}");
    // The most recent sweep survived: re-running it computes nothing.
    let warm = ResultStore::with_capacity(&dir, budget);
    grid(&specs, lens[2], 1, Some(&warm));
    assert_eq!(warm.stats().published, 0, "most recently used sweep was evicted");
    let _ = std::fs::remove_dir_all(&dir);
}
