//! Fault isolation, resume and quarantine guarantees for the supervised
//! grid driver, plus the simulator's own runtime safety nets (forward-
//! progress watchdog, opt-in invariant checker).
//!
//! The acceptance properties from the supervision design:
//!
//! - an injected panicking / hanging / erroring cell degrades to a
//!   per-cell [`CellError`] while every other cell completes;
//! - a sweep killed mid-run and re-run against the same result store
//!   skips completed cells and produces results **bit-identical** to an
//!   uninterrupted `run_grid`, whatever byte the kill tore the store at;
//! - a cell that keeps failing is quarantined through the store's
//!   failure records.

use cmpsim::core::experiment::{run_grid, run_grid_with, run_variant, RunOptions, SimLength};
use cmpsim::core::record::fingerprint;
use cmpsim::core::store::{CellKey, ResultStore, MAX_CELL_FAILURES};
use cmpsim::{workload, CellError, GridCell, SimError, System, SystemConfig, Variant};
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

/// Supervision policy for tests: small pool, no deadline, no retries.
fn quick_supervisor() -> Supervisor {
    Supervisor {
        threads: 4,
        deadline: None,
        retries: 0,
        backoff: Duration::from_millis(1),
    }
}

fn quick() -> RunOptions {
    RunOptions { supervisor: quick_supervisor(), store: None }
}

/// A unique, pre-cleaned store directory for one test.
fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("cmpsim-resilience-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The uninterrupted reference grid: one worker, no store.
fn uninterrupted(specs: &[WorkloadSpec], base: &SystemConfig, len: SimLength) -> Vec<GridCell> {
    run_grid(specs, base, &VARIANTS, len, &RunOptions::threads(1))
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap()
}

/// A healthy cell function that counts its calls.
fn counting(
    calls: &Arc<AtomicUsize>,
    len: SimLength,
) -> impl Fn(&WorkloadSpec, &SystemConfig, Variant) -> Result<cmpsim::RunResult, SimError> {
    let calls = Arc::clone(calls);
    move |s, b, v| {
        calls.fetch_add(1, Ordering::SeqCst);
        run_variant(s, b, v, len)
    }
}

fn all_ok(out: Vec<Result<GridCell, CellError>>) -> Vec<GridCell> {
    out.into_iter().map(|r| r.unwrap()).collect()
}

#[test]
fn healthy_resilient_sweep_matches_serial_bit_for_bit() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let base = small_base();
    let serial = uninterrupted(&specs, &base, short());
    let resilient = run_grid(&specs, &base, &VARIANTS, short(), &quick());
    let cells: Vec<_> = resilient
        .into_iter()
        .map(|r| r.expect("healthy sweep must not degrade any cell"))
        .collect();
    // RunResult derives PartialEq over every counter and every f64, so
    // this is exact equality, not tolerance-based comparison.
    assert_eq!(serial, cells);
}

#[test]
fn panicking_cell_degrades_only_itself() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let base = small_base();
    let len = short();
    let out = run_grid_with(&specs, &base, &VARIANTS, len, &quick(), move |s, b, v| {
        if s.name == "apsi" && v == Variant::Base {
            panic!("injected fault in apsi/base");
        }
        run_variant(s, b, v, len)
    });
    assert_eq!(out.len(), specs.len() * VARIANTS.len());
    for (i, cell) in out.iter().enumerate() {
        let (spec, variant) = (&specs[i / VARIANTS.len()], VARIANTS[i % VARIANTS.len()]);
        if spec.name == "apsi" && variant == Variant::Base {
            match cell {
                Err(CellError::Panicked { workload, variant, payload, attempts }) => {
                    assert_eq!(*workload, "apsi");
                    assert_eq!(*variant, Variant::Base);
                    assert_eq!(*attempts, 1);
                    assert!(payload.contains("injected fault"), "payload: {payload}");
                }
                other => panic!("expected Panicked for apsi/base, got {other:?}"),
            }
        } else {
            assert!(cell.is_ok(), "cell {i} should have completed: {cell:?}");
        }
    }
}

#[test]
fn hanging_cell_times_out_while_others_complete() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let base = small_base();
    let len = short();
    // The deadline must dominate an honest smoke cell even on a slow,
    // oversubscribed host (debug build, one CPU, four workers) while
    // staying far below the injected 30 s hang — 1 s is two orders of
    // magnitude of headroom in each direction.
    let opts = RunOptions {
        supervisor: Supervisor {
            deadline: Some(Duration::from_secs(1)),
            ..quick_supervisor()
        },
        store: None,
    };
    let t0 = std::time::Instant::now();
    let out = run_grid_with(&specs, &base, &VARIANTS, len, &opts, move |s, b, v| {
        if s.name == "zeus" && v == Variant::PrefetchCompression {
            // Far past the deadline; the supervisor abandons the thread.
            std::thread::sleep(Duration::from_secs(30));
        }
        run_variant(s, b, v, len)
    });
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "the sweep must not wait for the hung cell"
    );
    let hung: Vec<_> = out.iter().filter(|c| c.is_err()).collect();
    assert_eq!(hung.len(), 1, "exactly one cell should have failed: {out:?}");
    match hung[0] {
        Err(CellError::TimedOut { workload, variant, elapsed_ms }) => {
            assert_eq!(*workload, "zeus");
            assert_eq!(*variant, Variant::PrefetchCompression);
            assert!(*elapsed_ms >= 1_000, "elapsed_ms: {elapsed_ms}");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
}

#[test]
fn sim_error_cell_is_reported_in_place() {
    let specs = vec![workload("zeus").unwrap()];
    let base = small_base();
    let len = short();
    let out = run_grid_with(&specs, &base, &VARIANTS, len, &quick(), move |s, b, v| {
        if v == Variant::Base {
            return Err(SimError::InvariantViolation {
                cycle: 42,
                subsystem: "l2",
                detail: "injected".to_string(),
            });
        }
        run_variant(s, b, v, len)
    });
    match &out[0] {
        Err(CellError::Sim { workload, error, .. }) => {
            assert_eq!(*workload, "zeus");
            assert_eq!(
                *error,
                SimError::InvariantViolation {
                    cycle: 42,
                    subsystem: "l2",
                    detail: "injected".to_string(),
                }
            );
        }
        other => panic!("expected Sim error, got {other:?}"),
    }
    assert!(out[1].is_ok(), "the healthy cell must still complete: {:?}", out[1]);
}

#[test]
fn transient_panic_recovers_under_retry() {
    let specs = vec![workload("zeus").unwrap()];
    let base = small_base();
    let len = short();
    let variants = [Variant::Base];
    let attempts = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&attempts);
    let opts = RunOptions {
        supervisor: Supervisor { retries: 3, ..quick_supervisor() },
        store: None,
    };
    let out = run_grid_with(&specs, &base, &variants, len, &opts, move |s, b, v| {
        if counter.fetch_add(1, Ordering::SeqCst) < 2 {
            panic!("transient");
        }
        run_variant(s, b, v, len)
    });
    assert!(out[0].is_ok(), "cell should succeed on the third attempt: {:?}", out[0]);
    assert_eq!(attempts.load(Ordering::SeqCst), 3, "two failures + one success");
}

/// The headline acceptance test: a sweep "killed" after finishing only
/// the first workload (simulated by running the driver over a prefix of
/// the spec list, publishing to the store as it goes) resumes under the
/// full spec list against the same store, re-runs **only** the missing
/// cells, and the assembled grid is bit-identical to an uninterrupted
/// sweep.
#[test]
fn killed_sweep_resumes_from_store_bit_identically() {
    let specs = vec![
        workload("zeus").unwrap(),
        workload("apsi").unwrap(),
        workload("art").unwrap(),
    ];
    let base = small_base();
    let len = short();
    let dir = temp_store("resume");
    let opts = quick().with_store(ResultStore::with_capacity(&dir, u64::MAX));
    let calls = Arc::new(AtomicUsize::new(0));

    // Phase 1: the "interrupted" sweep — only the first workload finishes
    // before the (simulated) kill. Its cells land in the store.
    let partial = run_grid_with(&specs[..1], &base, &VARIANTS, len, &opts, counting(&calls, len));
    assert!(partial.iter().all(Result::is_ok));
    assert_eq!(calls.load(Ordering::SeqCst), VARIANTS.len());

    // Phase 2: re-run the full sweep in a fresh process (a fresh store
    // handle). The stored cells must be served, not re-simulated.
    let opts = quick().with_store(ResultStore::with_capacity(&dir, u64::MAX));
    let resumed = run_grid_with(&specs, &base, &VARIANTS, len, &opts, counting(&calls, len));
    assert_eq!(
        calls.load(Ordering::SeqCst),
        specs.len() * VARIANTS.len(),
        "resume must re-run only the cells missing from the store"
    );

    // The assembled grid equals an uninterrupted sweep, exactly.
    let serial = uninterrupted(&specs, &base, len);
    assert_eq!(serial, all_ok(resumed), "resumed grid diverged from the uninterrupted run");

    // Phase 3: a third invocation re-runs nothing at all.
    let replayed = run_grid_with(&specs, &base, &VARIANTS, len, &opts, counting(&calls, len));
    assert_eq!(calls.load(Ordering::SeqCst), specs.len() * VARIANTS.len());
    assert_eq!(serial, all_ok(replayed));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-mid-append crash safety, exhaustively: cutting a store data file
/// at **every byte offset** (a kill at any instant of a write) must
/// never lose an intact cell, never serve a torn one, and never break a
/// later publish — even when the index sidecar is gone, so every read
/// is a scan of the data file.
#[test]
fn store_data_file_cut_at_every_byte_offset_recovers_all_intact_cells() {
    let specs = vec![workload("zeus").unwrap()];
    let base = small_base();
    let len = short();
    let fp = fingerprint(&base, len);
    let dir = temp_store("torn-every-offset");
    let opts = quick().with_store(ResultStore::with_capacity(&dir, u64::MAX));
    let full = all_ok(run_grid(&specs, &base, &VARIANTS, len, &opts));
    let data = dir.join(format!("{fp:016x}.jsonl"));
    let bytes = std::fs::read(&data).expect("store data file written");
    assert_eq!(
        bytes.iter().filter(|&&b| b == b'\n').count(),
        1 + full.len(),
        "header + one record per cell"
    );
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let keys: Vec<CellKey> =
        full.iter().map(|c| CellKey::new(c.workload, c.variant, c.seed)).collect();
    let extra = CellKey::new("published-after-the-cut", Variant::Base, base.seed);

    let cut_dir = temp_store("torn-every-offset-cut");
    let cut_data = cut_dir.join(format!("{fp:016x}.jsonl"));
    let cut_index = cut_dir.join(format!("{fp:016x}.idx"));
    for cut in 0..=bytes.len() {
        let _ = std::fs::remove_dir_all(&cut_dir);
        std::fs::create_dir_all(&cut_dir).unwrap();
        std::fs::write(&cut_data, &bytes[..cut]).unwrap();
        let intact = bytes[..cut].iter().filter(|&&b| b == b'\n').count().saturating_sub(1);

        let store = ResultStore::with_capacity(&cut_dir, u64::MAX);
        for (i, key) in keys.iter().enumerate() {
            let want = (i < intact).then(|| full[i].result.clone());
            assert_eq!(store.get(fp, key), want, "cut at {cut}: cell {i}");
        }
        if cut >= header_len {
            assert_eq!(store.stats().corrupt_skipped, 0, "cut at {cut}: torn is not corrupt");
        }
        store.publish(fp, &extra, &full[0].result).unwrap();
        drop(store);

        // Re-read from the data file alone: the record published after
        // the cut must not have been spliced onto the torn tail.
        std::fs::remove_file(&cut_index).unwrap();
        let store = ResultStore::with_capacity(&cut_dir, u64::MAX);
        assert_eq!(store.get(fp, &extra), Some(full[0].result.clone()), "cut at {cut}");
        for (i, key) in keys.iter().enumerate().take(intact) {
            assert!(store.get(fp, key).is_some(), "cut at {cut}: cell {i} lost");
        }
        assert_eq!(store.stats().corrupt_skipped, 0, "cut at {cut}: no record corrupted");
    }
    let _ = std::fs::remove_dir_all(&cut_dir);

    // Driver-level resume across a mid-record kill: cut into the last
    // record, then re-run the sweep. Only the torn cell re-runs and the
    // grid is bit-identical to the uninterrupted one.
    let last_start = bytes[..bytes.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
    std::fs::write(&data, &bytes[..last_start + (bytes.len() - last_start) / 2]).unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let opts = quick().with_store(ResultStore::with_capacity(&dir, u64::MAX));
    let resumed = run_grid_with(&specs, &base, &VARIANTS, len, &opts, counting(&calls, len));
    assert_eq!(calls.load(Ordering::SeqCst), 1, "only the torn cell re-runs");
    assert_eq!(full, all_ok(resumed), "post-repair resume diverged from the uninterrupted run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cell that keeps failing leaves a failure record in the store each
/// time; once it has [`MAX_CELL_FAILURES`] of them, later sweeps
/// quarantine it — an explicit [`CellError::Quarantined`], zero re-runs
/// — across store reopens (index or no index) until the store's files
/// for the configuration are deleted.
#[test]
fn repeatedly_failing_cell_is_quarantined_on_resume() {
    let specs = vec![workload("zeus").unwrap()];
    let base = small_base();
    let len = short();
    let variants = [Variant::Base];
    let dir = temp_store("quarantine");
    let calls = Arc::new(AtomicUsize::new(0));
    let failing = |calls: Arc<AtomicUsize>| {
        move |_: &WorkloadSpec, _: &SystemConfig, _: Variant| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(SimError::InvariantViolation {
                cycle: 1,
                subsystem: "l2",
                detail: "injected persistent failure".to_string(),
            })
        }
    };
    let sweep = |calls: &Arc<AtomicUsize>| {
        let opts = quick().with_store(ResultStore::with_capacity(&dir, u64::MAX));
        run_grid_with(&specs, &base, &variants, len, &opts, failing(Arc::clone(calls)))
    };

    // Strikes 1 and 2: the cell runs (and fails) each time.
    for strike in 1..=MAX_CELL_FAILURES {
        let out = sweep(&calls);
        assert!(
            matches!(&out[0], Err(CellError::Sim { .. })),
            "strike {strike} should surface the SimError: {:?}",
            out[0]
        );
        assert_eq!(calls.load(Ordering::SeqCst) as u32, strike);
    }

    // Then quarantined — the cell function must not even be called, on a
    // fresh handle and again once the index has to be rebuilt.
    let index = dir.join(format!("{:016x}.idx", fingerprint(&base, len)));
    for drop_index in [false, true] {
        if drop_index {
            std::fs::remove_file(&index).unwrap();
        }
        let out = sweep(&calls);
        match &out[0] {
            Err(CellError::Quarantined { workload, variant, failures }) => {
                assert_eq!(*workload, "zeus");
                assert_eq!(*variant, Variant::Base);
                assert_eq!(*failures, MAX_CELL_FAILURES);
            }
            other => panic!("expected Quarantined (index dropped: {drop_index}), got {other:?}"),
        }
        assert_eq!(
            calls.load(Ordering::SeqCst) as u32,
            MAX_CELL_FAILURES,
            "a quarantined cell must not re-run"
        );
        let msg = out[0].as_ref().unwrap_err().to_string();
        assert!(msg.contains("quarantined"), "error should explain itself: {msg}");
        assert!(
            msg.contains("delete the store's files for this configuration"),
            "and name the remedy: {msg}"
        );
    }

    // Deleting the store lifts the quarantine.
    std::fs::remove_dir_all(&dir).unwrap();
    let out = sweep(&calls);
    assert!(matches!(&out[0], Err(CellError::Sim { .. })));
    assert_eq!(calls.load(Ordering::SeqCst) as u32, MAX_CELL_FAILURES + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cells stored by one sweep definition must never be served to another:
/// a changed length or configuration re-runs every cell against the same
/// store, while the original sweep stays warm.
#[test]
fn changed_config_or_length_never_serves_other_sweeps_cells() {
    let specs = vec![workload("zeus").unwrap()];
    let dir = temp_store("fingerprint");
    let opts = quick().with_store(ResultStore::with_capacity(&dir, u64::MAX));
    let calls = Arc::new(AtomicUsize::new(0));
    let longer = SimLength { measure: short().measure + 1, ..short() };
    let sweeps = [
        (small_base(), short()),
        (small_base(), longer),
        (SystemConfig::paper_default(1).with_seed(11), short()),
    ];
    for (i, (base, len)) in sweeps.iter().enumerate() {
        let out = run_grid_with(&specs, base, &VARIANTS, *len, &opts, counting(&calls, *len));
        assert_eq!(all_ok(out), uninterrupted(&specs, base, *len), "sweep {i}");
        assert_eq!(
            calls.load(Ordering::SeqCst),
            (i + 1) * VARIANTS.len(),
            "sweep {i} must compute all its own cells"
        );
    }
    let (base, len) = &sweeps[0];
    run_grid_with(&specs, base, &VARIANTS, *len, &opts, counting(&calls, *len));
    assert_eq!(calls.load(Ordering::SeqCst), sweeps.len() * VARIANTS.len(), "first stays warm");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn livelock_watchdog_trips_on_tiny_budget_and_reports_diagnostics() {
    let spec = workload("zeus").unwrap();
    // A 50-cycle budget is far below a 400-cycle memory stall, so any
    // real workload trips the watchdog almost immediately.
    let cfg = small_base().with_livelock_budget(50);
    let mut sys = System::new(cfg, &spec);
    match sys.run(1_000, 4_000) {
        Err(SimError::Livelock { cycle, window, diagnostic, recent_events }) => {
            assert!(window >= 50, "window: {window}");
            assert!(cycle >= window);
            assert!(diagnostic.contains("core"), "diagnostic should dump per-core state");
            // Tracing is off, so the watchdog's emergency recorder must
            // have armed and captured the final event window.
            assert!(
                !recent_events.is_empty(),
                "emergency flight recorder should capture the last events"
            );
        }
        other => panic!("expected Livelock with a 50-cycle budget, got {other:?}"),
    }
}

#[test]
fn livelock_watchdog_disabled_with_zero_budget() {
    let spec = workload("zeus").unwrap();
    let cfg = small_base().with_livelock_budget(0);
    let mut sys = System::new(cfg, &spec);
    sys.run(1_000, 4_000).expect("budget 0 disables the watchdog");
}

#[test]
fn healthy_run_passes_watchdog_and_invariant_checks() {
    // Invariants are forced on (field, not env, to avoid races with
    // other tests mutating the environment) across base and the full
    // compression + prefetching stack.
    for variant in [Variant::Base, Variant::PrefetchCompression] {
        let spec = workload("oltp").unwrap();
        let cfg = variant.apply(small_base()).with_invariant_checks(true);
        let mut sys = System::new(cfg, &spec);
        let result = sys
            .run(2_000, 10_000)
            .unwrap_or_else(|e| panic!("healthy {variant:?} run failed checks: {e}"));
        assert!(result.stats.instructions > 0);
    }
}
