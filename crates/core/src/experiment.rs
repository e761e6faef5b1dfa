//! Experiment drivers: run the paper's configuration grid over a
//! workload, with multiple seeds for confidence intervals. [`run_grid`]
//! is the one grid driver: it fans cells out across supervised workers
//! with per-cell fault isolation, and with a [`ResultStore`] it reuses
//! stored cells, resumes killed sweeps and quarantines repeat failures.

use crate::config::{SystemConfig, Variant};
use crate::error::{CellError, SimError};
use crate::metrics;
use crate::record;
use crate::stats::RunResult;
use crate::store::{CellKey, Lease, ResultStore, MAX_CELL_FAILURES};
use crate::system::System;
use cmpsim_harness::metrics as svc_metrics;
use cmpsim_harness::metrics::{Counter, Histogram};
use cmpsim_harness::telemetry::{progress_enabled, CellState, GridProgress, Heartbeat};
use cmpsim_harness::{run_supervised, JobOutcome, Supervisor};
use cmpsim_trace::WorkloadSpec;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Service-metric handles for the grid driver, registered in the global
/// [`svc_metrics`] registry under `grid_*` names. Observe-only, like
/// [`GridProgress`]: recording feeds nothing back into scheduling or
/// results.
struct GridMetrics {
    computed: Counter,
    cached: Counter,
    failed: Counter,
    retries: Counter,
    quarantined: Counter,
    compute_nanos: Histogram,
}

impl GridMetrics {
    fn new() -> Arc<GridMetrics> {
        let r = svc_metrics::global();
        Arc::new(GridMetrics {
            computed: r.counter("grid_cells_computed"),
            cached: r.counter("grid_cells_cached"),
            failed: r.counter("grid_cells_failed"),
            retries: r.counter("grid_retries"),
            quarantined: r.counter("grid_cells_quarantined"),
            compute_nanos: r.histogram("grid_cell_compute_nanos"),
        })
    }
}

/// Simulation length preset: instructions per core for warmup and
/// measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLength {
    /// Warmup instructions per core (stats frozen).
    pub warmup: u64,
    /// Measured instructions per core (fixed work).
    pub measure: u64,
}

impl SimLength {
    /// Length used by the figure/table harnesses: long enough to warm the
    /// 4 MB L2 (capacity effects need ~1M instructions per core of
    /// warmup) and exercise steady state, short enough for minutes-scale
    /// regeneration of all results.
    pub fn standard() -> Self {
        SimLength { warmup: 1_200_000, measure: 600_000 }
    }

    /// Very short runs for integration tests.
    pub fn smoke() -> Self {
        SimLength { warmup: 20_000, measure: 60_000 }
    }
}

/// Runs one `(workload, variant)` cell and returns the measured result.
///
/// # Errors
///
/// Propagates [`SimError`] from [`System::run`] (livelock watchdog,
/// invariant checker).
pub fn run_variant(
    spec: &WorkloadSpec,
    base: &SystemConfig,
    variant: Variant,
    len: SimLength,
) -> Result<RunResult, SimError> {
    let cfg = variant.apply(base.clone());
    let mut sys = System::new(cfg, spec);
    sys.run(len.warmup, len.measure)
}

/// Results for a set of variants over one workload (single seed).
#[derive(Debug)]
pub struct VariantGrid {
    results: HashMap<Variant, RunResult>,
}

impl VariantGrid {
    /// Assembles a grid from one workload's cells — e.g. its slice of a
    /// [`run_grid`] sweep.
    pub fn from_cells(cells: impl IntoIterator<Item = GridCell>) -> Self {
        VariantGrid { results: cells.into_iter().map(|c| (c.variant, c.result)).collect() }
    }

    /// The result for a variant, if it was part of the grid. Use this in
    /// report/bench code that tolerates partial grids (e.g. cells lost to
    /// a [`CellError`] in a sweep).
    pub fn try_get(&self, v: Variant) -> Option<&RunResult> {
        self.results.get(&v)
    }

    /// The result for a variant.
    ///
    /// # Panics
    ///
    /// Panics if the variant was not part of the grid; [`try_get`]
    /// (Self::try_get) is the non-panicking form.
    pub fn get(&self, v: Variant) -> &RunResult {
        self.try_get(v).unwrap_or_else(|| panic!("variant {v} not in grid"))
    }

    /// `Speedup(v)` relative to the grid's base run.
    pub fn speedup(&self, v: Variant) -> f64 {
        metrics::speedup(self.get(Variant::Base), self.get(v))
    }

    /// Percentage improvement of `v` over base.
    pub fn speedup_pct(&self, v: Variant) -> f64 {
        metrics::speedup_pct(self.get(Variant::Base), self.get(v))
    }

    /// EQ 5 interaction between prefetching and compression, from the
    /// grid's Pf, Compr and Pf+Compr cells.
    pub fn pf_compr_interaction(&self) -> f64 {
        metrics::interaction(
            self.speedup(Variant::Prefetch),
            self.speedup(Variant::BothCompression),
            self.speedup(Variant::PrefetchCompression),
        )
    }
}

/// One `(workload, variant)` cell of an experiment grid, with its result.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Workload name as the paper prints it.
    pub workload: &'static str,
    /// Configuration variant this cell ran.
    pub variant: Variant,
    /// Seed the cell ran with (from the base configuration).
    pub seed: u64,
    /// Measured result.
    pub result: RunResult,
}

/// Policy for a [`run_grid`] sweep.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker count (default `CMPSIM_THREADS`, else every core), per-cell
    /// deadline (`CMPSIM_CELL_DEADLINE_MS`) and retry policy.
    pub supervisor: Supervisor,
    /// Result store consulted before scheduling each cell, fed as cells
    /// complete, and holding the failure records that quarantine repeat
    /// offenders; `None` computes every cell.
    pub store: Option<Arc<ResultStore>>,
}

impl RunOptions {
    /// The default policy on `threads` workers, without a store.
    pub fn threads(threads: usize) -> Self {
        RunOptions { supervisor: Supervisor::with_threads(threads), store: None }
    }

    /// Returns a copy consulting (and feeding) `store`.
    pub fn with_store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }
}

/// Runs the `workloads × variants` grid and returns one result per cell
/// in row-major order (all variants of the first workload, then the
/// second, ...). This is the paper's 8×4 evaluation sweep when called
/// with `all_workloads()` and the four headline variants.
///
/// Each cell runs on its own supervised worker: a panicking, hanging or
/// [`SimError`]-failing cell degrades to an `Err` in its slot while every
/// other cell completes.
///
/// **Determinism.** Every cell is an independent pure function of
/// `(spec, base, variant, len)` — each simulation owns its RNG streams
/// (seeded from `base.seed`), its caches and its counters. The worker
/// count only changes *when* a cell runs, never *what* it computes, so
/// the results are bit-identical at any thread count;
/// `tests/determinism.rs` asserts this at 1, 2 and 8 threads.
///
/// **Store.** With `opts.store`, each cell is looked up under the
/// sweep's [`record::fingerprint`] before scheduling and served if
/// present; only the delta is computed, and each computed cell is
/// published the moment it finishes. The store is bit-inert (a stored
/// result is the exact bytes the cell would recompute), so:
///
/// - re-running a killed sweep against the same store resumes it: only
///   the cells that had not finished run, and the grid equals an
///   uninterrupted one;
/// - overlapping sweeps sharing a store handle compute each shared cell
///   exactly once (in-flight leases);
/// - each failed cell leaves a failure record, and a cell with
///   [`MAX_CELL_FAILURES`] of them comes back as
///   [`CellError::Quarantined`] without running.
pub fn run_grid(
    specs: &[WorkloadSpec],
    base: &SystemConfig,
    variants: &[Variant],
    len: SimLength,
    opts: &RunOptions,
) -> Vec<Result<GridCell, CellError>> {
    run_grid_with(specs, base, variants, len, opts, move |spec, base, variant| {
        run_variant(spec, base, variant, len)
    })
}

/// [`run_grid`] with the cell function as a parameter, so tests can
/// inject faulty cells (panics, hangs, errors) or count calls.
pub fn run_grid_with<F>(
    specs: &[WorkloadSpec],
    base: &SystemConfig,
    variants: &[Variant],
    len: SimLength,
    opts: &RunOptions,
    cell_fn: F,
) -> Vec<Result<GridCell, CellError>>
where
    F: Fn(&WorkloadSpec, &SystemConfig, Variant) -> Result<RunResult, SimError>
        + Send
        + Sync
        + 'static,
{
    let n = specs.len() * variants.len();
    // Progress is observability only: workers mark cells with relaxed
    // atomics, the heartbeat renders to stderr, and nothing feeds back
    // into the results.
    let workers = opts.supervisor.threads.max(1);
    let progress = Arc::new(GridProgress::new(n, workers.min(n.max(1))));
    let heartbeat = progress_enabled().then(|| Heartbeat::start(Arc::clone(&progress)));
    let out = run_cells(specs, base, variants, len, opts, cell_fn, &progress);
    drop(heartbeat);
    out
}

/// The engine under [`run_grid_with`], reporting into `progress`.
fn run_cells<F>(
    specs: &[WorkloadSpec],
    base: &SystemConfig,
    variants: &[Variant],
    len: SimLength,
    opts: &RunOptions,
    cell_fn: F,
    progress: &Arc<GridProgress>,
) -> Vec<Result<GridCell, CellError>>
where
    F: Fn(&WorkloadSpec, &SystemConfig, Variant) -> Result<RunResult, SimError>
        + Send
        + Sync
        + 'static,
{
    let fp = record::fingerprint(base, len);
    let seed = base.seed;
    let cell = |workload, variant, result| GridCell { workload, variant, seed, result };
    let gm = GridMetrics::new();
    let cell_fn = Arc::new(cell_fn);
    let mut out: Vec<Option<Result<GridCell, CellError>>> = Vec::new();
    let mut jobs = Vec::new();
    let mut job_slots: Vec<(usize, &'static str, Variant)> = Vec::new();

    for spec in specs {
        for &variant in variants {
            let idx = out.len();
            let key = CellKey::new(spec.name, variant, seed);
            // Store consult happens before scheduling: hits and
            // quarantined cells never occupy a worker.
            if let Some(store) = &opts.store {
                if let Some(result) = store.get(fp, &key) {
                    out.push(Some(Ok(cell(spec.name, variant, result))));
                    progress.cell_cached(idx);
                    gm.cached.inc();
                    continue;
                }
                let failures = store.failures(fp, &key);
                if failures >= MAX_CELL_FAILURES {
                    out.push(Some(Err(CellError::Quarantined {
                        workload: spec.name,
                        variant,
                        failures,
                    })));
                    progress.cell_finished(idx, false, 0, 0);
                    gm.quarantined.inc();
                    continue;
                }
            }
            out.push(None);
            job_slots.push((idx, spec.name, variant));
            let spec = spec.clone();
            let base = base.clone();
            let cell_fn = Arc::clone(&cell_fn);
            let store = opts.store.clone();
            let progress = Arc::clone(progress);
            let gm = Arc::clone(&gm);
            jobs.push(move || -> Result<RunResult, SimError> {
                // An overlapping sweep on the same store may have
                // produced (or be producing) this cell since the consult
                // above; the lease either serves its result or claims
                // the compute, so each shared cell is computed once.
                let mut lease = None;
                if let Some(s) = &store {
                    match s.lease(fp, &key) {
                        Lease::Hit(result) => {
                            progress.cell_cached(idx);
                            gm.cached.inc();
                            return Ok(result);
                        }
                        Lease::Compute(l) => lease = Some(l),
                    }
                }
                // A supervised retry re-enters this body with the slot
                // already marked Running/Retrying: that re-entry is the
                // retry the `grid_retries` counter tallies.
                if matches!(progress.state(idx), CellState::Running | CellState::Retrying) {
                    gm.retries.inc();
                }
                progress.cell_started(idx);
                let compute_start = Instant::now();
                let result = cell_fn(&spec, &base, variant);
                match &result {
                    Ok(r) => {
                        progress.cell_finished(idx, true, r.events, r.host_nanos);
                        gm.computed.inc();
                        gm.compute_nanos.record_elapsed(compute_start);
                    }
                    Err(_) => {
                        progress.cell_finished(idx, false, 0, 0);
                        gm.failed.inc();
                    }
                }
                // Publish inside the job so a later kill loses only
                // cells that had not finished.
                if let (Ok(r), Some(l)) = (&result, lease) {
                    if let Err(e) = l.publish(r) {
                        eprintln!("cmpsim: store publish failed: {e}");
                    }
                }
                result
            });
        }
    }

    let outcomes = run_supervised(&opts.supervisor, jobs);
    for ((slot, workload, variant), outcome) in job_slots.into_iter().zip(outcomes) {
        // Panicked/timed-out jobs never reached their own `cell_finished`;
        // settle them here so the final status line accounts for every
        // cell. (An abandoned timed-out thread may still be running, but
        // progress is display-only state and feeds nothing back.)
        if !matches!(progress.state(slot), CellState::Done | CellState::Failed | CellState::Cached)
        {
            progress.cell_finished(slot, false, 0, 0);
            gm.failed.inc();
        }
        let resolved = match outcome {
            JobOutcome::Ok(Ok(result)) => Ok(cell(workload, variant, result)),
            JobOutcome::Ok(Err(error)) => Err(CellError::Sim { workload, variant, error }),
            JobOutcome::Panicked { payload, attempts } => {
                Err(CellError::Panicked { workload, variant, payload, attempts })
            }
            JobOutcome::TimedOut { elapsed } => Err(CellError::TimedOut {
                workload,
                variant,
                elapsed_ms: elapsed.as_millis() as u64,
            }),
        };
        if let (Err(err), Some(store)) = (&resolved, &opts.store) {
            // Record the failure so a repeat offender is quarantined on
            // a later sweep instead of retried forever.
            let key = CellKey::new(workload, variant, seed);
            if let Err(e) = store.record_failure(fp, &key, &err.to_string()) {
                eprintln!("cmpsim: store failure record failed: {e}");
            }
        }
        out[slot] = Some(resolved);
    }
    out.into_iter().map(|o| o.expect("every cell resolved")).collect()
}

/// Mean ± 95% CI of a per-seed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
}

impl std::fmt::Display for Estimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}±{:.1}", self.mean, self.ci95)
    }
}

/// Runs `f` once per seed and aggregates the metric it extracts.
///
/// This is the paper's space-variability methodology [ref 3]: several
/// perturbed runs per data point, reported as mean and 95% CI.
pub fn across_seeds(
    base: &SystemConfig,
    seeds: &[u64],
    mut f: impl FnMut(&SystemConfig) -> f64,
) -> Estimate {
    assert!(!seeds.is_empty(), "need at least one seed");
    let samples: Vec<f64> = seeds
        .iter()
        .map(|&s| f(&base.clone().with_seed(s)))
        .collect();
    let (mean, ci95) = metrics::mean_ci95(&samples);
    Estimate { mean, ci95 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::workload;

    fn grid(variants: &[Variant], len: SimLength) -> VariantGrid {
        let spec = workload("apsi").unwrap();
        let base = SystemConfig::paper_default(1);
        let cells = run_grid(&[spec], &base, variants, len, &RunOptions::threads(1));
        VariantGrid::from_cells(cells.into_iter().map(|c| c.expect("smoke grid simulates")))
    }

    #[test]
    fn grid_runs_and_exposes_speedups() {
        let spec = workload("apsi").unwrap();
        let base = SystemConfig::paper_default(2);
        let variants = [Variant::Base, Variant::BothCompression];
        let len = SimLength { warmup: 5_000, measure: 20_000 };
        let cells = run_grid(&[spec], &base, &variants, len, &RunOptions::threads(2));
        let grid = VariantGrid::from_cells(cells.into_iter().map(Result::unwrap));
        let s = grid.speedup(Variant::BothCompression);
        assert!(s > 0.5 && s < 2.0, "speedup {s} out of plausible range");
        assert_eq!(grid.speedup(Variant::Base), 1.0);
    }

    #[test]
    fn across_seeds_aggregates() {
        let base = SystemConfig::paper_default(1);
        let est = across_seeds(&base, &[1, 2, 3], |cfg| cfg.seed as f64);
        assert!((est.mean - 2.0).abs() < 1e-12);
        assert!(est.ci95 > 0.0);
    }

    #[test]
    fn try_get_reports_missing_variants() {
        let grid = grid(&[Variant::Base], SimLength { warmup: 1_000, measure: 5_000 });
        assert!(grid.try_get(Variant::Base).is_some());
        assert!(grid.try_get(Variant::Prefetch).is_none());
    }

    #[test]
    #[should_panic(expected = "not in grid")]
    fn missing_variant_panics() {
        let grid = grid(&[Variant::Base], SimLength { warmup: 1_000, measure: 5_000 });
        grid.get(Variant::Prefetch);
    }

    /// Regression: a quarantined cell is settled as *failed*, so the
    /// heartbeat's final line never reports a sweep that returned
    /// `CellError::Quarantined` as fully done.
    #[test]
    fn quarantined_cells_count_as_failed_in_the_final_line() {
        let dir = std::env::temp_dir()
            .join(format!("cmpsim-experiment-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        let specs = [workload("apsi").unwrap()];
        let base = SystemConfig::paper_default(1);
        let len = SimLength { warmup: 1_000, measure: 5_000 };
        let key = CellKey::new("apsi", Variant::Base, base.seed);
        for _ in 0..MAX_CELL_FAILURES {
            store.record_failure(record::fingerprint(&base, len), &key, "injected").unwrap();
        }
        let opts = RunOptions::threads(1).with_store(store);
        let progress = Arc::new(GridProgress::new(2, 1));
        let out = run_cells(
            &specs,
            &base,
            &[Variant::Base, Variant::Prefetch],
            len,
            &opts,
            move |s, b, v| run_variant(s, b, v, len),
            &progress,
        );
        assert!(matches!(out[0], Err(CellError::Quarantined { .. })), "{:?}", out[0]);
        assert!(out[1].is_ok());
        let line = progress.final_line();
        assert!(line.starts_with("grid complete: 2/2 cells"), "{line}");
        assert!(line.contains("1 failed"), "{line}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
