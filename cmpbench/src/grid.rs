//! Grid cells and the benchmark's own worker pool. A cell is one
//! `System::new` + `System::run`; a pass runs every cell of a grid once.

use crate::spans::{maybe_span, Tracer};
use cmpsim_core::experiment::GridCell;
use cmpsim_core::report::grid_digest;
use cmpsim_core::{RunResult, System, SystemConfig, Variant};
use cmpsim_trace::WorkloadSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The paper's four headline configurations, in Table 5 order.
pub const HEADLINE: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

/// One `(workload, variant)` simulation at a fixed length.
#[derive(Debug, Clone)]
pub struct Cell {
    pub spec: WorkloadSpec,
    pub variant: Variant,
    pub cfg: SystemConfig,
    pub warmup: u64,
    pub measure: u64,
}

impl Cell {
    pub fn new(
        spec: &WorkloadSpec,
        base: &SystemConfig,
        variant: Variant,
        len: (u64, u64),
    ) -> Self {
        Cell {
            spec: spec.clone(),
            variant,
            cfg: variant.apply(base.clone()),
            warmup: len.0,
            measure: len.1,
        }
    }

    /// `workloads × variants` in row-major order, the order
    /// `report::grid_digest` folds cells in.
    pub fn grid(
        specs: &[WorkloadSpec],
        base: &SystemConfig,
        variants: &[Variant],
        len: (u64, u64),
    ) -> Vec<Cell> {
        specs
            .iter()
            .flat_map(|s| variants.iter().map(move |&v| Cell::new(s, base, v, len)))
            .collect()
    }
}

/// A finished cell with its host timings.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub result: RunResult,
    /// Seconds in `System::new`.
    pub new_s: f64,
    /// Seconds in `System::run`.
    pub run_s: f64,
}

impl CellRun {
    /// Host seconds the cell held its worker.
    pub fn secs(&self) -> f64 {
        self.new_s + self.run_s
    }
}

/// One pass over a grid: per-cell outcomes in cell order, plus wall time.
#[derive(Debug)]
pub struct Pass {
    pub runs: Vec<Result<CellRun, String>>,
    pub wall_s: f64,
    /// Peak resident set of the process during the pass, in MB.
    pub peak_rss_mb: f64,
}

impl Pass {
    pub fn ok(&self) -> impl Iterator<Item = &CellRun> {
        self.runs.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Σ retired ÷ Σ `System::run` seconds over the pass, in MIPS.
    pub fn mips(&self) -> f64 {
        let cells: Vec<(u64, f64)> = self.ok().map(|r| (r.result.retired, r.run_s)).collect();
        crate::calc::grid_mips(&cells)
    }

    /// Σ `System::new` seconds over the pass.
    pub fn setup_s(&self) -> f64 {
        self.ok().map(|r| r.new_s).sum()
    }

    /// `report::grid_digest` over `cells[range]`, or `None` if any of
    /// those cells failed.
    pub fn digest(&self, cells: &[Cell], range: std::ops::Range<usize>) -> Option<String> {
        let grid: Option<Vec<GridCell>> = range
            .map(|i| {
                self.runs[i].as_ref().ok().map(|r| GridCell {
                    workload: cells[i].spec.name,
                    variant: cells[i].variant,
                    seed: cells[i].cfg.seed,
                    result: r.result.clone(),
                })
            })
            .collect();
        grid.map(|g| grid_digest(&g))
    }
}

/// Runs every cell once on `threads` workers, dispatching in `order`.
/// Each cell is independent (its own caches, generators and counters),
/// so dispatch order and thread count change timings only.
pub fn run_pass(cells: &[Cell], order: &[usize], threads: usize, tracer: Option<&Tracer>) -> Pass {
    let next = AtomicUsize::new(0);
    crate::reset_peak_rss();
    let t0 = Instant::now();
    let mut done: Vec<(usize, Result<CellRun, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&idx) = order.get(i) else { break };
                        out.push((idx, run_cell(&cells[idx], idx as u64, tracer)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("grid worker panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    done.sort_by_key(|d| d.0);
    assert_eq!(
        done.len(),
        cells.len(),
        "dispatch order must cover every cell once"
    );
    Pass {
        runs: done.into_iter().map(|d| d.1).collect(),
        wall_s,
        peak_rss_mb: crate::peak_rss_mb(),
    }
}

fn run_cell(cell: &Cell, id: u64, tracer: Option<&Tracer>) -> Result<CellRun, String> {
    maybe_span(tracer, "cell", None, id, |parent| {
        let t0 = Instant::now();
        let mut sys = maybe_span(tracer, "engine.new", parent, id, |_| {
            System::new(cell.cfg.clone(), &cell.spec)
        });
        let t1 = Instant::now();
        let result = maybe_span(tracer, "engine.run", parent, id, |_| {
            sys.run(cell.warmup, cell.measure)
        });
        let t2 = Instant::now();
        result
            .map(|result| CellRun {
                result,
                new_s: (t1 - t0).as_secs_f64(),
                run_s: (t2 - t1).as_secs_f64(),
            })
            .map_err(|e| format!("{} {}: {e}", cell.spec.name, cell.variant))
    })
}
