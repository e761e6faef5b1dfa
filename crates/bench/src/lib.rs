//! Shared plumbing for the figure/table harnesses.
//!
//! Every bench target regenerates one table or figure of the paper (see
//! DESIGN.md §4 for the index). They share the simulation length, seed
//! set and paper reference values defined here so EXPERIMENTS.md can be
//! rebuilt with `cargo bench`.

use cmpsim_core::experiment::{run_grid, RunOptions, SimLength, VariantGrid};
use cmpsim_core::{SystemConfig, Variant};
use cmpsim_harness::env_parse;
use cmpsim_trace::{all_workloads, WorkloadSpec};

/// Paper reference values used in the `paper` columns of the harnesses.
pub mod paper;

/// Seeds used for multi-run confidence intervals (the paper's
/// space-variability methodology).
pub const SEEDS: [u64; 3] = [11, 23, 47];

/// One representative seed for single-run harnesses.
pub const SEED: u64 = 11;

/// Simulation length for harness runs; override the instruction counts
/// with `CMPSIM_MEASURE`/`CMPSIM_WARMUP` (instructions per core) to trade
/// fidelity for wall-clock time.
pub fn sim_length() -> SimLength {
    let std = SimLength::standard();
    let warmup = env_parse("CMPSIM_WARMUP").unwrap_or(std.warmup);
    let measure = env_parse("CMPSIM_MEASURE").unwrap_or(std.measure);
    SimLength { warmup, measure }
}

/// Runs `variants` for every paper workload, fanning the whole
/// `workloads × variants` grid out across cores, and returns one
/// [`VariantGrid`] per workload in presentation order.
///
/// Results are bit-identical at any thread count (see the determinism
/// contract on [`run_grid`]); the figure/table harnesses use this so
/// regenerating EXPERIMENTS.md scales with the machine. Thread count
/// comes from `CMPSIM_THREADS` (default: all cores).
pub fn parallel_grids(
    base: &SystemConfig,
    variants: &[Variant],
    len: SimLength,
) -> Vec<(WorkloadSpec, VariantGrid)> {
    parallel_grids_for(all_workloads(), base, variants, len)
}

/// [`parallel_grids`] over an explicit workload list (e.g. only the
/// commercial benchmarks).
pub fn parallel_grids_for(
    specs: Vec<WorkloadSpec>,
    base: &SystemConfig,
    variants: &[Variant],
    len: SimLength,
) -> Vec<(WorkloadSpec, VariantGrid)> {
    let cells: Vec<_> = run_grid(&specs, base, variants, len, &RunOptions::default())
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("simulation failed");
    // To stderr: stdout (the paper tables) must stay byte-identical
    // across thread counts and runs, and this line carries wall-clock.
    eprintln!("{}", cmpsim_core::report::throughput_summary(cells.iter().map(|c| &c.result)));
    specs
        .into_iter()
        .zip(cells.chunks(variants.len()))
        .map(|(spec, chunk)| {
            (spec, VariantGrid::from_cells(chunk.iter().cloned()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_length_is_standard() {
        // (Assumes the env overrides are unset in the test environment.)
        if std::env::var("CMPSIM_MEASURE").is_err() {
            assert_eq!(sim_length().measure, SimLength::standard().measure);
        }
    }
}
