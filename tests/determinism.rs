//! Determinism guarantees for the experiment grid: the same seed must
//! produce byte-identical results run-to-run, and `run_grid` must return
//! the same cells at any thread count (the contract documented on
//! `run_grid`).

use cmpsim::{
    all_workloads, run_grid, GridCell, RunOptions, SimLength, SystemConfig, Variant,
};
use cmpsim_trace::WorkloadSpec;

/// The paper's 8×4 sweep: every workload under the four headline
/// configurations.
const VARIANTS: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

fn short() -> SimLength {
    SimLength { warmup: 5_000, measure: 20_000 }
}

/// The grid on `threads` workers, every cell required to succeed.
fn grid(specs: &[WorkloadSpec], base: &SystemConfig, threads: usize) -> Vec<GridCell> {
    run_grid(specs, base, &VARIANTS, short(), &RunOptions::threads(threads))
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap()
}

#[test]
fn serial_grid_is_repeatable() {
    let specs = all_workloads();
    let base = SystemConfig::paper_default(4).with_seed(11);
    let a = grid(&specs, &base, 1);
    let b = grid(&specs, &base, 1);
    assert_eq!(a.len(), specs.len() * VARIANTS.len());
    // RunResult derives PartialEq over every counter and every f64, so
    // this is exact equality, not tolerance-based comparison.
    assert_eq!(a, b, "two single-threaded runs with the same seed diverged");
}

#[test]
fn parallel_grid_matches_serial_at_every_thread_count() {
    let specs = all_workloads();
    let base = SystemConfig::paper_default(4).with_seed(11);
    let serial = grid(&specs, &base, 1);
    for threads in [1usize, 2, 8] {
        assert_eq!(serial, grid(&specs, &base, threads), "grid diverged at {threads} threads");
    }
}

#[test]
fn grid_cells_are_ordered_row_major() {
    let specs = all_workloads();
    let base = SystemConfig::paper_default(4).with_seed(11);
    let cells = grid(&specs, &base, 8);
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(cell.workload, specs[i / VARIANTS.len()].name);
        assert_eq!(cell.variant, VARIANTS[i % VARIANTS.len()]);
        assert_eq!(cell.seed, base.seed);
    }
}

#[test]
fn different_seeds_produce_different_grids() {
    let specs = vec![cmpsim::workload("zeus").unwrap()];
    let a = grid(&specs, &SystemConfig::paper_default(4).with_seed(11), 1);
    let b = grid(&specs, &SystemConfig::paper_default(4).with_seed(23), 1);
    assert_ne!(a, b, "seed is not reaching the simulation");
}
