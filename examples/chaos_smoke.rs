//! One grid cell under an armed chaos plan, with the per-site fault
//! table — the CI smoke run for the chaos engine (`scripts/ci.sh`).
//!
//! Arms `CMPSIM_CHAOS` (defaulting to `7:0.02` when unset), runs one
//! compression + prefetching cell, asserts the run is bit-reproducible
//! at 1, 2 and 8 worker threads, and prints what was injected and how
//! the system degraded. Output is fully deterministic for a given plan,
//! so CI diffs two invocations byte-for-byte.

use cmpsim::{
    run_grid, workload, CellError, FaultPlan, GridCell, RunOptions, SimLength, SystemConfig,
    Variant,
};

fn main() {
    let raw = std::env::var("CMPSIM_CHAOS").unwrap_or_else(|_| "7:0.02".to_string());
    let plan = match FaultPlan::parse(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("chaos smoke FAILED: bad CMPSIM_CHAOS {raw:?}: {e}");
            std::process::exit(1);
        }
    };
    std::env::set_var("CMPSIM_CHAOS", &raw);

    let specs = vec![workload("zeus").expect("known workload")];
    let variants = [Variant::PrefetchCompression];
    let base = SystemConfig::paper_default(2).with_seed(11);
    let len = SimLength { warmup: 5_000, measure: 20_000 };

    let grid = |threads: usize| -> Result<Vec<GridCell>, CellError> {
        run_grid(&specs, &base, &variants, len, &RunOptions::threads(threads)).into_iter().collect()
    };
    let serial = match grid(1) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("chaos smoke FAILED: {e}");
            std::process::exit(1);
        }
    };
    for threads in [1, 2, 8] {
        let par = grid(threads).expect("armed grid re-runs");
        assert_eq!(serial, par, "chaos run diverged at {threads} threads");
    }

    let r = &serial[0].result;
    let f = &r.stats.faults;
    println!(
        "chaos smoke: zeus/{} seed={} rate={} ({} instructions, IPC {:.2})",
        Variant::PrefetchCompression,
        plan.seed(),
        plan.rate(),
        r.stats.instructions,
        r.ipc()
    );
    println!("{:<14}{:>10}{:>10}{:>11}", "site", "injected", "detected", "recovered");
    println!(
        "{:<14}{:>10}{:>10}{:>11}   ({} line(s) quarantined to uncompressed)",
        "codec-line",
        f.codec_faults_injected,
        f.codec_faults_detected,
        f.fault_recoveries,
        f.lines_quarantined
    );
    println!(
        "{:<14}{:>10}{:>10}{:>11}",
        "link-drop",
        r.stats.link.dropped_messages,
        r.stats.link.dropped_messages,
        r.stats.link.dropped_messages
    );
    println!(
        "{:<14}{:>10}{:>10}{:>11}",
        "link-corrupt",
        r.stats.link.corrupted_messages,
        r.stats.link.corrupted_messages,
        r.stats.link.corrupted_messages
    );
    println!(
        "{:<14}{:>10}{:>10}{:>11}   ({} stall cycles absorbed)",
        "mem-stall",
        f.mem_stall_bursts,
        f.mem_stall_bursts,
        f.mem_stall_bursts,
        f.mem_stall_cycles
    );
    println!(
        "{:<14}{:>10}{:>10}{:>11}",
        "dir-message", f.dir_messages_lost, f.dir_messages_lost, f.dir_retries
    );
    assert_eq!(
        f.link_retransmits,
        r.stats.link.dropped_messages + r.stats.link.corrupted_messages,
        "a completed run recovered every injected link fault"
    );
    println!("chaos smoke OK: bit-identical at 1/2/8 threads");
}
