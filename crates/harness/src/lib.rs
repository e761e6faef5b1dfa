//! Hermetic test and benchmark harness for the cmpsim workspace.
//!
//! The container this project builds in has **no crates.io access**, so the
//! usual ecosystem crates (`proptest`, `criterion`, `rayon`) are off the
//! table. This crate replaces exactly the slices of them the simulator
//! needs, with zero dependencies beyond `std`:
//!
//! - [`prop`] + [`gen`] — a deterministic property-testing mini-framework:
//!   seeded generators built on the same xorshift64* pattern as
//!   `cmpsim_trace::Rng`, greedy shrinking on failure, and
//!   `CMPSIM_PT_CASES` / `CMPSIM_PT_SEED` environment overrides.
//! - [`codec_conformance`] — the cross-codec law kit built on [`prop`]:
//!   round-trip exactness, fast/full sizing agreement, zero-fill
//!   monotonicity and never-expands, checked against any codec described
//!   by plain function pointers.
//! - [`bench`] — a self-contained benchmark runner (warmup + timed
//!   iterations, median/p10/p90) that writes JSON artifacts to
//!   `target/bench/*.json`.
//! - [`pool`] — a scoped self-scheduling thread pool: idle workers claim
//!   the next unstarted job, so a vector of independent closures spreads
//!   across cores with results returned in submission order.
//! - [`supervise`] — the fault-isolating counterpart to [`pool`]: per-job
//!   panic capture, a watchdog enforcing a soft deadline
//!   (`CMPSIM_CELL_DEADLINE_MS`), and bounded retry with backoff, so one
//!   bad job in a long sweep degrades one result instead of the run.
//! - [`fastmap`] — deterministic, SipHash-free hash containers for the
//!   engine's hot paths: an open-addressing [`fastmap::AddrMap`] for
//!   MSHR-style exact maps and a bounded [`fastmap::MemoCache`] for
//!   memoizing pure functions of block addresses.
//! - [`telemetry`] — observability plumbing: a fixed-capacity flight
//!   recorder of packed sim events (`CMPSIM_TRACE`), buffered JSONL
//!   series artifacts under `target/telemetry/`, and a stderr heartbeat
//!   for live grid progress (`CMPSIM_PROGRESS`). Pure measurement: none
//!   of it feeds back into simulation results.
//! - [`metrics`] — service-layer metrics: atomic counters/gauges,
//!   log-bucketed latency histograms with mergeable snapshots and
//!   deterministic quantiles, a named registry, and a flat-JSON export
//!   (the serve daemon's `{"metrics":1}` reply). Observe-only, like
//!   [`telemetry`].
//! - [`chaos`] — deterministic fault-injection planning (`CMPSIM_CHAOS`):
//!   a seeded [`chaos::FaultPlan`] whose per-site decisions are stateless
//!   hashes of `(seed, site, cycle, key)`, so armed runs stay
//!   bit-reproducible across thread counts.
//!
//! Everything here is deterministic for a fixed seed: property tests
//! replay exactly, and the pool never changes *what* is computed, only
//! *when* — parallel users (e.g. `cmpsim_core::experiment::run_grid`)
//! stay bit-identical at every thread count.
//!
//! Two helpers are shared by every crate that reads knobs or writes
//! artifacts: [`env_parse`] (one environment override, garbage falls
//! back to the caller's default) and [`target_dir`] (where an artifact
//! directory lives).

use std::path::PathBuf;

pub mod bench;
pub mod chaos;
pub mod codec_conformance;
pub mod fastmap;
pub mod gen;
pub mod metrics;
pub mod pool;
pub mod prop;
mod rng;
pub mod supervise;
pub mod telemetry;

pub use chaos::{FaultPlan, FaultSite};
pub use gen::Gen;
pub use rng::Rng;
pub use supervise::{run_supervised, JobOutcome, Supervisor};

/// The environment variable `key` parsed as a `T`; `None` when it is
/// unset or does not parse, so callers fall back to their default.
pub fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok()?.parse().ok()
}

/// Resolves an artifact directory: `$env_var`, else
/// `$CARGO_TARGET_DIR/<leaf>`, else `<leaf>` under the nearest enclosing
/// `target/` directory (benches run with the crate, not the workspace,
/// as cwd), else `./target/<leaf>`.
pub fn target_dir(env_var: &str, leaf: &str) -> PathBuf {
    if let Ok(d) = std::env::var(env_var) {
        return PathBuf::from(d);
    }
    if let Ok(d) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(d).join(leaf);
    }
    let mut cur = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let cand = cur.join("target");
        if cand.is_dir() {
            return cand.join(leaf);
        }
        if !cur.pop() {
            return PathBuf::from("target").join(leaf);
        }
    }
}
