//! Bit-identity gate for engine optimizations (`scripts/ci.sh`).
//!
//! Runs a fixed smoke grid (the paper's 8 workloads x 4 headline
//! variants, 4 cores, seed 11) through `run_grid` and folds every
//! *model-output* counter of every cell into one FNV-1a digest. The
//! digest over this grid was recorded from the seed engine (before the
//! fast-path maps, the recycled event pool and the word-parallel FPC
//! sizing landed) into `tests/golden/grid_digest.txt`; any engine change
//! that alters simulated behavior — rather than just how fast it is
//! computed — changes the digest and fails the gate.
//!
//! Two companion gates pin the non-default codecs: the same 8 workloads
//! under the two compression-bearing variants with BDI and ZCA selected,
//! recorded when the pluggable codec suite landed
//! (`tests/golden/grid_digest_bdi.txt` / `grid_digest_zca.txt`). The FPC
//! digest doubles as the proof that routing every call site through the
//! `Codec` trait left the default model bit-identical.
//!
//! The 4-core smoke grids are cold: their caches barely reach VSC
//! eviction, victim tags and writebacks. A steady-state gate covers
//! those paths: the paper's 8-core system with FPC, seed 11, the same 4
//! headline variants at 200k warmup + 60k measured instructions per
//! core, so the shared L2 is full before measurement
//! (`tests/golden/grid_digest_steady.txt`). Its value equals the seed-11
//! digest the benchmark records for the same grid
//! (`cmpbench/data/table5_digests.txt`).
//!
//! Only fields that existed in the seed `RunResult` participate, so the
//! digest stays comparable across PRs that add host-side measurement
//! fields (wall-clock, dispatched-event counts). The `f64` field is
//! folded as its IEEE-754 bit pattern, making the comparison bit-exact.
//!
//! Usage:
//!   cargo run --release --example grid_digest           # compare
//!   CMPSIM_WRITE_GOLDEN=1 cargo run ... grid_digest     # (re)record

use cmpsim::{
    all_workloads, report, run_grid, CodecKind, GridCell, RunOptions, SimLength, SystemConfig,
    Variant,
};
use std::time::Instant;

const VARIANTS: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

/// Codec smoke grids only need the variants where the codec matters.
const CODEC_VARIANTS: [Variant; 2] = [Variant::BothCompression, Variant::PrefetchCompression];

const GOLDEN_PATH: &str = "tests/golden/grid_digest.txt";
const STEADY_GOLDEN_PATH: &str = "tests/golden/grid_digest_steady.txt";

fn digest_grid(base: &SystemConfig, variants: &[Variant], len: SimLength) -> (String, usize) {
    let specs = all_workloads();
    let cells: Vec<GridCell> = run_grid(&specs, base, variants, len, &RunOptions::default())
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("smoke grid simulates");
    // The digest itself lives in `report::grid_digest` so the store gate
    // (examples/store_gate.rs) folds the exact same fields.
    (report::grid_digest(&cells), cells.len())
}

/// Compares (or records, under `CMPSIM_WRITE_GOLDEN=1`) one digest
/// against its golden file. Returns whether the gate passed.
fn gate(label: &str, digest: &str, path: &str, record: bool) -> bool {
    if record {
        std::fs::write(path, format!("{digest}\n")).expect("write golden");
        println!("{label}: recorded golden digest to {path}");
        return true;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let golden = golden.trim();
    if digest != golden {
        eprintln!(
            "{label} digest MISMATCH: got {digest}, golden {golden}\n\
             the engine's simulated behavior diverged from the recorded model \
             (run with CMPSIM_WRITE_GOLDEN=1 only for an intentional model change)"
        );
        return false;
    }
    println!("{label}: digest matches golden ({path})");
    true
}

fn main() {
    let base = SystemConfig::paper_default(4).with_seed(11);
    let len = SimLength { warmup: 5_000, measure: 20_000 };
    let record = std::env::var("CMPSIM_WRITE_GOLDEN").is_ok();
    if record {
        std::fs::create_dir_all("tests/golden").expect("create tests/golden");
    }

    let t0 = Instant::now();
    let (fpc_digest, cells) = digest_grid(&base, &VARIANTS, len);
    println!(
        "grid digest: {fpc_digest}  ({cells} cells in {:.2}s)",
        t0.elapsed().as_secs_f64()
    );
    let mut ok = gate("fpc grid", &fpc_digest, GOLDEN_PATH, record);

    for (codec, path) in [
        (CodecKind::Bdi, "tests/golden/grid_digest_bdi.txt"),
        (CodecKind::Zca, "tests/golden/grid_digest_zca.txt"),
    ] {
        let cfg = base.clone().with_codec(codec);
        let (digest, cells) = digest_grid(&cfg, &CODEC_VARIANTS, len);
        println!("{codec} grid digest: {digest}  ({cells} cells)");
        ok &= gate(&format!("{codec} grid"), &digest, path, record);
    }

    let t0 = Instant::now();
    let steady = SystemConfig::paper_default(8).with_seed(11);
    let steady_len = SimLength { warmup: 200_000, measure: 60_000 };
    let (digest, cells) = digest_grid(&steady, &VARIANTS, steady_len);
    println!(
        "steady grid digest: {digest}  ({cells} cells in {:.2}s)",
        t0.elapsed().as_secs_f64()
    );
    ok &= gate("steady grid", &digest, STEADY_GOLDEN_PATH, record);

    if !ok {
        std::process::exit(1);
    }
}
