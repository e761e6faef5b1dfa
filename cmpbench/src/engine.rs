//! The two engine workloads, `table5_steady` and `digest_cold`: grids of
//! independent cells run on the benchmark's own workers, timed around
//! `System::new` and `System::run`, with every pass checked against a
//! digest.

use crate::calc::{median, tail, Mix};
use crate::grid::{run_pass, Cell, Pass, HEADLINE};
use crate::{Metric, Outcome};
use cmpsim_core::{CodecKind, SystemConfig, Variant};
use cmpsim_trace::{all_workloads, commercial_workloads};
use std::ops::Range;
use std::time::Instant;

/// table5_steady length per core: warmup long enough that the shared
/// 4 MB L2 is full before measurement starts (checked every run by the
/// eviction evidence below), then a measured window.
pub const T5_LEN: (u64, u64) = (200_000, 60_000);

/// digest_cold: the CI digest grid's length, cores and seed.
pub const DIGEST_LEN: (u64, u64) = (5_000, 20_000);
pub const DIGEST_SEED: u64 = 11;

/// The per-seed table5_steady digests the benchmark has recorded.
pub const T5_DIGESTS: &str = "cmpbench/data/table5_digests.txt";

/// What a sub-grid's digest must equal.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A committed golden file of the repository (read, never written).
    Golden(&'static str),
    /// A value this benchmark recorded for the seed, if it has one.
    Recorded(Option<String>),
}

/// One digested sub-grid: a label, its cells and its expected digest.
#[derive(Debug, Clone)]
pub struct SubGrid {
    pub label: &'static str,
    pub range: Range<usize>,
    pub expect: Expect,
}

/// A grid workload: its cells and how to check them.
#[derive(Debug, Clone)]
pub struct Grid {
    pub cells: Vec<Cell>,
    pub subgrids: Vec<SubGrid>,
    /// Shuffle dispatch order by seed (digest_cold, whose inputs are
    /// pinned by the goldens) or keep row-major order (table5_steady).
    pub shuffle: bool,
}

pub fn table5_base(seed: u64) -> SystemConfig {
    SystemConfig::paper_default(8).with_seed(seed)
}

pub fn table5(seed: u64) -> Grid {
    let cells = Cell::grid(&all_workloads(), &table5_base(seed), &HEADLINE, T5_LEN);
    let expect = Expect::Recorded(recorded_digest(seed));
    Grid {
        subgrids: vec![SubGrid {
            label: "fpc",
            range: 0..cells.len(),
            expect,
        }],
        cells,
        shuffle: false,
    }
}

/// The CI digest grid: FPC × the four headline variants, then BDI and
/// ZCA × the two variants where the codec matters — 64 cells, in the
/// order the goldens were recorded.
pub fn digest_cold() -> Grid {
    digest_shape(
        &SystemConfig::paper_default(4).with_seed(DIGEST_SEED),
        DIGEST_LEN,
        true,
    )
}

/// The digest grid's shape over any base configuration and length.
/// Expectations are the goldens when `golden`, else none.
pub fn digest_shape(base: &SystemConfig, len: (u64, u64), golden: bool) -> Grid {
    const CODEC_VARIANTS: [Variant; 2] = [Variant::BothCompression, Variant::PrefetchCompression];
    let specs = all_workloads();
    let mut cells = Cell::grid(&specs, base, &HEADLINE, len);
    let mut subgrids = vec![SubGrid {
        label: "fpc",
        range: 0..cells.len(),
        expect: if golden {
            Expect::Golden("tests/golden/grid_digest.txt")
        } else {
            Expect::Recorded(None)
        },
    }];
    for (codec, label, path) in [
        (CodecKind::Bdi, "bdi", "tests/golden/grid_digest_bdi.txt"),
        (CodecKind::Zca, "zca", "tests/golden/grid_digest_zca.txt"),
    ] {
        let start = cells.len();
        cells.extend(Cell::grid(
            &specs,
            &base.clone().with_codec(codec),
            &CODEC_VARIANTS,
            len,
        ));
        let expect = if golden {
            Expect::Golden(path)
        } else {
            Expect::Recorded(None)
        };
        subgrids.push(SubGrid {
            label,
            range: start..cells.len(),
            expect,
        });
    }
    Grid {
        cells,
        subgrids,
        shuffle: true,
    }
}

/// The recorded table5_steady digest for `seed` at [`T5_LEN`], if any.
/// Lines read `<warmup> <measure> <seed> <digest>`; `#` starts a comment.
pub fn recorded_digest(seed: u64) -> Option<String> {
    let text = std::fs::read_to_string(T5_DIGESTS).ok()?;
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let num = |i: usize| f.get(i)?.parse::<u64>().ok();
            (num(0)? == T5_LEN.0 && num(1)? == T5_LEN.1 && num(2)? == seed)
                .then(|| f.get(3).map(|d| d.to_string()))?
        })
        .next()
}

/// Failures found by checking a set of passes.
#[derive(Debug, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

/// Checks every pass: cells that errored, and sub-grids whose digest
/// differs from its expectation or from the first pass's.
pub fn check(grid: &Grid, passes: &[Pass]) -> Checked {
    let mut c = Checked::default();
    for (k, pass) in passes.iter().enumerate() {
        c.attempted += grid.cells.len() as u64;
        for r in &pass.runs {
            if let Err(e) = r {
                println!("cell failed: {e}");
                c.failed += 1;
            }
        }
        for sg in &grid.subgrids {
            let Some(got) = pass.digest(&grid.cells, sg.range.clone()) else {
                continue;
            };
            let first = passes[0].digest(&grid.cells, sg.range.clone());
            let want = match &sg.expect {
                Expect::Golden(path) => match std::fs::read_to_string(path) {
                    Ok(s) => Some(s.trim().to_string()),
                    Err(e) => {
                        println!("{} digest: cannot read golden {path}: {e}", sg.label);
                        Some(String::new())
                    }
                },
                Expect::Recorded(r) => r.clone(),
            };
            let ok = want.as_ref().is_none_or(|w| *w == got) && first.as_ref() == Some(&got);
            if k == 0 {
                match &want {
                    Some(w) => println!(
                        "{} digest {got}: {} {w}",
                        sg.label,
                        if *w == got {
                            "matches"
                        } else {
                            "MISMATCH against"
                        }
                    ),
                    None => {
                        println!(
                            "{} digest {got}: unchecked (no recorded value for this seed)",
                            sg.label
                        );
                    }
                }
            }
            if !ok {
                if k > 0 {
                    println!("{} digest of pass {k} differs: {got}", sg.label);
                }
                c.failed += sg.range.len() as u64;
            }
        }
    }
    c
}

/// Steady-state evidence for table5_steady: the measured window's L2
/// writebacks, victim-tag hits, useless-prefetch evictions and inclusion
/// recalls per cell. Every commercial cell must show L2 evictions
/// (writebacks or inclusion recalls) during measurement, or it counts
/// as failed: its L2 was not full.
pub fn steady_evidence(grid: &Grid, pass: &Pass) -> u64 {
    let commercial: Vec<&str> = commercial_workloads().iter().map(|w| w.name).collect();
    println!(
        "steady state (warmup {} + measure {} instructions per core, 8 cores, caches start empty):",
        T5_LEN.0, T5_LEN.1
    );
    println!(
        "  {:<8} {:<9} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "workload", "variant", "writebacks", "victim_tag", "useless_pf", "incl_recal", "ipc"
    );
    let mut failed = 0;
    for (cell, run) in grid.cells.iter().zip(&pass.runs) {
        let Ok(run) = run else { continue };
        let s = &run.result.stats;
        println!(
            "  {:<8} {:<9} {:>10} {:>10} {:>10} {:>10} {:>6.3}",
            cell.spec.name,
            cell.variant.label(),
            s.mem_writes,
            s.l2_victim_tag_hits,
            s.l2.useless_prefetch_evictions,
            s.coherence.inclusion_recalls,
            run.result.ipc()
        );
        if commercial.contains(&cell.spec.name) && s.mem_writes + s.coherence.inclusion_recalls == 0
        {
            println!(
                "  -> {} {}: no L2 evictions during measurement",
                cell.spec.name, cell.variant
            );
            failed += 1;
        }
    }
    failed
}

/// Simulated Table 5 speedups and the EQ 5 interaction, beside the
/// paper's figures. Informational only: the model is not validated
/// against hardware, so no error figure is given.
pub fn print_speedups(grid: &Grid, pass: &Pass) {
    use cmpsim_bench::paper;
    let cycles = |w: &str, v: Variant| {
        grid.cells
            .iter()
            .zip(&pass.runs)
            .find(|(c, _)| c.spec.name == w && c.variant == v)
            .and_then(|(_, r)| r.as_ref().ok())
            .map(|r| r.result.cycles as f64)
    };
    println!("simulated Table 5 (informational; % speedup over base, model unvalidated) [paper]:");
    println!(
        "  {:<8} {:>16} {:>16} {:>16} {:>18}",
        "workload", "pf", "compr", "pf+compr", "interaction"
    );
    for w in all_workloads() {
        let (Some(b), Some(c), Some(p), Some(pc)) = (
            cycles(w.name, Variant::Base),
            cycles(w.name, Variant::BothCompression),
            cycles(w.name, Variant::Prefetch),
            cycles(w.name, Variant::PrefetchCompression),
        ) else {
            continue;
        };
        let (sp, sc, spc) = (b / p, b / c, b / pc);
        let inter = cmpsim_core::metrics::interaction(sp, sc, spc);
        let cellf = |sim: f64, table: &[(&str, f64)]| {
            format!(
                "{:>7.1} [{:>6.1}]",
                (sim - 1.0) * 100.0,
                paper::lookup(table, w.name)
            )
        };
        println!(
            "  {:<8} {:>16} {:>16} {:>16} {:>9.1} [{:>6.1}]",
            w.name,
            cellf(sp, &paper::SPEEDUP_PF),
            cellf(sc, &paper::SPEEDUP_COMPR),
            cellf(spc, &paper::SPEEDUP_PF_COMPR),
            inter * 100.0,
            paper::lookup(&paper::INTERACTION, w.name)
        );
    }
}

/// Dispatch order for pass `k`.
pub fn order(grid: &Grid, seed: u64, k: usize) -> Vec<usize> {
    let mut o: Vec<usize> = (0..grid.cells.len()).collect();
    if grid.shuffle {
        Mix(seed ^ (k as u64).wrapping_mul(0x9e37)).shuffle(&mut o);
    }
    o
}

/// Runs passes until `seconds` have elapsed (at least one).
pub fn passes(grid: &Grid, seed: u64, seconds: f64, threads: usize) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        out.push(run_pass(
            &grid.cells,
            &order(grid, seed, out.len()),
            threads,
            None,
        ));
    }
    out
}

/// The end-to-end metrics of an engine workload.
pub fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ok().map(|r| r.secs() * 1e3))
        .collect();
    let p95 = tail(&cell_ms, 95.0);
    println!(
        "per-cell latency: {} samples, p50 {:.3} ms, tail p{:.1} {:.3} ms",
        cell_ms.len(),
        median(&cell_ms),
        p95.map_or(0.0, |t| t.pct),
        p95.map_or(0.0, |t| t.value)
    );
    vec![
        Metric::new("sim_mips", per(&|p| p.mips()), "Minst/s"),
        Metric::new("wall_s", per(&|p| p.wall_s), "s"),
        Metric::new("setup_s", per(&|p| p.setup_s()), "s"),
        Metric::new("peak_rss_mb", per(&|p| p.peak_rss_mb), "MB"),
        Metric::new("op_p50_ms", median(&cell_ms), "ms"),
    ]
}

/// The untraced run of an engine workload.
pub fn run(name: &str, seed: u64, seconds: f64, threads: usize) -> Outcome {
    let grid = if name == "table5_steady" {
        table5(seed)
    } else {
        digest_cold()
    };
    let passes = passes(&grid, seed, seconds, threads);
    for (k, p) in passes.iter().enumerate() {
        println!(
            "pass {k}: wall {:.3} s, sim_mips {:.4}, setup {:.4} s, peak rss {:.1} MB, {} cells",
            p.wall_s,
            p.mips(),
            p.setup_s(),
            p.peak_rss_mb,
            p.runs.len()
        );
    }
    let mut checked = check(&grid, &passes);
    if name == "table5_steady" {
        checked.failed += steady_evidence(&grid, &passes[0]);
        print_speedups(&grid, &passes[0]);
    }
    Outcome::new(checked.attempted, checked.failed, end_to_end(&passes))
}

/// Records table5_steady digests for `seeds` into the digest file's
/// format on stdout.
pub fn record(seeds: Range<u64>, threads: usize) {
    println!("# table5_steady digests: <warmup> <measure> <seed> <report::grid_digest>");
    for seed in seeds {
        let grid = table5(seed);
        let pass = run_pass(&grid.cells, &order(&grid, seed, 0), threads, None);
        match pass.digest(&grid.cells, 0..grid.cells.len()) {
            Some(d) => println!("{} {} {seed} {d}", T5_LEN.0, T5_LEN.1),
            None => eprintln!("seed {seed}: a cell failed; not recorded"),
        }
    }
}
