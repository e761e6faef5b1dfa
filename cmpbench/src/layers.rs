//! The traced run: per-layer metrics for any workload.
//!
//! 1. The workload's engine grid runs with spans around every
//!    `System::new` / `System::run`, between two untraced passes; the
//!    gap in `sim_mips` is the tracing overhead.
//! 2. One cell per workload is replayed layer by layer (`replay.rs`);
//!    per-call costs × the engine's exact counts give each layer's
//!    *estimated* share of engine time.
//! 3. A `serve` session (the workload's own for store_resweep, a short
//!    probe otherwise) is traced per request, and the store layer is
//!    driven directly against a copy of that session's store.

use crate::calc::{grid_mips, imbalance, median_or_zero as med, tail, Mix};
use crate::engine::{self, Grid, T5_LEN};
use crate::grid::{run_pass, Cell, CellRun, Pass, HEADLINE};
use crate::replay::{account, Attribution, EngineCounts, Replay};
use crate::resweep::{self, Client, Session, CELLS, CORES, LEN};
use crate::spans::Tracer;
use crate::{Metric, Outcome};
use cmpsim_core::store::{CellKey, Lease, ResultStore};
use cmpsim_core::{CodecKind, SystemConfig, Variant};
use std::path::Path;
use std::time::Instant;

/// Copies of each result the store replay publishes and reads back,
/// under keys of their own.
const STORE_REPLICAS: u64 = 8;

/// Fingerprint the store replay files its records under, apart from any
/// sweep's.
const REPLAY_FP: u64 = 0xc3b0_5eed_0000_0001;

/// The engine grid a workload's traced run times and replays.
fn traced_grid(workload: &str, seed: u64) -> Grid {
    match workload {
        "table5_steady" => {
            let mut g = engine::table5(seed);
            // Two steady compression cells per non-default codec, so
            // engine.mips.{bdi,zca} are measured on this workload too.
            let base = engine::table5_base(seed);
            for codec in [CodecKind::Bdi, CodecKind::Zca] {
                for name in ["zeus", "art"] {
                    let spec = cmpsim_trace::workload(name).expect("known workload");
                    g.cells.push(Cell::new(
                        &spec,
                        &base.clone().with_codec(codec),
                        Variant::BothCompression,
                        T5_LEN,
                    ));
                }
            }
            g
        }
        "digest_cold" => engine::digest_cold(),
        // The digest grid's shape at the store's cell configuration.
        _ => engine::digest_shape(
            &SystemConfig::paper_default(CORES).with_seed(resweep::seeds_for(seed, 0)[0]),
            LEN,
            false,
        ),
    }
}

/// Σ retired ÷ Σ run seconds over the pass's cells that satisfy `pick`.
fn mips_where(grid: &Grid, pass: &Pass, pick: impl Fn(&Cell) -> bool) -> f64 {
    let cells: Vec<(u64, f64)> = grid
        .cells
        .iter()
        .zip(&pass.runs)
        .filter(|(c, _)| pick(c))
        .filter_map(|(_, r)| r.as_ref().ok())
        .map(|r| (r.result.retired, r.run_s))
        .collect();
    grid_mips(&cells)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let dst = to.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &dst)?;
        } else {
            std::fs::copy(e.path(), dst)?;
        }
    }
    Ok(())
}

/// Store-layer costs from driving `ResultStore` directly.
#[derive(Debug, Default)]
struct StoreCosts {
    open_ms: f64,
    get_us: f64,
    cold_get_us: f64,
    publish_us: f64,
    corrupt_skipped: u64,
    failed: u64,
}

/// Opens a copy of `session_store`, leases and publishes every result
/// `STORE_REPLICAS` times under fresh keys, reopens, and reads each
/// back twice.
fn store_replay(
    session_store: &Path,
    copy: &Path,
    results: &[(&Cell, &CellRun)],
    tracer: &Tracer,
) -> StoreCosts {
    let mut c = StoreCosts::default();
    let _ = std::fs::remove_dir_all(copy);
    if let Err(e) = copy_dir(session_store, copy) {
        println!("store replay: cannot copy {}: {e}", session_store.display());
        c.failed += 1;
        return c;
    }
    // Cells of different codecs share (workload, variant), so the key's
    // seed field numbers each (cell, replica) instead.
    let keys: Vec<(CellKey, &CellRun)> = (0..STORE_REPLICAS)
        .flat_map(|r| {
            results.iter().enumerate().map(move |(i, (cell, run))| {
                (
                    CellKey::new(cell.spec.name, cell.variant, i as u64 * STORE_REPLICAS + r),
                    *run,
                )
            })
        })
        .collect();
    let t0 = Instant::now();
    let store = tracer.span("store.open", None, 0, |_| ResultStore::open(copy));
    c.open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    tracer.span("store.lease_publish", None, 0, |_| {
        for (key, run) in &keys {
            match store.lease(REPLAY_FP, key) {
                Lease::Compute(lease) => {
                    if lease.publish(&run.result).is_err() {
                        c.failed += 1;
                    }
                }
                Lease::Hit(_) => c.failed += 1,
            }
        }
    });
    c.publish_us = t0.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64;
    drop(store);
    let store = tracer.span("store.reopen", None, 0, |_| ResultStore::open(copy));
    // The first read of each key after a reopen goes to disk (what a
    // reopened `serve` pays); the second is the in-memory hit a
    // long-running `serve` answers warm sweeps from.
    for (name, out) in [
        ("store.get.cold", &mut c.cold_get_us),
        ("store.get", &mut c.get_us),
    ] {
        let t0 = Instant::now();
        tracer.span(name, None, 0, |_| {
            for (key, run) in &keys {
                if store.get(REPLAY_FP, key).as_ref() != Some(&run.result) {
                    c.failed += 1;
                }
            }
        });
        *out = t0.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64;
    }
    c.corrupt_skipped = store.stats().corrupt_skipped;
    if c.failed > 0 {
        println!(
            "store replay: {} publishes or reads did not round-trip",
            c.failed
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(copy);
    c
}

pub fn run(workload: &str, seed: u64, threads: usize, bin: &Path, out_dir: &Path) -> Outcome {
    let tracer = Tracer::new();
    let grid = traced_grid(workload, seed);

    // 1. Engine: a traced pass between two untraced ones, so that
    //    neither side of the overhead comparison is the process's first.
    let plain = |k| run_pass(&grid.cells, &engine::order(&grid, seed, k), threads, None);
    let before = plain(0);
    let pass = tracer.span("grid.pass", None, 0, |_| {
        run_pass(
            &grid.cells,
            &engine::order(&grid, seed, 1),
            threads,
            Some(&tracer),
        )
    });
    let after = plain(2);
    let passes = [before, pass, after];
    let checked = engine::check(&grid, &passes);
    let (mut attempted, mut failed) = (checked.attempted, checked.failed);
    let [before, pass, after] = passes;

    // 2. Layer replay: the pf+compr cell of each workload exercises
    //    every layer.
    let mut replay = Replay::default();
    for (i, cell) in grid.cells.iter().enumerate() {
        if cell.variant == Variant::PrefetchCompression && cell.cfg.codec == CodecKind::Fpc {
            replay.cell(cell, i as u64, &tracer);
        }
    }
    let mut counts = EngineCounts::default();
    let mut est = Attribution::default();
    for (cell, run) in grid.cells.iter().zip(&pass.runs) {
        if let Ok(run) = run {
            account(cell, run, &replay, &mut counts, &mut est);
        }
    }

    // 3. Serve and store: the workload's own session, or a two-seed
    //    probe session for the engine workloads.
    let store_dir = out_dir.join(format!("store-{}-traced", std::process::id()));
    let seeds = resweep::seeds_for(seed, 0);
    let store_workload = workload == "store_resweep";
    let sweeps = if store_workload {
        &seeds[..]
    } else {
        &seeds[..2]
    };
    let client = Client {
        bin,
        threads,
        tracer: None,
    };
    let mut untraced = Session::default();
    if store_workload {
        if let Err(e) = client.session(&store_dir, sweeps, &mut Mix(seed), &mut untraced) {
            println!("untraced serve session failed: {e}");
            untraced.failed += 1;
        }
    }
    let mut session = Session::default();
    let traced = Client {
        tracer: Some(&tracer),
        ..client
    };
    if let Err(e) = traced.session(&store_dir, sweeps, &mut Mix(seed), &mut session) {
        println!("serve session failed: {e}");
        session.failed += 1;
    }
    attempted += untraced.requests;
    failed += untraced.failed;
    attempted += session.requests;
    failed += session.failed + resweep::recompute(&session.samples, threads);
    let results: Vec<(&Cell, &CellRun)> = grid
        .cells
        .iter()
        .zip(&pass.runs)
        .filter_map(|(c, r)| r.as_ref().ok().map(|r| (c, r)))
        .collect();
    let copy = out_dir.join(format!("store-{}-copy", std::process::id()));
    let store = store_replay(&store_dir, &copy, &results, &tracer);
    let _ = std::fs::remove_dir_all(&store_dir);
    attempted += 1;
    failed += u64::from(store.failed > 0);
    let warm_us = med(&session.warm_ms) * 1e3;

    // Tracing overhead on the workload's own sim_mips.
    let (mips_plain, mips_traced) = if store_workload {
        (untraced.sim_mips(), session.sim_mips())
    } else {
        ((before.mips() + after.mips()) / 2.0, pass.mips())
    };
    let overhead_pct = if mips_plain > 0.0 {
        (mips_plain - mips_traced) / mips_plain * 100.0
    } else {
        0.0
    };

    report(&replay, &counts, &est, &tracer);
    write_spans(&tracer, out_dir, workload, seed);

    let ok: Vec<&CellRun> = pass.ok().collect();
    let cell_secs: Vec<f64> = ok.iter().map(|r| r.secs()).collect();
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let run_ns = counts.run_ns.max(1.0);
    let fpc_variant = |v: Variant| {
        mips_where(&grid, &pass, move |c| {
            c.variant == v && c.cfg.codec == CodecKind::Fpc
        })
    };
    let codec = |k: CodecKind| mips_where(&grid, &pass, move |c| c.cfg.codec == k);
    let events_per_inst = frac(replay.trace.calls, replay.instructions);
    let metrics = vec![
        Metric::new("engine.events", counts.events as f64, "count"),
        Metric::new("engine.retired", counts.retired as f64, "count"),
        Metric::new(
            "engine.ns_per_event",
            counts.run_ns / counts.events.max(1) as f64,
            "ns",
        ),
        Metric::new("engine.mips.base", fpc_variant(HEADLINE[0]), "Minst/s"),
        Metric::new("engine.mips.compr", fpc_variant(HEADLINE[1]), "Minst/s"),
        Metric::new("engine.mips.pf", fpc_variant(HEADLINE[2]), "Minst/s"),
        Metric::new("engine.mips.pf_compr", fpc_variant(HEADLINE[3]), "Minst/s"),
        Metric::new("engine.mips.bdi", codec(CodecKind::Bdi), "Minst/s"),
        Metric::new("engine.mips.zca", codec(CodecKind::Zca), "Minst/s"),
        Metric::new(
            "engine.residual_share",
            1.0 - est.total() / run_ns,
            "fraction",
        ),
        Metric::new(
            "setup.ms_per_cell",
            pass.setup_s() * 1e3 / ok.len().max(1) as f64,
            "ms",
        ),
        Metric::new(
            "grid.slowest_cell_s",
            cell_secs.iter().cloned().fold(0.0, f64::max),
            "s",
        ),
        Metric::new(
            "grid.imbalance",
            imbalance(pass.wall_s, threads, &cell_secs),
            "ratio",
        ),
        Metric::new("trace.ns_per_event", replay.trace.ns_per_call(), "ns"),
        Metric::new(
            "trace.events",
            (events_per_inst * counts.retired as f64).round(),
            "count",
        ),
        Metric::new("l1.ns_per_access", replay.l1.ns_per_call(), "ns"),
        Metric::new(
            "l1.miss_ratio",
            frac(counts.l1_misses, counts.l1_accesses),
            "fraction",
        ),
        Metric::new("l2.ns_per_access.vsc", replay.l2_vsc.ns_per_call(), "ns"),
        Metric::new(
            "l2.ns_per_access.plain",
            replay.l2_plain.ns_per_call(),
            "ns",
        ),
        Metric::new(
            "l2.hit_ratio",
            frac(counts.l2_hits, counts.l2_accesses),
            "fraction",
        ),
        Metric::new("l2.demand_misses", counts.l2_demand_misses as f64, "count"),
        Metric::new("l2.writebacks", counts.l2_writebacks as f64, "count"),
        Metric::new(
            "l2.victim_tag_hits",
            counts.l2_victim_tag_hits as f64,
            "count",
        ),
        Metric::new("codec.ns_per_line.fpc", replay.codec[0].ns_per_call(), "ns"),
        Metric::new("codec.ns_per_line.bdi", replay.codec[1].ns_per_call(), "ns"),
        Metric::new("codec.ns_per_line.zca", replay.codec[2].ns_per_call(), "ns"),
        Metric::new("prefetch.ns_per_call", replay.prefetch.ns_per_call(), "ns"),
        Metric::new("prefetch.issued", counts.pf_issued as f64, "count"),
        Metric::new("prefetch.dropped", counts.pf_dropped as f64, "count"),
        Metric::new(
            "prefetch.accuracy",
            frac(counts.pf_useful, counts.pf_issued),
            "fraction",
        ),
        Metric::new("dir.ns_per_request", replay.dir.ns_per_call(), "ns"),
        Metric::new(
            "coherence.invalidations",
            counts.invalidations as f64,
            "count",
        ),
        Metric::new("coherence.recalls", counts.recalls as f64, "count"),
        Metric::new("link.ns_per_send", replay.link.ns_per_call(), "ns"),
        Metric::new("link.messages", counts.link_messages as f64, "count"),
        Metric::new("link.bytes", counts.link_bytes as f64, "bytes"),
        Metric::new(
            "link.queue_delay_cycles",
            counts.link_queue_delay as f64,
            "cycles",
        ),
        Metric::new("mem.ns_per_read", replay.mem.ns_per_call(), "ns"),
        Metric::new("mem.reads", counts.mem_reads as f64, "count"),
        Metric::new("store.open_ms", store.open_ms, "ms"),
        Metric::new("store.get_us", store.get_us, "us"),
        Metric::new("store.cold_get_us", store.cold_get_us, "us"),
        Metric::new("store.publish_us", store.publish_us, "us"),
        Metric::new(
            "store.hit_ratio",
            frac(session.hits, session.hits + session.misses),
            "fraction",
        ),
        Metric::new(
            "store.corrupt_skipped",
            (session.corrupt_skipped + store.corrupt_skipped) as f64,
            "count",
        ),
        Metric::new(
            "serve.us_per_cell",
            warm_us / CELLS as f64 - store.get_us,
            "us",
        ),
        Metric::new("serve.warm_sweep_p50_ms", med(&session.warm_ms), "ms"),
        Metric::new(
            "serve.warm_sweep_tail_ms",
            tail(&session.warm_ms, 95.0).map_or(0.0, |t| t.value),
            "ms",
        ),
        Metric::new("serve.cold_sweep_p50_ms", med(&session.cold_ms), "ms"),
        Metric::new(
            "serve.reopen_setup_ms",
            med(&session.reopen_setup_s) * 1e3,
            "ms",
        ),
        Metric::new(
            "serve.reopen_wall_ms",
            med(&session.reopen_wall_s) * 1e3,
            "ms",
        ),
        Metric::new("trace_overhead_pct", overhead_pct, "%"),
        Metric::new("est_share.trace", est.trace / run_ns, "fraction"),
        Metric::new("est_share.l1", est.l1 / run_ns, "fraction"),
        Metric::new("est_share.l2", est.l2 / run_ns, "fraction"),
        Metric::new("est_share.codec", est.codec / run_ns, "fraction"),
        Metric::new("est_share.prefetch", est.prefetch / run_ns, "fraction"),
        Metric::new("est_share.dir", est.dir / run_ns, "fraction"),
        Metric::new("est_share.link", est.link / run_ns, "fraction"),
        Metric::new("est_share.mem", est.mem / run_ns, "fraction"),
    ];
    Outcome::new(attempted, failed, metrics)
}

/// Human-readable attribution, cross-checks and span self times.
fn report(replay: &Replay, counts: &EngineCounts, est: &Attribution, tracer: &Tracer) {
    let run_ns = counts.run_ns.max(1.0);
    println!(
        "estimated share of engine host time (replayed cost per call x engine counts; estimates):"
    );
    for (name, ns) in [
        ("trace", est.trace),
        ("l1", est.l1),
        ("l2", est.l2),
        ("codec", est.codec),
        ("prefetch", est.prefetch),
        ("dir", est.dir),
        ("link", est.link),
        ("mem", est.mem),
    ] {
        println!("  {name:<9} {:>6.1}%", ns / run_ns * 100.0);
    }
    println!(
        "  residual  {:>6.1}%  (core stepping, event queue, dispatch)",
        (1.0 - est.total() / run_ns) * 100.0
    );
    println!("  for comparison, a per-event-kind timer once split an 8-core grid as CoreStep 35%, L2Access 21%, L1Fill 14%");
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let replay_l1 = ratio(replay.l1_misses, replay.l1.calls);
    let engine_l1 = ratio(counts.l1_misses, counts.l1_accesses);
    let replay_l2 = ratio(replay.l2_hits, replay.l2_vsc.calls);
    let engine_l2 = ratio(counts.l2_hits, counts.l2_accesses);
    println!(
        "cross-check (replay vs engine): l1 miss ratio {replay_l1:.4} vs {engine_l1:.4}; \
         l2 hit ratio {replay_l2:.4} vs {engine_l2:.4}; replay accesses {} l1, {} l2",
        replay.l1.calls, replay.l2_vsc.calls
    );
    println!("span self time by name:");
    for (name, ns) in tracer.self_time_by_name() {
        println!("  {name:<24} {:>12.3} ms", ns as f64 / 1e6);
    }
}

/// Writes the tracer's spans next to the run's other outputs.
pub fn write_spans(tracer: &Tracer, dir: &Path, name: &str, seed: u64) {
    let path = dir.join(format!("spans-{name}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("spans: cannot write {}: {e}", path.display()),
    }
}
