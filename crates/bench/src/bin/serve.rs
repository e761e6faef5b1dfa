//! `cmpsim serve` — a sweep daemon in front of the content-addressed
//! result store.
//!
//! Reads flat-JSON sweep requests one per line on stdin (the store
//! framing: string and integer values only) and streams back on stdout
//! one JSONL record per cell plus a summary with store hit/miss
//! telemetry. Every sweep a daemon process handles shares one
//! [`ResultStore`] handle, and daemons share work across processes
//! through the store directory: a cell any of them published is served
//! from the store without simulating at all.
//!
//! Request fields (`workloads`/`variants` are comma-separated lists;
//! both accept `all`, `variants` defaults to the four headline configs):
//!
//! ```text
//! {"sweep":"warm","workloads":"apsi,mgrid","variants":"base,pf",
//!  "cores":4,"seed":11,"warmup":5000,"measure":20000,"threads":4}
//! {"metrics":1}
//! {"shutdown":1}
//! ```
//!
//! Per-cell responses carry the cell's source (`store` or `computed`)
//! and its headline counters; the closing summary reports the store
//! hit rate for exactly this sweep plus the full [`StoreStats`] delta
//! (published/lease-wait/eviction/resident-byte telemetry).
//! `{"metrics":1}` answers with one flat-JSON line snapshotting the
//! whole service-metric registry: the `grid_*` and `serve_*` counters
//! and latency quantiles, plus the store's `StoreStats` copied into
//! `store_*` gauges just before the snapshot. Example session:
//!
//! ```sh
//! printf '%s\n' '{"sweep":"s","workloads":"apsi","cores":2,"warmup":2000,"measure":8000}' \
//!   | CMPSIM_STORE=target/store cargo run --release -p cmpsim-bench --bin serve
//! ```
//!
//! [`StoreStats`]: cmpsim_core::store::StoreStats

use cmpsim_core::experiment::{run_grid, RunOptions, SimLength};
use cmpsim_core::flatjson::{parse_flat, JsonVal};
use cmpsim_core::record::fingerprint;
use cmpsim_core::store::{CellKey, ResultStore};
use cmpsim_core::{CodecKind, SystemConfig, Variant};
use cmpsim_harness::metrics::{self, Counter, Histogram};
use cmpsim_trace::{all_workloads, WorkloadSpec};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

/// The four headline configurations (the paper's Table 2 sweep).
const HEADLINE: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

struct Request {
    sweep: String,
    specs: Vec<WorkloadSpec>,
    variants: Vec<Variant>,
    base: SystemConfig,
    len: SimLength,
    threads: usize,
}

/// One parsed request line.
enum Parsed {
    Sweep(Box<Request>),
    /// `{"metrics":1}` — snapshot the service-metric registry.
    Metrics,
    Shutdown,
}

/// Request-path service metrics, registered under `serve_*` names.
struct ServeMetrics {
    requests: Counter,
    sweeps: Counter,
    cells: Counter,
    errors: Counter,
    request_nanos: Histogram,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let r = metrics::global();
        ServeMetrics {
            requests: r.counter("serve_requests"),
            sweeps: r.counter("serve_sweeps"),
            cells: r.counter("serve_cells"),
            errors: r.counter("serve_errors"),
            request_nanos: r.histogram("serve_request_nanos"),
        }
    }
}

/// Strips characters that would break a flat-JSON string value.
fn sanitize(s: &str) -> String {
    s.replace(['"', '\\'], "'").replace('\n', " ")
}

fn parse_request(line: &str) -> Result<Parsed, String> {
    let kvs = parse_flat(line).ok_or_else(|| "not a flat JSON object".to_string())?;
    let map: HashMap<String, JsonVal> = kvs.into_iter().collect();
    if map.get("shutdown").and_then(JsonVal::as_u64) == Some(1) {
        return Ok(Parsed::Shutdown);
    }
    let str_field = |k: &str| map.get(k).and_then(JsonVal::as_str);
    let num_field = |k: &str| map.get(k).and_then(JsonVal::as_u64);
    if num_field("metrics") == Some(1) {
        return Ok(Parsed::Metrics);
    }

    let sweep = str_field("sweep").unwrap_or("sweep").to_string();
    let workloads = str_field("workloads").ok_or("missing \"workloads\"")?;
    let specs: Vec<WorkloadSpec> = if workloads == "all" {
        all_workloads()
    } else {
        workloads
            .split(',')
            .map(|name| {
                cmpsim_trace::workload(name.trim())
                    .ok_or_else(|| format!("unknown workload {name:?}"))
            })
            .collect::<Result<_, _>>()?
    };
    let variants: Vec<Variant> = match str_field("variants") {
        None => HEADLINE.to_vec(),
        Some("all") => Variant::all().to_vec(),
        Some(list) => list
            .split(',')
            .map(|label| {
                let label = label.trim();
                Variant::all()
                    .into_iter()
                    .find(|v| v.label() == label)
                    .ok_or_else(|| format!("unknown variant {label:?}"))
            })
            .collect::<Result<_, _>>()?,
    };
    let cores = num_field("cores").unwrap_or(4).clamp(1, 64) as u8;
    let mut base = SystemConfig::paper_default(cores)
        .with_seed(num_field("seed").unwrap_or(cmpsim_bench::SEED));
    if let Some(codec) = str_field("codec") {
        base = base.with_codec(match codec {
            "fpc" => CodecKind::Fpc,
            "bdi" => CodecKind::Bdi,
            "zca" => CodecKind::Zca,
            other => return Err(format!("unknown codec {other:?}")),
        });
    }
    let default_len = cmpsim_bench::sim_length();
    let len = SimLength {
        warmup: num_field("warmup").unwrap_or(default_len.warmup),
        measure: num_field("measure").unwrap_or(default_len.measure),
    };
    let threads = num_field("threads")
        .map(|t| (t as usize).max(1))
        .unwrap_or_else(cmpsim_harness::pool::default_threads);
    Ok(Parsed::Sweep(Box::new(Request { sweep, specs, variants, base, len, threads })))
}

/// Runs one sweep against the shared store, streaming JSONL to `out`.
/// Returns the number of cell records streamed.
fn serve_sweep(
    req: &Request,
    store: &Arc<ResultStore>,
    out: &mut dyn Write,
) -> std::io::Result<usize> {
    let fp = fingerprint(&req.base, req.len);
    // Label each cell's source up front with a counter-neutral probe, so
    // the summary's hit/miss telemetry reflects only the sweep itself.
    let stored_before: Vec<bool> = req
        .specs
        .iter()
        .flat_map(|spec| {
            req.variants.iter().map(|&v| {
                store.contains(fp, &CellKey::new(spec.name, v, req.base.seed))
            })
        })
        .collect();
    let before = store.stats();
    let opts = RunOptions::threads(req.threads).with_store(Arc::clone(store));
    let sweep_result: Result<Vec<_>, _> =
        run_grid(&req.specs, &req.base, &req.variants, req.len, &opts).into_iter().collect();
    let after = store.stats();
    let cells = match sweep_result {
        Ok(cells) => cells,
        Err(e) => {
            writeln!(out, "{{\"sweep\":\"{}\",\"error\":\"{}\"}}", req.sweep, sanitize(&e.to_string()))?;
            out.flush()?;
            return Ok(0);
        }
    };
    for (cell, was_stored) in cells.iter().zip(&stored_before) {
        writeln!(
            out,
            "{{\"sweep\":\"{}\",\"workload\":\"{}\",\"variant\":\"{}\",\"seed\":{},\
             \"source\":\"{}\",\"cycles\":{},\"instructions\":{},\"ipc_milli\":{}}}",
            req.sweep,
            cell.workload,
            cell.variant.label(),
            cell.seed,
            if *was_stored { "store" } else { "computed" },
            cell.result.cycles,
            cell.result.stats.instructions,
            (cell.result.ipc() * 1000.0).round() as u64,
        )?;
    }
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let served = hits + misses;
    // The closing summary carries the full StoreStats delta for this
    // sweep, plus the store's current on-disk footprint.
    writeln!(
        out,
        "{{\"sweep\":\"{}\",\"done\":1,\"cells\":{},\"store_hits\":{hits},\
         \"store_misses\":{misses},\"hit_rate_pct\":{},\"corrupt_skipped\":{},\
         \"published\":{},\"lease_waits\":{},\"evicted_files\":{},\"evicted_bytes\":{},\
         \"resident_bytes\":{}}}",
        req.sweep,
        cells.len(),
        if served == 0 { 0 } else { hits * 100 / served },
        after.corrupt_skipped - before.corrupt_skipped,
        after.published - before.published,
        after.shared_waits - before.shared_waits,
        after.evicted_files - before.evicted_files,
        after.evicted_bytes - before.evicted_bytes,
        store.resident_bytes(),
    )?;
    out.flush()?;
    Ok(cells.len())
}

/// Answers `{"metrics":1}`: copies the store's counts into the
/// registry, then writes the registry snapshot as one flat-JSON line.
fn serve_metrics(store: &ResultStore, out: &mut dyn Write) -> std::io::Result<()> {
    store.export_metrics();
    writeln!(out, "{}", metrics::global().snapshot().to_flat_json())?;
    out.flush()
}

/// Handles the request stream: a line per request until EOF or a
/// shutdown request.
fn serve(
    reader: impl BufRead,
    out: &mut dyn Write,
    store: &Arc<ResultStore>,
) -> std::io::Result<()> {
    let m = ServeMetrics::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let t0 = Instant::now();
        m.requests.inc();
        match parse_request(&line) {
            Ok(Parsed::Sweep(req)) => {
                let cells = serve_sweep(&req, store, out)?;
                m.sweeps.inc();
                m.cells.add(cells as u64);
            }
            Ok(Parsed::Metrics) => serve_metrics(store, out)?,
            Ok(Parsed::Shutdown) => return Ok(()),
            Err(e) => {
                writeln!(out, "{{\"error\":\"{}\"}}", sanitize(&e))?;
                out.flush()?;
                m.errors.inc();
            }
        }
        m.request_nanos.record_elapsed(t0);
    }
    Ok(())
}

/// The daemon's closing summary: the full lifetime [`StoreStats`] of
/// this process's store handle, on stderr.
fn closing_summary(store: &Arc<ResultStore>) {
    let s = store.stats();
    eprintln!(
        "cmpsim serve: closing summary: hits {} misses {} ({:.0}% hit rate), published {}, \
         lease waits {}, corrupt skipped {}, evicted {} files / {} bytes, resident {} bytes",
        s.hits,
        s.misses,
        s.hit_rate_pct(),
        s.published,
        s.shared_waits,
        s.corrupt_skipped,
        s.evicted_files,
        s.evicted_bytes,
        store.resident_bytes(),
    );
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: serve   (requests on stdin, responses on stdout)");
        std::process::exit(2);
    }
    let store = ResultStore::open_default();
    eprintln!("cmpsim serve: store at {}", store.dir().display());
    serve(std::io::stdin().lock(), &mut std::io::stdout(), &store)
        .expect("stdio transport failed");
    closing_summary(&store);
}
