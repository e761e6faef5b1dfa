//! `cmpsim serve` — a sweep daemon in front of the content-addressed
//! result store.
//!
//! Reads flat-JSON sweep requests one per line (the store framing:
//! string and integer values only) and streams back one JSONL
//! record per cell plus a summary with store hit/miss telemetry. Every
//! sweep a daemon process handles shares one [`ResultStore`] handle, so
//! two overlapping requests compute each shared cell exactly once (the
//! second rides the first's in-flight lease) and any later request is
//! served from the store without simulating at all.
//!
//! Transports:
//!
//! - default: requests on stdin, responses on stdout — one process per
//!   client, store sharing across processes via the store directory;
//! - `--socket <path>`: a unix-domain socket; each connection is a
//!   request stream answered on the same connection, all connections
//!   served concurrently against the shared in-process store.
//!
//! Request fields (`workloads`/`variants` are comma-separated lists;
//! both accept `all`, `variants` defaults to the four headline configs):
//!
//! ```text
//! {"sweep":"warm","workloads":"apsi,mgrid","variants":"base,pf",
//!  "cores":4,"seed":11,"warmup":5000,"measure":20000,"threads":4}
//! {"metrics":1}
//! {"metrics":1,"format":"prometheus"}
//! {"shutdown":1}
//! ```
//!
//! Per-cell responses carry the cell's source (`store` or `computed`)
//! and its headline counters; the closing summary reports the store
//! hit rate for exactly this sweep plus the full [`StoreStats`] delta
//! (published/lease-wait/eviction/resident-byte telemetry).
//! `{"metrics":1}` answers with one flat-JSON line snapshotting the
//! whole service-metric registry (`store_*`, `grid_*`, `serve_*`
//! counters, gauges and latency quantiles); the `prometheus` format
//! variant answers with a Prometheus text block instead (multi-line,
//! terminated by a blank line — the one deliberate departure from the
//! JSONL protocol).
//!
//! Every request carries a connection id and per-connection request id,
//! threaded into the structured access log (`--access-log <path>` or
//! `CMPSIM_ACCESS_LOG`): a crash-safe sealed JSONL file
//! ([`cmpsim_core::seallog`]) whose header goes through tempfile +
//! atomic rename and whose records are CRC-sealed single writes, so a
//! killed daemon never leaves a torn artifact. Example session:
//!
//! ```sh
//! printf '%s\n' '{"sweep":"s","workloads":"apsi","cores":2,"warmup":2000,"measure":8000}' \
//!   | CMPSIM_STORE=target/store cargo run --release -p cmpsim-bench --bin serve
//! ```

use cmpsim_core::experiment::{run_grid, RunOptions, SimLength};
use cmpsim_core::flatjson::{parse_flat, JsonVal};
use cmpsim_core::record::fingerprint;
use cmpsim_core::seallog::{SealedLog, ACCESS_LOG_HEADER};
use cmpsim_core::store::{CellKey, ResultStore};
use cmpsim_core::{CodecKind, SystemConfig, Variant};
use cmpsim_harness::metrics::{self, Counter, Histogram};
use cmpsim_trace::{all_workloads, WorkloadSpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    Metrics { prometheus: bool },
    Shutdown,
}

/// Request-path service metrics, registered under `serve_*` names.
/// `None` when `CMPSIM_METRICS=0`.
struct ServeMetrics {
    connections: Counter,
    requests: Counter,
    sweeps: Counter,
    cells: Counter,
    errors: Counter,
    request_nanos: Histogram,
}

impl ServeMetrics {
    fn arm() -> Option<Arc<ServeMetrics>> {
        if !metrics::enabled() {
            return None;
        }
        let r = metrics::global();
        Some(Arc::new(ServeMetrics {
            connections: r.counter("serve_connections"),
            requests: r.counter("serve_requests"),
            sweeps: r.counter("serve_sweeps"),
            cells: r.counter("serve_cells"),
            errors: r.counter("serve_errors"),
            request_nanos: r.histogram("serve_request_nanos"),
        }))
    }
}

/// Per-connection context: ids for the access log plus the shared
/// metric handles and (optional) sealed access log.
struct Ctx {
    conn: u64,
    metrics: Option<Arc<ServeMetrics>>,
    log: Option<Arc<Mutex<SealedLog>>>,
}

impl Ctx {
    /// Appends one access-log record; `sweep` is already sanitized.
    fn log_request(&self, req_id: u64, kind: &str, sweep: &str, cells: usize, t0: Instant) {
        let Some(log) = &self.log else { return };
        let elapsed_us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let body = format!(
            "{{\"conn\":{},\"req\":{req_id},\"kind\":\"{kind}\",\"sweep\":\"{sweep}\",\
             \"cells\":{cells},\"elapsed_us\":{elapsed_us}",
            self.conn,
        );
        let mut log = log.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Err(e) = log.append(body) {
            eprintln!("cmpsim serve: access log append failed: {e}");
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
        return Ok(Parsed::Metrics { prometheus: str_field("format") == Some("prometheus") });
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

/// Answers `{"metrics":1}`: refreshes the store-occupancy gauge, then
/// writes the registry snapshot as one flat-JSON line (or a Prometheus
/// text block when requested).
fn serve_metrics(
    store: &Arc<ResultStore>,
    prometheus: bool,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    store.resident_bytes();
    let snap = metrics::global().snapshot();
    if prometheus {
        out.write_all(snap.to_prometheus().as_bytes())?;
        out.write_all(b"\n")?;
    } else {
        writeln!(out, "{}", snap.to_flat_json())?;
    }
    out.flush()
}

/// Handles one request stream: a line per sweep until EOF or shutdown.
/// Returns whether a shutdown request was seen.
fn serve_stream(
    reader: impl BufRead,
    out: &mut dyn Write,
    store: &Arc<ResultStore>,
    ctx: &Ctx,
) -> std::io::Result<bool> {
    if let Some(m) = &ctx.metrics {
        m.connections.inc();
    }
    let mut req_id = 0u64;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        req_id += 1;
        let t0 = Instant::now();
        if let Some(m) = &ctx.metrics {
            m.requests.inc();
        }
        match parse_request(&line) {
            Ok(Parsed::Sweep(req)) => {
                let cells = serve_sweep(&req, store, out)?;
                if let Some(m) = &ctx.metrics {
                    m.sweeps.inc();
                    m.cells.add(cells as u64);
                    m.request_nanos.record_elapsed(t0);
                }
                ctx.log_request(req_id, "sweep", &sanitize(&req.sweep), cells, t0);
            }
            Ok(Parsed::Metrics { prometheus }) => {
                serve_metrics(store, prometheus, out)?;
                if let Some(m) = &ctx.metrics {
                    m.request_nanos.record_elapsed(t0);
                }
                ctx.log_request(req_id, "metrics", "", 0, t0);
            }
            Ok(Parsed::Shutdown) => {
                ctx.log_request(req_id, "shutdown", "", 0, t0);
                return Ok(true);
            }
            Err(e) => {
                writeln!(out, "{{\"error\":\"{}\"}}", sanitize(&e))?;
                out.flush()?;
                if let Some(m) = &ctx.metrics {
                    m.errors.inc();
                    m.request_nanos.record_elapsed(t0);
                }
                ctx.log_request(req_id, "parse_error", "", 0, t0);
            }
        }
    }
    Ok(false)
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut access_log: Option<String> = std::env::var("CMPSIM_ACCESS_LOG").ok();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--socket", Some(path)) => socket = Some(path.clone()),
            ("--access-log", Some(path)) => access_log = Some(path.clone()),
            _ => {
                eprintln!(
                    "usage: serve [--socket <path>] [--access-log <path>]   \
                     (requests on stdin by default; CMPSIM_ACCESS_LOG also sets the log)"
                );
                std::process::exit(2);
            }
        }
    }

    let store = ResultStore::open_default();
    eprintln!("cmpsim serve: store at {}", store.dir().display());
    let serve_metrics = ServeMetrics::arm();
    let log = access_log.and_then(|path| match SealedLog::open(&path, ACCESS_LOG_HEADER) {
        Ok(log) => {
            eprintln!("cmpsim serve: access log at {path}");
            Some(Arc::new(Mutex::new(log)))
        }
        Err(e) => {
            eprintln!("cmpsim serve: cannot open access log {path}: {e}");
            None
        }
    });

    match socket {
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            let ctx = Ctx { conn: 1, metrics: serve_metrics, log };
            serve_stream(stdin.lock(), &mut stdout, &store, &ctx)
                .expect("stdio transport failed");
            closing_summary(&store);
        }
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)
                .unwrap_or_else(|e| panic!("cannot bind {path}: {e}"));
            eprintln!("cmpsim serve: listening on {path}");
            let shutdown = Arc::new(AtomicBool::new(false));
            let conn_ids = AtomicU64::new(0);
            let mut workers = Vec::new();
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let conn = match conn {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("cmpsim serve: accept failed: {e}");
                        continue;
                    }
                };
                // Concurrent connections share the store handle — this is
                // where overlapping sweeps dedup against each other.
                let store = Arc::clone(&store);
                let shutdown = Arc::clone(&shutdown);
                let sock_path = path.clone();
                let ctx = Ctx {
                    conn: conn_ids.fetch_add(1, Ordering::Relaxed) + 1,
                    metrics: serve_metrics.clone(),
                    log: log.clone(),
                };
                workers.push(std::thread::spawn(move || {
                    let reader = BufReader::new(conn.try_clone().expect("clone socket"));
                    let mut writer = conn;
                    match serve_stream(reader, &mut writer, &store, &ctx) {
                        Ok(true) => {
                            shutdown.store(true, Ordering::SeqCst);
                            // Unblock the accept loop so it can observe
                            // the flag and exit.
                            let _ = std::os::unix::net::UnixStream::connect(&sock_path);
                        }
                        Ok(false) => {}
                        Err(e) => eprintln!("cmpsim serve: connection failed: {e}"),
                    }
                }));
            }
            for w in workers {
                let _ = w.join();
            }
            let _ = std::fs::remove_file(&path);
            closing_summary(&store);
        }
    }
}
