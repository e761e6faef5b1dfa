//! Live ASCII ops dashboard over the service-metric registry.
//!
//! Drives a continuous stream of smoke sweeps against a result store on
//! a background thread (one cold round, then warm rounds — the steady
//! state of a serve daemon with a hot store) while the foreground
//! renders the registry as a terminal dashboard: store throughput
//! (ops/s), hit ratio, cell compute latency p50/p95/p99, queue depth
//! and on-disk store occupancy. Everything shown is read from the same
//! `cmpsim_harness::metrics` registry the serve daemon exports, so the
//! dashboard doubles as a visual check of the whole pipeline.
//!
//! Usage:
//!   cargo run --release --example ops_dashboard            # live view
//!   cargo run --release --example ops_dashboard -- --check # CI mode
//!
//! Flags:
//!   --rounds <n>       sweep rounds to drive (default 8)
//!   --refresh-ms <ms>  frame interval (default 500)
//!   --check            two plain frames, no ANSI, assert the registry
//!                      is live and consistent, exit nonzero on failure

use cmpsim::core::store::ResultStore;
use cmpsim::{all_workloads, run_grid, RunOptions, SimLength, SystemConfig, Variant};
use cmpsim_harness::metrics::{self, MetricsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VARIANTS: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

/// One dashboard frame, rendered from two registry snapshots a known
/// interval apart (rates are deltas over that interval).
fn render(prev: &MetricsSnapshot, cur: &MetricsSnapshot, dt: f64, elapsed: f64) -> String {
    let c = |name: &str| cur.counter(name).unwrap_or(0);
    let d = |name: &str| c(name).saturating_sub(prev.counter(name).unwrap_or(0));
    let hits = c("store_hits");
    let misses = c("store_misses");
    let served = hits + misses;
    let hit_pct = if served == 0 { 0.0 } else { hits as f64 * 100.0 / served as f64 };
    let ops_rate = (d("store_hits") + d("store_misses")) as f64 / dt.max(1e-9);
    let cell_rate = (d("grid_cells_computed") + d("grid_cells_cached")) as f64 / dt.max(1e-9);
    let q = |h: Option<&cmpsim_harness::metrics::HistogramSnapshot>, p: f64| {
        h.map_or(0.0, |h| h.quantile(p) as f64 / 1e6)
    };
    let lat = cur.histogram("grid_cell_compute_nanos");
    let occupancy = cur.gauge("store_resident_bytes").unwrap_or(0);
    let depth = cur.gauge("grid_queue_depth").unwrap_or(0);

    let bar = |pct: f64| {
        let filled = (pct / 100.0 * 24.0).round() as usize;
        format!("[{}{}]", "#".repeat(filled.min(24)), "-".repeat(24 - filled.min(24)))
    };
    let mut s = String::new();
    s.push_str(&format!(
        "cmpsim ops dashboard                                 t+{elapsed:6.1}s\n"
    ));
    s.push_str("------------------------------------------------------------\n");
    s.push_str(&format!(
        "store ops     {ops_rate:8.1}/s   cells {cell_rate:8.1}/s   queue {depth:4}\n"
    ));
    s.push_str(&format!(
        "hit ratio     {:5.1}% {}  ({hits} hits / {misses} misses)\n",
        hit_pct,
        bar(hit_pct),
    ));
    s.push_str(&format!(
        "compute ms    p50 {:8.2}   p95 {:8.2}   p99 {:8.2}   (n={})\n",
        q(lat, 0.50),
        q(lat, 0.95),
        q(lat, 0.99),
        lat.map_or(0, |h| h.count),
    ));
    s.push_str(&format!(
        "store         {:8.1} KiB resident   published {}   evicted {}\n",
        occupancy as f64 / 1024.0,
        c("store_published"),
        c("store_evicted_files"),
    ));
    s.push_str(&format!(
        "grid          computed {}   cached {}   failed {}   retries {}\n",
        c("grid_cells_computed"),
        c("grid_cells_cached"),
        c("grid_cells_failed"),
        c("grid_retries"),
    ));
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut rounds = 8usize;
    let mut refresh_ms = 500u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--check" => check = true,
            "--rounds" => {
                rounds = it.next().and_then(|v| v.parse().ok()).unwrap_or(rounds);
            }
            "--refresh-ms" => {
                refresh_ms = it.next().and_then(|v| v.parse().ok()).unwrap_or(refresh_ms);
            }
            other => {
                eprintln!("unknown flag {other}; see the example's doc header");
                std::process::exit(2);
            }
        }
    }
    if !metrics::enabled() {
        eprintln!("ops dashboard: CMPSIM_METRICS=0 — nothing to display");
        std::process::exit(1);
    }
    if check {
        rounds = 2;
        refresh_ms = refresh_ms.min(100);
    }

    let dir = std::env::var("CMPSIM_STORE")
        .unwrap_or_else(|_| "target/ops-dashboard-store".to_string());
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir);
    let done = Arc::new(AtomicBool::new(false));

    // The workload driver: cold round populates the store, warm rounds
    // replay it — the daemon steady state the dashboard visualizes.
    let driver = {
        let store = Arc::clone(&store);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let base = SystemConfig::paper_default(4).with_seed(11);
            let len = SimLength { warmup: 5_000, measure: 20_000 };
            let specs = all_workloads();
            let opts = RunOptions::threads(4).with_store(store);
            for _ in 0..rounds {
                if run_grid(&specs, &base, &VARIANTS, len, &opts).iter().any(Result::is_err) {
                    break;
                }
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    let t0 = Instant::now();
    let mut prev = metrics::global().snapshot();
    let mut prev_t = t0;
    let mut frames = 0u32;
    loop {
        std::thread::sleep(Duration::from_millis(refresh_ms));
        store.resident_bytes();
        let cur = metrics::global().snapshot();
        let now = Instant::now();
        let frame = render(
            &prev,
            &cur,
            now.duration_since(prev_t).as_secs_f64(),
            t0.elapsed().as_secs_f64(),
        );
        if check {
            println!("{frame}");
        } else {
            // Repaint in place: clear screen, home the cursor.
            print!("\x1b[2J\x1b[H{frame}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        frames += 1;
        prev = cur;
        prev_t = now;
        if done.load(Ordering::SeqCst) {
            break;
        }
    }
    driver.join().expect("driver thread");

    // Final frame over the completed run.
    store.resident_bytes();
    let last = metrics::global().snapshot();
    let frame = render(&prev, &last, prev_t.elapsed().as_secs_f64(), t0.elapsed().as_secs_f64());
    println!("{frame}");

    if check {
        let total = rounds as u64 * 32; // 8 workloads x 4 variants per round
        let computed = last.counter("grid_cells_computed").unwrap_or(0);
        let cached = last.counter("grid_cells_cached").unwrap_or(0);
        let mut ok = true;
        let mut gate = |label: &str, pass: bool| {
            if pass {
                println!("ops dashboard check: {label}: ok");
            } else {
                eprintln!("ops dashboard check: {label}: FAILED");
                ok = false;
            }
        };
        gate("rendered at least two frames", frames >= 2);
        gate("every cell accounted", computed + cached == total);
        gate("second round was warm", cached >= 32);
        gate(
            "latency histogram live",
            last.histogram("grid_cell_compute_nanos").map_or(0, |h| h.count) == computed,
        );
        gate("store occupancy visible", last.gauge("store_resident_bytes").unwrap_or(0) > 0);
        if !ok {
            std::process::exit(1);
        }
    }
}
