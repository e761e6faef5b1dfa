//! cmpbench — the cmpsim benchmark.
//!
//! ```text
//! cmpbench --workload <table5_steady|digest_cold|store_resweep>
//!          [--seed N] [--seconds S] [--trace 0|1]
//!          [--serve-bin PATH] [--out-dir DIR]
//! cmpbench compare <result.json> <result.json>
//! cmpbench record-table5 <first-seed> <end-seed>
//! ```
//!
//! A run prints human-readable lines, then one JSON object as its last
//! line: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric untraced, every per-layer metric traced). It also
//! writes the result with its run metadata to `<out-dir>/results/`,
//! which `compare` reads. See README.md for workloads and metrics.

mod calc;
mod engine;
mod grid;
mod layers;
mod replay;
mod resweep;
mod spans;

use std::path::{Path, PathBuf};
use std::process::Command;

pub const WORKLOADS: [&str; 3] = ["table5_steady", "digest_cold", "store_resweep"];

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, metrics: Vec<Metric>) -> Self {
        Outcome {
            attempted,
            failed,
            metrics,
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Restarts this process's peak-RSS (VmHWM) accounting, so that a pass
/// reports its own peak rather than the largest of any earlier pass.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    vm_hwm_mb(Path::new("/proc/self/status")).unwrap_or(0.0)
}

/// VmHWM from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(status).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run metadata recorded with every result. The first three fields are
/// the host identity: `compare` refuses runs whose identities differ.
#[derive(Debug, Clone, PartialEq)]
struct Meta {
    cpu: String,
    nproc: usize,
    rustc: String,
    git: String,
    threads: usize,
    seed: u64,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Meta {
    fn collect(threads: usize, seed: u64) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Meta {
            cpu,
            nproc: nproc(),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            // Only this checkout's own repository, never an enclosing one.
            git: Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "none".to_string()),
            threads,
            seed,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"cpu\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"git\": \"{}\", \"threads\": {}, \"seed\": {}}}",
            self.cpu.replace('"', "'"),
            self.nproc,
            self.rustc.replace('"', "'"),
            self.git,
            self.threads,
            self.seed
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    out_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "cmpbench: {msg}\nusage: cmpbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--serve-bin PATH] [--out-dir DIR]\n       cmpbench compare A.json B.json\n       \
         cmpbench record-table5 FIRST END",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 11,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::from(".bench_build/release/serve"),
        out_dir: PathBuf::from(".bench_build/cmpbench"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let num = || {
            val.parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {val}")))
        };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num(),
            "--seconds" => a.seconds = num() as f64,
            "--trace" => a.trace = num() == 1,
            "--serve-bin" => a.serve_bin = PathBuf::from(val),
            "--out-dir" => a.out_dir = PathBuf::from(val),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        usage(&format!("unknown workload {:?}", a.workload));
    }
    a
}

/// Host identity and metric values of a saved result.
fn read_result(path: &str) -> (String, Vec<(String, f64)>) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
    let field = |key: &str| {
        let start = text
            .find(&format!("\"{key}\": "))
            .map(|i| i + key.len() + 4)?;
        let rest = &text[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().trim_matches('"').to_string())
    };
    let host = ["cpu", "nproc", "rustc"]
        .map(|k| field(k).unwrap_or_default())
        .join(" | ");
    let mut metrics = Vec::new();
    let mut rest = text.split("\"metrics\": {").nth(1).unwrap_or("");
    while let Some(q) = rest.find("\": {\"value\": ") {
        let name = rest[..q].rsplit('"').next().unwrap_or("").to_string();
        let after = &rest[q + 13..];
        let end = after.find(',').unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse() {
            metrics.push((name, v));
        }
        rest = &after[end..];
    }
    (host, metrics)
}

/// `compare A B`: per-metric ratio B/A, refusing runs from different hosts.
fn compare(a: &str, b: &str) -> i32 {
    let (ha, ma) = read_result(a);
    let (hb, mb) = read_result(b);
    if ha != hb {
        eprintln!(
            "cmpbench compare: refusing to compare runs from different hosts:\n  {ha}\n  {hb}"
        );
        return 3;
    }
    println!("host: {ha}");
    for (name, va) in &ma {
        if let Some((_, vb)) = mb.iter().find(|(n, _)| n == name) {
            println!("{name:<28} {va:>14.6} {vb:>14.6} {:>8.3}x", vb / va);
        }
    }
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => std::process::exit(compare(&argv[1], &argv[2])),
        Some("record-table5") if argv.len() == 3 => {
            let n = |s: &str| {
                s.parse::<u64>()
                    .unwrap_or_else(|_| usage("seeds must be numbers"))
            };
            engine::record(n(&argv[1])..n(&argv[2]), nproc());
            return;
        }
        _ => {}
    }
    let args = parse_args(&argv);
    if !Path::new("crates").is_dir() || !Path::new("tests/golden").is_dir() {
        usage("run from the root of a cmpsim checkout");
    }
    std::fs::create_dir_all(args.out_dir.join("results"))
        .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", args.out_dir.display())));
    // Cells and serve requests use every CPU: the workers are the only
    // busy threads in the run.
    let threads = nproc();
    let meta = Meta::collect(threads, args.seed);
    println!("meta {}", meta.json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let outcome = if args.trace {
        layers::run(
            &args.workload,
            args.seed,
            threads,
            &args.serve_bin,
            &args.out_dir,
        )
    } else if args.workload == "store_resweep" {
        resweep::run(
            args.seed,
            args.seconds,
            threads,
            &args.serve_bin,
            &args.out_dir,
        )
    } else {
        engine::run(&args.workload, args.seed, args.seconds, threads)
    };
    let error_rate = if outcome.attempted == 0 {
        1.0
    } else {
        outcome.failed as f64 / outcome.attempted as f64
    };
    println!(
        "error_rate {error_rate} fraction ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    for m in &outcome.metrics {
        println!("{:<28} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let record = args.out_dir.join("results").join(format!(
        "{}-seed{}-trace{}-{stamp}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"meta\": {}, \"result\": {}}}\n",
        meta.json(),
        outcome.json()
    );
    if let Err(e) = std::fs::write(&record, body) {
        eprintln!("cmpbench: cannot write {}: {e}", record.display());
    }
    println!("{}", outcome.json());
}
