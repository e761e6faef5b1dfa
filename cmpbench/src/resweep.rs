//! store_resweep: one client drives one `serve` child closed-loop over
//! its stdin JSONL protocol against a fresh store directory, mixing
//! warm sweeps (seeds already stored) with cold sweeps (a new seed,
//! computed and published); then a second `serve` reopens the
//! populated store and re-sweeps all of it.

use crate::calc::{median_or_zero as med, tail, Mix};
use crate::grid::{run_pass, Cell};
use crate::spans::{maybe_span, Tracer};
use crate::{vm_hwm_mb, Metric, Outcome};
use cmpsim_core::{SystemConfig, Variant};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Cell configuration of every request: 2 cores, 1k warmup + 4k
/// measured instructions per core, all 8 workloads × all 8 variants.
pub const CORES: u8 = 2;
pub const LEN: (u64, u64) = (1_000, 4_000);
pub const CELLS: usize = 64;
/// Warm sweeps after each cold sweep.
const WARM_PER_COLD: usize = 16;
/// Cold sweeps (stored seeds) per session; fixes the store's size.
const COLD_PER_SESSION: usize = 8;
/// Reopening `serve` processes per session.
const REOPENS: usize = 4;

/// One served cell, as the `serve` protocol reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub workload: String,
    pub variant: String,
    pub seed: u64,
    pub cycles: u64,
    pub instructions: u64,
    pub ipc_milli: u64,
}

/// A flat-JSON field's raw value (quotes stripped).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn num(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// A reply to one sweep request.
#[derive(Debug)]
pub struct Reply {
    pub cells: Vec<(Served, bool)>,
    pub hits: u64,
    pub misses: u64,
    pub corrupt_skipped: u64,
}

/// A running `serve` child speaking JSONL on stdin/stdout.
pub struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Serve {
    pub fn spawn(bin: &Path, store: &Path) -> Result<Serve, String> {
        let mut child = Command::new(bin)
            .env("CMPSIM_STORE", store)
            .env_remove("CMPSIM_ACCESS_LOG")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Serve {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one all × all sweep for `seed` and reads until its `done`.
    pub fn sweep(&mut self, name: &str, seed: u64, threads: usize) -> Result<Reply, String> {
        let req = format!(
            "{{\"sweep\":\"{name}\",\"workloads\":\"all\",\"variants\":\"all\",\"cores\":{CORES},\
             \"seed\":{seed},\"warmup\":{},\"measure\":{},\"threads\":{threads}}}\n",
            LEN.0, LEN.1
        );
        let stdin = self.stdin.as_mut().ok_or("serve stdin closed")?;
        stdin
            .write_all(req.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| e.to_string())?;
        let mut cells = Vec::with_capacity(CELLS);
        let mut line = String::new();
        loop {
            line.clear();
            if self
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                return Err("serve closed its output mid-sweep".into());
            }
            if line.contains("\"error\"") {
                return Err(format!("serve error: {}", line.trim()));
            }
            if num(&line, "done") == Some(1) {
                let n = |k| num(&line, k).unwrap_or(0);
                return Ok(Reply {
                    cells,
                    hits: n("store_hits"),
                    misses: n("store_misses"),
                    corrupt_skipped: n("corrupt_skipped"),
                });
            }
            let parsed = (|| {
                Some((
                    Served {
                        workload: field(&line, "workload")?.to_string(),
                        variant: field(&line, "variant")?.to_string(),
                        seed: num(&line, "seed")?,
                        cycles: num(&line, "cycles")?,
                        instructions: num(&line, "instructions")?,
                        ipc_milli: num(&line, "ipc_milli")?,
                    },
                    field(&line, "source")? == "store",
                ))
            })();
            cells.push(parsed.ok_or_else(|| format!("malformed cell line: {}", line.trim()))?);
        }
    }

    /// Peak resident set of the child so far, in MB.
    pub fn rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&PathBuf::from(format!("/proc/{}/status", self.child.id())))
    }

    /// Asks the child to exit and waits for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"{\"shutdown\":1}\n");
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("serve exited with {status}"))
        }
    }
}

impl Drop for Serve {
    /// Never leaves a child behind, on any path.
    fn drop(&mut self) {
        self.stdin.take();
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Everything one session measured.
#[derive(Debug, Default)]
pub struct Session {
    pub warm_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub reopen_setup_s: Vec<f64>,
    pub reopen_wall_s: Vec<f64>,
    pub rss_mb: Vec<f64>,
    pub requests: u64,
    pub failed: u64,
    pub hits: u64,
    pub misses: u64,
    pub corrupt_skipped: u64,
    /// Served cells picked for in-process recomputation.
    pub samples: Vec<Served>,
}

impl Session {
    /// Checks a reply: 64 cells, all from the store (warm) or all
    /// computed (cold), for the requested seed. Returns whether it failed.
    fn check(&mut self, reply: &Result<Reply, String>, seed: u64, warm: bool) -> bool {
        self.requests += 1;
        let bad = match reply {
            Err(e) => {
                println!("request failed: {e}");
                true
            }
            Ok(r) => {
                self.hits += r.hits;
                self.misses += r.misses;
                self.corrupt_skipped += r.corrupt_skipped;
                let wrong = r.cells.len() != CELLS
                    || r.cells
                        .iter()
                        .any(|(c, stored)| *stored != warm || c.seed != seed);
                if wrong {
                    println!("request for seed {seed} (warm {warm}) returned the wrong cells");
                }
                wrong
            }
        };
        if bad {
            self.failed += 1;
        }
        bad
    }
}

/// How the benchmark talks to `serve`: which binary, how many worker
/// threads each request asks for, and whether requests are traced.
#[derive(Clone, Copy)]
pub struct Client<'a> {
    pub bin: &'a Path,
    pub threads: usize,
    pub tracer: Option<&'a Tracer>,
}

impl Client<'_> {
    fn sweep(
        &self,
        serve: &mut Serve,
        name: &'static str,
        id: u64,
        seed: u64,
    ) -> (Result<Reply, String>, f64) {
        maybe_span(self.tracer, name, None, id, |_| {
            let t0 = Instant::now();
            let r = serve.sweep(name, seed, self.threads);
            (r, t0.elapsed().as_secs_f64())
        })
    }

    /// One session on a fresh store at `dir`: a round per seed of one
    /// cold sweep followed by `WARM_PER_COLD` warm sweeps, then `REOPENS`
    /// reopening processes.
    pub fn session(
        &self,
        dir: &Path,
        seeds: &[u64],
        mix: &mut Mix,
        s: &mut Session,
    ) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut serve = Serve::spawn(self.bin, dir)?;
        let mut stored: Vec<u64> = Vec::new();
        for &seed in seeds {
            let (reply, secs) = self.sweep(&mut serve, "serve.sweep.cold", s.requests, seed);
            if !s.check(&reply, seed, false) {
                s.cold_ms.push(secs * 1e3);
                let r = reply.expect("checked");
                s.samples.push(r.cells[mix.below(r.cells.len())].0.clone());
                stored.push(seed);
            }
            for w in 0..WARM_PER_COLD {
                let Some(&seed) = stored.get(mix.below(stored.len().max(1))) else {
                    break;
                };
                let (reply, secs) = self.sweep(&mut serve, "serve.sweep.warm", s.requests, seed);
                if !s.check(&reply, seed, true) {
                    s.warm_ms.push(secs * 1e3);
                    if w == 0 {
                        let r = reply.expect("checked");
                        s.samples.push(r.cells[mix.below(r.cells.len())].0.clone());
                    }
                }
            }
        }
        if let Some(mb) = serve.rss_mb() {
            s.rss_mb.push(mb);
        }
        serve.shutdown()?;
        if stored.is_empty() {
            return Ok(());
        }
        for _ in 0..REOPENS {
            // Set-up: spawn to the first warm reply. Wall: the whole
            // re-sweep of every stored seed, through process exit.
            let t0 = Instant::now();
            let mut serve = Serve::spawn(self.bin, dir)?;
            for (k, &seed) in stored.iter().enumerate() {
                let (reply, _) = self.sweep(&mut serve, "serve.sweep.reopen", s.requests, seed);
                if k == 0 {
                    s.reopen_setup_s.push(t0.elapsed().as_secs_f64());
                }
                s.check(&reply, seed, true);
            }
            serve.shutdown()?;
            s.reopen_wall_s.push(t0.elapsed().as_secs_f64());
        }
        Ok(())
    }
}

/// Cold-sweep seeds for session `rep` of a run with `seed`.
pub fn seeds_for(seed: u64, rep: u64) -> Vec<u64> {
    (0..COLD_PER_SESSION as u64)
        .map(|i| seed * 1_000_000 + rep * 100 + i)
        .collect()
}

/// The in-process cell a served record claims to be.
pub fn cell_of(s: &Served) -> Option<Cell> {
    let spec = cmpsim_trace::workload(&s.workload)?;
    let variant = Variant::all()
        .into_iter()
        .find(|v| v.label() == s.variant)?;
    let base = SystemConfig::paper_default(CORES).with_seed(s.seed);
    Some(Cell::new(&spec, &base, variant, LEN))
}

/// Recomputes every sampled served cell in-process and compares
/// `cycles`, `instructions` and `ipc_milli`. Returns mismatches.
pub fn recompute(samples: &[Served], threads: usize) -> u64 {
    let cells: Vec<Option<Cell>> = samples.iter().map(cell_of).collect();
    let known: Vec<Cell> = cells.iter().flatten().cloned().collect();
    let order: Vec<usize> = (0..known.len()).collect();
    let pass = run_pass(&known, &order, threads, None);
    let mut runs = pass.runs.into_iter();
    let mut failed = 0;
    for (s, c) in samples.iter().zip(&cells) {
        let ok = c.is_some()
            && match runs.next() {
                Some(Ok(r)) => {
                    let got = (
                        r.result.cycles,
                        r.result.stats.instructions,
                        (r.result.ipc() * 1000.0).round() as u64,
                    );
                    got == (s.cycles, s.instructions, s.ipc_milli)
                }
                _ => false,
            };
        if !ok {
            println!("served cell differs from recomputation: {s:?}");
            failed += 1;
        }
    }
    println!(
        "recomputed {} served cells in-process: {} differ",
        samples.len(),
        failed
    );
    failed
}

impl Session {
    /// Nominal simulated instructions of one cold sweep (64 cells × 2
    /// cores × 5k) ÷ the median cold-sweep time, in MIPS.
    pub fn sim_mips(&self) -> f64 {
        let cold_s = med(&self.cold_ms) / 1e3;
        let instructions = (CELLS as u64 * u64::from(CORES) * (LEN.0 + LEN.1)) as f64;
        if cold_s > 0.0 {
            instructions / cold_s / 1e6
        } else {
            0.0
        }
    }
}

/// Sessions until `seconds` have elapsed (at least one), each on a fresh
/// store that is removed afterwards.
pub fn sessions(seed: u64, seconds: f64, client: Client, out_dir: &Path) -> Session {
    let mut s = Session::default();
    let mut mix = Mix(seed);
    let t0 = Instant::now();
    let mut rep = 0;
    while rep == 0 || t0.elapsed().as_secs_f64() < seconds {
        let dir = out_dir.join(format!("store-{}-{rep}", std::process::id()));
        if let Err(e) = client.session(&dir, &seeds_for(seed, rep), &mut mix, &mut s) {
            println!("session {rep} failed: {e}");
            s.requests += 1;
            s.failed += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
        rep += 1;
    }
    println!("{rep} sessions on fresh stores");
    s
}

pub fn end_to_end(s: &Session) -> Vec<Metric> {
    let warm_tail = tail(&s.warm_ms, 95.0);
    let cold_p50 = med(&s.cold_ms);
    println!(
        "warm_sweep_p50_ms {:.4} ms, warm_sweep_p{:.1}_ms {:.4} ms ({} samples); \
         cold_sweep_p50_ms {:.3} ms ({} samples); reopen set-up {} samples, wall {} samples",
        med(&s.warm_ms),
        warm_tail.map_or(0.0, |t| t.pct),
        warm_tail.map_or(0.0, |t| t.value),
        s.warm_ms.len(),
        cold_p50,
        s.cold_ms.len(),
        s.reopen_setup_s.len(),
        s.reopen_wall_s.len()
    );
    println!(
        "store: {} hits, {} misses ({:.4} hit ratio), {} corrupt records skipped",
        s.hits,
        s.misses,
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
        s.corrupt_skipped
    );
    vec![
        Metric::new("sim_mips", s.sim_mips(), "Minst/s"),
        Metric::new("wall_s", med(&s.reopen_wall_s), "s"),
        Metric::new("setup_s", med(&s.reopen_setup_s), "s"),
        Metric::new("peak_rss_mb", med(&s.rss_mb), "MB"),
        Metric::new("op_p50_ms", med(&s.warm_ms), "ms"),
    ]
}

/// The untraced store_resweep run.
pub fn run(seed: u64, seconds: f64, threads: usize, bin: &Path, out_dir: &Path) -> Outcome {
    let client = Client {
        bin,
        threads,
        tracer: None,
    };
    let mut s = sessions(seed, seconds, client, out_dir);
    let mismatched = recompute(&s.samples, threads);
    s.failed += mismatched;
    Outcome::new(s.requests, s.failed, end_to_end(&s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_serve_cell_lines() {
        let line = "{\"sweep\":\"w\",\"workload\":\"apsi\",\"variant\":\"pf+compr\",\"seed\":7,\
                    \"source\":\"store\",\"cycles\":123,\"instructions\":8000,\"ipc_milli\":1500}";
        assert_eq!(field(line, "workload"), Some("apsi"));
        assert_eq!(field(line, "variant"), Some("pf+compr"));
        assert_eq!(num(line, "ipc_milli"), Some(1500));
        assert_eq!(num(line, "seed"), Some(7));
        assert_eq!(field(line, "missing"), None);
    }
}
