//! End-to-end test of the serve daemon's observability surface: the
//! `{"metrics":1}` query answers a valid flat-JSON registry snapshot
//! whose `store_*` keys are the store's own counts — the same numbers
//! the sweep's summary line reports.

use cmpsim_core::flatjson::parse_flat;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const SWEEP: &str = "{\"sweep\":\"t\",\"workloads\":\"apsi\",\"variants\":\"base\",\
                     \"cores\":2,\"warmup\":1000,\"measure\":4000,\"threads\":2}";

/// The `u64` value of `key` in the flat-JSON object `line`.
fn field(line: &str, key: &str) -> u64 {
    parse_flat(line)
        .unwrap_or_else(|| panic!("not flat JSON: {line}"))
        .into_iter()
        .find(|(name, _)| name == key)
        .and_then(|(_, v)| v.as_u64())
        .unwrap_or_else(|| panic!("missing {key}: {line}"))
}

#[test]
fn metrics_query_answers_a_valid_snapshot() {
    let dir = std::env::temp_dir().join(format!("cmpsim-serve-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .env("CMPSIM_STORE", dir.join("store"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve daemon");
    let mut stdin = child.stdin.take().expect("stdin");
    let stdout = BufReader::new(child.stdout.take().expect("stdout"));

    writeln!(stdin, "{SWEEP}").expect("send sweep");
    writeln!(stdin, "{{\"metrics\":1}}").expect("send metrics query");
    drop(stdin);

    let (mut done, mut snapshot) = (None, None);
    for line in stdout.lines() {
        let line = line.expect("read response");
        if line.starts_with("{\"metrics\":1") {
            snapshot = Some(line);
        } else if line.contains("\"done\":1") {
            done = Some(line);
        }
    }
    assert!(child.wait().expect("daemon exits").success());
    let done = done.expect("daemon closed the sweep with a summary");
    let line = snapshot.expect("daemon answered the metrics query");
    let get = |k: &str| field(&line, k);

    // Coverage across all three instrumented layers, with the sweep's
    // work visible in each.
    assert_eq!(get("serve_requests"), 2);
    assert_eq!(get("serve_sweeps"), 1);
    assert_eq!(get("serve_cells"), 1);
    assert_eq!(get("grid_cells_computed") + get("grid_cells_cached"), 1);
    assert_eq!(get("store_published"), 1);
    assert!(get("store_resident_bytes") > 0);
    assert_eq!(get("serve_request_nanos_count"), 1, "sweep latency was recorded");
    assert!(get("serve_request_nanos_p99") >= get("serve_request_nanos_p50"));

    // One source for store counts: the snapshot reports exactly what the
    // sweep's summary line reported.
    for (snap_key, done_key) in [
        ("store_hits", "store_hits"),
        ("store_misses", "store_misses"),
        ("store_published", "published"),
        ("store_resident_bytes", "resident_bytes"),
    ] {
        assert_eq!(get(snap_key), field(&done, done_key), "{snap_key} vs {done_key}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
