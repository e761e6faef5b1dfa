//! Persistent, content-addressed experiment result store — the only
//! persistence of grid sweeps.
//!
//! Every completed cell is addressed by `(structural config fingerprint,
//! workload, variant, seed)` — with the simulation length folded into the
//! fingerprint ([`record::fingerprint`]) — and [`run_grid`]
//! (crate::experiment::run_grid) consults the store before scheduling
//! each cell, computes only the delta, and publishes each computed cell
//! the moment it finishes. That one mechanism gives:
//!
//! - **reuse** across sweeps, processes and days: a sweep whose cells
//!   mostly exist finishes in the time it takes to read them back, and
//!   overlapping sweeps share work instead of repeating it;
//! - **resume**: a sweep killed mid-run is resumed by running it again
//!   against the same store — only the cells that had not finished run;
//! - **quarantine**: a failed cell leaves a failure record, and a cell
//!   with [`MAX_CELL_FAILURES`] of them is reported as
//!   [`CellError::Quarantined`](crate::CellError::Quarantined) instead of
//!   being retried forever.
//!
//! On-disk layout (under `target/store`, overridable via `CMPSIM_STORE`;
//! see [`ResultStore::open_default`]), every file a [`seallog`] sealed
//! file:
//!
//! ```text
//! target/store/
//!   <fingerprint>.jsonl   # data: cell and failure records
//!   <fingerprint>.idx     # index: key → byte range, one entry per record
//!   lru.jsonl             # logical-clock touch records driving eviction
//! ```
//!
//! Data records carry an FNV-1a-32 `crc`, so in-place corruption is
//! detected and the cell recomputed rather than silently served wrong.
//! The `.idx` sidecar makes a cold lookup O(1): a hit reads *only that
//! record* from the data file. The index is disposable — if it is
//! missing, behind the data file (a crash between the two appends) or
//! lies (its range fails the CRC or names another cell), the store falls
//! back to scanning the data file and rewrites the index. Torn tails
//! follow the one [`seallog`] policy: readers drop them, and the first
//! append of a process truncates them away.
//!
//! Size is bounded: when the data files exceed the configured budget
//! (`CMPSIM_STORE_MAX_BYTES`, default 512 MiB), whole fingerprint files
//! are evicted least-recently-*touched* first, driven by a logical
//! counter in `lru.jsonl` — no wall-clock reads, so store behavior stays
//! deterministic.
//!
//! Concurrency: a store handle is `Sync` and meant to be shared
//! (`Arc<ResultStore>`) by every sweep in the process. [`lease`]
//! (ResultStore::lease) dedups *in-flight* work — the first sweep to ask
//! for a missing cell computes it while later askers block until the
//! result is published, so overlapping sweeps compute each cell exactly
//! once. Cross-process sharing is append-only and last-wins: concurrent
//! appends of the same cell are benign (the records are bit-identical by
//! the determinism contract).
//!
//! The store is **bit-inert**: a warm run decodes to exactly the
//! `RunResult` the cold run produced, so `run_grid` results — and the
//! `grid_digest` golden gate — are identical with the store cold, warm,
//! or absent.

use crate::config::Variant;
use crate::flatjson::JsonVal;
use crate::record::{self, Record};
use crate::seallog::{self, SealedLog};
use crate::stats::RunResult;
use cmpsim_harness::metrics;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

/// Store format version, written into every file header. Bumping it
/// orphans old files (they stop matching and are eventually evicted).
pub const STORE_VERSION: u64 = 1;

/// Default size budget for the data files: 512 MiB.
pub const DEFAULT_MAX_BYTES: u64 = 512 * 1024 * 1024;

/// Recorded failures of one cell before a sweep quarantines it.
pub const MAX_CELL_FAILURES: u32 = 2;

/// The per-cell part of a store address; the config/length part is the
/// structural [`record::fingerprint`] the store shards files by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Workload name.
    pub workload: String,
    /// Configuration variant.
    pub variant: Variant,
    /// Seed the cell runs with.
    pub seed: u64,
}

impl CellKey {
    /// Convenience constructor.
    pub fn new(workload: impl Into<String>, variant: Variant, seed: u64) -> Self {
        CellKey { workload: workload.into(), variant, seed }
    }
}

/// Hit/miss/maintenance counters for one store handle (not persisted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the store (memory or disk).
    pub hits: u64,
    /// Compute claims granted by [`ResultStore::lease`] — the cells that
    /// actually had to be simulated. Plain [`ResultStore::get`] probes
    /// count hits only, so a probe-then-lease sequence (how `run_grid`
    /// consults the store) tallies each cell exactly once.
    pub misses: u64,
    /// Results published into the store by this handle.
    pub published: u64,
    /// Lease requests that blocked on another sweep computing the same
    /// cell and were then served its published result.
    pub shared_waits: u64,
    /// Records skipped because their CRC (or framing) failed — each one
    /// recomputes instead of serving corrupt data.
    pub corrupt_skipped: u64,
    /// Whole fingerprint files evicted by the size bound.
    pub evicted_files: u64,
    /// Bytes reclaimed by eviction.
    pub evicted_bytes: u64,
}

impl StoreStats {
    /// Hit rate over all lookups, as a percentage (0 when idle).
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 * 100.0 / total as f64
        }
    }
}

/// Store I/O failure, tagged with the path and operation.
#[derive(Debug)]
pub struct StoreError {
    /// File the operation touched.
    pub path: PathBuf,
    /// What the store was doing.
    pub op: &'static str,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store {} failed for {}: {}", self.op, self.path.display(), self.source)
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Outcome of [`ResultStore::lease`].
#[derive(Debug)]
pub enum Lease {
    /// The cell exists (or was just published by another sweep we waited
    /// on); here is its bit-identical result.
    Hit(RunResult),
    /// The cell is missing and this caller owns computing it. Publish
    /// through the guard; dropping it unpublished releases the claim so
    /// a waiting sweep computes instead.
    Compute(ComputeLease),
}

/// Exclusive claim on computing one missing cell (see [`Lease`]).
#[derive(Debug)]
pub struct ComputeLease {
    store: Arc<ResultStore>,
    fp: u64,
    key: CellKey,
    done: bool,
}

impl ComputeLease {
    /// Publishes the computed result under the leased key and wakes any
    /// sweeps waiting on it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the data/index append; the claim is
    /// released either way.
    pub fn publish(mut self, result: &RunResult) -> Result<(), StoreError> {
        self.done = true;
        let mut inner = self.store.lock();
        inner.pending.remove(&(self.fp, self.key.clone()));
        let out = self.store.publish_locked(&mut inner, self.fp, &self.key, result);
        drop(inner);
        self.store.published_cond.notify_all();
        out
    }
}

impl Drop for ComputeLease {
    fn drop(&mut self) {
        if !self.done {
            self.store.lock().pending.remove(&(self.fp, self.key.clone()));
            self.store.published_cond.notify_all();
        }
    }
}

/// Per-fingerprint in-memory view of one data/index file pair.
#[derive(Debug, Default)]
struct Shard {
    /// Key → `(offset, len)` of the cell record in the data file
    /// (last-wins on duplicate appends).
    offsets: HashMap<CellKey, (u64, u32)>,
    /// Records already decoded this session.
    decoded: HashMap<CellKey, RunResult>,
    /// Failure records per key.
    failures: HashMap<CellKey, u32>,
    /// Append handles, opened at the shard's first publish.
    data: Option<SealedLog>,
    index: Option<SealedLog>,
}

#[derive(Debug, Default)]
struct Inner {
    shards: HashMap<u64, Shard>,
    /// In-flight computes, deduplicating overlapping sweeps.
    pending: HashMap<(u64, CellKey), ()>,
    /// Logical LRU clock (max of `lru.jsonl` at open, then monotonic).
    touch_seq: u64,
    /// Last-touch per fingerprint, mirrored to `lru.jsonl`.
    touched: HashMap<u64, u64>,
    /// Append handle of `lru.jsonl`, opened at the first touch.
    lru: Option<SealedLog>,
    stats: StoreStats,
}

/// A persistent, content-addressed store of experiment results. See the
/// module docs for layout, keying, eviction and the concurrency model.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    max_bytes: u64,
    inner: Mutex<Inner>,
    published_cond: Condvar,
}

fn data_header(fp: u64) -> String {
    format!("{{\"cmpsim_store\":{STORE_VERSION},\"fingerprint\":\"{fp:016x}\"}}")
}

fn index_header(fp: u64) -> String {
    format!("{{\"cmpsim_index\":{STORE_VERSION},\"fingerprint\":\"{fp:016x}\"}}")
}

fn lru_header() -> String {
    format!("{{\"cmpsim_lru\":{STORE_VERSION}}}")
}

/// The open body of an index entry: the record's key (under the same
/// `workload`/`failure` name as the record itself) and byte range.
fn index_entry(key: &CellKey, failure: bool, offset: u64, len: u32) -> String {
    let name = if failure { "failure" } else { "workload" };
    format!("{},\"offset\":{offset},\"len\":{len}", record::key_prefix(name, key))
}

/// Decodes an index entry into `(key, is_failure, offset, len)`.
fn decode_index_entry(fields: Vec<(String, JsonVal)>) -> Option<(CellKey, bool, u64, u32)> {
    let map: HashMap<String, JsonVal> = fields.into_iter().collect();
    let (key, failure) = record::decode_key(&map).ok()?;
    let offset = map.get("offset")?.as_u64()?;
    let len = u32::try_from(map.get("len")?.as_u64()?).ok()?;
    Some((key, failure, offset, len))
}

/// The fingerprint a `<hex>.jsonl` data-file name stands for.
fn data_file_fp(name: &std::ffi::OsStr) -> Option<u64> {
    u64::from_str_radix(name.to_str()?.strip_suffix(".jsonl")?, 16).ok()
}

/// The lazily opened append handle in `slot`.
fn open_log<'a>(
    slot: &'a mut Option<SealedLog>,
    path: PathBuf,
    header: &str,
) -> Result<&'a mut SealedLog, StoreError> {
    match slot {
        Some(log) => Ok(log),
        None => SealedLog::open(&path, header)
            .map(|log| slot.insert(log))
            .map_err(|source| StoreError { path, op: "open", source }),
    }
}

impl ResultStore {
    /// Opens (creating lazily on first publish) a store rooted at `dir`,
    /// with the size budget from `CMPSIM_STORE_MAX_BYTES` (bytes; default
    /// [`DEFAULT_MAX_BYTES`]).
    pub fn open(dir: impl Into<PathBuf>) -> Arc<ResultStore> {
        let max_bytes = std::env::var("CMPSIM_STORE_MAX_BYTES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_MAX_BYTES);
        Self::with_capacity(dir, max_bytes)
    }

    /// Opens the default store: `CMPSIM_STORE`, else `store` under the
    /// build's target directory ([`cmpsim_harness::target_dir`]).
    pub fn open_default() -> Arc<ResultStore> {
        Self::open(cmpsim_harness::target_dir("CMPSIM_STORE", "store"))
    }

    /// [`open`](Self::open) with an explicit size budget in bytes.
    pub fn with_capacity(dir: impl Into<PathBuf>, max_bytes: u64) -> Arc<ResultStore> {
        let store = ResultStore {
            dir: dir.into(),
            max_bytes: max_bytes.max(1),
            inner: Mutex::new(Inner::default()),
            published_cond: Condvar::new(),
        };
        {
            let mut inner = store.lock();
            store.load_lru(&mut inner);
        }
        Arc::new(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of this handle's hit/miss/maintenance counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Total bytes of fingerprint data files currently on disk, scanned
    /// fresh.
    pub fn resident_bytes(&self) -> u64 {
        self.data_files().iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Copies this handle's [`StoreStats`] and [`resident_bytes`]
    /// (Self::resident_bytes) into `store_*` gauges of the global
    /// metrics registry, so a snapshot taken right after reports the
    /// store. `StoreStats` is the one count of every store event; this is
    /// how it reaches the registry.
    pub fn export_metrics(&self) {
        let s = self.stats();
        let r = metrics::global();
        for (name, v) in [
            ("store_hits", s.hits),
            ("store_misses", s.misses),
            ("store_published", s.published),
            ("store_shared_waits", s.shared_waits),
            ("store_corrupt_skipped", s.corrupt_skipped),
            ("store_evicted_files", s.evicted_files),
            ("store_evicted_bytes", s.evicted_bytes),
            ("store_resident_bytes", self.resident_bytes()),
        ] {
            r.gauge(name).set(v);
        }
    }

    /// Non-blocking lookup: the stored result for `(fp, key)`, if any.
    /// Counts a hit when found; a probe miss is not tallied (the lease
    /// that follows it counts the compute — see [`StoreStats::misses`]).
    pub fn get(&self, fp: u64, key: &CellKey) -> Option<RunResult> {
        let mut inner = self.lock();
        let found = self.lookup(&mut inner, fp, key);
        if found.is_some() {
            inner.stats.hits += 1;
        }
        found
    }

    /// Counter-neutral membership probe: whether `(fp, key)` is stored
    /// (and decodable), without tallying a hit. For planning/telemetry —
    /// e.g. the serve daemon labels each cell's source before a sweep.
    pub fn contains(&self, fp: u64, key: &CellKey) -> bool {
        let mut inner = self.lock();
        self.lookup(&mut inner, fp, key).is_some()
    }

    /// Failure records stored for `(fp, key)`; a cell with
    /// [`MAX_CELL_FAILURES`] of them is quarantined by `run_grid`.
    pub fn failures(&self, fp: u64, key: &CellKey) -> u32 {
        let mut inner = self.lock();
        self.load_shard(&mut inner, fp);
        inner.shards[&fp].failures.get(key).copied().unwrap_or(0)
    }

    /// Looks the cell up; on a miss, either claims the compute for this
    /// caller or — when another sweep already holds the claim — blocks
    /// until that sweep publishes (then returns its result) or abandons
    /// (then claims for this caller). This is what lets two overlapping
    /// sweeps share a store and still compute every cell exactly once.
    pub fn lease(self: &Arc<Self>, fp: u64, key: &CellKey) -> Lease {
        let mut inner = self.lock();
        let mut waited = false;
        loop {
            if let Some(r) = self.lookup(&mut inner, fp, key) {
                inner.stats.hits += 1;
                if waited {
                    inner.stats.shared_waits += 1;
                }
                return Lease::Hit(r);
            }
            if inner.pending.contains_key(&(fp, key.clone())) {
                waited = true;
                inner = self
                    .published_cond
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            inner.pending.insert((fp, key.clone()), ());
            inner.stats.misses += 1;
            return Lease::Compute(ComputeLease {
                store: Arc::clone(self),
                fp,
                key: key.clone(),
                done: false,
            });
        }
    }

    /// Publishes a result without a lease. Appends to the data file, then
    /// the index, then updates the in-memory shard and the LRU clock,
    /// then enforces the size bound.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the appends.
    pub fn publish(&self, fp: u64, key: &CellKey, result: &RunResult) -> Result<(), StoreError> {
        let mut inner = self.lock();
        self.publish_locked(&mut inner, fp, key, result)?;
        self.published_cond.notify_all();
        Ok(())
    }

    /// Records one failure of `(fp, key)` with its rendered error;
    /// [`MAX_CELL_FAILURES`] of these quarantine the cell.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the appends.
    pub fn record_failure(&self, fp: u64, key: &CellKey, error: &str) -> Result<(), StoreError> {
        let mut inner = self.lock();
        self.append_record(&mut inner, fp, key, true, record::encode_failure(key, error))?;
        *inner.shards.entry(fp).or_default().failures.entry(key.clone()).or_default() += 1;
        Ok(())
    }

    // ------------------------------------------------------ internals

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while publishing must not wedge every other sweep.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn data_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.jsonl"))
    }

    fn index_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.idx"))
    }

    fn lru_path(&self) -> PathBuf {
        self.dir.join("lru.jsonl")
    }

    /// `(fingerprint, bytes)` of every data file on disk.
    fn data_files(&self) -> Vec<(u64, u64)> {
        let Ok(entries) = fs::read_dir(&self.dir) else { return Vec::new() };
        entries
            .flatten()
            .filter_map(|e| Some((data_file_fp(&e.file_name())?, e.metadata().ok()?.len())))
            .collect()
    }

    /// Finds `(fp, key)` in the shard, decoding its record from the data
    /// file on first access (CRC-verified; a bad record is dropped from
    /// the index view and counts as corrupt so the cell recomputes).
    fn lookup(&self, inner: &mut Inner, fp: u64, key: &CellKey) -> Option<RunResult> {
        self.load_shard(inner, fp);
        let shard = inner.shards.get_mut(&fp)?;
        if let Some(r) = shard.decoded.get(key) {
            return Some(r.clone());
        }
        let (offset, len) = *shard.offsets.get(key)?;
        match seallog::read_at(&self.data_path(fp), offset, len).and_then(record::decode) {
            Ok(Record::Cell(k, result)) if k == *key => {
                shard.decoded.insert(key.clone(), (*result).clone());
                Some(*result)
            }
            _ => {
                // A damaged record, or an index entry pointing at another
                // record (the index lied). Drop it; the cell recomputes.
                shard.offsets.remove(key);
                inner.stats.corrupt_skipped += 1;
                None
            }
        }
    }

    /// Ensures the shard for `fp` is loaded: reads the index sidecar and
    /// scans the data file beyond its coverage, rebuilding the index from
    /// a full scan when it is missing, foreign or ahead of the data.
    fn load_shard(&self, inner: &mut Inner, fp: u64) {
        if inner.shards.contains_key(&fp) {
            return;
        }
        let mut shard = Shard::default();
        let data_path = self.data_path(fp);
        let index_path = self.index_path(fp);
        let Ok(data_len) = fs::metadata(&data_path).map(|m| m.len()) else {
            inner.shards.insert(fp, shard);
            return;
        };
        let mut covered = 0u64;
        let mut rebuild = true;
        if let Ok(index) = seallog::read(&index_path, &index_header(fp), 0) {
            rebuild = false;
            for rec in index.records {
                let Some((key, failure, offset, len)) =
                    rec.fields.ok().and_then(decode_index_entry)
                else {
                    rebuild = true;
                    break;
                };
                covered = covered.max(offset + u64::from(len));
                if failure {
                    *shard.failures.entry(key).or_default() += 1;
                } else {
                    shard.offsets.insert(key, (offset, len));
                }
            }
        }
        // A damaged index, or one that claims more than the data file
        // holds (truncated data), is rebuilt from scratch like a missing
        // one.
        if rebuild || covered > data_len {
            rebuild = true;
            shard = Shard::default();
            covered = 0;
        }
        let Ok(tail) = seallog::read(&data_path, &data_header(fp), covered) else {
            // A foreign or version-mismatched data file is never served;
            // the first publish rotates it aside.
            let _ = fs::remove_file(&index_path);
            inner.stats.corrupt_skipped += 1;
            inner.shards.insert(fp, Shard::default());
            return;
        };
        let mut entries = Vec::new();
        for rec in tail.records {
            match rec.fields.and_then(record::decode) {
                Ok(Record::Cell(key, _)) => {
                    entries.push(index_entry(&key, false, rec.offset, rec.len));
                    shard.offsets.insert(key, (rec.offset, rec.len));
                }
                Ok(Record::Failure(key)) => {
                    entries.push(index_entry(&key, true, rec.offset, rec.len));
                    *shard.failures.entry(key).or_default() += 1;
                }
                Err(_) => inner.stats.corrupt_skipped += 1,
            }
        }
        // The index is disposable, so failing to repair it only costs
        // the next process another scan.
        if rebuild {
            shard.index = SealedLog::create(&index_path, &index_header(fp), &entries).ok();
        } else if !entries.is_empty() {
            if let Ok(log) = open_log(&mut shard.index, index_path, &index_header(fp)) {
                for entry in entries {
                    let _ = log.append(entry);
                }
            }
        }
        self.touch(inner, fp);
        inner.shards.insert(fp, shard);
    }

    /// Appends one record to `fp`'s data file and its entry to the index
    /// (data first: a crash in between leaves the record recoverable by
    /// the tail scan in `load_shard`). Returns the record's byte range.
    fn append_record(
        &self,
        inner: &mut Inner,
        fp: u64,
        key: &CellKey,
        failure: bool,
        body: String,
    ) -> Result<(u64, u32), StoreError> {
        self.load_shard(inner, fp);
        let shard = inner.shards.entry(fp).or_default();
        let data_path = self.data_path(fp);
        let (offset, len) = open_log(&mut shard.data, data_path.clone(), &data_header(fp))?
            .append(body)
            .map_err(|source| StoreError { path: data_path, op: "append", source })?;
        let index_path = self.index_path(fp);
        open_log(&mut shard.index, index_path.clone(), &index_header(fp))?
            .append(index_entry(key, failure, offset, len))
            .map_err(|source| StoreError { path: index_path, op: "append index", source })?;
        self.touch(inner, fp);
        Ok((offset, len))
    }

    fn publish_locked(
        &self,
        inner: &mut Inner,
        fp: u64,
        key: &CellKey,
        result: &RunResult,
    ) -> Result<(), StoreError> {
        let range = self.append_record(inner, fp, key, false, record::encode_cell(key, result))?;
        let shard = inner.shards.entry(fp).or_default();
        shard.offsets.insert(key.clone(), range);
        shard.decoded.insert(key.clone(), result.clone());
        inner.stats.published += 1;
        self.evict_to_budget(inner, fp);
        Ok(())
    }

    /// Bumps `fp` on the logical LRU clock, appending to `lru.jsonl`.
    fn touch(&self, inner: &mut Inner, fp: u64) {
        inner.touch_seq += 1;
        let seq = inner.touch_seq;
        inner.touched.insert(fp, seq);
        if let Ok(log) = open_log(&mut inner.lru, self.lru_path(), &lru_header()) {
            let _ = log.append(lru_entry(fp, seq));
        }
    }

    fn load_lru(&self, inner: &mut Inner) {
        let Ok(lru) = seallog::read(&self.lru_path(), &lru_header(), 0) else { return };
        for fields in lru.records.into_iter().filter_map(|r| r.fields.ok()) {
            let map: HashMap<_, _> = fields.into_iter().collect();
            let fp = map
                .get("fingerprint")
                .and_then(|v| v.as_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            let seq = map.get("touch").and_then(|v| v.as_u64());
            if let (Some(fp), Some(seq)) = (fp, seq) {
                inner.touch_seq = inner.touch_seq.max(seq);
                inner.touched.insert(fp, seq);
            }
        }
    }

    /// Evicts least-recently-touched fingerprint files until the data
    /// files fit the budget. The fingerprint just published to
    /// (`keep_fp`) is never self-evicted mid-sweep.
    fn evict_to_budget(&self, inner: &mut Inner, keep_fp: u64) {
        let mut sizes = self.data_files();
        let mut total: u64 = sizes.iter().map(|&(_, bytes)| bytes).sum();
        if total > self.max_bytes {
            // Oldest logical touch first; untouched files (no lru record,
            // e.g. orphans from a crashed process) count as oldest of all.
            sizes.sort_by_key(|&(fp, _)| (inner.touched.get(&fp).copied().unwrap_or(0), fp));
            for (fp, bytes) in sizes {
                if total <= self.max_bytes {
                    break;
                }
                if fp == keep_fp {
                    continue;
                }
                let _ = fs::remove_file(self.data_path(fp));
                let _ = fs::remove_file(self.index_path(fp));
                inner.shards.remove(&fp);
                inner.touched.remove(&fp);
                inner.stats.evicted_files += 1;
                inner.stats.evicted_bytes += bytes;
                total = total.saturating_sub(bytes);
            }
            // Compact the LRU file to the surviving fingerprints.
            let mut survivors: Vec<_> = inner.touched.iter().map(|(&fp, &seq)| (seq, fp)).collect();
            survivors.sort_unstable();
            let entries: Vec<String> =
                survivors.into_iter().map(|(seq, fp)| lru_entry(fp, seq)).collect();
            inner.lru = SealedLog::create(&self.lru_path(), &lru_header(), &entries).ok();
        }
    }
}

fn lru_entry(fp: u64, seq: u64) -> String {
    format!("{{\"fingerprint\":\"{fp:016x}\",\"touch\":{seq}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimStats;

    fn result(cycles: u64) -> RunResult {
        RunResult {
            stats: SimStats::default(),
            cycles,
            clock_ghz: 5,
            events: cycles * 2,
            retired: cycles * 3,
            host_nanos: 1,
        }
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cmpsim-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn publish_then_get_roundtrips_across_handles() {
        let dir = temp_store("roundtrip");
        let key = CellKey::new("apsi", Variant::Prefetch, 11);
        let r = result(1234);
        {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            assert_eq!(store.get(0xf00, &key), None);
            store.publish(0xf00, &key, &r).unwrap();
            assert_eq!(store.get(0xf00, &key), Some(r.clone()));
            let s = store.stats();
            assert_eq!((s.hits, s.misses, s.published), (1, 0, 1), "probe misses are not tallied");
        }
        // A fresh handle (fresh process, conceptually) reads it back from
        // disk through the index sidecar.
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0xf00, &key), Some(r));
        assert_eq!(store.get(0xf00, &CellKey::new("apsi", Variant::Base, 11)), None);
        assert_eq!(store.get(0xbad, &key), None, "fingerprints are separate shards");
        assert_eq!(store.stats().corrupt_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_is_rebuilt_from_data_scan() {
        let dir = temp_store("reindex");
        let key = CellKey::new("mgrid", Variant::BothCompression, 7);
        let r = result(99);
        {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            store.publish(0x1, &key, &r).unwrap();
        }
        let idx = dir.join("0000000000000001.idx");
        fs::remove_file(&idx).unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x1, &key), Some(r), "scan fallback finds the record");
        assert!(idx.exists(), "index is rewritten by the scan");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_skipped_and_recomputable() {
        let dir = temp_store("corrupt");
        let key = CellKey::new("apsi", Variant::Base, 1);
        {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            store.publish(0x2, &key, &result(50)).unwrap();
        }
        // Flip one digit inside the record body.
        let data = dir.join("0000000000000002.jsonl");
        let text = fs::read_to_string(&data).unwrap();
        fs::write(&data, text.replacen("\"cycles\":50", "\"cycles\":51", 1)).unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x2, &key), None, "corrupt record must not be served");
        assert!(store.stats().corrupt_skipped >= 1);
        // Republish heals it (last-wins).
        store.publish(0x2, &key, &result(50)).unwrap();
        assert_eq!(store.get(0x2, &key), Some(result(50)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_record_is_ignored() {
        let dir = temp_store("torn");
        let key = CellKey::new("apsi", Variant::Base, 1);
        let keep = CellKey::new("mgrid", Variant::Base, 1);
        {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            store.publish(0x3, &keep, &result(1)).unwrap();
            store.publish(0x3, &key, &result(2)).unwrap();
        }
        // Tear the last record mid-line and drop the index entirely, as a
        // kill between the two appends would.
        let data = dir.join("0000000000000003.jsonl");
        let text = fs::read_to_string(&data).unwrap();
        fs::write(&data, &text[..text.len() - 20]).unwrap();
        fs::remove_file(dir.join("0000000000000003.idx")).unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x3, &keep), Some(result(1)), "intact record survives");
        assert_eq!(store.get(0x3, &key), None, "torn record recomputes");
        assert_eq!(store.stats().corrupt_skipped, 0, "a torn tail is not corruption");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_record_skips_only_that_cell() {
        let dir = temp_store("corrupt-middle");
        let keys: Vec<_> =
            ["apsi", "mgrid", "art"].iter().map(|w| CellKey::new(*w, Variant::Base, 1)).collect();
        {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            for (i, key) in keys.iter().enumerate() {
                store.publish(0x6, key, &result(40 + i as u64)).unwrap();
            }
        }
        let data = dir.join("0000000000000006.jsonl");
        let text = fs::read_to_string(&data).unwrap();
        fs::write(&data, text.replacen("\"cycles\":41", "\"cycles\":49", 1)).unwrap();
        fs::remove_file(dir.join("0000000000000006.idx")).unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x6, &keys[0]), Some(result(40)));
        assert_eq!(store.get(0x6, &keys[1]), None, "the corrupt record recomputes");
        assert_eq!(store.get(0x6, &keys[2]), Some(result(42)), "records after it survive");
        assert_eq!(store.stats().corrupt_skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lying_index_entry_is_dropped_not_served() {
        let dir = temp_store("lying-index");
        let (a, b) =
            (CellKey::new("apsi", Variant::Base, 1), CellKey::new("art", Variant::Base, 1));
        let a_range = {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            store.publish(0x7, &a, &result(1)).unwrap();
            let range = store.lock().shards[&0x7].offsets[&a];
            range
        };
        // An index entry claiming `b` lives at `a`'s record, as a crash
        // between another process's data and index appends can leave.
        let mut index =
            SealedLog::open(dir.join("0000000000000007.idx"), &index_header(0x7)).unwrap();
        index.append(index_entry(&b, false, a_range.0, a_range.1)).unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x7, &b), None, "another cell's record is never served");
        assert_eq!(store.stats().corrupt_skipped, 1);
        assert_eq!(store.get(0x7, &a), Some(result(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_ahead_of_truncated_data_is_rebuilt() {
        let dir = temp_store("stale-index");
        let (a, b) =
            (CellKey::new("apsi", Variant::Base, 1), CellKey::new("art", Variant::Base, 1));
        {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            store.publish(0x8, &a, &result(1)).unwrap();
            store.publish(0x8, &b, &result(2)).unwrap();
        }
        // Lose b's whole record (a restored backup, say) but keep the
        // index that still covers it.
        let data = dir.join("0000000000000008.jsonl");
        let text = fs::read_to_string(&data).unwrap();
        fs::write(&data, &text[..text[..text.len() - 1].rfind('\n').unwrap() + 1]).unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x8, &a), Some(result(1)));
        assert_eq!(store.get(0x8, &b), None);
        store.publish(0x8, &b, &result(3)).unwrap();
        drop(store);
        // The rebuilt index names the new record, not the lost one.
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x8, &b), Some(result(3)));
        assert_eq!(store.stats().corrupt_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_records_count_per_key_across_reopens() {
        let dir = temp_store("failures");
        let key = CellKey::new("apsi", Variant::Prefetch, 11);
        {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            store.record_failure(0x5, &key, "livelock at cycle 5:\n  core 0").unwrap();
            store.record_failure(0x5, &key, "livelock again").unwrap();
            assert_eq!(store.failures(0x5, &key), 2);
        }
        for drop_index in [false, true] {
            if drop_index {
                fs::remove_file(dir.join("0000000000000005.idx")).unwrap();
            }
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            assert_eq!(store.failures(0x5, &key), 2, "index dropped: {drop_index}");
            assert_eq!(store.failures(0x5, &CellKey::new("apsi", Variant::Base, 11)), 0);
            assert_eq!(store.failures(0x5, &CellKey::new("apsi", Variant::Prefetch, 12)), 0);
            assert_eq!(store.get(0x5, &key), None, "a failure record is not a result");
            assert_eq!(store.stats().corrupt_skipped, 0, "failure records decode cleanly");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_dedups_inflight_and_blocks_waiters() {
        let dir = temp_store("lease");
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        let key = CellKey::new("apsi", Variant::Base, 1);
        let Lease::Compute(lease) = store.lease(0x4, &key) else {
            panic!("first lease must be a compute claim")
        };
        // A concurrent asker blocks until we publish, then gets a hit.
        let waiter = {
            let store = Arc::clone(&store);
            let key = key.clone();
            std::thread::spawn(move || match store.lease(0x4, &key) {
                Lease::Hit(r) => r,
                Lease::Compute(_) => panic!("waiter must be served the published result"),
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        lease.publish(&result(7)).unwrap();
        assert_eq!(waiter.join().unwrap(), result(7));
        assert_eq!(store.stats().published, 1, "cell computed exactly once");
        assert!(store.stats().shared_waits >= 1);

        // An abandoned claim hands the compute to the next asker.
        let key2 = CellKey::new("mgrid", Variant::Base, 1);
        let Lease::Compute(lease) = store.lease(0x4, &key2) else { panic!() };
        drop(lease);
        assert!(matches!(store.lease(0x4, &key2), Lease::Compute(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_bounds_store_size() {
        let dir = temp_store("lru");
        // Budget below two data files, far above one.
        let one_file = {
            let probe = temp_store("lru-probe");
            let store = ResultStore::with_capacity(&probe, u64::MAX);
            store.publish(0xa, &CellKey::new("apsi", Variant::Base, 1), &result(1)).unwrap();
            let n = fs::metadata(probe.join(format!("{:016x}.jsonl", 0xa))).unwrap().len();
            let _ = fs::remove_dir_all(&probe);
            n
        };
        let store = ResultStore::with_capacity(&dir, one_file * 2 - 1);
        for fp in [0xa, 0xb, 0xc] {
            store.publish(fp, &CellKey::new("apsi", Variant::Base, 1), &result(fp)).unwrap();
        }
        // Each publish keeps the active file and evicts the older one.
        assert!(!dir.join(format!("{:016x}.jsonl", 0xa)).exists(), "oldest evicted");
        assert!(!dir.join(format!("{:016x}.jsonl", 0xb)).exists());
        assert!(dir.join(format!("{:016x}.jsonl", 0xc)).exists(), "most recent kept");
        assert_eq!(store.stats().evicted_files, 2);
        assert!(store.resident_bytes() < one_file * 2, "size bound respected");
        // Evicted cells are misses (recompute), kept cells are hits.
        assert_eq!(store.get(0xa, &CellKey::new("apsi", Variant::Base, 1)), None);
        assert_eq!(
            store.get(0xc, &CellKey::new("apsi", Variant::Base, 1)),
            Some(result(0xc))
        );
        // The compacted LRU file still orders the survivors on reopen.
        let reopened = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(reopened.lock().touched.keys().copied().collect::<Vec<_>>(), vec![0xc]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_data_file_is_never_served_and_rotated_aside() {
        let dir = temp_store("foreign");
        fs::create_dir_all(&dir).unwrap();
        let data = dir.join(format!("{:016x}.jsonl", 0x9));
        let foreign = "{\"cmpsim_store\":999,\"fingerprint\":\"0000000000000009\"}\n";
        fs::write(&data, foreign).unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        let key = CellKey::new("apsi", Variant::Base, 1);
        assert_eq!(store.get(0x9, &key), None);
        store.publish(0x9, &key, &result(3)).unwrap();
        let aside = dir.join(format!("{:016x}.jsonl.stale", 0x9));
        assert_eq!(fs::read_to_string(aside).unwrap(), foreign, "preserved, not deleted");
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x9, &key), Some(result(3)));
        let _ = fs::remove_dir_all(&dir);
    }
}
