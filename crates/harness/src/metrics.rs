//! Service-layer metrics: atomic counters, gauges, and log-bucketed
//! latency histograms behind a named [`Registry`], with mergeable
//! snapshots, deterministic quantile reporting, and flat-JSON export.
//!
//! Like [`telemetry`](crate::telemetry), everything here is *measurement
//! plumbing*: recording is relaxed atomics that feed nothing back into
//! what a simulation computes, so armed metrics leave every grid digest
//! and golden bit-identical (the `metrics_gate` example and `ci.sh` pin
//! this). The intended users are the grid driver and the `serve` daemon,
//! which share the process [`global`] registry so one `{"metrics":1}`
//! query sees the whole serving path; the result store keeps its own
//! `StoreStats` and copies them into `store_*` gauges on demand.
//!
//! Design points:
//!
//! - **Handles are cheap.** [`Registry::counter`]/[`gauge`]
//!   (Registry::gauge)/[`histogram`](Registry::histogram) get-or-create
//!   by name and return `Arc`-backed handles; instrumentation sites
//!   resolve their names once and then record lock-free.
//! - **Histograms are log-bucketed.** Values 0–15 get exact buckets;
//!   above that each power-of-two octave splits into 16 sub-buckets, so
//!   the relative bucket error is ≤ 1/16 across the whole `u64` range
//!   (the HdrHistogram layout, shrunk). A histogram is ~8 KB of atomics.
//! - **Quantiles are deterministic.** A quantile is a pure function of
//!   the bucket counts (the value multiset), so any insertion order —
//!   and any merge order of per-shard snapshots — reports identical
//!   p50/p95/p99 (`proptest_metrics.rs` pins permutation invariance and
//!   merge associativity/commutativity).
//! - **Snapshots merge.** [`HistogramSnapshot::merge`] is bucket-wise
//!   addition; merging per-worker or per-process snapshots equals one
//!   histogram that saw every value.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// -------------------------------------------------------------- counters

/// Monotonic event counter (`Arc`-backed; clone to share).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (bytes resident, a copied-in count, ...). Unsigned
/// by design — every service-layer level here is a size or a count.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ------------------------------------------------------------- histogram

/// Exact buckets for values below 16.
const LINEAR: u64 = 16;
/// Sub-buckets per power-of-two octave above the linear range.
const SUBS: usize = 16;
/// Total buckets: 16 exact + 16 per octave for exponents 4..=63.
pub const BUCKETS: usize = LINEAR as usize + 60 * SUBS;

/// Bucket index for a value (total order, covers all of `u64`).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize; // 4..=63
        let sub = ((v >> (e - 4)) & 0xF) as usize;
        LINEAR as usize + (e - 4) * SUBS + sub
    }
}

/// Smallest value that lands in bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i < LINEAR as usize {
        i as u64
    } else {
        let j = i - LINEAR as usize;
        let e = (j / SUBS + 4) as u32;
        let sub = (j % SUBS) as u64;
        (1u64 << e) + (sub << (e - 4))
    }
}

/// Largest value that lands in bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1) - 1
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>, // BUCKETS entries
    sum: AtomicU64,
    min: AtomicU64, // u64::MAX until the first record
    max: AtomicU64,
}

/// Log-bucketed value distribution (latencies in nanoseconds, sizes in
/// bytes, ...). Recording is one relaxed `fetch_add` per bucket plus the
/// sum/min/max registers; reading takes a [`snapshot`]
/// (Histogram::snapshot).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records the nanoseconds elapsed since `start` (the common
    /// latency-site idiom) and returns the recorded value.
    pub fn record_elapsed(&self, start: std::time::Instant) -> u64 {
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record(nanos);
        nanos
    }

    /// A point-in-time copy of the distribution. Concurrent recorders may
    /// land between the bucket reads — the snapshot is exact whenever the
    /// histogram is quiescent, and its `count` is always the sum of its
    /// own buckets (quantiles never see a torn total).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        let counts: Vec<u64> = c.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = counts.iter().sum();
        let min = c.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            counts,
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: c.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        let c = &self.0;
        for b in &c.buckets {
            b.store(0, Ordering::Relaxed);
        }
        c.sum.store(0, Ordering::Relaxed);
        c.min.store(u64::MAX, Ordering::Relaxed);
        c.max.store(0, Ordering::Relaxed);
    }
}

/// Frozen copy of a [`Histogram`]: bucket counts plus the sum/min/max
/// registers. Snapshots [`merge`](Self::merge) associatively and
/// commutatively, so per-worker (or per-process) histograms combine into
/// exactly the histogram that saw every value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    /// Values recorded (sum of the bucket counts).
    pub count: u64,
    /// Sum of every recorded value (wrapping at 2^64).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { counts: vec![0; BUCKETS], count: 0, sum: 0, min: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self` (bucket-wise addition; min/max combine).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        // Empty sides contribute no min (their min is the placeholder 0).
        self.min = match (self.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded values, reported
    /// as the containing bucket's upper bound clamped to the observed
    /// `[min, max]` — a deterministic function of the value *multiset*
    /// with ≤ 1/16 relative bucket error (exact for values below 32).
    /// Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

}

// -------------------------------------------------------------- registry

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Named metrics, get-or-created on first touch. The maps are `BTreeMap`
/// so every snapshot and export lists metrics in one deterministic
/// order. Names must be unique across kinds (a counter `x` and a gauge
/// `x` would collide in the flat-JSON export); the service layer
/// namespaces by prefix — `store_*`, `grid_*`, `serve_*`.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry (the service layer shares [`global`] instead).
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The counter named `name`, created zero on first touch.
    pub fn counter(&self, name: &str) -> Counter {
        self.lock().counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created zero on first touch.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.lock().gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created empty on first touch.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.lock().histograms.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time copy of every metric in the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric in place (handles stay valid — the
    /// atomics are reset, not replaced). For gates and tests that want a
    /// clean slate without re-resolving handles.
    pub fn reset(&self) {
        let inner = self.lock();
        for c in inner.counters.values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for g in inner.gauges.values() {
            g.0.store(0, Ordering::Relaxed);
        }
        for h in inner.histograms.values() {
            h.reset();
        }
    }
}

/// The process-wide registry the service layer records into (store,
/// grid drivers, serve daemon).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// -------------------------------------------------------------- snapshot

/// Quantiles every histogram export reports.
const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

/// Frozen copy of a whole [`Registry`], renderable as one flat JSON
/// object (the store framing: string and `u64` values only).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` per histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// A named counter's value, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A named gauge's value, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A named histogram's snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Renders the snapshot as one flat JSON object: counters and gauges
    /// as `"name":value`, histograms as `name_count`/`name_sum`/
    /// `name_min`/`name_max`/`name_p50`/`name_p95`/`name_p99`. The
    /// object opens with `"metrics":1` so consumers (the serve protocol)
    /// can recognize it, and parses with
    /// `cmpsim_core::flatjson::parse_flat`.
    pub fn to_flat_json(&self) -> String {
        let mut s = String::from("{\"metrics\":1");
        for (name, v) in &self.counters {
            s.push_str(&format!(",\"{name}\":{v}"));
        }
        for (name, v) in &self.gauges {
            s.push_str(&format!(",\"{name}\":{v}"));
        }
        for (name, h) in &self.histograms {
            s.push_str(&format!(
                ",\"{name}_count\":{},\"{name}_sum\":{},\"{name}_min\":{},\"{name}_max\":{}",
                h.count, h.sum, h.min, h.max
            ));
            for (label, q) in QUANTILES {
                s.push_str(&format!(",\"{name}_{label}\":{}", h.quantile(q)));
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_handles() {
        let r = Registry::new();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.inc();
        b.add(4);
        assert_eq!(r.counter("hits").get(), 5, "same name, same atomic");
        r.gauge("resident").set(7);
        assert_eq!(r.gauge("resident").get(), 7, "same name, same gauge");
    }

    #[test]
    fn bucket_layout_is_a_total_order_with_tight_bounds() {
        // Every value lands in a bucket whose bounds contain it, and
        // bucket indices are monotone in the value.
        let probes: Vec<u64> = (0..200)
            .chain([1023, 1024, 1025, u64::MAX / 2, u64::MAX - 1, u64::MAX])
            .collect();
        let mut prev_idx = 0;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v} bucket {i}");
            assert!(i >= prev_idx, "indices monotone at v={v}");
            prev_idx = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Values below 32 are exactly representable (bucket width 1).
        for v in 0..32u64 {
            let i = bucket_index(v);
            assert_eq!(bucket_lower(i), bucket_upper(i), "v={v} should be exact");
        }
        // Relative bucket error is bounded by 1/16.
        for &v in &probes {
            if v >= 32 {
                let i = bucket_index(v);
                let width = bucket_upper(i) - bucket_lower(i) + 1;
                assert!(width as f64 / v as f64 <= 1.0 / 16.0 + 1e-12, "v={v} width {width}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!((s.min, s.max), (1, 100));
        assert_eq!(s.sum, 5050);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        assert!((47..=53).contains(&p50), "p50 within one bucket of 50: {p50}");
        assert!((95..=100).contains(&p99), "p99 near the top: {p99}");
        assert_eq!(s.quantile(1.0), 100, "p100 is the exact max");
        assert_eq!(s.quantile(0.0), 1, "p0 clamps to the exact min");
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0, "empty → 0");
    }

    #[test]
    fn snapshot_merge_equals_combined_recording() {
        let a = Histogram::default();
        let b = Histogram::default();
        let all = Histogram::default();
        for v in [0u64, 3, 17, 17, 900, 1_000_000, u64::MAX] {
            all.record(v);
            if v % 2 == 0 { a.record(v) } else { b.record(v) }
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
        // Merging an empty snapshot is the identity.
        let mut m2 = merged.clone();
        m2.merge(&HistogramSnapshot::default());
        assert_eq!(m2, merged);
        let mut empty = HistogramSnapshot::default();
        empty.merge(&merged);
        assert_eq!(empty, merged);
    }

    #[test]
    fn flat_json_export_is_flat_and_complete() {
        let r = Registry::new();
        r.counter("store_hits").add(3);
        r.gauge("store_resident_bytes").set(4096);
        let h = r.histogram("serve_request_nanos");
        h.record(100);
        h.record(200);
        let json = r.snapshot().to_flat_json();
        assert!(json.starts_with("{\"metrics\":1,"), "{json}");
        for key in [
            "\"store_hits\":3",
            "\"store_resident_bytes\":4096",
            "\"serve_request_nanos_count\":2",
            "\"serve_request_nanos_sum\":300",
            "\"serve_request_nanos_min\":100",
            "\"serve_request_nanos_max\":200",
            "\"serve_request_nanos_p50\":",
            "\"serve_request_nanos_p95\":",
            "\"serve_request_nanos_p99\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Flat by construction: no nesting, no floats.
        assert!(!json.contains('[') && !json.contains('.'), "{json}");
    }

    #[test]
    fn registry_reset_keeps_handles_live() {
        let r = Registry::new();
        let c = r.counter("x");
        let h = r.histogram("h");
        c.add(9);
        h.record(5);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.inc();
        assert_eq!(r.counter("x").get(), 1, "old handle still feeds the registry");
    }

    #[test]
    fn concurrent_recording_is_exact_when_quiescent() {
        let r = Registry::new();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = r.counter("n");
                let h = r.histogram("v");
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("n").get(), 8000);
        let s = r.histogram("v").snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 7999);
    }
}
