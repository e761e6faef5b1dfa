//! The sweep fingerprint and the bit-exact cell-record codec of the
//! result store.
//!
//! A stored [`RunResult`] decodes to exactly the value the simulation
//! produced: every counter travels as its `u64` value and the one `f64`
//! as its IEEE-754 bit pattern under a `.bits` key, so a grid served
//! from the store compares equal (`==`) to a freshly computed one.
//!
//! Record bodies are flat JSON (this workspace has no serde) and are
//! CRC-sealed by [`seallog`](crate::seallog):
//!
//! ```text
//! {"workload":"apsi","variant":"pf+compr","seed":11,"cycles":...,"crc":"9f1e22ab"}
//! {"failure":"mgrid","variant":"base","seed":11,"error":"...","crc":"00c41f77"}
//! ```

use crate::config::{PrefetchMode, SystemConfig, Variant};
use crate::experiment::SimLength;
use crate::flatjson::JsonVal;
use crate::stats::{RunResult, SimStats};
use crate::store::CellKey;
use cmpsim_harness::chaos::FaultPlan;
use cmpsim_link::LinkBandwidth;
use std::collections::HashMap;

/// Fingerprint schema version (bump on any encoding or
/// fingerprint-semantics change).
///
/// v4: [`fingerprint`] became an explicit structural field-by-field hash
/// (it previously hashed the config's `Debug` rendering, so any derive
/// or field-order refactor silently invalidated every stored result).
pub(crate) const VERSION: u64 = 4;

/// Incremental FNV-1a/64 over explicitly named fields: each field is
/// folded as `name ':' value-bytes ';'`, so reordering fields in the
/// *struct* cannot change the hash (the hasher controls the order), and
/// two adjacent fields can never collide by concatenation.
struct StructHash {
    h: u64,
}

impl StructHash {
    fn new() -> Self {
        StructHash { h: 0xcbf2_9ce4_8422_2325 }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.bytes(name.as_bytes());
        self.bytes(b":");
        self.bytes(&v.to_le_bytes());
        self.bytes(b";");
        self
    }

    fn bool(&mut self, name: &str, v: bool) -> &mut Self {
        self.u64(name, u64::from(v))
    }

    fn finish(&self) -> u64 {
        self.h
    }
}

/// Hashes the sweep-defining inputs (base configuration + simulation
/// length) into the structural fingerprint the result store shards its
/// files by.
///
/// Every field is hashed **explicitly, by name and value** — never via a
/// `Debug` rendering, whose bytes change under derive or field-order
/// refactors and silently invalidate (or worse, collide) every stored
/// result. The hash is pinned by a golden test vector
/// (`fingerprint_matches_pinned_vector`), so an accidental change to its
/// inputs or mixing is caught in review, and a deliberate one must bump
/// [`VERSION`].
///
/// Three kinds of input are deliberately **excluded**:
///
/// - `base.seed` — the seed is a separate axis of the result key (every
///   store record carries its own), so sweeps over many seeds share one
///   fingerprint;
/// - `check_invariants` and `livelock_cycle_budget` — supervision knobs
///   that can abort a run but can never alter a *completed* result;
/// - nothing else: all remaining config fields shape simulated behavior.
///
/// One environment input is **included**: an armed `CMPSIM_CHAOS` plan
/// changes simulated results, so its seed and rate are folded in —
/// results computed under fault injection can never be served to (or
/// poisoned by) a clean sweep.
pub fn fingerprint(base: &SystemConfig, len: SimLength) -> u64 {
    let mut h = StructHash::new();
    h.u64("schema", VERSION);
    h.u64("cores", u64::from(base.cores));
    h.u64("clock_ghz", u64::from(base.clock_ghz));
    h.u64("issue_width", base.issue_width);
    h.u64("rob_size", base.rob_size);
    h.u64("mshrs_per_core", base.mshrs_per_core as u64);
    h.u64("l1_bytes", base.l1_bytes as u64);
    h.u64("l1_ways", base.l1_ways as u64);
    h.u64("l1_latency", base.l1_latency);
    h.u64("l2_bytes", base.l2_bytes as u64);
    h.u64("l2_banks", base.l2_banks as u64);
    h.u64("l2_latency", base.l2_latency);
    h.u64("decompression_latency", base.decompression_latency);
    h.u64(
        "codec",
        match base.codec {
            cmpsim_fpc::CodecKind::Fpc => 0,
            cmpsim_fpc::CodecKind::Bdi => 1,
            cmpsim_fpc::CodecKind::Zca => 2,
        },
    );
    h.u64("l1_to_l2_latency", base.l1_to_l2_latency);
    h.u64("probe_latency", base.probe_latency);
    h.u64("mem_latency", base.mem_latency);
    match base.link {
        LinkBandwidth::Infinite => h.u64("link.infinite", 1),
        LinkBandwidth::GBps(g) => h.u64("link.gbps", u64::from(g)),
    };
    h.bool("cache_compression", base.cache_compression);
    h.bool("adaptive_compression", base.adaptive_compression);
    h.bool("link_compression", base.link_compression);
    h.u64(
        "prefetch",
        match base.prefetch {
            PrefetchMode::Off => 0,
            PrefetchMode::Stride => 1,
            PrefetchMode::Adaptive => 2,
        },
    );
    h.u64("l2_prefetch_degree", u64::from(base.l2_prefetch_degree));
    h.u64("warmup", len.warmup);
    h.u64("measure", len.measure);
    if let Some(plan) = FaultPlan::from_env() {
        h.u64("chaos.seed", plan.seed());
        h.u64("chaos.rate.bits", plan.rate().to_bits());
    }
    h.finish()
}

// ------------------------------------------------------------- encoding

/// Visits every numeric field of a [`RunResult`] under its dotted record
/// key, in encoding order. The encoder reads the values and the decoder
/// writes them, so the two cannot skew; `clock_ghz` and the `f64` travel
/// through `u64` temporaries (the latter as its bit pattern).
fn visit_fields(r: &mut RunResult, f: &mut dyn FnMut(&str, &mut u64)) {
    f("cycles", &mut r.cycles);
    let mut ghz = u64::from(r.clock_ghz);
    f("clock_ghz", &mut ghz);
    // Records are CRC-sealed output of this encoder, so the value always
    // came from a `u32`.
    r.clock_ghz = u32::try_from(ghz).unwrap_or(u32::MAX);
    f("events", &mut r.events);
    f("retired", &mut r.retired);
    // Wall-clock of the original run; outside `PartialEq` but kept so
    // served sweeps can still report throughput.
    f("host_nanos", &mut r.host_nanos);
    let s = &mut r.stats;
    f("stats.instructions", &mut s.instructions);
    for (name, l) in [("l1i", &mut s.l1i), ("l1d", &mut s.l1d), ("l2", &mut s.l2)] {
        f(&format!("stats.{name}.accesses"), &mut l.accesses);
        f(&format!("stats.{name}.hits"), &mut l.hits);
        f(&format!("stats.{name}.demand_misses"), &mut l.demand_misses);
        f(&format!("stats.{name}.prefetch_hits"), &mut l.prefetch_hits);
        f(&format!("stats.{name}.prefetches_issued"), &mut l.prefetches_issued);
        f(&format!("stats.{name}.prefetch_fills"), &mut l.prefetch_fills);
        f(&format!("stats.{name}.useless_prefetch_evictions"), &mut l.useless_prefetch_evictions);
    }
    f("stats.l2_compressed_hits", &mut s.l2_compressed_hits);
    f("stats.l2_hit_latency_sum", &mut s.l2_hit_latency_sum);
    f("stats.l2_hit_latency_count", &mut s.l2_hit_latency_count);
    f("stats.l2_victim_tag_hits", &mut s.l2_victim_tag_hits);
    f("stats.harmful_prefetch_detections", &mut s.harmful_prefetch_detections);
    let mut bits = s.capacity_ratio_sum.to_bits();
    f("stats.capacity_ratio_sum.bits", &mut bits);
    s.capacity_ratio_sum = f64::from_bits(bits);
    f("stats.capacity_ratio_samples", &mut s.capacity_ratio_samples);
    f("stats.link.total_bytes", &mut s.link.total_bytes);
    f("stats.link.data_bytes", &mut s.link.data_bytes);
    f("stats.link.prefetch_bytes", &mut s.link.prefetch_bytes);
    f("stats.link.messages", &mut s.link.messages);
    f("stats.link.queue_delay_cycles", &mut s.link.queue_delay_cycles);
    f("stats.link.busy_cycles", &mut s.link.busy_cycles);
    f("stats.link.dropped_messages", &mut s.link.dropped_messages);
    f("stats.link.corrupted_messages", &mut s.link.corrupted_messages);
    f("stats.mem_reads", &mut s.mem_reads);
    f("stats.mem_writes", &mut s.mem_writes);
    f("stats.coherence.invalidations", &mut s.coherence.invalidations);
    f("stats.coherence.recalls", &mut s.coherence.recalls);
    f("stats.coherence.upgrades", &mut s.coherence.upgrades);
    f("stats.coherence.inclusion_recalls", &mut s.coherence.inclusion_recalls);
    f("stats.dropped_prefetches", &mut s.dropped_prefetches);
    let fs = &mut s.faults;
    f("stats.faults.codec_faults_injected", &mut fs.codec_faults_injected);
    f("stats.faults.codec_faults_detected", &mut fs.codec_faults_detected);
    f("stats.faults.fault_recoveries", &mut fs.fault_recoveries);
    f("stats.faults.lines_quarantined", &mut fs.lines_quarantined);
    f("stats.faults.link_faults_injected", &mut fs.link_faults_injected);
    f("stats.faults.link_retransmits", &mut fs.link_retransmits);
    f("stats.faults.mem_stall_bursts", &mut fs.mem_stall_bursts);
    f("stats.faults.mem_stall_cycles", &mut fs.mem_stall_cycles);
    f("stats.faults.dir_messages_lost", &mut fs.dir_messages_lost);
    f("stats.faults.dir_retries", &mut fs.dir_retries);
}

/// The open key prefix `{"<name_field>":"w","variant":"v","seed":N` that
/// both record kinds (and the store's index entries) start with. Cell
/// records name the workload under `workload`, failure records under
/// `failure`.
pub(crate) fn key_prefix(name_field: &str, key: &CellKey) -> String {
    debug_assert!(!key.workload.contains(['"', '\\']), "workload names are plain identifiers");
    format!(
        "{{\"{name_field}\":\"{}\",\"variant\":\"{}\",\"seed\":{}",
        key.workload,
        key.variant.label(),
        key.seed
    )
}

/// The open (unsealed) body of a completed-cell record.
pub(crate) fn encode_cell(key: &CellKey, result: &RunResult) -> String {
    let mut s = key_prefix("workload", key);
    visit_fields(&mut result.clone(), &mut |k, v| s.push_str(&format!(",\"{k}\":{v}")));
    s
}

/// The open (unsealed) body of a cell-failure record.
pub(crate) fn encode_failure(key: &CellKey, error: &str) -> String {
    // The flat parser supports no escapes, so sanitize the free-form
    // error text into the representable subset.
    let sane: String = error
        .chars()
        .take(200)
        .map(|c| match c {
            '"' | '\\' => '\'',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect();
    format!("{},\"error\":\"{sane}\"", key_prefix("failure", key))
}

/// One decoded record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Record {
    /// A completed cell and its bit-exact result.
    Cell(CellKey, Box<RunResult>),
    /// One recorded failure of a cell.
    Failure(CellKey),
}

/// Decodes the key of a record (or index entry): `Ok((key, is_failure))`.
pub(crate) fn decode_key(map: &HashMap<String, JsonVal>) -> Result<(CellKey, bool), String> {
    let (workload, failure) = match (map.get("workload"), map.get("failure")) {
        (Some(JsonVal::Str(w)), None) => (w, false),
        (None, Some(JsonVal::Str(w))) => (w, true),
        _ => return Err("record names no workload".to_string()),
    };
    let variant = match map.get("variant") {
        Some(JsonVal::Str(label)) => *Variant::all()
            .iter()
            .find(|v| v.label() == *label)
            .ok_or_else(|| format!("unknown variant {label:?}"))?,
        _ => return Err("record missing variant".to_string()),
    };
    let seed = map.get("seed").and_then(JsonVal::as_u64).ok_or("record missing seed")?;
    Ok((CellKey { workload: workload.clone(), variant, seed }, failure))
}

/// Decodes the fields of one seal-verified record.
pub(crate) fn decode(fields: Vec<(String, JsonVal)>) -> Result<Record, String> {
    let map: HashMap<String, JsonVal> = fields.into_iter().collect();
    let (key, failure) = decode_key(&map)?;
    if failure {
        return Ok(Record::Failure(key));
    }
    let mut r = RunResult {
        stats: SimStats::default(),
        cycles: 0,
        clock_ghz: 0,
        events: 0,
        retired: 0,
        host_nanos: 0,
    };
    let mut missing = None;
    visit_fields(&mut r, &mut |k, v| match map.get(k) {
        Some(JsonVal::Num(n)) => *v = *n,
        _ if missing.is_none() => missing = Some(k.to_string()),
        _ => {}
    });
    match missing {
        Some(k) => Err(format!("missing or malformed cell field {k:?}")),
        None => Ok(Record::Cell(key, Box::new(r))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatjson::{check_seal, parse_flat, seal};

    /// A result with a distinct value in every field, so a round-trip
    /// detects any encoder/decoder omission or swap.
    fn distinct_result() -> RunResult {
        let mut r = RunResult {
            stats: SimStats::default(),
            cycles: 0,
            clock_ghz: 0,
            events: 0,
            retired: 0,
            host_nanos: 0,
        };
        let mut next = 0u64;
        visit_fields(&mut r, &mut |_, v| {
            next += 1;
            *v = next;
        });
        r.stats.capacity_ratio_sum = 0.1 + 0.2; // not exactly representable: bit test
        r
    }

    /// Seals `body` and reads it back the way the store does.
    fn roundtrip(body: String) -> Result<Record, String> {
        let line = seal(body);
        let body = check_seal(&line)?;
        decode(parse_flat(&format!("{body}}}")).ok_or("malformed record")?)
    }

    #[test]
    fn cell_roundtrip_is_bit_exact() {
        let key = CellKey::new("apsi", Variant::AdaptivePrefetchCompression, 47);
        let r = distinct_result();
        let Ok(Record::Cell(back_key, back)) = roundtrip(encode_cell(&key, &r)) else {
            panic!("cell record must decode")
        };
        assert_eq!(back_key, key);
        assert_eq!(*back, r);
        assert_eq!(back.stats.capacity_ratio_sum.to_bits(), r.stats.capacity_ratio_sum.to_bits());
        // `==` ignores wall-clock by design, so check it separately.
        assert_eq!(back.host_nanos, r.host_nanos);
    }

    #[test]
    fn failure_record_roundtrips_with_sanitized_error() {
        let key = CellKey::new("mgrid", Variant::Prefetch, 11);
        let body = encode_failure(&key, "livelock at cycle 5:\n  core \"0\"");
        assert!(!body.contains('\n') && body.contains("core '0'"), "{body}");
        assert_eq!(roundtrip(body), Ok(Record::Failure(key)));
    }

    #[test]
    fn malformed_records_are_rejected() {
        let fields = |line: &str| parse_flat(line).unwrap();
        assert!(decode(fields("{}")).is_err());
        assert!(decode(fields("{\"workload\":\"apsi\"}")).is_err());
        assert!(decode(fields("{\"workload\":\"apsi\",\"variant\":\"base\",\"seed\":1}"))
            .unwrap_err()
            .contains("cycles"));
        assert!(decode(fields("{\"workload\":\"a\",\"variant\":\"nope\",\"seed\":1}")).is_err());
        let good = encode_cell(&CellKey::new("w", Variant::Base, 1), &distinct_result());
        assert!(parse_flat(&good[..good.len() - 5]).is_none(), "truncation detected");
    }

    #[test]
    fn records_carry_verifiable_checksums() {
        let line = seal(encode_cell(&CellKey::new("apsi", Variant::Base, 3), &distinct_result()));
        assert!(check_seal(&line).is_ok());
        // Flip one digit in the middle of the record: the crc catches it.
        let mangled = line.replacen(":1,", ":7,", 1);
        assert_ne!(mangled, line);
        assert!(check_seal(&mangled).unwrap_err().contains("crc mismatch"));
        // Strip the crc entirely: also rejected.
        assert!(check_seal("{\"workload\":\"apsi\"}").unwrap_err().contains("missing crc"));
    }

    #[test]
    fn fingerprint_distinguishes_configs_and_lengths() {
        let a = SystemConfig::paper_default(2);
        let b = SystemConfig::paper_default(4);
        let l1 = SimLength { warmup: 10, measure: 20 };
        let l2 = SimLength { warmup: 10, measure: 21 };
        assert_ne!(fingerprint(&a, l1), fingerprint(&b, l1));
        assert_ne!(fingerprint(&a, l1), fingerprint(&a, l2));
        assert_eq!(fingerprint(&a, l1), fingerprint(&a.clone(), l1));
    }

    /// The structural fingerprint is pinned to a golden vector: it may
    /// only change together with a deliberate [`VERSION`] bump. The
    /// `Debug`-rendering hash this replaced fails here by construction —
    /// its value moved under every derive or field-order refactor.
    #[test]
    fn fingerprint_matches_pinned_vector() {
        let base = SystemConfig::paper_default(8);
        let len = SimLength::standard();
        assert_eq!(
            fingerprint(&base, len),
            0xee03_b1a3_bbb3_75c3,
            "structural fingerprint drifted: either an input field was \
             added/removed/re-mixed accidentally, or this is a deliberate \
             format change that must bump record::VERSION and re-pin"
        );
    }

    /// Regression: the fingerprint must be a function of fields that
    /// shape simulated results — not of the seed (a separate key axis)
    /// and not of supervision knobs that can only abort a run. The
    /// pre-v4 `Debug` hash folded all three in.
    #[test]
    fn fingerprint_ignores_seed_and_supervision_knobs() {
        let base = SystemConfig::paper_default(4);
        let len = SimLength { warmup: 10, measure: 20 };
        let fp = fingerprint(&base, len);
        assert_eq!(fp, fingerprint(&base.clone().with_seed(99), len));
        assert_eq!(fp, fingerprint(&base.clone().with_invariant_checks(true), len));
        assert_eq!(fp, fingerprint(&base.clone().with_livelock_budget(1), len));
    }

    #[test]
    fn fingerprint_separates_every_structural_axis() {
        let base = SystemConfig::paper_default(4);
        let len = SimLength { warmup: 10, measure: 20 };
        let fp = fingerprint(&base, len);
        let variants: Vec<SystemConfig> = vec![
            SystemConfig { l2_bytes: base.l2_bytes * 2, ..base.clone() },
            base.clone().with_codec(cmpsim_fpc::CodecKind::Bdi),
            base.clone().with_link(LinkBandwidth::Infinite),
            base.clone().with_link(LinkBandwidth::GBps(40)),
            base.clone().with_compression(true, true),
            base.clone().with_prefetch(PrefetchMode::Adaptive),
            SystemConfig { mem_latency: 401, ..base.clone() },
            SystemConfig { l2_prefetch_degree: 24, ..base.clone() },
        ];
        for (i, cfg) in variants.iter().enumerate() {
            assert_ne!(fp, fingerprint(cfg, len), "variant {i} must change the fingerprint");
        }
    }
}
