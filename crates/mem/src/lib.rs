//! Off-chip memory controller and DRAM model.
//!
//! The paper's memory interface (§2) is deliberately simple: 4 GB of DRAM
//! with a 400-cycle access time (Table 1), and a *form-preserving* storage
//! scheme for link compression — "each 64-byte cache line is stored in
//! memory using the form — uncompressed or compressed — that the processor
//! sends across the memory interface, with a bit encoded in the ECC to
//! indicate this meta information". Memory capacity is *not* increased by
//! compression (that would be memory compression à la MXT, which the paper
//! explicitly does not model).
//!
//! [`MemoryController`] tracks the stored form of every line that has been
//! written back, charges the fixed DRAM latency, and counts accesses. A
//! line that was never written back is not stored at all: its form is a
//! pure function of its address (the workload's value model under the
//! configured codec), so the caller recomputes it on each read.
//! Queueing happens upstream on the `cmpsim_link::Channel`; the
//! per-processor limit of 16 outstanding requests is enforced by the core
//! model's MSHRs.

use cmpsim_cache::BlockAddr;
use cmpsim_fpc::MAX_SEGMENTS;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One-multiply hasher for block-address keys. `BlockAddr` hashes as a
/// single `u64`; multiplying by an odd constant is a bijection whose high
/// bits are well mixed, and it keeps the per-read probe deterministic and
/// far cheaper than the default SipHash.
#[derive(Debug, Default, Clone, Copy)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// How a line is stored in DRAM (the ECC-encoded meta bit plus the
/// segment count implied by its header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredForm {
    /// Segments the stored image occupies on the link (8 = uncompressed).
    pub segments: u8,
}

impl StoredForm {
    /// Uncompressed storage in the shared segment frame.
    pub fn uncompressed() -> Self {
        StoredForm { segments: MAX_SEGMENTS }
    }

    /// Whether the ECC bit marks the line compressed (fewer segments than
    /// the shared 8-segment frame; see [`StoredForm::is_compressed_in`]
    /// for a codec-specific geometry).
    pub fn is_compressed(&self) -> bool {
        self.is_compressed_in(MAX_SEGMENTS)
    }

    /// Whether the form is compressed under a codec whose uncompressed
    /// line occupies `line_segments` segments.
    pub fn is_compressed_in(&self, line_segments: u8) -> bool {
        self.segments < line_segments
    }
}

/// Access counters for the memory controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Read accesses served.
    pub reads: u64,
    /// Writeback accesses absorbed.
    pub writes: u64,
    /// Reads that returned a compressed-form line.
    pub compressed_reads: u64,
    /// Fault-injected stall bursts (refresh storms, ECC scrubs) applied
    /// to responses.
    pub stall_bursts: u64,
    /// Total extra cycles those bursts added.
    pub stall_cycles: u64,
}

/// The off-chip memory controller + DRAM array.
///
/// # Examples
///
/// ```
/// use cmpsim_mem::MemoryController;
/// use cmpsim_cache::BlockAddr;
///
/// let mut mem = MemoryController::new(400);
/// let (done, form) = mem.read(BlockAddr(7), 1_000, || 3);
/// assert_eq!(done, 1_400);
/// assert_eq!(form.segments, 3);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    latency: u64,
    /// Segments of an uncompressed line under the configured codec: the
    /// bound for sent-form clamping/validation and the threshold for the
    /// ECC compressed bit.
    line_segments: u8,
    stored: HashMap<BlockAddr, StoredForm, BuildHasherDefault<AddrHasher>>,
    stats: MemoryStats,
}

impl MemoryController {
    /// A controller with the given fixed access latency in cycles, using
    /// the shared 8-segment line frame.
    pub fn new(latency: u64) -> Self {
        Self::with_line_segments(latency, MAX_SEGMENTS)
    }

    /// A controller whose sent-form storage validates against a codec
    /// whose uncompressed line occupies `line_segments` segments.
    ///
    /// # Panics
    ///
    /// Panics if `line_segments` is zero.
    pub fn with_line_segments(latency: u64, line_segments: u8) -> Self {
        assert!(line_segments > 0, "a line needs at least one segment");
        MemoryController {
            latency,
            line_segments,
            stored: HashMap::default(),
            stats: MemoryStats::default(),
        }
    }

    /// The fixed DRAM access latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Reads `addr` at time `now`. Returns `(completion_cycle, form)`.
    ///
    /// If the line was previously written back, its stored form is
    /// returned verbatim (the ECC bit says whether it is compressed).
    /// Otherwise the form is `fresh_segments()`, clamped to the line
    /// geometry, and nothing is stored: only writebacks enter the map.
    /// The caller guarantees that `fresh_segments` is pure, returning the
    /// same count for `addr` on every read (the engine sizes the line's
    /// deterministic contents under the configured codec, or passes 8
    /// when link compression is off).
    pub fn read(
        &mut self,
        addr: BlockAddr,
        now: u64,
        fresh_segments: impl FnOnce() -> u8,
    ) -> (u64, StoredForm) {
        let form = match self.stored.get(&addr) {
            Some(&form) => form,
            None => StoredForm { segments: fresh_segments().clamp(1, self.line_segments) },
        };
        self.stats.reads += 1;
        if form.is_compressed_in(self.line_segments) {
            self.stats.compressed_reads += 1;
        }
        (now + self.latency, form)
    }

    /// Absorbs a writeback of `addr` stored in the sent form.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is 0 or exceeds the configured line geometry.
    pub fn write(&mut self, addr: BlockAddr, segments: u8) {
        assert!((1..=self.line_segments).contains(&segments), "bad segment count");
        self.stored.insert(addr, StoredForm { segments });
        self.stats.writes += 1;
    }

    /// Applies a fault-injected stall burst to one response: a refresh
    /// storm or ECC scrub delaying the controller. `entropy` (from the
    /// fault plan) picks the burst length deterministically, between a
    /// quarter and one-and-a-quarter DRAM latencies; the caller adds the
    /// returned extra cycles to the response's completion time.
    pub fn stall_burst(&mut self, entropy: u64) -> u64 {
        let extra = self.latency / 4 + 1 + entropy % self.latency.max(1);
        self.stats.stall_bursts += 1;
        self.stats.stall_cycles += extra;
        extra
    }

    /// The stored form of `addr`, if it has ever been written back.
    pub fn stored_form(&self, addr: BlockAddr) -> Option<StoredForm> {
        self.stored.get(&addr).copied()
    }

    /// Number of lines holding a written-back form.
    pub fn stored_lines(&self) -> usize {
        self.stored.len()
    }

    /// Access counters.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Clears counters (end of warmup), keeping the stored contents.
    pub fn reset_stats(&mut self) {
        self.stats = MemoryStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency() {
        let mut mem = MemoryController::new(400);
        let (done, _) = mem.read(BlockAddr(0), 123, || 8);
        assert_eq!(done, 523);
    }

    #[test]
    fn fresh_lines_use_provided_form() {
        let mut mem = MemoryController::new(400);
        // A never-written line takes whatever form the caller supplies,
        // on every read: nothing is materialized.
        let (_, form) = mem.read(BlockAddr(1), 0, || 2);
        assert_eq!(form.segments, 2);
        assert!(form.is_compressed());
        let (_, form) = mem.read(BlockAddr(1), 0, || 7);
        assert_eq!(form.segments, 7);
        assert_eq!(mem.stored_form(BlockAddr(1)), None);
        for line in 100..10_100 {
            mem.read(BlockAddr(line), 0, || (line % 8) as u8 + 1);
        }
        assert_eq!(mem.stored_lines(), 0, "fresh reads store nothing");
        // A written-back form persists and wins over the fresh form.
        mem.write(BlockAddr(1), 5);
        for fresh in [1, 8] {
            let (_, form) = mem.read(BlockAddr(1), 0, || fresh);
            assert_eq!(form.segments, 5);
        }
        assert_eq!(mem.stored_form(BlockAddr(1)), Some(StoredForm { segments: 5 }));
        assert_eq!(mem.stored_lines(), 1);
    }

    #[test]
    fn writeback_form_is_preserved() {
        let mut mem = MemoryController::new(400);
        mem.write(BlockAddr(2), 5);
        let (_, form) = mem.read(BlockAddr(2), 0, || 8);
        assert_eq!(form.segments, 5);
        assert!(form.is_compressed());
        mem.write(BlockAddr(2), 8);
        let (_, form) = mem.read(BlockAddr(2), 0, || 1);
        assert!(!form.is_compressed());
    }

    #[test]
    fn stats_count() {
        let mut mem = MemoryController::new(400);
        mem.read(BlockAddr(0), 0, || 3);
        mem.read(BlockAddr(1), 0, || 8);
        mem.write(BlockAddr(0), 3);
        assert_eq!(mem.stats().reads, 2);
        assert_eq!(mem.stats().writes, 1);
        assert_eq!(mem.stats().compressed_reads, 1);
        mem.reset_stats();
        assert_eq!(mem.stats().reads, 0);
        assert!(mem.stored_form(BlockAddr(0)).is_some(), "contents survive reset");
    }

    #[test]
    fn stall_bursts_are_bounded_and_counted() {
        let mut mem = MemoryController::new(400);
        let mut total = 0;
        for entropy in [0u64, 17, 399, 400, u64::MAX] {
            let extra = mem.stall_burst(entropy);
            assert!(extra >= 400 / 4 + 1, "burst at least a quarter latency: {extra}");
            assert!(extra <= 400 / 4 + 400, "burst bounded: {extra}");
            assert_eq!(extra, mem.stall_burst(entropy) , "same entropy, same burst");
            total += extra * 2;
        }
        assert_eq!(mem.stats().stall_bursts, 10);
        assert_eq!(mem.stats().stall_cycles, total);
        mem.reset_stats();
        assert_eq!(mem.stats().stall_bursts, 0);
        assert_eq!(mem.stats().stall_cycles, 0);
        // A zero-latency controller must still make a positive burst.
        let mut fast = MemoryController::new(0);
        assert!(fast.stall_burst(5) > 0);
    }

    #[test]
    fn fresh_segments_clamped() {
        let mut mem = MemoryController::new(1);
        let (_, form) = mem.read(BlockAddr(9), 0, || 0);
        assert_eq!(form.segments, 1);
    }

    #[test]
    fn codec_geometry_bounds_sent_forms() {
        // A narrower line frame: clamping, the write assert and the
        // compressed-read counter all follow the configured geometry.
        let mut mem = MemoryController::with_line_segments(1, 4);
        let (_, form) = mem.read(BlockAddr(0), 0, || 7);
        assert_eq!(form.segments, 4, "fresh form clamps to the codec frame");
        assert!(!form.is_compressed_in(4));
        mem.write(BlockAddr(1), 3);
        let (_, form) = mem.read(BlockAddr(1), 0, || 4);
        assert!(form.is_compressed_in(4));
        assert_eq!(mem.stats().compressed_reads, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mem.write(BlockAddr(2), 5);
        }));
        assert!(r.is_err(), "writeback beyond the codec frame must panic");
    }
}
