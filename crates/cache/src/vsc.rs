//! The decoupled variable-segment cache (VSC).
//!
//! This is the compressed L2 organization of the paper (§2), taken from
//! Alameldeen & Wood's ISCA 2004 design: each set has **8 address tags**
//! but data space for only **4 uncompressed lines**, divided into 8-byte
//! segments (32 per set — the paper's "64" is inconsistent with "data
//! space for 4 uncompressed lines"; see DESIGN.md). A compressed line
//! occupies 1–7 segments, an uncompressed one 8, so a set holds between 4
//! and 8 lines.
//!
//! Tags whose data has been evicted remain allocated as **dataless victim
//! tags** holding the replaced block's address. These extra tags are what
//! the paper's adaptive prefetcher uses to detect harmful prefetches (§3)
//! and what the adaptive compression policy uses to detect avoidable
//! misses.

use crate::block::BlockAddr;
use crate::stats::CacheStats;
use cmpsim_fpc::{LINE_BYTES, MAX_SEGMENTS};

/// Static geometry of a [`VscCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VscConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Address tags per set (8 in the paper).
    pub tags_per_set: usize,
    /// Data segments per set (32 in the paper: 4 lines × 8 segments).
    pub segments_per_set: u32,
    /// Segments an *uncompressed* line occupies under the configured
    /// codec (8 for every shipped codec's 64-byte/8-byte-segment frame).
    /// Fill sizes and the invariant checker validate against this, not a
    /// hard-coded FPC constant.
    pub line_segments: u8,
}

impl VscConfig {
    /// The paper's compressed-L2 geometry for a given data capacity:
    /// 8 tags per set, data space for 4 uncompressed lines per set, FPC's
    /// 8-segment line frame.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` does not yield a power-of-two set count.
    pub fn compressed_l2(capacity_bytes: usize) -> Self {
        Self::compressed_l2_for(capacity_bytes, MAX_SEGMENTS)
    }

    /// [`compressed_l2`](Self::compressed_l2) generalized to a codec
    /// whose uncompressed line occupies `line_segments` segments.
    ///
    /// # Panics
    ///
    /// Panics if `line_segments` is zero or the set count is not a power
    /// of two.
    pub fn compressed_l2_for(capacity_bytes: usize, line_segments: u8) -> Self {
        assert!(line_segments > 0, "a line needs at least one segment");
        let lines = capacity_bytes / LINE_BYTES;
        let data_lines_per_set = 4;
        let sets = lines / data_lines_per_set;
        assert!(sets.is_power_of_two(), "set count {sets} must be a power of two");
        VscConfig {
            sets,
            tags_per_set: 8,
            segments_per_set: (data_lines_per_set * usize::from(line_segments)) as u32,
            line_segments,
        }
    }

    /// How many uncompressed lines fit in one set's data space.
    pub fn data_lines_per_set(&self) -> usize {
        (self.segments_per_set / u32::from(self.line_segments)) as usize
    }

    /// Total data capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.segments_per_set as usize * cmpsim_fpc::SEGMENT_BYTES
    }
}

// Tag flag bits: each tag's byte in `VscCache::flags`.

/// Tag allocated: its address is meaningful (line present *or* victim tag).
const ALLOCATED: u8 = 1;
/// Line data resident (the tag's segment count is valid, its meta live).
const DATA: u8 = 2;
/// Prefetch bit: brought in by a prefetch and not yet demand-touched.
const PREFETCH: u8 = 4;

/// Outcome of [`VscCache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VscLookup {
    /// Line present with data.
    Hit {
        /// Stored compressed (fewer than 8 segments)?
        compressed: bool,
        /// 0-based LRU-stack depth among the set's *data-holding* lines;
        /// depths ≥ `data_lines_per_set` are hits that exist only because
        /// compression packed extra lines in.
        lru_depth: usize,
        /// First demand touch of a prefetched line (prefetch bit was set
        /// and has now been cleared).
        prefetch_first_touch: bool,
    },
    /// A dataless victim tag matched: the line was here until recently.
    /// Structurally a miss, but a strong signal for the adaptive policies.
    VictimTagHit,
    /// No tag matched.
    Miss,
}

impl VscLookup {
    /// Whether data was found.
    pub fn is_hit(&self) -> bool {
        matches!(self, VscLookup::Hit { .. })
    }
}

/// A line evicted from the data area by [`VscCache::fill`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VscEvicted<M> {
    /// Address of the evicted line.
    pub addr: BlockAddr,
    /// Segments the line occupied.
    pub segments: u8,
    /// Prefetch bit still set at eviction (useless prefetch, §3).
    pub was_unused_prefetch: bool,
    /// Caller metadata (directory entry for the L2).
    pub meta: M,
}

/// The decoupled variable-segment cache structure.
///
/// Tags live in flat structure-of-arrays storage: tag `w` of set `s` is
/// index `s * tags_per_set + w` of every per-tag array. A set scan reads
/// only the addresses and the flag bytes (one set's 8 addresses are one
/// 64-byte host line); the LRU stamps, sizes and caller metadata are
/// touched only for the ways a scan selects. There is no per-set heap
/// allocation: a 4 MB cache is five allocations, the largest 1 MB. The
/// four numeric arrays are allocated zeroed, so the allocator may hand
/// out fresh pages that stay untouched until a cell uses their sets.
///
/// # Examples
///
/// ```
/// use cmpsim_cache::{VscCache, VscConfig, BlockAddr, VscLookup};
///
/// let mut c: VscCache<()> = VscCache::new(VscConfig {
///     sets: 2, tags_per_set: 8, segments_per_set: 32, line_segments: 8,
/// });
/// let a = BlockAddr(0);
/// assert_eq!(c.lookup(a), VscLookup::Miss);
/// c.fill(a, 2, false, ());
/// assert!(c.lookup(a).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct VscCache<M> {
    cfg: VscConfig,
    /// Block address of each tag (meaningful only when allocated).
    addrs: Vec<u64>,
    /// [`ALLOCATED`], [`DATA`] and [`PREFETCH`] bits of each tag.
    flags: Vec<u8>,
    /// Storage size in segments of each tag (0 when dataless).
    segs: Vec<u8>,
    /// LRU stamp of each tag.
    lru: Vec<u64>,
    /// Caller metadata of each tag (live only while it holds data).
    meta: Vec<M>,
    /// Lines resident with data, kept current by every fill, eviction and
    /// invalidation so occupancy queries are O(1).
    resident: usize,
    /// Data segments in use across all sets, maintained alongside
    /// `resident`.
    used_segments: u64,
    /// The last fill's evictions; reused so a fill allocates nothing.
    evicted: Vec<VscEvicted<M>>,
    clock: u64,
    stats: CacheStats,
}

impl<M: Clone + Default> VscCache<M> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the data space cannot hold even one uncompressed line.
    pub fn new(cfg: VscConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.line_segments > 0, "a line needs at least one segment");
        assert!(
            cfg.segments_per_set >= u32::from(cfg.line_segments),
            "a set must hold at least one uncompressed line"
        );
        let tags = cfg.sets * cfg.tags_per_set;
        VscCache {
            cfg,
            addrs: vec![0; tags],
            flags: vec![0; tags],
            segs: vec![0; tags],
            lru: vec![0; tags],
            meta: vec![M::default(); tags],
            resident: 0,
            used_segments: 0,
            evicted: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> VscConfig {
        self.cfg
    }

    /// Structural statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Index range of `addr`'s set in the per-tag arrays.
    #[inline]
    fn set_range(&self, addr: BlockAddr) -> std::ops::Range<usize> {
        let base = addr.set_index(self.cfg.sets) * self.cfg.tags_per_set;
        base..base + self.cfg.tags_per_set
    }

    /// Index of the first tag in `addr`'s set whose flags include any of
    /// `need` and whose address is `addr`.
    #[inline]
    fn find(&self, addr: BlockAddr, need: u8) -> Option<usize> {
        self.set_range(addr).find(|&i| self.flags[i] & need != 0 && self.addrs[i] == addr.0)
    }

    /// Segments charged by the data-holding tags in `range`.
    fn used_segments(&self, range: std::ops::Range<usize>) -> u32 {
        range.filter(|&i| self.flags[i] & DATA != 0).map(|i| u32::from(self.segs[i])).sum()
    }

    /// Looks up `addr`, updating LRU and clearing the prefetch bit on a
    /// data hit.
    pub fn lookup(&mut self, addr: BlockAddr) -> VscLookup {
        self.clock += 1;
        let Some(pos) = self.find(addr, ALLOCATED) else {
            return VscLookup::Miss;
        };
        if self.flags[pos] & DATA == 0 {
            self.stats.victim_tag_hits += 1;
            return VscLookup::VictimTagHit;
        }
        let my_lru = self.lru[pos];
        let lru_depth = self
            .set_range(addr)
            .filter(|&i| self.flags[i] & DATA != 0 && self.lru[i] > my_lru)
            .count();
        self.lru[pos] = self.clock;
        let prefetch_first_touch = self.flags[pos] & PREFETCH != 0;
        self.flags[pos] &= !PREFETCH;
        let compressed = self.segs[pos] < self.cfg.line_segments;
        self.stats.hits += 1;
        if prefetch_first_touch {
            self.stats.prefetch_first_touches += 1;
        }
        VscLookup::Hit { compressed, lru_depth, prefetch_first_touch }
    }

    /// Read-only probe without LRU/prefetch side effects.
    pub fn peek(&self, addr: BlockAddr) -> Option<&M> {
        self.find(addr, DATA).map(|i| &self.meta[i])
    }

    /// Mutable access to a resident line's metadata (no side effects).
    pub fn meta_mut(&mut self, addr: BlockAddr) -> Option<&mut M> {
        self.find(addr, DATA).map(|i| &mut self.meta[i])
    }

    /// Whether the line is resident with data.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.find(addr, DATA).is_some()
    }

    /// Stored size in segments of a resident line.
    pub fn segments_of(&self, addr: BlockAddr) -> Option<u8> {
        self.find(addr, DATA).map(|i| self.segs[i])
    }

    /// Whether any *data-holding* line in `addr`'s set has its prefetch
    /// bit set (input to the harmful-prefetch rule, §3).
    pub fn any_prefetched_lines_in_set(&self, addr: BlockAddr) -> bool {
        self.flags[self.set_range(addr)].iter().any(|&f| f & (DATA | PREFETCH) == DATA | PREFETCH)
    }

    /// Whether a dataless victim tag matches `addr` (the other half of the
    /// harmful-prefetch rule).
    pub fn victim_tag_matches(&self, addr: BlockAddr) -> bool {
        self.set_range(addr)
            .any(|i| self.flags[i] & (ALLOCATED | DATA) == ALLOCATED && self.addrs[i] == addr.0)
    }

    /// Drops the data of tag `i`, leaving a dataless victim tag, and
    /// returns `(meta, segments, prefetch bit)`.
    fn drop_data(&mut self, i: usize) -> (M, u8, bool) {
        let segments = self.segs[i];
        let prefetch = self.flags[i] & PREFETCH != 0;
        self.flags[i] &= !(DATA | PREFETCH);
        self.segs[i] = 0;
        self.resident -= 1;
        self.used_segments -= u64::from(segments);
        (std::mem::take(&mut self.meta[i]), segments, prefetch)
    }

    /// Evicts the data of tag `i` into the fill's eviction buffer.
    fn evict(&mut self, i: usize) {
        let addr = BlockAddr(self.addrs[i]);
        let (meta, segments, was_unused_prefetch) = self.drop_data(i);
        self.evicted.push(VscEvicted { addr, segments, was_unused_prefetch, meta });
        self.stats.evictions += 1;
        if was_unused_prefetch {
            self.stats.unused_prefetch_evictions += 1;
        }
    }

    /// Inserts (or resizes) `addr` with `segments` of data, evicting LRU
    /// data lines as needed. Evicted lines' tags stay allocated as victim
    /// tags; evicted metadata is returned for writebacks/recalls, in
    /// eviction order, in a buffer the next fill reuses.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is 0 or exceeds 8.
    pub fn fill(
        &mut self,
        addr: BlockAddr,
        segments: u8,
        prefetched: bool,
        meta: M,
    ) -> &[VscEvicted<M>] {
        assert!(
            (1..=self.cfg.line_segments).contains(&segments),
            "fill size {segments} out of range 1..={}",
            self.cfg.line_segments
        );
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(addr);
        self.evicted.clear();

        // Locate or allocate the tag for `addr`.
        let existing = self.find(addr, ALLOCATED);
        let had_data = existing.is_some_and(|i| self.flags[i] & DATA != 0);

        // Segments already charged to this address (resize case).
        let my_current = match existing {
            Some(i) if had_data => u32::from(self.segs[i]),
            _ => 0,
        };

        // Evict LRU data lines until the new size fits.
        let mut set_used = self.used_segments(range.clone());
        while set_used - my_current + u32::from(segments) > self.cfg.segments_per_set {
            let victim = range
                .clone()
                .filter(|&i| self.flags[i] & DATA != 0 && Some(i) != existing)
                .min_by_key(|&i| self.lru[i])
                .expect("over-full set must contain an evictable line");
            set_used -= u32::from(self.segs[victim]);
            self.evict(victim);
        }

        // Choose the tag slot.
        let slot = match existing {
            Some(i) => i,
            None => {
                // Prefer an unallocated tag, then the LRU dataless tag,
                // then (all 8 tags holding data) evict the LRU data line.
                if let Some(i) = range.clone().find(|&i| self.flags[i] & ALLOCATED == 0) {
                    i
                } else if let Some(i) = range
                    .clone()
                    .filter(|&i| self.flags[i] & DATA == 0)
                    .min_by_key(|&i| self.lru[i])
                {
                    i
                } else {
                    let i = range.clone().min_by_key(|&i| self.lru[i]).expect("set has tags");
                    self.evict(i);
                    i
                }
            }
        };

        if !had_data {
            self.resident += 1;
        }
        self.used_segments = self.used_segments - u64::from(my_current) + u64::from(segments);
        self.addrs[slot] = addr.0;
        self.segs[slot] = segments;
        self.lru[slot] = clock;
        self.meta[slot] = meta;
        // A resize keeps the stronger (demand) classification.
        let prefetch = if had_data {
            prefetched && self.flags[slot] & PREFETCH != 0
        } else {
            self.stats.fills += 1;
            if prefetched {
                self.stats.prefetch_fills += 1;
            }
            prefetched
        };
        self.flags[slot] = ALLOCATED | DATA | if prefetch { PREFETCH } else { 0 };

        debug_assert!(self.used_segments(range) <= self.cfg.segments_per_set);
        &self.evicted
    }

    /// Removes a resident line (inclusion recall / invalidation), keeping
    /// its address as a victim tag. Returns `(meta, segments)`.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<(M, u8)> {
        let i = self.find(addr, DATA)?;
        let (meta, segments, _) = self.drop_data(i);
        self.stats.invalidations += 1;
        Some((meta, segments))
    }

    /// Number of lines resident with data (a running count, O(1)).
    pub fn valid_lines(&self) -> usize {
        self.resident
    }

    /// Total data segments in use (a running count, O(1)).
    pub fn used_segments_total(&self) -> u64 {
        self.used_segments
    }

    /// Effective-capacity ratio: how much line data is resident per byte
    /// of data storage actually used, capped at the 2× the tag array
    /// allows. On a warm, full cache this equals the paper's Table 3
    /// "compression ratio" (average effective cache size over 4 MB); on a
    /// partially-filled cache it still reports the achieved packing
    /// density rather than an artifact of emptiness.
    pub fn effective_capacity_ratio(&self) -> f64 {
        let used = self.used_segments_total();
        if used == 0 {
            return 1.0;
        }
        let resident_segments = self.valid_lines() as u64 * u64::from(self.cfg.line_segments);
        let tag_cap = self.cfg.tags_per_set as f64 / self.cfg.data_lines_per_set() as f64;
        (resident_segments as f64 / used as f64).min(tag_cap)
    }

    /// Checks the structural invariants of the segment accounting, for
    /// the simulator's opt-in invariant checker (`CMPSIM_CHECK=1`):
    ///
    /// - each set's resident lines occupy at most `segments_per_set`
    ///   segments,
    /// - every data-holding tag is allocated and sized within the
    ///   configured codec geometry (`1..=line_segments` segments),
    /// - every dataless tag (victim tag or free) charges 0 segments and
    ///   carries no prefetch bit,
    /// - the running resident-line and used-segment counters equal a full
    ///   recount.
    ///
    /// # Errors
    ///
    /// Returns a description naming the first offending set, or the
    /// counter that disagrees with the recount.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (mut resident, mut used_total) = (0usize, 0u64);
        let ways = self.cfg.tags_per_set;
        for si in 0..self.cfg.sets {
            let range = si * ways..(si + 1) * ways;
            let used = self.used_segments(range.clone());
            resident += range.clone().filter(|&i| self.flags[i] & DATA != 0).count();
            used_total += u64::from(used);
            if used > self.cfg.segments_per_set {
                return Err(format!(
                    "set {si}: {used} segments in use exceed capacity {}",
                    self.cfg.segments_per_set
                ));
            }
            for (ti, i) in range.enumerate() {
                let (flags, segments) = (self.flags[i], self.segs[i]);
                if flags & DATA != 0 {
                    if flags & ALLOCATED == 0 {
                        return Err(format!(
                            "set {si} tag {ti}: data resident on an unallocated tag"
                        ));
                    }
                    if !(1..=self.cfg.line_segments).contains(&segments) {
                        return Err(format!(
                            "set {si} tag {ti} (addr {:#x}): stored size {segments} segments \
                             out of the configured codec geometry 1..={}",
                            self.addrs[i], self.cfg.line_segments
                        ));
                    }
                } else {
                    if segments != 0 {
                        return Err(format!(
                            "set {si} tag {ti}: dataless tag charges {segments} segments"
                        ));
                    }
                    if flags & PREFETCH != 0 {
                        return Err(format!(
                            "set {si} tag {ti}: dataless tag carries a prefetch bit"
                        ));
                    }
                }
            }
        }
        if resident != self.resident {
            return Err(format!(
                "resident-line counter {} disagrees with recount {resident}",
                self.resident
            ));
        }
        if used_total != self.used_segments {
            return Err(format!(
                "used-segment counter {} disagrees with recount {used_total}",
                self.used_segments
            ));
        }
        Ok(())
    }

    /// Calls `f` for every data-resident line.
    pub fn for_each_valid(&self, mut f: impl FnMut(BlockAddr, &M, u8)) {
        for i in 0..self.flags.len() {
            if self.flags[i] & DATA != 0 {
                f(BlockAddr(self.addrs[i]), &self.meta[i], self.segs[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> VscCache<u32> {
        // 1 set, 8 tags, 32 segments (4 uncompressed lines).
        VscCache::new(VscConfig {
            sets: 1,
            tags_per_set: 8,
            segments_per_set: 32,
            line_segments: 8,
        })
    }

    #[test]
    fn eight_compressed_lines_fit() {
        let mut c = tiny();
        for i in 0..8 {
            let ev = c.fill(BlockAddr(i), 4, false, i as u32);
            assert!(ev.is_empty(), "8 half-size lines fit without eviction");
        }
        assert_eq!(c.valid_lines(), 8);
        assert_eq!(c.used_segments_total(), 32);
    }

    #[test]
    fn only_four_uncompressed_lines_fit() {
        let mut c = tiny();
        for i in 0..4 {
            assert!(c.fill(BlockAddr(i), 8, false, 0).is_empty());
        }
        let ev = c.fill(BlockAddr(4), 8, false, 0);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, BlockAddr(0), "LRU line evicted");
        assert_eq!(c.valid_lines(), 4);
    }

    #[test]
    fn victim_tags_survive_eviction() {
        let mut c = tiny();
        for i in 0..5 {
            c.fill(BlockAddr(i), 8, false, 0);
        }
        // Block 0 was evicted; its tag should match as a victim tag.
        assert!(!c.contains(BlockAddr(0)));
        assert!(c.victim_tag_matches(BlockAddr(0)));
        assert_eq!(c.lookup(BlockAddr(0)), VscLookup::VictimTagHit);
        assert_eq!(c.stats().victim_tag_hits, 1);
    }

    #[test]
    fn lru_depth_reports_compression_benefit() {
        let mut c = tiny();
        for i in 0..8 {
            c.fill(BlockAddr(i), 4, false, 0);
        }
        // Touch lines 1..8, leaving 0 deepest.
        for i in 1..8 {
            assert!(c.lookup(BlockAddr(i)).is_hit());
        }
        match c.lookup(BlockAddr(0)) {
            VscLookup::Hit { lru_depth, compressed, .. } => {
                assert_eq!(lru_depth, 7, "line 0 is at the bottom of the stack");
                assert!(compressed);
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn resize_grow_evicts_as_needed() {
        let mut c = tiny();
        for i in 0..8 {
            c.fill(BlockAddr(i), 4, false, 0);
        }
        // Grow line 7 from 4 to 8 segments: 32 - 4 + 8 = 36 > 32 → evict.
        let ev = c.fill(BlockAddr(7), 8, false, 0);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, BlockAddr(0));
        assert_eq!(c.segments_of(BlockAddr(7)), Some(8));
        assert!(c.used_segments_total() <= 32);
    }

    #[test]
    fn resize_shrink_frees_segments() {
        let mut c = tiny();
        c.fill(BlockAddr(0), 8, false, 0);
        c.fill(BlockAddr(0), 2, false, 0);
        assert_eq!(c.segments_of(BlockAddr(0)), Some(2));
        assert_eq!(c.used_segments_total(), 2);
        assert_eq!(c.valid_lines(), 1, "resize must not duplicate the tag");
    }

    #[test]
    fn tag_pressure_evicts_even_with_free_segments() {
        let mut c = tiny();
        // 8 tiny lines occupy all 8 tags but only 8 of 32 segments.
        for i in 0..8 {
            c.fill(BlockAddr(i), 1, false, 0);
        }
        let ev = c.fill(BlockAddr(8), 1, false, 0);
        assert_eq!(ev.len(), 1, "9th line needs a tag: LRU data line evicted");
        assert_eq!(ev[0].addr, BlockAddr(0));
        assert_eq!(c.valid_lines(), 8);
    }

    #[test]
    fn new_tag_prefers_unallocated_then_lru_dataless() {
        let mut c = tiny();
        for i in 0..4 {
            c.fill(BlockAddr(i), 4, false, 0);
        }
        c.invalidate(BlockAddr(1));
        // Free tags remain, so the victim tag of line 1 survives.
        c.fill(BlockAddr(4), 4, false, 0);
        assert!(c.victim_tag_matches(BlockAddr(1)));
        for i in 5..8 {
            c.fill(BlockAddr(i), 4, false, 0);
        }
        c.invalidate(BlockAddr(6));
        // Every tag is allocated: the least recently used dataless tag
        // (line 1's, older than line 6's) takes the new line.
        assert!(c.fill(BlockAddr(8), 4, false, 0).is_empty());
        assert!(!c.victim_tag_matches(BlockAddr(1)));
        assert!(c.victim_tag_matches(BlockAddr(6)));
        assert_eq!(c.valid_lines(), 7);
    }

    #[test]
    fn prefetch_bit_and_useless_detection() {
        let mut c = tiny();
        c.fill(BlockAddr(0), 8, true, 0);
        for i in 1..4 {
            c.fill(BlockAddr(i), 8, false, 0);
        }
        let ev = c.fill(BlockAddr(4), 8, false, 0);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].was_unused_prefetch, "untouched prefetched line evicted");
    }

    #[test]
    fn harmful_prefetch_inputs() {
        let mut c = tiny();
        for i in 0..4 {
            c.fill(BlockAddr(i), 8, false, 0);
        }
        // A prefetch displaces line 0.
        c.fill(BlockAddr(9), 8, true, 0);
        assert!(c.victim_tag_matches(BlockAddr(0)));
        assert!(c.any_prefetched_lines_in_set(BlockAddr(0)));
    }

    #[test]
    fn invalidate_keeps_victim_tag() {
        let mut c = tiny();
        c.fill(BlockAddr(0), 4, false, 42);
        let (meta, segs) = c.invalidate(BlockAddr(0)).unwrap();
        assert_eq!((meta, segs), (42, 4));
        assert!(!c.contains(BlockAddr(0)));
        assert!(c.victim_tag_matches(BlockAddr(0)));
        assert_eq!(c.used_segments_total(), 0);
    }

    #[test]
    fn effective_capacity_ratio() {
        let mut c = tiny();
        for i in 0..8 {
            c.fill(BlockAddr(i), 4, false, 0);
        }
        // 8 lines × 64 B resident in 32 segments × 8 B = 256 B physical.
        assert!((c.effective_capacity_ratio() - 2.0).abs() < 1e-9);
    }

    /// `(resident lines, used segments)` recounted from the tag array.
    fn recount(c: &VscCache<u32>) -> (usize, u64) {
        let (mut lines, mut segs) = (0, 0);
        c.for_each_valid(|_, _, s| {
            lines += 1;
            segs += u64::from(s);
        });
        (lines, segs)
    }

    #[test]
    fn invariants_hold_under_stress() {
        // Adversarial mix of fills, resizes and invalidations; the
        // accounting invariants, and the running occupancy counters
        // against a recount, must hold after every operation.
        let mut c = tiny();
        assert_eq!(c.check_invariants(), Ok(()));
        let mut x = 0x9E3779B97F4A7C15u64;
        for step in 0..2000u64 {
            // xorshift64* — deterministic operation mix.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let addr = BlockAddr(x % 24);
            match x % 5 {
                0..=2 => {
                    let segs = (x / 7 % 8 + 1) as u8;
                    c.fill(addr, segs, x % 2 == 0, step as u32);
                }
                3 => {
                    c.invalidate(addr);
                }
                _ => {
                    c.lookup(addr);
                }
            }
            assert_eq!(c.check_invariants(), Ok(()), "violated at step {step}");
            assert_eq!(
                (c.valid_lines(), c.used_segments_total()),
                recount(&c),
                "occupancy counters drifted at step {step}"
            );
        }
    }

    #[test]
    fn paper_geometry() {
        let cfg = VscConfig::compressed_l2(4 * 1024 * 1024);
        assert_eq!(cfg.sets, 16384);
        assert_eq!(cfg.tags_per_set, 8);
        assert_eq!(cfg.segments_per_set, 32);
        assert_eq!(cfg.line_segments, 8);
        assert_eq!(cfg.data_lines_per_set(), 4);
        assert_eq!(cfg.capacity_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    fn codec_geometry_bounds_fills_and_invariants() {
        // A narrower codec frame (hypothetical 4-segment lines): the fill
        // assert and the invariant checker both track the configured
        // geometry, not FPC's constant.
        let mut c: VscCache<u32> = VscCache::new(VscConfig {
            sets: 1,
            tags_per_set: 8,
            segments_per_set: 16,
            line_segments: 4,
        });
        assert_eq!(c.config().data_lines_per_set(), 4);
        for i in 0..4 {
            c.fill(BlockAddr(i), 4, false, 0);
        }
        assert_eq!(c.check_invariants(), Ok(()));
        match c.lookup(BlockAddr(0)) {
            VscLookup::Hit { compressed, .. } => {
                assert!(!compressed, "4 segments is uncompressed in this frame");
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.fill(BlockAddr(9), 5, false, 0);
        }));
        assert!(r.is_err(), "fill beyond the codec frame must panic");
    }
}
