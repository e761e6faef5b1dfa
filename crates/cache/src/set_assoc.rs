//! Classic set-associative cache with true-LRU replacement.
//!
//! Used for the private L1 caches (64 KB, 4-way) and the uncompressed
//! baseline L2 (4 MB, 8-way). Lines carry caller-supplied metadata `M`
//! (MSI state for L1s, a directory entry for the L2) plus the per-tag
//! *prefetch bit* the adaptive prefetcher reads (§3).

use crate::block::BlockAddr;
use crate::stats::CacheStats;

/// Static geometry of a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetAssocConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
}

impl SetAssocConfig {
    /// Geometry for a cache of `bytes` capacity with 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly into power-of-two
    /// sets.
    pub fn with_capacity(bytes: usize, ways: usize) -> Self {
        let lines = bytes / cmpsim_fpc::LINE_BYTES;
        assert!(ways > 0 && lines % ways == 0, "capacity/ways mismatch");
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count {sets} must be a power of two");
        SetAssocConfig { sets, ways }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * cmpsim_fpc::LINE_BYTES
    }
}

#[derive(Debug, Clone)]
struct Line<M> {
    addr: BlockAddr,
    valid: bool,
    prefetch: bool,
    lru: u64,
    meta: M,
}

/// A line evicted by [`SetAssocCache::fill`], handed back to the
/// controller for writebacks / coherence recalls / adaptive-prefetch
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine<M> {
    /// Address of the evicted line.
    pub addr: BlockAddr,
    /// Whether the line was brought in by a prefetch and never referenced.
    pub was_unused_prefetch: bool,
    /// Caller metadata (coherence state etc.).
    pub meta: M,
}

/// Classic LRU set-associative cache.
///
/// # Examples
///
/// ```
/// use cmpsim_cache::{SetAssocCache, SetAssocConfig, BlockAddr};
///
/// let mut c: SetAssocCache<()> = SetAssocCache::new(SetAssocConfig { sets: 2, ways: 2 });
/// let a = BlockAddr(0);
/// assert!(c.lookup(a).is_none());
/// c.fill(a, false, ());
/// assert!(c.lookup(a).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    cfg: SetAssocConfig,
    /// Every line in one flat array, set-major: set `s` is
    /// `lines[s * ways..(s + 1) * ways]`. A lookup is one index
    /// computation and a scan of `ways` adjacent lines, with no per-set
    /// heap indirection.
    lines: Vec<Line<M>>,
    clock: u64,
    stats: CacheStats,
}

impl<M: Clone + Default> SetAssocCache<M> {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: SetAssocConfig) -> Self {
        let lines = (0..cfg.sets * cfg.ways)
            .map(|_| Line {
                addr: BlockAddr(0),
                valid: false,
                prefetch: false,
                lru: 0,
                meta: M::default(),
            })
            .collect();
        SetAssocCache { cfg, lines, clock: 0, stats: CacheStats::default() }
    }

    /// The cache geometry.
    pub fn config(&self) -> SetAssocConfig {
        self.cfg
    }

    /// Structural statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. at the end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Indices of `addr`'s set in `lines`.
    #[inline]
    fn set_range(&self, addr: BlockAddr) -> std::ops::Range<usize> {
        let base = addr.set_index(self.cfg.sets) * self.cfg.ways;
        base..base + self.cfg.ways
    }

    /// Looks up `addr`, updating LRU on hit. Returns the line's metadata.
    ///
    /// The returned tuple is `(meta, was_prefetched_first_touch)`: the
    /// second element is true exactly when this access is the *first*
    /// demand reference to a prefetched line (the prefetch bit is cleared
    /// as a side effect, per §3).
    pub fn lookup(&mut self, addr: BlockAddr) -> Option<(&mut M, bool)> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_range(addr);
        let line = self.lines[set].iter_mut().find(|l| l.valid && l.addr == addr)?;
        line.lru = clock;
        let first_touch = line.prefetch;
        line.prefetch = false;
        self.stats.hits += 1;
        if first_touch {
            self.stats.prefetch_first_touches += 1;
        }
        Some((&mut line.meta, first_touch))
    }

    /// Peeks at `addr` without updating LRU or the prefetch bit.
    pub fn peek(&self, addr: BlockAddr) -> Option<&M> {
        self.lines[self.set_range(addr)]
            .iter()
            .find(|l| l.valid && l.addr == addr)
            .map(|l| &l.meta)
    }

    /// Mutable peek without LRU/prefetch-bit side effects.
    pub fn peek_mut(&mut self, addr: BlockAddr) -> Option<&mut M> {
        let set = self.set_range(addr);
        self.lines[set]
            .iter_mut()
            .find(|l| l.valid && l.addr == addr)
            .map(|l| &mut l.meta)
    }

    /// Whether `addr` is present (valid) without any side effects.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.peek(addr).is_some()
    }

    /// Whether the line at `addr` still has its prefetch bit set.
    pub fn prefetch_bit(&self, addr: BlockAddr) -> Option<bool> {
        self.lines[self.set_range(addr)]
            .iter()
            .find(|l| l.valid && l.addr == addr)
            .map(|l| l.prefetch)
    }

    /// Inserts `addr`, evicting the LRU line if the set is full.
    ///
    /// `prefetched` sets the line's prefetch bit (a demand fill clears it).
    /// Filling an already-present line refreshes LRU and metadata instead
    /// of duplicating the tag.
    pub fn fill(&mut self, addr: BlockAddr, prefetched: bool, meta: M) -> Option<EvictedLine<M>> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(addr);
        let set = &mut self.lines[range];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.addr == addr) {
            line.lru = clock;
            line.meta = meta;
            // A demand fill of a prefetched-but-in-flight line keeps the
            // stronger (demand) classification.
            line.prefetch &= prefetched;
            return None;
        }

        self.stats.fills += 1;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }

        let new_line =
            Line { addr, valid: true, prefetch: prefetched, lru: clock, meta };

        // The first invalid way, in way order, takes the line.
        if let Some(slot) = set.iter_mut().find(|l| !l.valid) {
            *slot = new_line;
            return None;
        }
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .map(|(i, _)| i)
            .expect("full set has a victim");
        let victim = std::mem::replace(&mut set[victim_idx], new_line);
        self.stats.evictions += 1;
        if victim.prefetch {
            self.stats.unused_prefetch_evictions += 1;
        }
        Some(EvictedLine {
            addr: victim.addr,
            was_unused_prefetch: victim.prefetch,
            meta: victim.meta,
        })
    }

    /// Removes `addr` (coherence invalidation / inclusion recall),
    /// returning its metadata.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<M> {
        let set = self.set_range(addr);
        let line = self.lines[set].iter_mut().find(|l| l.valid && l.addr == addr)?;
        line.valid = false;
        self.stats.invalidations += 1;
        Some(line.meta.clone())
    }

    /// Number of valid lines currently resident.
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Calls `f` for every valid line (for assertions and debugging).
    pub fn for_each_valid(&self, mut f: impl FnMut(BlockAddr, &M)) {
        for l in self.lines.iter().filter(|l| l.valid) {
            f(l.addr, &l.meta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache<u32> {
        SetAssocCache::new(SetAssocConfig { sets: 2, ways: 2 })
    }

    // Addresses mapping to set 0 of a 2-set cache: even line numbers.
    const A: BlockAddr = BlockAddr(0);
    const B: BlockAddr = BlockAddr(2);
    const C: BlockAddr = BlockAddr(4);

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(c.lookup(A).is_none());
        assert!(c.fill(A, false, 7).is_none());
        let (meta, first) = c.lookup(A).expect("hit");
        assert_eq!(*meta, 7);
        assert!(!first);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        c.fill(A, false, 0);
        c.fill(B, false, 1);
        c.lookup(A); // A is now MRU
        let victim = c.fill(C, false, 2).expect("set overflows");
        assert_eq!(victim.addr, B);
        assert!(c.contains(A) && c.contains(C) && !c.contains(B));
    }

    #[test]
    fn prefetch_bit_lifecycle() {
        let mut c = tiny();
        c.fill(A, true, 0);
        assert_eq!(c.prefetch_bit(A), Some(true));
        let (_, first) = c.lookup(A).unwrap();
        assert!(first, "first touch of prefetched line");
        assert_eq!(c.prefetch_bit(A), Some(false));
        let (_, again) = c.lookup(A).unwrap();
        assert!(!again);
    }

    #[test]
    fn unused_prefetch_detected_at_eviction() {
        let mut c = tiny();
        c.fill(A, true, 0);
        c.fill(B, false, 1);
        c.lookup(B);
        let victim = c.fill(C, false, 2).unwrap();
        assert_eq!(victim.addr, A);
        assert!(victim.was_unused_prefetch);
        assert_eq!(c.stats().unused_prefetch_evictions, 1);
    }

    #[test]
    fn refill_updates_in_place() {
        let mut c = tiny();
        c.fill(A, false, 1);
        assert!(c.fill(A, false, 9).is_none());
        assert_eq!(*c.peek(A).unwrap(), 9);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn invalidate_frees_slot() {
        let mut c = tiny();
        c.fill(A, false, 1);
        c.fill(B, false, 2);
        assert_eq!(c.invalidate(A), Some(1));
        assert!(!c.contains(A));
        // Refill should reuse the invalid slot without evicting B.
        assert!(c.fill(C, false, 3).is_none());
        assert!(c.contains(B));
    }

    #[test]
    fn capacity_constructor() {
        let cfg = SetAssocConfig::with_capacity(64 * 1024, 4);
        assert_eq!(cfg.sets, 256);
        assert_eq!(cfg.capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut c = tiny();
        c.fill(A, true, 0);
        assert!(c.peek(A).is_some());
        assert_eq!(c.prefetch_bit(A), Some(true), "peek must not clear the bit");
    }
}
