//! Base-delta-immediate (BDI) compression for 64-byte cache lines.
//!
//! BDI (Pekhimenko et al., *Base-Delta-Immediate Compression: Practical
//! Data Compression for On-Chip Caches*, PACT 2012) observes that the
//! values in a cache line often cluster in a narrow range: the line can
//! then be stored as one full-width *base* plus a short *delta* per
//! element, with a second implicit base of zero (the "immediate" part)
//! covering small values and zeros in the same line.
//!
//! This implementation evaluates the configurations below in order of
//! encoded size and keeps the first that fits. The line is loaded once
//! per element width into `u64` lanes, and each configuration is one
//! branch-free min/max pass over its lanes (the word-parallel style of
//! Zhao et al.'s SIMD codec work), so sizing a line reads no element
//! twice from the byte array. Element width `k` ∈
//! {8, 4, 2} bytes, delta width `d` < `k`; encoded size is
//! `k + (64/k)·d` bytes (the per-element immediate mask lives in the tag
//! metadata, as in the paper, and is not charged against the data space):
//!
//! | class    | size (B) | segments |
//! |----------|----------|----------|
//! | zeros    | 1        | 1        |
//! | (2, 0)   | 2        | 1        |
//! | (4, 0)   | 4        | 1        |
//! | (8, 0)   | 8        | 1        |
//! | (8, 1)   | 16       | 2        |
//! | (4, 1)   | 20       | 3        |
//! | (8, 2)   | 24       | 3        |
//! | (2, 1)   | 34       | 5        |
//! | (4, 2)   | 36       | 5        |
//! | (8, 4)   | 40       | 5        |
//! | raw      | 64       | 8        |
//!
//! The `d = 0` rows are the degenerate "every element equals the base or
//! zero" classes; `(8, 0)` subsumes the paper's repeated-value class.
//!
//! Two deliberate choices versus the PACT'12 hardware description:
//!
//! 1. **The base is the minimum non-immediate element**, not the first
//!    element, and deltas are unsigned `d`-byte offsets from it. A
//!    configuration fits iff `max − min < 2^(8d)` over the non-immediate
//!    elements — the widest usable window, and it makes compressed size
//!    *monotone under zero-filling*: zeroing an element only ever removes
//!    a constraint (the element moves to the zero base), so no feasible
//!    configuration becomes infeasible. First-element basing lacks this
//!    property (zeroing the base element can re-anchor the deltas and
//!    grow the encoding), which would break the cross-codec conformance
//!    kit's zero-fill monotonicity law.
//! 2. An element is immediate iff its value is below `2^(8d)` (an
//!    unsigned `d`-byte offset from the zero base), mirroring choice 1.

use crate::codec::{Codec, CompressedRepr};
use crate::segment::{bits_to_segments, LINE_BYTES, MAX_SEGMENTS};

/// `(element_bytes, delta_bytes)` configurations in increasing encoded
/// size: `k + (64/k)·d` bytes.
const CONFIGS: [(u8, u8); 9] =
    [(2, 0), (4, 0), (8, 0), (8, 1), (4, 1), (8, 2), (2, 1), (4, 2), (8, 4)];

/// Encoded size in bytes of configuration `(k, d)`.
fn config_bytes(k: u8, d: u8) -> u32 {
    u32::from(k) + (LINE_BYTES as u32 / u32::from(k)) * u32::from(d)
}

/// A line's elements at each BDI element width, little-endian and
/// zero-extended into `u64` lanes. Loading the line once per width lets
/// every configuration scan contiguous lanes instead of re-reading bytes.
struct Lanes {
    k2: [u64; LINE_BYTES / 2],
    k4: [u64; LINE_BYTES / 4],
    k8: [u64; LINE_BYTES / 8],
}

impl Lanes {
    fn new(line: &[u8; LINE_BYTES]) -> Self {
        Lanes {
            k2: load::<2, { LINE_BYTES / 2 }>(line),
            k4: load::<4, { LINE_BYTES / 4 }>(line),
            k8: load::<8, { LINE_BYTES / 8 }>(line),
        }
    }

    /// The lanes at element width `k` (8, 4 or 2 bytes).
    fn of(&self, k: u8) -> &[u64] {
        match k {
            2 => &self.k2,
            4 => &self.k4,
            _ => &self.k8,
        }
    }
}

/// The line split into `N` little-endian `K`-byte elements.
fn load<const K: usize, const N: usize>(line: &[u8; LINE_BYTES]) -> [u64; N] {
    let mut lanes = [0u64; N];
    for (lane, bytes) in lanes.iter_mut().zip(line.chunks_exact(K)) {
        let mut v = [0u8; 8];
        v[..K].copy_from_slice(bytes);
        *lane = u64::from_le_bytes(v);
    }
    lanes
}

/// Whether delta width `d` can encode `lanes`, and if so the base
/// (minimum non-immediate element; 0 if all elements are immediate).
///
/// Branch-free over the lanes: an element is immediate (an unsigned
/// `d`-byte offset from the zero base) iff it is below `2^(8d)`, and a
/// non-immediate element enters the min/max through an all-ones mask.
/// Every non-immediate element is at least 1, so `hi == 0` means there
/// is none. `d ≤ 4`, so the window fits a `u64`.
fn window_fit(lanes: &[u64], d: u8) -> Option<u64> {
    let window = 1u64 << (8 * u32::from(d));
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for &v in lanes {
        let keep = u64::from(v >= window).wrapping_neg();
        lo = lo.min(v | !keep);
        hi = hi.max(v & keep);
    }
    if hi == 0 {
        Some(0)
    } else if hi - lo < window {
        Some(lo)
    } else {
        None
    }
}

/// The first configuration in [`CONFIGS`] order that fits: `None` is the
/// raw fallback, otherwise `Some((k, d, base))`.
fn best_config(lanes: &Lanes) -> Option<(u8, u8, u64)> {
    CONFIGS
        .iter()
        .find_map(|&(k, d)| window_fit(lanes.of(k), d).map(|base| (k, d, base)))
}

/// A BDI-compressed line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BdiLine {
    /// All 64 bytes zero: encoded in a single tag-borne byte.
    Zeros,
    /// Base plus per-element unsigned deltas; elements flagged in
    /// `immediate` take their delta from the implicit zero base instead.
    BaseDelta {
        /// Element width in bytes (8, 4, or 2).
        elem_bytes: u8,
        /// Delta width in bytes (< `elem_bytes`; 0 means every element
        /// equals the base or zero exactly).
        delta_bytes: u8,
        /// The stored full-width base (minimum non-immediate element).
        base: u64,
        /// Bit `i` set: element `i`'s delta is an offset from zero.
        immediate: u32,
        /// Per-element unsigned deltas (`64 / elem_bytes` entries).
        deltas: Vec<u64>,
    },
    /// No configuration fit: stored raw.
    Uncompressed(Box<[u8; LINE_BYTES]>),
}

impl BdiLine {
    /// Encoded size in bytes (before segment rounding).
    pub fn size_bytes(&self) -> u32 {
        match self {
            BdiLine::Zeros => 1,
            BdiLine::BaseDelta { elem_bytes, delta_bytes, .. } => {
                config_bytes(*elem_bytes, *delta_bytes)
            }
            BdiLine::Uncompressed(_) => LINE_BYTES as u32,
        }
    }
}

impl CompressedRepr for BdiLine {
    fn segments(&self) -> u8 {
        bits_to_segments(self.size_bytes() * 8)
    }

    fn decompress(&self) -> [u8; LINE_BYTES] {
        match self {
            BdiLine::Zeros => [0u8; LINE_BYTES],
            BdiLine::BaseDelta { elem_bytes, base, immediate, deltas, .. } => {
                let mut out = [0u8; LINE_BYTES];
                // Monomorphize on the element width so each variant's
                // shifts and masks are compile-time constants.
                match elem_bytes {
                    2 => expand_elements::<2>(*base, *immediate, deltas, &mut out),
                    4 => expand_elements::<4>(*base, *immediate, deltas, &mut out),
                    _ => expand_elements::<8>(*base, *immediate, deltas, &mut out),
                }
                out
            }
            BdiLine::Uncompressed(raw) => **raw,
        }
    }

    fn decompress_reference(&self) -> [u8; LINE_BYTES] {
        match self {
            BdiLine::Zeros => [0u8; LINE_BYTES],
            BdiLine::BaseDelta { elem_bytes, base, immediate, deltas, .. } => {
                // The scalar oracle: per-element base select via branch,
                // per-element narrow byte copy.
                let k = usize::from(*elem_bytes);
                let mut out = [0u8; LINE_BYTES];
                for (i, delta) in deltas.iter().enumerate() {
                    let from = if immediate & (1 << i) != 0 { 0 } else { *base };
                    let v = from.wrapping_add(*delta);
                    out[i * k..i * k + k].copy_from_slice(&v.to_le_bytes()[..k]);
                }
                out
            }
            BdiLine::Uncompressed(raw) => **raw,
        }
    }
}

/// SWAR reconstruction of a base-delta payload, monomorphized per element
/// width `K`: for each element the stored base is selected branchlessly
/// against the implicit zero base (an all-ones/all-zeros mask derived from
/// the immediate bit), the unsigned delta is added at full width, and
/// `8 / K` reconstructed elements are packed into each output `u64` so the
/// line goes out as eight 64-bit stores regardless of element width.
fn expand_elements<const K: usize>(
    base: u64,
    immediate: u32,
    deltas: &[u64],
    out: &mut [u8; LINE_BYTES],
) {
    let per_store = 8 / K;
    let elem_mask: u64 = if K == 8 { u64::MAX } else { (1u64 << (8 * K)) - 1 };
    for (g, chunk) in out.chunks_exact_mut(8).enumerate() {
        let mut packed = 0u64;
        for e in 0..per_store {
            let i = g * per_store + e;
            // All-zeros when bit i flags an immediate (zero-base) element,
            // all-ones when the element reconstructs from the stored base.
            let keep = u64::from(immediate >> i & 1).wrapping_sub(1);
            let v = (base & keep).wrapping_add(deltas[i]) & elem_mask;
            packed |= v << (8 * K * e);
        }
        chunk.copy_from_slice(&packed.to_le_bytes());
    }
}

/// The base-delta-immediate codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bdi;

impl Codec for Bdi {
    type Compressed = BdiLine;

    const NAME: &'static str = "bdi";

    fn compress(line: &[u8; LINE_BYTES]) -> BdiLine {
        if line.iter().all(|&b| b == 0) {
            return BdiLine::Zeros;
        }
        let lanes = Lanes::new(line);
        let Some((k, d, base)) = best_config(&lanes) else {
            return BdiLine::Uncompressed(Box::new(*line));
        };
        let window = 1u64 << (8 * u32::from(d));
        let mut immediate = 0u32;
        let deltas = lanes
            .of(k)
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if v < window {
                    immediate |= 1 << i;
                    v
                } else {
                    v - base
                }
            })
            .collect();
        BdiLine::BaseDelta { elem_bytes: k, delta_bytes: d, base, immediate, deltas }
    }

    fn segments(line: &[u8; LINE_BYTES]) -> u8 {
        // An all-zero line fits (2, 0) with every element immediate: the
        // same single segment as the `Zeros` class, so it needs no
        // separate test here.
        match best_config(&Lanes::new(line)) {
            Some((k, d, _)) => bits_to_segments(config_bytes(k, d) * 8),
            None => MAX_SEGMENTS,
        }
    }

    fn decompression_latency(_base: u64) -> u64 {
        // One wide vector add over the deltas (PACT'12 §4: decompression
        // in a single cycle).
        1
    }

    fn compression_latency(_base: u64) -> u64 {
        // All configurations are evaluated in parallel in hardware; two
        // cycles to pick the winner and pack.
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_of_u64s(vals: [u64; 8]) -> [u8; LINE_BYTES] {
        let mut out = [0u8; LINE_BYTES];
        for (i, v) in vals.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn roundtrip(line: &[u8; LINE_BYTES]) -> u8 {
        let c = Bdi::compress(line);
        assert_eq!(c.decompress(), *line, "lossless");
        assert_eq!(c.segments(), Bdi::segments(line), "fast path agrees");
        c.segments()
    }

    #[test]
    fn zero_line_is_one_segment() {
        assert_eq!(roundtrip(&[0u8; LINE_BYTES]), 1);
        assert_eq!(Bdi::compress(&[0u8; LINE_BYTES]), BdiLine::Zeros);
    }

    #[test]
    fn repeated_value_is_one_segment() {
        // (8, 0): every element equals the base.
        let line = line_of_u64s([0xDEAD_BEEF_1234_5678; 8]);
        assert_eq!(roundtrip(&line), 1);
    }

    #[test]
    fn repeated_value_with_zeros_stays_one_segment() {
        // (8, 0) with the zero base covering the holes.
        let mut vals = [0xDEAD_BEEF_1234_5678u64; 8];
        vals[2] = 0;
        vals[5] = 0;
        assert_eq!(roundtrip(&line_of_u64s(vals)), 1);
    }

    #[test]
    fn clustered_u64s_take_two_segments() {
        // (8, 1): heap pointers within a 256-byte window.
        let base = 0x7FFF_AB00_0000_1000u64;
        let vals = [base, base + 8, base + 16, base + 255, base + 32, base, base + 64, base + 128];
        assert_eq!(roundtrip(&line_of_u64s(vals)), 2);
    }

    #[test]
    fn small_ints_compress_via_narrow_elements() {
        // 16 u32 elements, all small: (4, 1) at worst.
        let mut line = [0u8; LINE_BYTES];
        for (i, chunk) in line.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&(40 + i as u32).to_le_bytes());
        }
        assert!(roundtrip(&line) <= 3);
    }

    #[test]
    fn high_entropy_is_uncompressed() {
        let mut line = [0u8; LINE_BYTES];
        let mut state = 0x9e3779b97f4a7c15u64;
        for b in line.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (state >> 33) as u8 | 0x80;
        }
        assert_eq!(roundtrip(&line), MAX_SEGMENTS);
        assert!(matches!(Bdi::compress(&line), BdiLine::Uncompressed(_)));
    }

    #[test]
    fn zero_filling_never_grows_the_encoding() {
        // The documented monotonicity law, on a line engineered to
        // re-anchor its base when elements vanish.
        let base = 0x10_0000u64;
        let mut vals = [base, base + 200, base + 100, 3, base + 50, 0, base + 255, base + 7];
        let mut prev = Bdi::segments(&line_of_u64s(vals));
        for i in 0..8 {
            vals[i] = 0;
            let now = roundtrip(&line_of_u64s(vals));
            assert!(now <= prev, "zeroing element {i} grew {prev} -> {now}");
            prev = now;
        }
        assert_eq!(prev, 1);
    }

    #[test]
    fn config_order_is_by_size() {
        let mut sizes: Vec<u32> = CONFIGS.iter().map(|&(k, d)| config_bytes(k, d)).collect();
        let sorted = { let mut s = sizes.clone(); s.sort_unstable(); s };
        assert_eq!(sizes, sorted);
        sizes.dedup();
        assert_eq!(sizes.len(), CONFIGS.len(), "no duplicate sizes");
    }
}
