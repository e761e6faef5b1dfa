//! Equivalence of BDI's word-parallel configuration search against the
//! element-wise scalar search it replaced: for every line, `segments`
//! and the `(k, d, base)` that `compress` picks must equal what the
//! reference below picks.
//!
//! The fast path loads the line once per element width into `u64` lanes
//! and tests each configuration with a branch-free min/max over masked
//! lanes, so the adversarial inputs target its failure modes: window
//! edges (`max − min` at `2^(8d) − 1` and `2^(8d)`), the immediate
//! cut-off (elements at `2^(8d) − 1` and `2^(8d)`), lanes holding
//! `u64::MAX` (which the min mask also produces), and the "no
//! non-immediate element" case that the mask encodes as `max == 0`.

use cmpsim_fpc::{bits_to_segments, Bdi, BdiLine, Codec, LINE_BYTES, MAX_SEGMENTS};
use cmpsim_harness::{
    gen,
    prop::{check, check_with, Config},
    prop_assert_eq,
};

/// `(element_bytes, delta_bytes)` in the codec's evaluation order.
const CONFIGS: [(u8, u8); 9] =
    [(2, 0), (4, 0), (8, 0), (8, 1), (4, 1), (8, 2), (2, 1), (4, 2), (8, 4)];

/// Reads element `i` of the line at `k`-byte granularity (little-endian,
/// zero-extended to u64).
fn element(line: &[u8; LINE_BYTES], k: u8, i: usize) -> u64 {
    let k = usize::from(k);
    let mut v = [0u8; 8];
    v[..k].copy_from_slice(&line[i * k..i * k + k]);
    u64::from_le_bytes(v)
}

/// The scalar reference: whether configuration `(k, d)` can encode the
/// line, and if so the base (minimum non-immediate element; 0 if all
/// elements are immediate). Widened to `u128` so no window overflows.
fn config_fits(line: &[u8; LINE_BYTES], k: u8, d: u8) -> Option<u64> {
    let window = 1u128 << (8 * u32::from(d));
    let n = LINE_BYTES / usize::from(k);
    let mut min: Option<u64> = None;
    let mut max: Option<u64> = None;
    for i in 0..n {
        let v = element(line, k, i);
        if u128::from(v) < window {
            continue; // immediate: delta from the zero base
        }
        min = Some(min.map_or(v, |m| m.min(v)));
        max = Some(max.map_or(v, |m| m.max(v)));
    }
    match (min, max) {
        (None, None) => Some(0),
        (Some(lo), Some(hi)) if u128::from(hi - lo) < window => Some(lo),
        _ => None,
    }
}

/// The reference winner: `None` is the raw fallback.
fn best_config(line: &[u8; LINE_BYTES]) -> Option<(u8, u8, u64)> {
    CONFIGS
        .iter()
        .find_map(|&(k, d)| config_fits(line, k, d).map(|base| (k, d, base)))
}

/// Segments of the reference encoding.
fn reference_segments(line: &[u8; LINE_BYTES]) -> u8 {
    if line.iter().all(|&b| b == 0) {
        return 1;
    }
    match best_config(line) {
        Some((k, d, _)) => {
            bits_to_segments((u32::from(k) + (LINE_BYTES as u32 / u32::from(k)) * u32::from(d)) * 8)
        }
        None => MAX_SEGMENTS,
    }
}

fn assert_equivalent(line: &[u8; LINE_BYTES]) -> Result<(), String> {
    prop_assert_eq!(Bdi::segments(line), reference_segments(line), "segments");
    let chosen = match Bdi::compress(line) {
        BdiLine::Zeros => {
            prop_assert_eq!(*line, [0u8; LINE_BYTES], "Zeros on a nonzero line");
            return Ok(());
        }
        BdiLine::BaseDelta { elem_bytes, delta_bytes, base, .. } => {
            Some((elem_bytes, delta_bytes, base))
        }
        BdiLine::Uncompressed(_) => None,
    };
    prop_assert_eq!(chosen, best_config(line), "chosen (k, d, base)");
    Ok(())
}

fn line_of<const K: usize>(vals: &[u64]) -> [u8; LINE_BYTES] {
    assert_eq!(vals.len(), LINE_BYTES / K);
    let mut line = [0u8; LINE_BYTES];
    for (chunk, v) in line.chunks_exact_mut(K).zip(vals) {
        chunk.copy_from_slice(&v.to_le_bytes()[..K]);
    }
    line
}

/// `vals` laid out as `k`-byte elements.
fn line_at(k: u8, vals: &[u64]) -> [u8; LINE_BYTES] {
    match k {
        2 => line_of::<2>(vals),
        4 => line_of::<4>(vals),
        _ => line_of::<8>(vals),
    }
}

fn lane_max(k: u8) -> u64 {
    if k == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * u32::from(k))) - 1
    }
}

#[test]
fn zero_line_and_every_table_row_agree() {
    let zero = [0u8; LINE_BYTES];
    assert_equivalent(&zero).unwrap();
    assert_eq!(Bdi::compress(&zero), BdiLine::Zeros);
    // One line per row of the codec's class table, each landing in the
    // class it names.
    let row = |k: u8, base: u64, spread: u64| {
        let n = LINE_BYTES / usize::from(k);
        let vals: Vec<u64> = (0..n as u64).map(|i| base + i * spread / (n as u64 - 1)).collect();
        line_at(k, &vals)
    };
    let rows: [((u8, u8), [u8; LINE_BYTES]); 9] = [
        ((2, 0), line_of::<2>(&[0x8000; 32])),
        ((4, 0), line_of::<4>(&[0x8000_0001; 16])),
        ((8, 0), line_of::<8>(&[0x1234_5678_9ABC_DEF0; 8])),
        ((8, 1), row(8, 0x7FFF_AB00_0000_1000, 255)),
        ((4, 1), row(4, 0x4000_0000, 255)),
        ((8, 2), row(8, 0x7FFF_AB00_0000_1000, 0xFFFF)),
        ((2, 1), row(2, 0x8000, 255)),
        ((4, 2), row(4, 0x4000_0000, 0xFFFF)),
        ((8, 4), row(8, 0x7FFF_AB00_0000_1000, 0xFFFF_FFFF)),
    ];
    for ((k, d), line) in rows {
        assert_equivalent(&line).unwrap();
        match Bdi::compress(&line) {
            BdiLine::BaseDelta { elem_bytes, delta_bytes, .. } => {
                assert_eq!((elem_bytes, delta_bytes), (k, d), "row ({k}, {d})");
            }
            other => panic!("row ({k}, {d}) compressed to {other:?}"),
        }
    }
    let mut raw = [0u8; LINE_BYTES];
    for (i, b) in raw.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(0x9D) | 0x80;
    }
    assert_equivalent(&raw).unwrap();
    assert!(matches!(Bdi::compress(&raw), BdiLine::Uncompressed(_)));
}

/// Every `(k, d)` window edge and immediate cut-off, at several bases
/// and with the edge pair placed in every lane position.
#[test]
fn window_and_immediate_boundaries_agree() {
    let mut checked = 0;
    for &(k, d) in &CONFIGS {
        let n = LINE_BYTES / usize::from(k);
        let window = 1u128 << (8 * u32::from(d));
        let top = u128::from(lane_max(k));
        // Spreads of max − min straddling the window edge.
        for spread in [window.saturating_sub(1), window, window + 1] {
            for base in [window, window + 1, top / 2, top.saturating_sub(spread)] {
                let (Ok(lo), Ok(hi)) = (u64::try_from(base), u64::try_from(base + spread)) else {
                    continue;
                };
                if u128::from(hi) > top {
                    continue;
                }
                for pos in 0..n {
                    let mut vals = vec![lo; n];
                    vals[pos] = hi;
                    vals[(pos + 1) % n] = lo;
                    assert_equivalent(&line_at(k, &vals)).unwrap();
                    checked += 1;
                }
            }
        }
        // Elements at the immediate cut-off, alone and beside a far value.
        for cut in [window.saturating_sub(1), window] {
            let Ok(cut) = u64::try_from(cut) else { continue };
            if u128::from(cut) > top {
                continue;
            }
            for other in [0, cut, lane_max(k)] {
                for pos in 0..n {
                    let mut vals = vec![other; n];
                    vals[pos] = cut;
                    assert_equivalent(&line_at(k, &vals)).unwrap();
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "boundary sweep too small: {checked}");
}

/// Lanes holding `u64::MAX` — the value the fast path's min mask also
/// produces for immediate lanes — alone, with zeros and with near values.
#[test]
fn all_ones_lanes_agree() {
    for mask in 0u32..256 {
        for filler in [0, 1, 255, 256, u64::MAX - 1, u64::MAX - 255, u64::MAX - 256] {
            let vals: Vec<u64> =
                (0..8).map(|i| if mask >> i & 1 != 0 { u64::MAX } else { filler }).collect();
            assert_equivalent(&line_of::<8>(&vals)).unwrap();
        }
    }
    assert_equivalent(&[0xFFu8; LINE_BYTES]).unwrap();
}

/// Structured random lines: one element width, a random base and delta
/// spread, and per element a choice of zero, small immediate, base plus
/// a bounded delta, or a fully random value — ≥ 100k of them, so every
/// configuration wins and loses many times.
#[test]
fn random_structured_lines_agree() {
    let element = gen::pair(gen::u8s(0..=5), gen::u64s(..));
    let shape = gen::quad(
        gen::select(vec![2u8, 4, 8]),
        gen::u64s(..),
        gen::select(vec![0u32, 8, 16, 32, 64]),
        gen::vec_exact(element, LINE_BYTES / 2),
    )
    .map(|(k, base, spread_bits, picks)| {
        let n = LINE_BYTES / usize::from(k);
        let spread = if spread_bits == 64 { u64::MAX } else { (1u64 << spread_bits) - 1 };
        let base = base & lane_max(k);
        let vals: Vec<u64> = picks[..n]
            .iter()
            .map(|&(pick, r)| match pick {
                0 | 1 => 0,
                2 => r & 0xFF,
                3 | 4 => base.wrapping_add(r & spread) & lane_max(k),
                _ => r & lane_max(k),
            })
            .collect();
        line_at(k, &vals).to_vec()
    });
    let cfg = Config::from_env();
    let cfg = Config { cases: cfg.cases.max(100_000), ..cfg };
    check_with(cfg, "bdi_random_structured_lines_agree", &shape, |bytes| {
        let line: [u8; LINE_BYTES] = bytes.as_slice().try_into().expect("64 bytes");
        assert_equivalent(&line)
    });
}

/// Fully random lines (raw bytes).
#[test]
fn random_lines_agree() {
    check("bdi_random_lines_agree", &gen::vec_exact(gen::u8s(..), LINE_BYTES), |bytes| {
        let line: [u8; LINE_BYTES] = bytes.as_slice().try_into().expect("64 bytes");
        assert_equivalent(&line)
    });
}

/// Lines from every workload's value profile: the data the simulator
/// actually sizes.
#[test]
fn workload_value_profiles_agree() {
    for spec in cmpsim_trace::all_workloads() {
        let values = spec.value_profile(7);
        for line_number in 0..2_000u64 {
            let line = values.line_bytes(line_number.wrapping_mul(0x9E37_79B9));
            assert_equivalent(&line)
                .unwrap_or_else(|e| panic!("{} line {line_number}: {e}", spec.name));
        }
    }
}
