//! Small deterministic RNG for trace generation.
//!
//! A self-contained xorshift64* keeps the generators fast and exactly
//! reproducible across platforms (the simulator's results must be
//! deterministic for a given seed, mirroring the paper's seeded
//! space-variability methodology).

/// Deterministic xorshift64* generator.
///
/// # Examples
///
/// ```
/// use cmpsim_trace::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from `seed` (any value; zero is remapped).
    pub fn new(seed: u64) -> Self {
        // SplitMix64 scramble so close seeds diverge immediately.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng { state: if z == 0 { 0x4d595df4d0f33173 } else { z } }
    }

    /// Derives an independent stream for a sub-component.
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng::new(self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // the bounds used here.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Picks a random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Geometric gap distribution: the number of failures before a success
/// with probability `p`, i.e. instructions until the next event. `p` is
/// fixed per stream, so `ln(1 - p)` is computed once here rather than
/// on every draw.
///
/// # Examples
///
/// ```
/// use cmpsim_trace::{Geometric, Rng};
/// let gap = Geometric::new(0.25);
/// let mut rng = Rng::new(1);
/// let _instructions_until_next_event: u64 = gap.sample(&mut rng);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Geometric {
    p: f64,
    /// `ln(1 - p)`.
    ln_q: f64,
}

impl Geometric {
    /// The distribution with success probability `p`.
    pub fn new(p: f64) -> Self {
        Geometric { p, ln_q: (1.0 - p).ln() }
    }

    /// One draw from `rng`. `p >= 1` always yields 0 and `p <= 0` a
    /// practically infinite gap; neither consumes randomness.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        if self.p <= 0.0 {
            return u64::MAX / 2;
        }
        let u = rng.f64().max(f64::MIN_POSITIVE);
        // `as` truncates toward zero and saturates (NaN and negatives to
        // 0, +inf to `u64::MAX`), so it gives the same integer as
        // `floor()` first for every `f64`; without SSE4.1, `floor` is an
        // out-of-line call.
        (u.ln() / self.ln_q) as u64
    }
}

/// Stateless 64-bit hash used to derive per-address properties (line
/// classes, contents) without storing per-line state.
pub(crate) fn hash64(x: u64, seed: u64) -> u64 {
    let mut z = x ^ seed.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^ (z >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(4);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn geometric_mean_approx() {
        let mut r = Rng::new(5);
        let p = 0.25;
        let g = Geometric::new(p);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| g.sample(&mut r)).sum();
        let mean = sum as f64 / n as f64;
        let expected = (1.0 - p) / p; // 3.0
        assert!((mean - expected).abs() < 0.1, "mean {mean} vs {expected}");
    }

    #[test]
    fn truncating_cast_equals_floor_cast() {
        // `Geometric::sample` relies on `x as u64 == x.floor() as u64`.
        let mut edges = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            (52f64).exp2(),
            (63f64).exp2(),
            (64f64).exp2(),
            u64::MAX as f64,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -1.0,
            -0.5,
            -1e300,
        ];
        for k in 0..64u32 {
            let k = f64::from(k);
            edges.extend([k, f64::from_bits(k.to_bits() + 1), -k]);
            if k > 0.0 {
                edges.push(f64::from_bits(k.to_bits() - 1));
            }
        }
        for x in edges {
            assert_eq!(x.floor() as u64, x as u64, "x = {x:e} ({:#x})", x.to_bits());
        }
        let mut r = Rng::new(8);
        for _ in 0..10_000 {
            let x = (r.f64().max(f64::MIN_POSITIVE)).ln() / (0.75f64).ln();
            assert_eq!(x.floor() as u64, x as u64);
        }
    }

    #[test]
    fn geometric_degenerate_p_consumes_no_randomness() {
        let mut r = Rng::new(5);
        let mut untouched = r.clone();
        assert_eq!(Geometric::new(1.0).sample(&mut r), 0);
        assert_eq!(Geometric::new(0.0).sample(&mut r), u64::MAX / 2);
        assert_eq!(r.next_u64(), untouched.next_u64());
    }

    #[test]
    fn chance_rate() {
        let mut r = Rng::new(6);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn hash_spreads() {
        let a = hash64(1, 9);
        let b = hash64(2, 9);
        let c = hash64(1, 10);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn forked_streams_differ() {
        let mut root = Rng::new(11);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
