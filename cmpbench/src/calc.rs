//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! grid-aggregate throughput, scheduling imbalance and span self time.
//! Everything here is pure so the unit tests can pin it.

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// [`median`], or 0 when nothing was measured.
pub fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// A tail percentile as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the one asked for).
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The `want`-th percentile of `xs` by nearest rank, lowered to the
/// highest percentile that still has [`TAIL_BEYOND`] samples beyond it
/// when there are too few samples for `want`. `None` when even the
/// lowest rank lacks that many samples beyond it.
pub fn tail(xs: &[f64], want: f64) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank k (1-based) has n - k samples beyond it.
    let k_want = ((want / 100.0) * n as f64).ceil().max(1.0) as usize;
    let k_max = n - TAIL_BEYOND;
    let (k, pct) = if k_want <= k_max {
        (k_want, want)
    } else {
        (k_max, 100.0 * k_max as f64 / n as f64)
    };
    Some(Tail {
        pct,
        value: v[k - 1],
        samples: n,
    })
}

/// Grid-aggregate simulation rate in millions of instructions per host
/// second: `Σ retired ÷ Σ run seconds` over every cell, so that long
/// and short cells weigh by the work they do.
pub fn grid_mips(cells: &[(u64, f64)]) -> f64 {
    let retired: u64 = cells.iter().map(|c| c.0).sum();
    let secs: f64 = cells.iter().map(|c| c.1).sum();
    if secs <= 0.0 {
        0.0
    } else {
        retired as f64 / secs / 1e6
    }
}

/// Scheduling imbalance of a parallel pass: `wall × threads ÷ Σ cell
/// time`. 1.0 means every worker was busy for the whole pass.
pub fn imbalance(wall_s: f64, threads: usize, cell_secs: &[f64]) -> f64 {
    let busy: f64 = cell_secs.iter().sum();
    if busy <= 0.0 {
        0.0
    } else {
        wall_s * threads as f64 / busy
    }
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Cell or request the span belongs to.
    pub id: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// SplitMix64: the benchmark's seeded generator for choices it makes
/// itself (dispatch order, sampled cells, warm-sweep seeds).
#[derive(Debug, Clone)]
pub struct Mix(pub u64);

impl Mix {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn grid_mips_weighs_cells_by_work() {
        // 10M instructions in 10 s plus 1M in 0.1 s is 11M / 10.1 s: the
        // long cell dominates, unlike the mean of per-cell rates (5.5).
        let m = grid_mips(&[(10_000_000, 10.0), (1_000_000, 0.1)]);
        assert!((m - 11.0 / 10.1).abs() < 1e-12, "{m}");
        assert_eq!(grid_mips(&[]), 0.0);
    }

    #[test]
    fn tail_takes_the_asked_percentile_when_samples_allow() {
        let xs: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&xs, 95.0).expect("enough samples");
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 380.0); // rank 380 of 400, 20 beyond
        assert_eq!(t.samples, 400);
    }

    #[test]
    fn tail_lowers_to_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p95 would leave 5 beyond, so the rule reports
        // rank 90 (p90), which leaves exactly 10 beyond.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs, 95.0).expect("enough samples");
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        // 200 samples is the smallest count at which p95 stands.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs, 95.0).expect("enough").pct, 95.0);
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(tail(&xs, 95.0).expect("enough").pct < 95.0);
        // Ten samples leave no rank with ten beyond it.
        assert!(tail(&[1.0; 10], 95.0).is_none());
        assert_eq!(tail(&[1.0; 11], 95.0).expect("one rank").samples, 11);
    }

    #[test]
    fn imbalance_is_wall_times_threads_over_busy_time() {
        // Two workers, 4 s of cells, 2 s wall: perfectly balanced.
        assert!((imbalance(2.0, 2, &[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One 3 s straggler holds the pass while the other worker did 1 s.
        assert!((imbalance(3.0, 2, &[3.0, 1.0]) - 1.5).abs() < 1e-12);
        assert_eq!(imbalance(1.0, 2, &[]), 0.0);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("engine.new", 10, 20, Some(0)),
            span("engine.run", 20, 90, Some(0)),
            // A grandchild: covered by `engine.run`, not by `cell` again.
            span("replay", 30, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 50, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = vec![
            span("sweep", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps `a` by 10
            span("c", 190, 260, Some(0)), // runs past the parent's end
        ];
        // Covered: [110,170) = 60 plus [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn mix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut m = Mix(7);
                move |_| m.next()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut m = Mix(7);
                move |_| m.next()
            })
            .collect();
        assert_eq!(a, b);
        let mut v: Vec<u32> = (0..10).collect();
        Mix(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
