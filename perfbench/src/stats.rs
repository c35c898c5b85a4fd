//! The benchmark's own arithmetic: percentiles, the sample count beyond a
//! percentile, ratios with their base, and a seeded generator. Kept apart
//! from the workloads so the unit tests below can check it on synthetic
//! samples.

/// Percentiles of one run's per-operation latencies.
///
/// Failed operations are recorded as `f64::INFINITY`: a failure counts as
/// missing every latency limit, so it sorts above every success.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples (attempted operations).
    pub count: usize,
    pub p50: f64,
    pub p90: f64,
    /// Samples ranked strictly above the p90 sample.
    pub beyond_p90: usize,
}

/// Nearest-rank percentile of already sorted samples: the smallest sample
/// with at least `q` of the samples at or below it.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q)]
}

/// Zero-based index of the nearest-rank `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples rank above the `q` percentile.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// Sorts the samples and summarizes them.
#[must_use]
pub fn summarize(mut samples: Vec<f64>) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        count: samples.len(),
        p50: percentile(&samples, 0.50),
        p90: percentile(&samples, 0.90),
        beyond_p90: beyond(samples.len(), 0.90),
    }
}

/// The median of unsorted values (mean of the middle two for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A ratio that keeps its base, so a reader can see what it divides by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    #[must_use]
    pub fn new(num: impl Into<f64>, den: impl Into<f64>) -> Ratio {
        Ratio { num: num.into(), den: den.into() }
    }

    /// `num / den`, or 0 when the base is empty (nothing of that kind
    /// happened, as for a layer a workload leaves idle).
    #[must_use]
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

/// Mean of a sum over a count, 0 for an empty count.
#[must_use]
pub fn per(sum: f64, count: usize) -> f64 {
    Ratio::new(sum, count as f64).value()
}

/// SplitMix64: a small, seedable generator. The benchmark derives every
/// input from `--seed` through it, so one seed always gives one input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Cumulative weights of a Zipf distribution with exponent 1 over `n`
/// ranks, for [`pick_zipf`].
#[must_use]
pub fn zipf_table(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|k| {
            acc += 1.0 / k as f64;
            acc
        })
        .collect()
}

/// Draws a rank from a [`zipf_table`].
pub fn pick_zipf(table: &[f64], rng: &mut Rng) -> usize {
    let total = *table.last().expect("non-empty zipf table");
    let x = rng.unit() * total;
    table.partition_point(|&c| c <= x).min(table.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.90), 90.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // Odd counts round the rank up, never interpolate.
        let sorted: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 6.0);
        assert_eq!(percentile(&sorted, 0.90), 10.0);
    }

    #[test]
    fn samples_beyond_p90() {
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(99, 0.90), 9);
        assert_eq!(beyond(109, 0.90), 10);
        assert_eq!(beyond(110, 0.90), 11);
        assert_eq!(beyond(1, 0.90), 0);
        assert_eq!(beyond(0, 0.90), 0);
        // The rule "at least ten samples beyond p90" needs 100 samples.
        assert!((1..100).all(|n| beyond(n, 0.90) < 10));
    }

    #[test]
    fn failures_rank_above_every_success() {
        let mut samples: Vec<f64> = (1..=95).map(f64::from).collect();
        samples.extend([f64::INFINITY; 5]);
        let s = summarize(samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.beyond_p90, 10);
        // With more than a tenth failed, p90 itself is a failure.
        let mut samples = vec![1.0; 85];
        samples.extend([f64::INFINITY; 15]);
        assert!(summarize(samples).p90.is_infinite());
    }

    #[test]
    fn summarize_does_not_depend_on_order() {
        let mut rng = Rng::new(3);
        let samples: Vec<f64> = (0..1000).map(|_| rng.unit()).collect();
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(summarize(samples), summarize(reversed));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::new(3u32, 4u32);
        assert_eq!((r.num, r.den), (3.0, 4.0));
        assert_eq!(r.value(), 0.75);
        assert_eq!(Ratio::new(5.0, 0.0).value(), 0.0);
        assert_eq!(per(10.0, 4), 2.5);
        assert_eq!(per(10.0, 0), 0.0);
    }

    #[test]
    fn rng_is_seeded_and_zipf_is_skewed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, {
            let mut r = Rng::new(43);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        });
        let table = zipf_table(10);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[pick_zipf(&table, &mut rng)] += 1;
        }
        assert!(counts[0] > 2 * counts[1] / 2 && counts[0] > 5 * counts[9]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
