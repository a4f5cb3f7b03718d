//! Order statistics and aggregates the benchmark reports: medians,
//! interquartile means, nearest-rank percentiles, the tail percentile rule, geometric means
//! and failure accounting.

/// The percentile ladder the tail rule climbs, in percent.
/// It stops at p99: in a run of tens of seconds, a p99.9 rests on a few
/// dozen samples and swung by ±30% between runs on identical code.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest-rank percentile `p` (in percent) of `sorted`, which must
/// be sorted ascending and non-empty: the value at rank `ceil(p/100·n)`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples, in
/// integer arithmetic (basis points) so that e.g. p99.9 of 10 000
/// samples is exactly rank 9 990.
fn rank(n: usize, p: f64) -> usize {
    let bp = (p * 100.0).round() as usize;
    (bp * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Number of samples strictly beyond the nearest-rank percentile `p` of
/// `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The tail percentile: the highest percentile on the ladder that leaves
/// at least [`TAIL_MIN_BEYOND`] samples beyond it. `None` when even the
/// median has fewer than that many samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// The median of `values` (the mean of the two middle values for an even
/// count). `values` need not be sorted; it must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of the middle half of `values`: the lowest and the highest
/// `n / 4` are dropped (none when fewer than 4). `values` need not be
/// sorted; it must be non-empty.
///
/// Between a median and a mean: a few outliers cannot move it, and when
/// the sample has two modes it moves in proportion to their shares
/// instead of jumping from one mode to the other as a median does.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The geometric mean of strictly positive values (`None` for an empty
/// sample or any value that is not finite and positive).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Latencies of one timed phase, with failed jobs counted as missing
/// every latency limit: a failure is stored as `+∞`, so it sorts above
/// every completed job and any percentile it reaches reads as unbounded.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    samples: Vec<f64>,
    failed: usize,
}

impl Latencies {
    /// Records a job that completed in `ms` milliseconds.
    pub fn ok(&mut self, ms: f64) {
        self.samples.push(ms);
    }

    /// Records a job that errored, was refused or failed a check.
    pub fn failed(&mut self) {
        self.samples.push(f64::INFINITY);
        self.failed += 1;
    }

    /// Records one job: `Some(ms)` completed and passed its checks,
    /// `None` failed.
    pub fn record(&mut self, outcome: Option<f64>) {
        match outcome {
            Some(ms) => self.ok(ms),
            None => self.failed(),
        }
    }

    /// Jobs attempted.
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    /// Jobs that failed.
    pub fn failures(&self) -> usize {
        self.failed
    }

    /// The samples sorted ascending (failures last, as `+∞`).
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// A tail percentile with the sample count it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: f64,
    /// Its nearest-rank value (ms; `+∞` when failures reach it).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples beyond it.
    pub beyond: usize,
}

/// The median and the tail of a latency sample; `None` if the sample is
/// too small for the tail rule.
pub fn summarize(lat: &Latencies) -> Option<(f64, Tail)> {
    let sorted = lat.sorted();
    let p = tail_percentile(sorted.len())?;
    Some((
        nearest_rank(&sorted, 50.0),
        Tail {
            percentile: p,
            value: nearest_rank(&sorted, p),
            samples: sorted.len(),
            beyond: beyond(sorted.len(), p),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_takes_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 20 samples: p50 leaves 10 beyond, p90 leaves 2.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        // 100 samples: p90 leaves exactly 10, p95 only 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.0));
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(tail_percentile(0), None);
        for n in [20, 57, 100, 450, 1000, 4321, 10_000, 123_456] {
            let p = tail_percentile(n).expect("large enough");
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 10.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-12);
        assert!((geomean(&[4.0, 9.0]).expect("positive") - 6.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        assert_eq!(interquartile_mean(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        // Two modes: the figure follows their shares.
        let mixed = [6.0, 6.0, 6.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        assert_eq!(interquartile_mean(&mixed), 9.0);
    }

    #[test]
    fn failures_miss_every_latency_limit() {
        let mut lat = Latencies::default();
        for i in 0..95 {
            lat.ok(1.0 + i as f64 / 100.0);
        }
        for _ in 0..5 {
            lat.failed();
        }
        assert_eq!(lat.attempted(), 100);
        assert_eq!(lat.failures(), 5);
        let (p50, tail) = summarize(&lat).expect("100 samples");
        assert!(p50.is_finite());
        assert_eq!(tail.percentile, 90.0);
        assert!(tail.value.is_finite(), "5% failures stay beyond p90");

        // Push failures past the tail: the percentile reads as unbounded.
        for _ in 0..6 {
            lat.record(None);
        }
        assert_eq!(lat.failures(), 11);
        let (_, tail) = summarize(&lat).expect("100 samples");
        assert!(tail.value.is_infinite());
    }
}
