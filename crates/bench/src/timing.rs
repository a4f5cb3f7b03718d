//! A tiny wall-clock benchmarking harness for the `benches/` targets and
//! the probe binaries.
//!
//! The workspace builds hermetically (no crates.io access), so instead of
//! Criterion the bench binaries use this module: warm-up followed by a
//! fixed number of timed samples, reporting min / median / mean per case.
//! Use `cargo bench -p zz-bench` to run them. Probes that gate on an A/B
//! ratio time both sides in alternation ([`interleaved_ms`]) and report a
//! [`Spread`] of the per-pair ratios.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Collects and prints timings for one named group of related cases.
pub struct BenchGroup {
    name: String,
    samples: usize,
}

impl BenchGroup {
    /// Starts a group with the default 20 samples per case.
    pub fn new(name: &str) -> Self {
        println!("\n== {name} ==");
        BenchGroup {
            name: name.to_string(),
            samples: 20,
        }
    }

    /// Overrides the number of timed samples per case.
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.samples = samples.max(3);
        self
    }

    /// Times `f` (one sample = one call) and prints a stats row.
    pub fn bench<T>(&self, case: &str, mut f: impl FnMut() -> T) {
        // Warm-up: fill caches and let lazy statics initialize.
        for _ in 0..2 {
            black_box(f());
        }
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        println!(
            "{:<40} min {:>10.1?}  median {:>10.1?}  mean {:>10.1?}  ({} samples)",
            format!("{}/{case}", self.name),
            min,
            median,
            mean,
            self.samples,
        );
    }
}

/// Min, median and 90th percentile of a set of samples; both
/// percentiles are nearest-rank, so each is one of the samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// Nearest-rank median (the lower middle sample of an even count).
    pub median: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let k = (q * sorted.len() as f64).ceil() as usize;
            sorted[k.clamp(1, sorted.len()) - 1]
        };
        Spread {
            min: sorted[0],
            median: rank(0.5),
            p90: rank(0.9),
        }
    }

    /// The spread as a JSON object with `min`, `median` and `p90` keys.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"min\": {:.3}, \"median\": {:.3}, \"p90\": {:.3}}}",
            self.min, self.median, self.p90
        )
    }
}

/// Times `a` and `b` in alternation, `warmup` untimed pairs first and
/// then `pairs` timed ones, and returns each side's wall times in
/// milliseconds, pair by pair. A drift in the machine's speed hits both
/// sides of a pair alike, so the per-pair ratios stay comparable on a
/// noisy host where two separate blocks of runs would not.
pub fn interleaved_ms(
    warmup: usize,
    pairs: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Vec<f64>, Vec<f64>) {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e3
    };
    for _ in 0..warmup {
        a();
        b();
    }
    (0..pairs).map(|_| (time(&mut a), time(&mut b))).unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_uses_nearest_rank() {
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.min, s.median, s.p90), (1.0, 3.0, 5.0));
        let s = Spread::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.min, s.median, s.p90), (1.0, 5.0, 9.0));
    }

    #[test]
    fn interleaved_runs_both_sides_in_turn() {
        let order = std::cell::RefCell::new(String::new());
        let (a, b) = interleaved_ms(
            1,
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!((a.len(), b.len()), (3, 3));
        assert_eq!(order.into_inner(), "abababab");
    }
}
