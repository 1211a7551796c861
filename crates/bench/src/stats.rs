//! Small summary statistics for repeated simulation runs.

use serde::{Deserialize, Serialize};

/// Summary of a set of latency samples (µs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single sample).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (lower of the two middle samples for even `n`).
    pub median: f64,
    /// 95th percentile by the nearest-rank method (`ceil(0.95 n)`-th
    /// smallest sample); equals `max` for `n < 20`.
    pub p95: f64,
    /// 99th percentile by the nearest-rank method (`ceil(0.99 n)`-th
    /// smallest sample); equals `max` for `n < 100`. The tail the
    /// regression gate bites on for the concurrent-sessions axis.
    pub p99: f64,
    /// Number of samples.
    pub n: usize,
}

impl Stats {
    /// Summarizes `samples`.
    ///
    /// Panics on an empty slice or on any non-finite sample: a NaN latency
    /// would otherwise poison `mean`/`std_dev` silently and make
    /// [`Stats::overhead_pct`] report a misleading `0`. Callers that want to
    /// handle bad samples gracefully use [`Stats::try_of`].
    pub fn of(samples: &[f64]) -> Stats {
        match Self::try_of(samples) {
            Ok(s) => s,
            Err(e) => panic!("Stats::of: {e}"),
        }
    }

    /// Summarizes `samples`, returning an error (instead of panicking) for
    /// an empty slice or any non-finite sample.
    pub fn try_of(samples: &[f64]) -> Result<Stats, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::Empty);
        }
        if let Some(idx) = samples.iter().position(|s| !s.is_finite()) {
            return Err(StatsError::NonFinite {
                index: idx,
                value: samples[idx],
            });
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let median = sorted[(n - 1) / 2];
        // Nearest-rank percentile: smallest sample with cumulative
        // frequency >= 95%.
        let p95_rank = ((0.95 * n as f64).ceil() as usize).clamp(1, n);
        let p95 = sorted[p95_rank - 1];
        let p99_rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        let p99 = sorted[p99_rank - 1];
        Ok(Stats {
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median,
            p95,
            p99,
            n,
        })
    }

    /// Relative overhead of `self` versus a `baseline` mean, in percent
    /// (negative = faster than the baseline), as the paper reports.
    ///
    /// A zero baseline mean — e.g. a free-profile run where every virtual-
    /// time sample is 0 µs — has no meaningful relative overhead; returns 0
    /// instead of NaN/±inf so report tables stay sane. (Non-finite means can
    /// no longer occur: [`Stats::of`] rejects non-finite samples.)
    pub fn overhead_pct(&self, baseline: &Stats) -> f64 {
        if baseline.mean == 0.0 || !baseline.mean.is_finite() {
            return 0.0;
        }
        (self.mean / baseline.mean - 1.0) * 100.0
    }
}

/// Why a set of samples could not be summarized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatsError {
    /// The sample slice was empty.
    Empty,
    /// A sample was NaN or infinite.
    NonFinite {
        /// Index of the offending sample.
        index: usize,
        /// The offending value (NaN or ±inf).
        value: f64,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::NonFinite { index, value } => {
                write!(f, "non-finite sample {value} at index {index}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample() {
        // n=1 edge case: every percentile is the lone sample.
        let s = Stats::of(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.p95, 5.0);
        assert_eq!(s.p99, 5.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn two_samples_pin_the_tail_to_the_max() {
        // n=2 edge case: ceil(0.95*2)=ceil(0.99*2)=2 → both tails are the
        // larger sample, regardless of input order.
        let s = Stats::of(&[8.0, 2.0]);
        assert_eq!(s.median, 2.0); // lower middle
        assert_eq!(s.p95, 8.0);
        assert_eq!(s.p99, 8.0);
        assert_eq!(s.n, 2);
    }

    #[test]
    fn mean_and_spread() {
        let s = Stats::of(&[2.0, 4.0, 6.0]);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.median, 4.0);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_p95_on_unsorted_input() {
        let s = Stats::of(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.p95, 9.0); // nearest-rank: ceil(0.95*5)=5th of 5
        let even = Stats::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median, 2.0); // lower middle
    }

    #[test]
    fn p95_with_twenty_samples_drops_the_top_outlier() {
        // 1..=19 plus one huge outlier: rank ceil(0.95*20)=19 -> 19.0.
        let mut v: Vec<f64> = (1..=19).map(|i| i as f64).collect();
        v.push(1e6);
        let s = Stats::of(&v);
        assert_eq!(s.p95, 19.0);
        // p99 still lands on the outlier at n=20: ceil(0.99*20)=20.
        assert_eq!(s.p99, 1e6);
        assert_eq!(s.max, 1e6);
    }

    #[test]
    fn p99_with_two_hundred_samples_drops_the_top_outliers() {
        // 1..=198 plus two huge outliers: rank ceil(0.99*200)=198 → the
        // p99 sheds both, while p95 (rank 190) sits lower still.
        let mut v: Vec<f64> = (1..=198).map(|i| i as f64).collect();
        v.push(1e6);
        v.push(2e6);
        let s = Stats::of(&v);
        assert_eq!(s.p95, 190.0);
        assert_eq!(s.p99, 198.0);
        assert_eq!(s.max, 2e6);
    }

    #[test]
    fn non_finite_samples_are_rejected() {
        match Stats::try_of(&[1.0, f64::NAN, 3.0]) {
            Err(StatsError::NonFinite { index: 1, value }) => assert!(value.is_nan()),
            other => panic!("expected NonFinite at index 1, got {other:?}"),
        }
        assert!(matches!(
            Stats::try_of(&[f64::INFINITY]),
            Err(StatsError::NonFinite { index: 0, .. })
        ));
        assert_eq!(Stats::try_of(&[]), Err(StatsError::Empty));
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn of_panics_on_nan() {
        let _ = Stats::of(&[f64::NAN]);
    }

    #[test]
    fn overhead_of_zero_baseline_is_finite() {
        // Free network profiles produce all-zero virtual latencies; the
        // relative overhead must not be NaN or infinite then.
        let zero = Stats::of(&[0.0, 0.0, 0.0]);
        assert_eq!(Stats::of(&[5.0]).overhead_pct(&zero), 0.0);
        assert_eq!(zero.overhead_pct(&zero), 0.0);
    }

    #[test]
    fn overhead_sign() {
        let base = Stats::of(&[100.0]);
        assert!((Stats::of(&[150.0]).overhead_pct(&base) - 50.0).abs() < 1e-9);
        assert!((Stats::of(&[80.0]).overhead_pct(&base) + 20.0).abs() < 1e-9);
    }
}
