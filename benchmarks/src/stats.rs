//! Order statistics over latency samples.

use crate::catalog::Better;

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The quartile on the better side of `values`: the lower one for a figure
/// that should be low, the upper one for a figure that should be high.
///
/// Interference from other tenants of the box only ever slows a pass down,
/// and on the sizing box it comes in stretches of seconds during which
/// everything takes 1.5–1.9 times as long. The better quartile over the
/// passes of a run is the figure of the undisturbed machine whenever a
/// quarter of the run was undisturbed; the median needs half.
pub fn better_quartile(mut values: Vec<f64>, better: Better) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    if better == Better::Higher {
        values.reverse();
    }
    values[(values.len() - 1) / 4]
}

/// Interquartile range over the median, the run-to-run spread the benchmark
/// contract is written in. Quartiles follow the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so the figure matches the driver's.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    let med = median_f64(&mut v.clone());
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn better_quartile_sides() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(better_quartile(v.clone(), Better::Lower), 3.0);
        assert_eq!(better_quartile(v, Better::Higher), 7.0);
        assert_eq!(better_quartile(vec![4.0], Better::Lower), 4.0);
        assert_eq!(better_quartile(Vec::new(), Better::Lower), 0.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = iqr_over_median(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }
}
