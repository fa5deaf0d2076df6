//! Order statistics and means used by every workload.

/// The value at quantile `q` (0..=1) of `xs` by the nearest-rank rule:
/// the smallest sample with at least `q·len` samples at or below it.
/// `NaN` for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `len` samples.
fn nearest_rank(len: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * len as f64).ceil() as usize).clamp(1, len)
}

/// Median by the nearest-rank rule.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Samples strictly above the nearest-rank quantile `q` of `len` samples.
pub fn samples_beyond(len: usize, q: f64) -> usize {
    if len == 0 {
        0
    } else {
        len - nearest_rank(len, q)
    }
}

/// Whether quantile `q` of `len` samples has at least ten samples beyond
/// it, the least a tail percentile needs to mean anything.
pub fn tail_supported(len: usize, q: f64) -> bool {
    samples_beyond(len, q) >= 10
}

/// Geometric mean of finite, strictly positive values; `NaN` when empty
/// or when any value is outside that domain.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_quartiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), 90.0);
        // Quartiles of 1..=10: ranks ceil(2.5) = 3 and ceil(7.5) = 8.
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.25), 3.0);
        assert_eq!(percentile(&ten, 0.75), 8.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even count: the lower middle sample, never an interpolation.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples leaves exactly ten above it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_supported(1000, 0.99));
        // p99 of 999 leaves nine: not supported.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!tail_supported(999, 0.99));
        // p90 needs a hundred samples.
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[2.0]), 2.0);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[1.0, -2.0]).is_nan());
        assert!(geomean(&[1.0, f64::INFINITY]).is_nan());
    }
}
