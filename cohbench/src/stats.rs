//! Order statistics for timing samples.

/// Linear-interpolated quantile of `xs` at `q ∈ [0, 1]` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile range as a share of the median.
pub fn rel_iqr(xs: &[f64]) -> f64 {
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

/// The highest of p90/p99/p99.9/p99.99 that has at least ten samples above
/// it, as `(percentile, value)`; `None` with fewer than 100 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| xs.len() as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .map(|p| (p, quantile(xs, p / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&xs[..99]), None);
        assert_eq!(tail(&xs[..100]).map(|t| t.0), Some(90.0));
    }
}
