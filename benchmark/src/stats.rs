//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The highest sample that still has at least ten samples beyond it (the
/// 11th-largest), or `None` below eleven samples — the tail the guide asks
/// to print next to a median.
pub fn tail(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    sorted.len().checked_sub(11).map(|i| sorted[i])
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its outer cut points.
/// `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    let cut = |k: usize| {
        // Position k·(n+1)/4 on the 1-based sorted list, clamped inward.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the agreement criterion bounds. 0 below two samples.
pub fn spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some((q1, q3)) => (q3 - q1).abs() / median(samples).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let twelve: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        // 12 samples: ten lie above the 2nd-smallest.
        assert_eq!(tail(&twelve), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-15);
    }
}
