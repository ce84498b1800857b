//! Order statistics over timing samples.

/// The median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let sorted = sorted(values);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // In tenths of a percent, so the test is exact integer arithmetic.
    [999, 990, 950, 900, 500]
        .into_iter()
        .find(|&tenths| samples * (1000 - tenths) >= 10 * 1000)
        .map(|tenths| tenths as f64 / 10.0)
}

/// `name: n=…, p10 … p90` for a series of timings, printed beside the
/// metric so its spread within the run is visible.
pub fn summary(name: &str, values: &[f64]) -> String {
    let cuts: Vec<String> = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0]
        .iter()
        .map(|&p| format!("p{p}={:.6}", percentile(values, p)))
        .collect();
    format!("{name}: n={} {}", values.len(), cuts.join(" "))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(19), None);
    }
}
