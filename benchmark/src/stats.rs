//! Order statistics over the timed samples.

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method)
/// computes them, so a spread printed here is the spread the driver
/// computes from the same numbers.  One value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = sorted.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return [sorted[0]; 3];
    }
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let rank = (i + 1) * (n + 1);
        let j = (rank / 4).clamp(1, n - 1);
        let delta = rank as f64 - (j * 4) as f64;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Interquartile range as a share of the median — the spread the
/// benchmark contract bounds.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`; 0
/// for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4, 5, 9]
        assert_eq!(
            quartiles(&[11.0, 2.0, 4.0, 7.0, 4.0, 9.0, 5.0]),
            [4.0, 5.0, 9.0]
        );
        assert_eq!(quartiles(&[6.5]), [6.5; 3]);
    }

    #[test]
    fn median_spread_and_percentiles() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_frac(&ten), 1.0);
        assert_eq!(iqr_frac(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(percentile(&ten, 10.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
