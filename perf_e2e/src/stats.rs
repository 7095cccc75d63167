//! Order statistics for latencies and run-to-run spreads.

/// Linear-interpolated percentile `p` (0–100) of a sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let pos = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// A sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, as `(percentile, value)`; `None` below 20
/// samples. Percentiles are tried in per-mille so the sample count is exact.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map(|per_mille| {
            let p = per_mille as f64 / 10.0;
            (p, percentile(&sorted(values), p))
        })
}

/// The first and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The interquartile range as a share of the median's magnitude.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let med = median(values).abs();
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&ramp(40)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&ramp(99)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&ramp(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&ramp(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&ramp(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
        // The value is the interpolated percentile, whatever the input order.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        let (p, v) = tail(&shuffled).unwrap();
        assert_eq!(p, 90.0);
        assert!((v - 90.1).abs() < 1e-9, "{v}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: it extrapolates.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        assert!((spread(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&ramp(11), 90.0), 10.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
