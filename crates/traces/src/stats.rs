//! Summary statistics and the Pearson correlation coefficient.
//!
//! The verification scheme reduces each (reference, device-under-test) pair
//! to a set of Pearson coefficients and then distinguishes on the *mean* and
//! *variance* of that set, so these primitives are the numerical core of the
//! whole library. Variance uses Welford's algorithm for numerical stability.
//!
//! All plain sums (means, the Pearson `sxx`/`sxy`/`syy` reductions) run in
//! the canonical fixed-lane blocked order of [`crate::kernels`] — see
//! DESIGN.md §11 for why that order is deterministic everywhere.

use crate::error::StatsError;
use crate::kernels;

/// Arithmetic mean of a series, summed in the canonical blocked order of
/// [`crate::kernels::sum`].
///
/// # Errors
///
/// Returns [`StatsError::TooShort`] for an empty series.
pub fn mean(xs: &[f64]) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::TooShort {
            provided: 0,
            required: 1,
        });
    }
    Ok(kernels::sum(xs) / xs.len() as f64)
}

/// Population variance (divide by `n`) of a series.
///
/// This matches the paper's `v(C)` — the spread of the correlation
/// coefficients themselves, not an estimator of some parent population.
///
/// # Errors
///
/// Returns [`StatsError::TooShort`] for an empty series.
pub fn variance_population(xs: &[f64]) -> Result<f64, StatsError> {
    let mut rs = RunningStats::new();
    for &x in xs {
        rs.push(x);
    }
    rs.variance_population().ok_or(StatsError::TooShort {
        provided: xs.len(),
        required: 1,
    })
}

/// Sample variance (divide by `n − 1`) of a series.
///
/// # Errors
///
/// Returns [`StatsError::TooShort`] for a series with fewer than two points.
pub fn variance_sample(xs: &[f64]) -> Result<f64, StatsError> {
    let mut rs = RunningStats::new();
    for &x in xs {
        rs.push(x);
    }
    rs.variance_sample().ok_or(StatsError::TooShort {
        provided: xs.len(),
        required: 2,
    })
}

/// Numerically stable streaming mean/variance (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use ipmark_traces::stats::RunningStats;
///
/// let mut rs = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     rs.push(x);
/// }
/// assert_eq!(rs.mean(), Some(5.0));
/// assert_eq!(rs.variance_population(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean, or `None` before the first observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance (divide by `n`), or `None` before the first
    /// observation.
    pub fn variance_population(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Sample variance (divide by `n − 1`), or `None` with fewer than two
    /// observations.
    pub fn variance_sample(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Population standard deviation.
    pub fn stddev_population(&self) -> Option<f64> {
        self.variance_population().map(f64::sqrt)
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }
}

/// Incrementally tracks the mean and population variance of a growing
/// prefix of a series, **bit-identical** to calling [`mean`] /
/// [`variance_population`] on that prefix.
///
/// This is what lets a streaming verification session evaluate the
/// distinguisher statistics after every newly completed coefficient without
/// re-scanning the prefix — and still produce the exact bits the batch path
/// would: the mean maintains the [`crate::kernels`] lane accumulators
/// incrementally (element `i` lands in lane `i % LANES`, exactly as
/// [`crate::kernels::sum`] assigns it, and the lanes combine in the same
/// fixed tree), and the variance delegates to the same [`RunningStats`]
/// Welford updates that [`variance_population`] performs.
///
/// # Examples
///
/// ```
/// use ipmark_traces::stats::{mean, variance_population, PrefixStats};
///
/// let xs = [0.93, 0.91, 0.95, 0.90];
/// let mut ps = PrefixStats::new();
/// for (i, &x) in xs.iter().enumerate() {
///     ps.push(x);
///     let prefix = &xs[..=i];
///     assert_eq!(ps.mean(), mean(prefix).unwrap());
///     assert_eq!(ps.variance_population(), variance_population(prefix).unwrap());
/// }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrefixStats {
    /// Incremental [`kernels`] lane accumulators: element `i` is added to
    /// lane `i % LANES`, matching [`kernels::sum`]'s assignment exactly.
    lanes: [f64; kernels::LANES],
    welford: RunningStats,
}

impl PrefixStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the next element of the prefix.
    pub fn push(&mut self, x: f64) {
        self.lanes[self.welford.count() as usize % kernels::LANES] += x;
        self.welford.push(x);
    }

    /// Number of elements pushed so far.
    pub fn count(&self) -> usize {
        self.welford.count() as usize
    }

    /// Mean of the prefix, bit-identical to [`mean`] over the same values;
    /// NaN before the first push (an empty prefix has no mean).
    pub fn mean(&self) -> f64 {
        kernels::combine(self.lanes) / self.welford.count() as f64
    }

    /// Population variance of the prefix, bit-identical to
    /// [`variance_population`] over the same values; NaN before the first
    /// push.
    pub fn variance_population(&self) -> f64 {
        self.welford.variance_population().unwrap_or(f64::NAN)
    }
}

/// Pearson correlation coefficient between two equal-length series — the ρ
/// of the paper's §III:
///
/// `ρ(x, y) = Σ (xᵢ − x̄)(yᵢ − ȳ) / √(Σ (xᵢ − x̄)² · Σ (yᵢ − ȳ)²)`
///
/// # Errors
///
/// Returns [`StatsError::LengthMismatch`] when the series lengths differ,
/// [`StatsError::TooShort`] for fewer than two points, and
/// [`StatsError::ZeroVariance`] when either series is constant.
///
/// # Examples
///
/// ```
/// use ipmark_traces::stats::pearson;
///
/// # fn main() -> Result<(), ipmark_traces::StatsError> {
/// let x = [1.0, 2.0, 3.0];
/// let up = [10.0, 20.0, 30.0];
/// let down = [3.0, 2.0, 1.0];
/// assert!((pearson(&x, &up)? - 1.0).abs() < 1e-12);
/// assert!((pearson(&x, &down)? + 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    // Delegating to the fused kernel keeps exactly one Pearson operation
    // sequence in the workspace: every path — one-shot, reference-hoisted,
    // fused-fill, streaming — reduces in the canonical blocked order of `kernels`.
    PearsonRef::new(x)?.correlate(y)
}

/// A Pearson kernel with the reference series pre-processed once.
///
/// The §III correlation process correlates one fixed k-averaged reference
/// `A_RefD` against `m` DUT averages. Calling [`pearson`] `m` times
/// recomputes the reference mean, the centered reference and `Σ dx²` on
/// every call; `PearsonRef` hoists that work into [`PearsonRef::new`] and
/// reuses it across all [`PearsonRef::correlate`] calls.
///
/// The accumulation order of every floating-point sum matches [`pearson`]
/// exactly, so `PearsonRef::new(x)?.correlate(y)` returns a **bitwise
/// identical** coefficient — the fused kernel is a pure optimization, never
/// a numerical variation. The only observable difference is *when* errors
/// surface: a constant reference is rejected by `new` instead of by each
/// correlate call.
///
/// # Examples
///
/// ```
/// use ipmark_traces::stats::{pearson, PearsonRef};
///
/// # fn main() -> Result<(), ipmark_traces::StatsError> {
/// let reference = [1.0, 4.0, 2.0, 8.0];
/// let kernel = PearsonRef::new(&reference)?;
/// for dut in [[2.0, 3.0, 5.0, 7.0], [1.0, 0.0, 2.0, 1.0]] {
///     assert_eq!(kernel.correlate(&dut)?, pearson(&reference, &dut)?);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PearsonRef {
    /// The reference with its mean subtracted, in input order.
    centered: Vec<f64>,
    /// `Σ dxᵢ²` over the centered reference.
    sxx: f64,
}

impl PearsonRef {
    /// Pre-processes the reference series.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::TooShort`] for fewer than two points and
    /// [`StatsError::ZeroVariance`] for a constant reference (which
    /// [`pearson`] would reject on every call anyway).
    pub fn new(x: &[f64]) -> Result<Self, StatsError> {
        if x.len() < 2 {
            return Err(StatsError::TooShort {
                provided: x.len(),
                required: 2,
            });
        }
        let mx = kernels::sum(x) / x.len() as f64;
        let centered: Vec<f64> = x.iter().map(|&a| a - mx).collect();
        let sxx = kernels::dot(&centered, &centered);
        if sxx == 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        Ok(Self { centered, sxx })
    }

    /// Length of the reference series.
    pub fn len(&self) -> usize {
        self.centered.len()
    }

    /// `false` always — a `PearsonRef` holds at least two points.
    pub fn is_empty(&self) -> bool {
        self.centered.is_empty()
    }

    /// Correlates the pre-processed reference against `y`, bitwise equal to
    /// `pearson(x, y)`: [`PearsonRef::correlate_with_sum`] with `y`'s
    /// blocked sum.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::LengthMismatch`] when `y`'s length differs
    /// from the reference and [`StatsError::ZeroVariance`] when `y` is
    /// constant.
    pub fn correlate(&self, y: &[f64]) -> Result<f64, StatsError> {
        self.correlate_with_sum(y, kernels::sum(y))
    }

    /// [`PearsonRef::correlate`] with the row's blocked sum already known
    /// — the fused-ingest fast path (DESIGN.md §16), and the one
    /// correlation body in the workspace.
    ///
    /// `sum` must be the canonical blocked sum of `y` (what
    /// [`kernels::sum`] returns; the fused ingest kernels produce exactly
    /// that value while they sweep the row for other reasons). Given that,
    /// the coefficient is the one [`PearsonRef::correlate`] returns — the
    /// row is just not swept an extra time for its sum.
    ///
    /// # Errors
    ///
    /// As for [`PearsonRef::correlate`].
    pub fn correlate_with_sum(&self, y: &[f64], sum: f64) -> Result<f64, StatsError> {
        if y.len() != self.centered.len() {
            return Err(StatsError::LengthMismatch {
                left: self.centered.len(),
                right: y.len(),
            });
        }
        let my = sum / y.len() as f64;
        let (sxy, syy) = kernels::sxy_syy(&self.centered, y, my);
        if syy == 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        Ok(sxy / (self.sxx * syy).sqrt())
    }
}

/// The largest and second-largest values of a series, in that order — the
/// paper's `max` / `max2` pair used by the mean-distinguisher confidence
/// distance.
///
/// # Errors
///
/// Returns [`StatsError::TooShort`] for fewer than two points.
pub fn two_largest(xs: &[f64]) -> Result<(f64, f64), StatsError> {
    if xs.len() < 2 {
        return Err(StatsError::TooShort {
            provided: xs.len(),
            required: 2,
        });
    }
    let mut best = f64::NEG_INFINITY;
    let mut second = f64::NEG_INFINITY;
    for &x in xs {
        if x > best {
            second = best;
            best = x;
        } else if x > second {
            second = x;
        }
    }
    Ok((best, second))
}

/// The smallest and second-smallest values of a series, in that order — the
/// paper's `min` / `min2` pair used by the variance-distinguisher confidence
/// distance.
///
/// # Errors
///
/// Returns [`StatsError::TooShort`] for fewer than two points.
pub fn two_smallest(xs: &[f64]) -> Result<(f64, f64), StatsError> {
    if xs.len() < 2 {
        return Err(StatsError::TooShort {
            provided: xs.len(),
            required: 2,
        });
    }
    let mut best = f64::INFINITY;
    let mut second = f64::INFINITY;
    for &x in xs {
        if x < best {
            second = best;
            best = x;
        } else if x < second {
            second = x;
        }
    }
    Ok((best, second))
}

/// The Wilson score interval `(lower, upper)` for a binomial proportion:
/// `hits` successes in `n` trials, at two-sided normal quantile `z`
/// (1.96 for 95 %). Unlike the Wald interval it stays inside `[0, 1]` and
/// keeps its coverage near 0 and 1, which is where the workspace's rates
/// (all-correct panels, in-band realizations, tail masses) live.
///
/// # Errors
///
/// Returns [`StatsError::NoTrials`] for `n == 0` and
/// [`StatsError::HitsExceedTrials`] for `hits > n`.
pub fn wilson_interval(hits: u64, n: u64, z: f64) -> Result<(f64, f64), StatsError> {
    if n == 0 {
        return Err(StatsError::NoTrials);
    }
    if hits > n {
        return Err(StatsError::HitsExceedTrials { hits, trials: n });
    }
    let (p, n) = (hits as f64 / n as f64, n as f64);
    let z2n = z * z / n;
    let centre = (p + z2n / 2.0) / (1.0 + z2n);
    let half = z / (1.0 + z2n) * (p * (1.0 - p) / n + z2n / (4.0 * n)).sqrt();
    Ok((centre - half, centre + half))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_interval_matches_published_rates() {
        // The 400-seed rates quoted in the report and EXPERIMENTS.md.
        for (hits, lower, upper) in [(264, 0.6123, 0.7047), (390, 0.9546, 0.9864)] {
            let (lo, hi) = wilson_interval(hits, 400, 1.96).unwrap();
            assert!((lo - lower).abs() < 5e-5, "{hits}/400: lower {lo}");
            assert!((hi - upper).abs() < 5e-5, "{hits}/400: upper {hi}");
        }
        let (lo, hi) = wilson_interval(0, 10, 1.96).unwrap();
        assert!(lo.abs() < 1e-12);
        assert!(hi > 0.0 && hi < 1.0);
        let (lo, hi) = wilson_interval(10, 10, 1.96).unwrap();
        assert!(lo > 0.0 && lo < 1.0);
        assert!((hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wilson_interval_rejects_empty_and_overfull_counts() {
        assert_eq!(wilson_interval(0, 0, 1.96), Err(StatsError::NoTrials));
        assert_eq!(
            wilson_interval(5, 4, 1.96),
            Err(StatsError::HitsExceedTrials { hits: 5, trials: 4 })
        );
    }

    #[test]
    fn mean_of_empty_errors() {
        assert!(mean(&[]).is_err());
        assert_eq!(mean(&[3.0]).unwrap(), 3.0);
    }

    #[test]
    fn variance_matches_textbook() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance_population(&xs).unwrap() - 4.0).abs() < 1e-12);
        assert!((variance_sample(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_sample_needs_two_points() {
        assert!(variance_sample(&[1.0]).is_err());
        assert_eq!(variance_population(&[1.0]).unwrap(), 0.0);
    }

    #[test]
    fn welford_matches_naive_on_shifted_data() {
        // Large offset exposes catastrophic cancellation in naive formulas.
        let xs: Vec<f64> = (0..1000).map(|i| 1e9 + (i % 7) as f64).collect();
        let m = mean(&xs).unwrap();
        let naive: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        let welford = variance_population(&xs).unwrap();
        assert!((naive - welford).abs() < 1e-6, "{naive} vs {welford}");
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = RunningStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean().unwrap() - all.mean().unwrap()).abs() < 1e-12);
        assert!(
            (left.variance_population().unwrap() - all.variance_population().unwrap()).abs()
                < 1e-10
        );
    }

    #[test]
    fn running_stats_merge_with_empty() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn prefix_stats_bitwise_match_batch_on_every_prefix() {
        // Irrational-ish values so any reordering of the accumulation
        // would change low-order bits.
        let xs: Vec<f64> = (1..40)
            .map(|i| (f64::from(i) * 0.7311).sin() * 0.93)
            .collect();
        let mut ps = PrefixStats::new();
        for (i, &x) in xs.iter().enumerate() {
            ps.push(x);
            let prefix = &xs[..=i];
            assert_eq!(ps.count(), prefix.len());
            assert_eq!(
                ps.mean().to_bits(),
                mean(prefix).unwrap().to_bits(),
                "mean drifted at prefix {}",
                prefix.len()
            );
            assert_eq!(
                ps.variance_population().to_bits(),
                variance_population(prefix).unwrap().to_bits(),
                "variance drifted at prefix {}",
                prefix.len()
            );
        }
    }

    #[test]
    fn prefix_stats_empty_is_nan_not_panic() {
        let ps = PrefixStats::new();
        assert_eq!(ps.count(), 0);
        assert!(ps.mean().is_nan());
        assert!(ps.variance_population().is_nan());
    }

    #[test]
    fn pearson_perfect_and_anti_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 5.0 * v - 2.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -2.0 * v + 7.0).collect();
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_independent_patterns_is_small() {
        let x: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 101) as f64).collect();
        let y: Vec<f64> = (0..1000).map(|i| ((i * 104729) % 103) as f64).collect();
        let r = pearson(&x, &y).unwrap();
        assert!(r.abs() < 0.2, "r = {r}");
    }

    #[test]
    fn pearson_error_cases() {
        assert!(matches!(
            pearson(&[1.0, 2.0], &[1.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            pearson(&[1.0], &[1.0]),
            Err(StatsError::TooShort { .. })
        ));
        assert!(matches!(
            pearson(&[1.0, 1.0], &[1.0, 2.0]),
            Err(StatsError::ZeroVariance)
        ));
        assert!(matches!(
            pearson(&[1.0, 2.0], &[5.0, 5.0]),
            Err(StatsError::ZeroVariance)
        ));
    }

    #[test]
    fn pearson_is_symmetric() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0];
        let y = [2.0, 4.0, 4.0, 1.0, 9.0];
        assert!((pearson(&x, &y).unwrap() - pearson(&y, &x).unwrap()).abs() < 1e-15);
    }

    #[test]
    fn pearson_ref_is_bitwise_equal_to_pearson() {
        let x: Vec<f64> = (0..512).map(|i| ((i * 7919) % 101) as f64 * 0.37).collect();
        let kernel = PearsonRef::new(&x).unwrap();
        for pattern in 1..8u64 {
            let y: Vec<f64> = (0..512)
                .map(|i| ((i as u64 * 104_729 * pattern) % 97) as f64 - 48.0)
                .collect();
            let fused = kernel.correlate(&y).unwrap();
            let baseline = pearson(&x, &y).unwrap();
            assert_eq!(fused.to_bits(), baseline.to_bits());
        }
    }

    #[test]
    fn pearson_ref_error_cases() {
        assert!(matches!(
            PearsonRef::new(&[1.0]),
            Err(StatsError::TooShort { .. })
        ));
        assert!(matches!(
            PearsonRef::new(&[2.0, 2.0, 2.0]),
            Err(StatsError::ZeroVariance)
        ));
        let kernel = PearsonRef::new(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(kernel.len(), 3);
        assert!(!kernel.is_empty());
        assert!(matches!(
            kernel.correlate(&[1.0, 2.0]),
            Err(StatsError::LengthMismatch { left: 3, right: 2 })
        ));
        assert!(matches!(
            kernel.correlate(&[4.0, 4.0, 4.0]),
            Err(StatsError::ZeroVariance)
        ));
    }

    #[test]
    fn two_largest_and_smallest() {
        let xs = [3.0, 9.0, 1.0, 9.0, 7.0];
        assert_eq!(two_largest(&xs).unwrap(), (9.0, 9.0));
        assert_eq!(two_smallest(&xs).unwrap(), (1.0, 3.0));
        assert!(two_largest(&[1.0]).is_err());
        assert!(two_smallest(&[]).is_err());
    }

    #[test]
    fn two_largest_distinct_values() {
        let xs = [0.5, -1.0, 0.25];
        assert_eq!(two_largest(&xs).unwrap(), (0.5, 0.25));
        assert_eq!(two_smallest(&xs).unwrap(), (-1.0, 0.25));
    }
}
