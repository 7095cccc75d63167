//! Welch's t-test (TVLA-style) as an alternative distinguisher baseline.
//!
//! The side-channel community's standard leakage-detection tool is the
//! Welch t-test with the TVLA threshold |t| > 4.5. Here it serves as a
//! baseline to compare against the paper's mean/variance distinguishers:
//! instead of correlating k-averages, compare two trace populations
//! sample-point by sample-point and look at the largest |t|.

use ipmark_traces::stats::RunningStats;
use ipmark_traces::{TraceError, TraceSource};
use serde::{Deserialize, Serialize};

use crate::error::AttackError;

/// The conventional TVLA decision threshold.
pub const TVLA_THRESHOLD: f64 = 4.5;

/// Welch's t statistic between two scalar samples.
///
/// # Errors
///
/// Returns [`AttackError::Config`] when either sample has fewer than two
/// points or both variances are zero.
pub fn welch_t(a: &[f64], b: &[f64]) -> Result<f64, AttackError> {
    if a.len() < 2 || b.len() < 2 {
        return Err(AttackError::Config(format!(
            "welch_t needs ≥ 2 points per sample, got {} and {}",
            a.len(),
            b.len()
        )));
    }
    let mut sa = RunningStats::new();
    let mut sb = RunningStats::new();
    for &x in a {
        sa.push(x);
    }
    for &x in b {
        sb.push(x);
    }
    let (Some(va), Some(vb)) = (sa.variance_sample(), sb.variance_sample()) else {
        return Err(AttackError::Invariant(
            "both populations hold >= 2 samples after the length check",
        ));
    };
    let denom = (va / a.len() as f64 + vb / b.len() as f64).sqrt();
    if denom == 0.0 {
        return Err(AttackError::Config(
            "both samples have zero variance".into(),
        ));
    }
    let (Some(ma), Some(mb)) = (sa.mean(), sb.mean()) else {
        return Err(AttackError::Invariant(
            "both populations are non-empty after the length check",
        ));
    };
    Ok((ma - mb) / denom)
}

/// Per-sample-point Welch t trace between two trace populations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TTestTrace {
    /// t statistic at every sample point.
    pub t_values: Vec<f64>,
}

impl TTestTrace {
    /// The largest |t| over all sample points.
    pub fn max_abs_t(&self) -> f64 {
        self.t_values.iter().fold(0.0, |m, &t| m.max(t.abs()))
    }

    /// Whether the populations are distinguishable at the TVLA threshold.
    pub fn leaks(&self) -> bool {
        self.max_abs_t() > TVLA_THRESHOLD
    }
}

/// Computes the per-sample Welch t trace between the first `na` traces of
/// `a` and the first `nb` traces of `b`.
///
/// # Errors
///
/// Returns [`AttackError::Config`] for undersized populations or
/// mismatched trace lengths.
pub fn ttest_traces<SA, SB>(a: &SA, na: usize, b: &SB, nb: usize) -> Result<TTestTrace, AttackError>
where
    SA: TraceSource + ?Sized,
    SB: TraceSource + ?Sized,
{
    if na < 2 || nb < 2 {
        return Err(AttackError::Config(format!(
            "t-test needs ≥ 2 traces per population, got {na} and {nb}"
        )));
    }
    if na > a.num_traces() || nb > b.num_traces() {
        return Err(AttackError::Config(format!(
            "requested {na}/{nb} traces, campaigns hold {}/{}",
            a.num_traces(),
            b.num_traces()
        )));
    }
    if a.trace_len() != b.trace_len() {
        return Err(AttackError::Config(format!(
            "trace lengths differ: {} vs {}",
            a.trace_len(),
            b.trace_len()
        )));
    }
    let len = a.trace_len();
    type Filler<'a> = &'a dyn Fn(usize, &mut [f64]) -> Result<(), TraceError>;
    let stats_of = |src: Filler<'_>, n: usize| -> Result<Vec<RunningStats>, AttackError> {
        let mut stats = vec![RunningStats::new(); len];
        let mut buf = vec![0.0; len];
        for i in 0..n {
            buf.iter_mut().for_each(|x| *x = 0.0);
            src(i, &mut buf)?;
            for (s, &x) in stats.iter_mut().zip(&buf) {
                s.push(x);
            }
        }
        Ok(stats)
    };
    let sa = stats_of(&|i, buf| a.accumulate(i, buf), na)?;
    let sb = stats_of(&|i, buf| b.accumulate(i, buf), nb)?;

    let t_values = sa
        .iter()
        .zip(&sb)
        .map(|(x, y)| {
            let vx = x.variance_sample().unwrap_or(0.0);
            let vy = y.variance_sample().unwrap_or(0.0);
            let denom = (vx / na as f64 + vy / nb as f64).sqrt();
            if denom == 0.0 {
                0.0
            } else {
                (x.mean().unwrap_or(0.0) - y.mean().unwrap_or(0.0)) / denom
            }
        })
        .collect();
    Ok(TTestTrace { t_values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmark_traces::TraceBlock;

    fn population(center: f64, jitter: f64, n: usize, len: usize) -> TraceBlock {
        let mut set = TraceBlock::new("p");
        for i in 0..n {
            let d = jitter * (((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5);
            set.push_row(&vec![center + d; len]).unwrap();
        }
        set
    }

    #[test]
    fn welch_t_detects_mean_shift() {
        let a: Vec<f64> = (0..50).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..50).map(|i| 11.0 + (i % 5) as f64 * 0.1).collect();
        let t = welch_t(&a, &b).unwrap();
        assert!(t < -TVLA_THRESHOLD, "t = {t}");
        let t_same = welch_t(&a, &a.clone()).unwrap();
        assert_eq!(t_same, 0.0);
    }

    #[test]
    fn welch_t_validates_inputs() {
        assert!(welch_t(&[1.0], &[1.0, 2.0]).is_err());
        assert!(welch_t(&[1.0, 1.0], &[2.0, 2.0]).is_err()); // zero variances
    }

    #[test]
    fn ttest_traces_flags_different_populations() {
        let a = population(5.0, 0.2, 40, 16);
        let b = population(6.0, 0.2, 40, 16);
        let t = ttest_traces(&a, 40, &b, 40).unwrap();
        assert!(t.leaks(), "max |t| = {}", t.max_abs_t());
        assert_eq!(t.t_values.len(), 16);
    }

    #[test]
    fn ttest_traces_accepts_identical_populations() {
        let a = population(5.0, 0.2, 40, 8);
        let t = ttest_traces(&a, 40, &a, 40).unwrap();
        assert!(!t.leaks(), "max |t| = {}", t.max_abs_t());
    }

    #[test]
    fn ttest_traces_validates_shapes() {
        let a = population(1.0, 0.1, 10, 8);
        let b = population(1.0, 0.1, 10, 9);
        assert!(ttest_traces(&a, 10, &b, 10).is_err());
        assert!(ttest_traces(&a, 1, &a, 10).is_err());
        assert!(ttest_traces(&a, 11, &a, 10).is_err());
    }
}
