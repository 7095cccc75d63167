//! Distinguishers and confidence distances (§V.A).
//!
//! Given the correlation sets computed against every candidate DUT, a
//! distinguisher picks the DUT that carries the reference IP and reports a
//! *confidence distance* — the relative gap between the best and
//! second-best candidate. The paper compares two distinguishers and finds
//! the variance one far superior (Δv of 44.9–99.2 % vs Δmean of
//! 0.52–22.6 %).

use ipmark_traces::stats::{two_largest, two_smallest};
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::verify::CorrelationSet;

/// Outcome of a comparative identification over a panel of candidate DUTs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Index of the winning candidate.
    pub best: usize,
    /// The distinguisher statistic of every candidate, in input order.
    pub scores: Vec<f64>,
    /// The confidence distance in percent (higher = more decisive).
    pub confidence_percent: f64,
}

/// A rule that picks the matching DUT from per-candidate correlation sets.
pub trait Distinguisher {
    /// Short name used in reports ("mean", "variance").
    fn name(&self) -> &'static str;

    /// The scalar statistic this distinguisher extracts from each set.
    fn statistic(&self, set: &CorrelationSet) -> f64;

    /// Runs the comparative decision.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotEnoughCandidates`] for fewer than two sets.
    fn decide(&self, sets: &[CorrelationSet]) -> Result<Decision, CoreError>;
}

/// §V.A distinguisher 1: the DUT with the **highest mean** correlation wins.
///
/// Confidence distance:
/// `Δmean = 100 × (1 − max2(C̄) / max(C̄))`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HigherMean;

impl Distinguisher for HigherMean {
    fn name(&self) -> &'static str {
        "mean"
    }

    fn statistic(&self, set: &CorrelationSet) -> f64 {
        set.mean()
    }

    fn decide(&self, sets: &[CorrelationSet]) -> Result<Decision, CoreError> {
        if sets.len() < 2 {
            return Err(CoreError::NotEnoughCandidates {
                provided: sets.len(),
            });
        }
        let scores: Vec<f64> = sets.iter().map(|s| s.mean()).collect();
        DistinguisherKind::Mean.decide_scores(scores)
    }
}

/// §V.A distinguisher 2: the DUT with the **lowest variance** of the
/// correlation wins — the paper's recommended rule.
///
/// Confidence distance:
/// `Δv = 100 × (1 − min(v) / min2(v))`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LowerVariance;

impl Distinguisher for LowerVariance {
    fn name(&self) -> &'static str {
        "variance"
    }

    fn statistic(&self, set: &CorrelationSet) -> f64 {
        set.variance()
    }

    fn decide(&self, sets: &[CorrelationSet]) -> Result<Decision, CoreError> {
        if sets.len() < 2 {
            return Err(CoreError::NotEnoughCandidates {
                provided: sets.len(),
            });
        }
        // The variance of a single coefficient is identically 0, so a
        // 1-element set would always "win" with a meaningless perfect
        // score. m ≥ 2 is a hard requirement of this distinguisher —
        // reached e.g. by a streaming session finalized before two
        // averaged DUT traces exist — and surfaces as a typed error.
        for (candidate, set) in sets.iter().enumerate() {
            if set.len() < 2 {
                return Err(CoreError::NotEnoughCoefficients {
                    candidate,
                    provided: set.len(),
                });
            }
        }
        let scores: Vec<f64> = sets.iter().map(|s| s.variance()).collect();
        DistinguisherKind::Variance.decide_scores(scores)
    }
}

/// A value-level selector between the two §V.A distinguishers, for code
/// (the streaming session, the CLI) that chooses the rule at runtime and
/// needs the *score-level* decision shared with the batch
/// [`Distinguisher`] impls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistinguisherKind {
    /// [`HigherMean`]: largest mean wins, confidence `Δmean`.
    Mean,
    /// [`LowerVariance`]: smallest variance wins, confidence `Δv` — the
    /// paper's recommended rule and the default.
    #[default]
    Variance,
}

impl DistinguisherKind {
    /// The report name of the underlying distinguisher.
    pub fn name(self) -> &'static str {
        match self {
            DistinguisherKind::Mean => HigherMean.name(),
            DistinguisherKind::Variance => LowerVariance.name(),
        }
    }

    /// Decides over pre-computed per-candidate scores — the exact logic
    /// the batch [`Distinguisher::decide`] impls run after extracting
    /// their statistics, factored out so the streaming session produces
    /// bit-identical decisions from its incremental scores.
    ///
    /// # Errors
    ///
    /// Returns a statistics error for fewer than two scores.
    pub fn decide_scores(self, scores: Vec<f64>) -> Result<Decision, CoreError> {
        let (best_score, confidence_percent) = match self {
            DistinguisherKind::Mean => {
                let (max, max2) = two_largest(&scores)?;
                (max, delta_mean_from(max, max2))
            }
            DistinguisherKind::Variance => {
                let (min, min2) = two_smallest(&scores)?;
                (min, delta_v_from(min, min2))
            }
        };
        let best = scores
            .iter()
            .position(|&s| s == best_score)
            .ok_or(CoreError::Invariant("the extremum came from the score row"))?;
        Ok(Decision {
            best,
            confidence_percent,
            scores,
        })
    }
}

fn delta_mean_from(max: f64, max2: f64) -> f64 {
    // The paper's formula assumes a positive best mean. For degenerate
    // panels (best mean <= 0, where no candidate resembles the reference)
    // the ratio is meaningless; report zero confidence instead of a
    // negative or non-finite percentage.
    let delta = 100.0 * (1.0 - max2 / max);
    if max > 0.0 && delta.is_finite() {
        delta
    } else {
        0.0
    }
}

fn delta_v_from(min: f64, min2: f64) -> f64 {
    // min2 == 0 forces min == 0 (variances are non-negative): two
    // candidates tie at zero variance and nothing distinguishes them.
    let delta = 100.0 * (1.0 - min / min2);
    if delta.is_finite() {
        delta
    } else {
        0.0
    }
}

/// The paper's `Δmean` confidence distance over a row of per-DUT means.
///
/// # Errors
///
/// Returns a statistics error for fewer than two candidates.
pub fn delta_mean(means: &[f64]) -> Result<f64, CoreError> {
    let (max, max2) = two_largest(means)?;
    Ok(delta_mean_from(max, max2))
}

/// The paper's `Δv` confidence distance over a row of per-DUT variances.
///
/// # Errors
///
/// Returns a statistics error for fewer than two candidates.
pub fn delta_v(variances: &[f64]) -> Result<f64, CoreError> {
    let (min, min2) = two_smallest(variances)?;
    Ok(delta_v_from(min, min2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(coeffs: &[f64]) -> CorrelationSet {
        CorrelationSet::new(coeffs.to_vec()).unwrap()
    }

    #[test]
    fn higher_mean_picks_largest_mean() {
        let sets = vec![set(&[0.3, 0.4]), set(&[0.9, 0.95]), set(&[0.5, 0.5])];
        let d = HigherMean.decide(&sets).unwrap();
        assert_eq!(d.best, 1);
        assert_eq!(d.scores.len(), 3);
        // Δmean = 100 * (1 - 0.5/0.925)
        assert!((d.confidence_percent - 100.0 * (1.0 - 0.5 / 0.925)).abs() < 1e-9);
        assert_eq!(HigherMean.name(), "mean");
    }

    #[test]
    fn lower_variance_picks_smallest_variance() {
        let sets = vec![
            set(&[0.5, 0.5, 0.5]), // variance 0 -> winner
            set(&[0.0, 1.0, 0.5]),
            set(&[0.4, 0.6, 0.5]),
        ];
        let d = LowerVariance.decide(&sets).unwrap();
        assert_eq!(d.best, 0);
        assert_eq!(d.confidence_percent, 100.0);
        assert_eq!(LowerVariance.name(), "variance");
    }

    #[test]
    fn confidence_distances_match_paper_formulas() {
        // Row IP_C of Table I: means 0.733, 0.648, 0.947, 0.657 -> 22.6 %.
        let dm = delta_mean(&[0.733, 0.648, 0.947, 0.657]).unwrap();
        assert!((dm - 22.6).abs() < 0.1, "Δmean = {dm}");
        // Row IP_C of Table II: variances 1.18e-4, 1.66e-4, 9.90e-7,
        // 1.47e-4 -> 99.2 %.
        let dv = delta_v(&[1.18e-4, 1.66e-4, 9.90e-7, 1.47e-4]).unwrap();
        assert!((dv - 99.2).abs() < 0.1, "Δv = {dv}");
    }

    #[test]
    fn paper_table_rows_reproduce_published_deltas() {
        // Table I row IP_A: 0.936, 0.347, 0.896, 0.347 -> ~4 %.
        let dm = delta_mean(&[0.936, 0.347, 0.896, 0.347]).unwrap();
        assert!((dm - 4.27).abs() < 0.1, "Δmean = {dm}");
        // Table II row IP_B: 2.925e-4, 1.928e-5, 3.008e-4, 3.502e-5 -> 44.9 %.
        let dv = delta_v(&[2.925e-4, 1.928e-5, 3.008e-4, 3.502e-5]).unwrap();
        assert!((dv - 44.9).abs() < 0.2, "Δv = {dv}");
    }

    #[test]
    fn degenerate_confidence_is_zero_not_nan() {
        // Two candidates tied at zero variance: 0/0 must not leak NaN into
        // the (court-evidence) report.
        assert_eq!(delta_v(&[0.0, 0.0, 1.0]).unwrap(), 0.0);
        // All-negative means: the paper's ratio is meaningless; report 0.
        assert_eq!(delta_mean(&[-0.5, -0.9]).unwrap(), 0.0);
        assert!(delta_mean(&[0.9, 0.3]).unwrap().is_finite());
    }

    #[test]
    fn decisions_need_two_candidates() {
        let one = vec![set(&[0.5, 0.6])];
        assert!(matches!(
            HigherMean.decide(&one),
            Err(CoreError::NotEnoughCandidates { provided: 1 })
        ));
        assert!(LowerVariance.decide(&one).is_err());
    }

    #[test]
    fn variance_decide_requires_two_coefficients_per_set() {
        // A 1-coefficient set has variance 0 by construction and would
        // always win; the distinguisher must refuse with a typed error.
        let sets = vec![set(&[0.4, 0.6]), set(&[0.5])];
        assert!(matches!(
            LowerVariance.decide(&sets),
            Err(CoreError::NotEnoughCoefficients {
                candidate: 1,
                provided: 1
            })
        ));
        // The mean of a single coefficient is well-defined; HigherMean
        // keeps accepting it.
        assert!(HigherMean.decide(&sets).is_ok());
    }

    #[test]
    fn kind_decisions_match_the_trait_impls() {
        let sets = vec![set(&[0.3, 0.4]), set(&[0.9, 0.95]), set(&[0.5, 0.52])];
        let mean_scores: Vec<f64> = sets.iter().map(CorrelationSet::mean).collect();
        let var_scores: Vec<f64> = sets.iter().map(CorrelationSet::variance).collect();
        let via_kind = DistinguisherKind::Mean.decide_scores(mean_scores).unwrap();
        assert_eq!(via_kind, HigherMean.decide(&sets).unwrap());
        let via_kind = DistinguisherKind::Variance
            .decide_scores(var_scores)
            .unwrap();
        assert_eq!(via_kind, LowerVariance.decide(&sets).unwrap());
        assert_eq!(DistinguisherKind::Mean.name(), "mean");
        assert_eq!(DistinguisherKind::Variance.name(), "variance");
        assert_eq!(DistinguisherKind::default(), DistinguisherKind::Variance);
    }

    #[test]
    fn statistic_accessors() {
        let s = set(&[0.2, 0.4]);
        assert!((HigherMean.statistic(&s) - 0.3).abs() < 1e-12);
        assert!((LowerVariance.statistic(&s) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn trait_objects_work() {
        let ds: Vec<Box<dyn Distinguisher>> = vec![Box::new(HigherMean), Box::new(LowerVariance)];
        let sets = vec![set(&[0.9, 0.91]), set(&[0.1, 0.9])];
        for d in &ds {
            let decision = d.decide(&sets).unwrap();
            assert_eq!(decision.best, 0);
        }
    }
}
