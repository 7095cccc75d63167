//! ROC analysis for single-pair verification decisions.
//!
//! The paper's distinguishers are *comparative* (pick the best DUT out of a
//! panel). The second verification objective of §I — spotting a counterfeit
//! among marked devices — is a binary decision per device, which calls for
//! a score threshold. This module turns populations of matched and
//! mismatched verification scores into an ROC curve and its AUC, so a
//! deployment can pick the operating point.

use serde::{Deserialize, Serialize};

use crate::error::AttackError;

/// One (false-positive rate, true-positive rate) operating point with its
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// Decision threshold (scores ≥ threshold are called positive).
    pub threshold: f64,
    /// False-positive rate at this threshold.
    pub fpr: f64,
    /// True-positive rate at this threshold.
    pub tpr: f64,
}

/// A receiver-operating-characteristic curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RocCurve {
    points: Vec<RocPoint>,
    auc: f64,
}

impl RocCurve {
    /// Builds the curve from positive-class and negative-class scores.
    /// Higher scores must indicate the positive class (negate scores if the
    /// natural statistic works the other way, e.g. correlation variance).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Config`] when either population is empty or
    /// contains non-finite scores.
    pub fn from_scores(positives: &[f64], negatives: &[f64]) -> Result<Self, AttackError> {
        if positives.is_empty() || negatives.is_empty() {
            return Err(AttackError::Config(
                "ROC needs at least one score in each class".into(),
            ));
        }
        if positives.iter().chain(negatives).any(|s| !s.is_finite()) {
            return Err(AttackError::Config("scores must be finite".into()));
        }

        // Sweep thresholds over all distinct scores, descending.
        let mut thresholds: Vec<f64> = positives.iter().chain(negatives).copied().collect();
        // Finiteness is validated above; total_cmp keeps the same
        // descending order without a panic path.
        thresholds.sort_by(|a, b| b.total_cmp(a));
        thresholds.dedup();

        let np = positives.len() as f64;
        let nn = negatives.len() as f64;
        let mut points = Vec::with_capacity(thresholds.len() + 2);
        points.push(RocPoint {
            threshold: f64::INFINITY,
            fpr: 0.0,
            tpr: 0.0,
        });
        for &th in &thresholds {
            let tpr = positives.iter().filter(|&&s| s >= th).count() as f64 / np;
            let fpr = negatives.iter().filter(|&&s| s >= th).count() as f64 / nn;
            points.push(RocPoint {
                threshold: th,
                fpr,
                tpr,
            });
        }

        // Trapezoidal AUC over the swept points.
        let mut auc = 0.0;
        for w in points.windows(2) {
            auc += (w[1].fpr - w[0].fpr) * (w[1].tpr + w[0].tpr) / 2.0;
        }

        Ok(Self { points, auc })
    }

    /// Area under the curve (1.0 = perfect separation, 0.5 = chance).
    pub fn auc(&self) -> f64 {
        self.auc
    }

    /// The operating point with the best Youden index (tpr − fpr), a
    /// standard threshold choice.
    ///
    /// Total: a constructed curve always holds at least the (0, 0) anchor
    /// point, whose Youden index 0 is returned for the degenerate case.
    pub fn best_youden(&self) -> RocPoint {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| (a.tpr - a.fpr).total_cmp(&(b.tpr - b.fpr)))
            .unwrap_or(RocPoint {
                threshold: f64::INFINITY,
                fpr: 0.0,
                tpr: 0.0,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_has_auc_one() {
        let roc = RocCurve::from_scores(&[10.0, 11.0, 12.0], &[1.0, 2.0, 3.0]).unwrap();
        assert!((roc.auc() - 1.0).abs() < 1e-12);
        let best = roc.best_youden();
        assert_eq!(best.tpr, 1.0);
        assert_eq!(best.fpr, 0.0);
    }

    #[test]
    fn identical_populations_have_auc_half() {
        let s = [1.0, 2.0, 3.0, 4.0];
        let roc = RocCurve::from_scores(&s, &s).unwrap();
        assert!((roc.auc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reversed_populations_have_auc_near_zero() {
        let roc = RocCurve::from_scores(&[1.0, 2.0], &[10.0, 11.0]).unwrap();
        assert!(roc.auc() < 0.01);
    }

    #[test]
    fn partial_overlap_is_intermediate() {
        let pos = [3.0, 4.0, 5.0, 6.0];
        let neg = [1.0, 2.0, 3.5, 4.5];
        let roc = RocCurve::from_scores(&pos, &neg).unwrap();
        assert!(roc.auc() > 0.5 && roc.auc() < 1.0, "auc = {}", roc.auc());
    }

    #[test]
    fn validation() {
        assert!(RocCurve::from_scores(&[], &[1.0]).is_err());
        assert!(RocCurve::from_scores(&[1.0], &[]).is_err());
        assert!(RocCurve::from_scores(&[f64::NAN], &[1.0]).is_err());
    }

    #[test]
    fn curve_is_monotone() {
        let pos = [5.0, 6.0, 4.0, 7.0, 5.5];
        let neg = [3.0, 4.5, 2.0, 5.2];
        let roc = RocCurve::from_scores(&pos, &neg).unwrap();
        for w in roc.points.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
        }
    }
}
