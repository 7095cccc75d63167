//! Structured verification reports.
//!
//! A verification campaign ends with a decision, but a court case (the
//! paper's stated use: "the verification of the watermark can be used as
//! proof in front of a court") needs the *evidence*: every correlation set,
//! both distinguisher views, the confidence distances and the exact
//! parameters. [`VerificationReport`] packages all of it, renders a
//! human-readable transcript and serializes to JSON for archival.

use serde::{Deserialize, Serialize};

use crate::distinguisher::{Decision, Distinguisher, HigherMean, LowerVariance};
use crate::error::CoreError;
use crate::matrix::IdentificationMatrix;
use crate::verify::{CorrelationParams, CorrelationSet};

/// One candidate DUT's evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateReport {
    /// DUT label.
    pub name: String,
    /// Mean of the correlation set.
    pub mean: f64,
    /// Variance of the correlation set.
    pub variance: f64,
    /// The raw coefficients `C_{RefD,DUT,m,k}`.
    pub coefficients: Vec<f64>,
}

/// The complete evidence for one reference device against a DUT panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Reference-device label.
    pub reference: String,
    /// Parameters used.
    pub params: CorrelationParams,
    /// Per-candidate evidence.
    pub candidates: Vec<CandidateReport>,
    /// The higher-mean distinguisher's decision.
    pub mean_decision: Decision,
    /// The lower-variance distinguisher's decision (the paper's
    /// recommendation).
    pub variance_decision: Decision,
}

impl VerificationReport {
    /// Builds the report for one reference against a named candidate panel.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotEnoughCandidates`] for fewer than two
    /// candidates and [`CoreError::InvalidParams`] when names and sets
    /// disagree in length.
    pub fn new(
        reference: impl Into<String>,
        params: CorrelationParams,
        names: &[String],
        sets: &[CorrelationSet],
    ) -> Result<Self, CoreError> {
        if names.len() != sets.len() {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "{} candidate names for {} correlation sets",
                    names.len(),
                    sets.len()
                ),
            });
        }
        let mean_decision = HigherMean.decide(sets)?;
        let variance_decision = LowerVariance.decide(sets)?;
        let candidates = names
            .iter()
            .zip(sets)
            .map(|(name, set)| CandidateReport {
                name: name.clone(),
                mean: set.mean(),
                variance: set.variance(),
                coefficients: set.coefficients().to_vec(),
            })
            .collect();
        Ok(Self {
            reference: reference.into(),
            params,
            candidates,
            mean_decision,
            variance_decision,
        })
    }

    /// Builds one report per reference row of an identification matrix.
    ///
    /// # Errors
    ///
    /// Propagates decision errors.
    pub fn from_matrix(
        matrix: &IdentificationMatrix,
        params: CorrelationParams,
    ) -> Result<Vec<Self>, CoreError> {
        matrix
            .refd_names()
            .iter()
            .zip(matrix.sets())
            .map(|(refd, row)| Self::new(refd.clone(), params, matrix.dut_names(), row))
            .collect()
    }

    /// The verdict: the candidate the variance distinguisher picked.
    pub fn verdict(&self) -> &CandidateReport {
        &self.candidates[self.variance_decision.best]
    }

    /// Whether both distinguishers agree on the winner.
    pub fn distinguishers_agree(&self) -> bool {
        self.mean_decision.best == self.variance_decision.best
    }

    /// Renders a human-readable transcript.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "verification report — reference {}", self.reference);
        let _ = writeln!(
            out,
            "parameters: n1 = {}, n2 = {}, k = {}, m = {} (alpha = {:.2})",
            self.params.n1,
            self.params.n2,
            self.params.k,
            self.params.m,
            self.params.alpha()
        );
        let _ = writeln!(out, "candidates:");
        for (i, c) in self.candidates.iter().enumerate() {
            let mark = if i == self.variance_decision.best {
                " <= VERDICT"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<20} mean = {:>7.4}   variance = {:>10.3e}{mark}",
                c.name, c.mean, c.variance
            );
        }
        let _ = writeln!(
            out,
            "higher-mean distinguisher : {} (Δmean = {:.2}%)",
            self.candidates[self.mean_decision.best].name, self.mean_decision.confidence_percent
        );
        let _ = writeln!(
            out,
            "lower-variance distinguisher: {} (Δv = {:.2}%)",
            self.candidates[self.variance_decision.best].name,
            self.variance_decision.confidence_percent
        );
        let _ = writeln!(
            out,
            "distinguishers {}",
            if self.distinguishers_agree() {
                "agree"
            } else {
                "DISAGREE — trust the variance verdict (paper §V.A)"
            }
        );
        out
    }

    /// Serializes the report to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] if serialization fails (cannot
    /// occur for finite data).
    pub fn to_json(&self) -> Result<String, CoreError> {
        serde_json::to_string_pretty(self).map_err(|e| CoreError::InvalidParams {
            reason: format!("JSON serialization failed: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets() -> (Vec<String>, Vec<CorrelationSet>) {
        (
            vec!["DUT#1".into(), "DUT#2".into()],
            vec![
                CorrelationSet::new(vec![0.93, 0.94, 0.92]).unwrap(),
                CorrelationSet::new(vec![0.2, 0.8, 0.5]).unwrap(),
            ],
        )
    }

    #[test]
    fn report_carries_verdict_and_evidence() {
        let (names, s) = sets();
        let report =
            VerificationReport::new("IP_X", CorrelationParams::reduced(), &names, &s).unwrap();
        assert_eq!(report.verdict().name, "DUT#1");
        assert!(report.distinguishers_agree());
        assert_eq!(report.candidates.len(), 2);
        assert_eq!(report.candidates[0].coefficients.len(), 3);
    }

    #[test]
    fn report_validates_shape() {
        let (_, s) = sets();
        assert!(VerificationReport::new(
            "X",
            CorrelationParams::reduced(),
            &["only-one".into()],
            &s
        )
        .is_err());
        assert!(
            VerificationReport::new("X", CorrelationParams::reduced(), &["a".into()], &s[..1])
                .is_err()
        );
    }

    #[test]
    fn text_rendering_is_complete() {
        let (names, s) = sets();
        let report =
            VerificationReport::new("IP_X", CorrelationParams::reduced(), &names, &s).unwrap();
        let text = report.render_text();
        assert!(text.contains("reference IP_X"));
        assert!(text.contains("DUT#1"));
        assert!(text.contains("VERDICT"));
        assert!(text.contains("Δv"));
        assert!(text.contains("agree"));
    }

    #[test]
    fn json_round_trip() {
        let (names, s) = sets();
        let report =
            VerificationReport::new("IP_X", CorrelationParams::paper(), &names, &s).unwrap();
        let json = report.to_json().unwrap();
        assert!(json.contains("\"reference\": \"IP_X\""));
        let back: VerificationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn disagreement_is_reported() {
        // Candidate 0 wins on mean, candidate 1 on variance.
        let names = vec!["a".into(), "b".into()];
        let s = vec![
            CorrelationSet::new(vec![0.99, 0.01]).unwrap(), // mean 0.5, huge variance
            CorrelationSet::new(vec![0.45, 0.45]).unwrap(), // mean 0.45, zero variance
        ];
        let report =
            VerificationReport::new("X", CorrelationParams::reduced(), &names, &s).unwrap();
        assert!(!report.distinguishers_agree());
        assert_eq!(report.verdict().name, "b");
        assert!(report.render_text().contains("DISAGREE"));
    }
}
