//! Parameter-selection theory (§V.B).
//!
//! With `n2 = α·k·m`, the probability that a given DUT trace enters one
//! `k`-selection is `P(tᵢ) = 1/(αm)`, and the probability `P(ζ)` that some
//! fixed trace is selected more than once across the `m` independent
//! selections is
//!
//! `f_α(m) = 1 − (1 + (m−1)/(αm)) · (1 − 1/(αm))^(m−1)`
//!
//! which is independent of `k` (property noted in the paper), tends to 0 as
//! `α → ∞` (property **P1**) and tends to
//! `1 − ((α+1)/α)·e^(−1/α)` as `m → ∞` (property **P2**).
//!
//! The paper's workflow: pick the acceptable `P(ζ)` → that fixes `α`; pick
//! `m` just large enough to sit within a few percent of the limit
//! (Figure 5: `α = 10`, 5 % ⇒ `m ≈ 17`); `k` then only trades off
//! acquisition time, and `n2 = α·k·m`.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::verify::CorrelationParams;

/// The paper's `f_α(m)`: probability that a fixed trace is selected more
/// than once over `m` independent `k`-selections, with `n2 = α·k·m`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] when `α < 1` (expression 2 requires
/// `n2 ≥ k·m`) or `m = 0`.
///
/// # Examples
///
/// ```
/// use ipmark_core::params::f_alpha;
///
/// // The paper's experiment: α = 10, m = 20 ⇒ P(ζ) ≈ 0.0045.
/// let p = f_alpha(10.0, 20).unwrap();
/// assert!((p - 0.0045).abs() < 1e-4);
/// ```
pub fn f_alpha(alpha: f64, m: u64) -> Result<f64, CoreError> {
    if alpha.is_nan() || alpha < 1.0 || !alpha.is_finite() {
        return Err(CoreError::InvalidParams {
            reason: format!("alpha must be >= 1, got {alpha}"),
        });
    }
    if m == 0 {
        return Err(CoreError::InvalidParams {
            reason: "m must be at least 1".into(),
        });
    }
    let m = m as f64;
    let p = 1.0 / (alpha * m);
    Ok(1.0 - (1.0 + (m - 1.0) * p) * (1.0 - p).powf(m - 1.0))
}

/// Property **P2**: `lim_{m→∞} f_α(m) = 1 − ((α+1)/α)·e^(−1/α)`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] when `α < 1`.
pub fn f_limit(alpha: f64) -> Result<f64, CoreError> {
    if alpha.is_nan() || alpha < 1.0 || !alpha.is_finite() {
        return Err(CoreError::InvalidParams {
            reason: format!("alpha must be >= 1, got {alpha}"),
        });
    }
    Ok(1.0 - ((alpha + 1.0) / alpha) * (-1.0 / alpha).exp())
}

/// Alias matching the paper's notation: `P(ζ) = f_α(m)`.
///
/// # Errors
///
/// Same as [`f_alpha`].
pub fn p_zeta(alpha: f64, m: u64) -> Result<f64, CoreError> {
    f_alpha(alpha, m)
}

/// The smallest `m` whose `f_α(m)` lies within `rel_tol` (relative) of the
/// `m → ∞` limit — how the paper reads "m ≥ 17" off Figure 5 for
/// `α = 10`, 5 %.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] for `α < 1` or a non-positive
/// tolerance, or if no `m ≤ 10⁶` qualifies.
pub fn choose_m(alpha: f64, rel_tol: f64) -> Result<u64, CoreError> {
    if rel_tol.is_nan() || rel_tol <= 0.0 || !rel_tol.is_finite() {
        return Err(CoreError::InvalidParams {
            reason: format!("relative tolerance must be positive, got {rel_tol}"),
        });
    }
    let limit = f_limit(alpha)?;
    for m in 1..=1_000_000u64 {
        let f = f_alpha(alpha, m)?;
        if (f - limit).abs() <= rel_tol * limit {
            return Ok(m);
        }
    }
    Err(CoreError::InvalidParams {
        reason: format!("no m <= 1e6 reaches the f_{alpha} limit within {rel_tol}"),
    })
}

/// A complete parameter plan derived from a target reselection probability,
/// following the paper's §V.B recipe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParameterPlan {
    /// Oversampling factor `α`.
    pub alpha: f64,
    /// Number of averaged DUT traces `m`.
    pub m: usize,
    /// Traces per average `k`.
    pub k: usize,
    /// Implied DUT campaign size `n2 = α·k·m` (rounded up).
    pub n2: usize,
    /// The achieved reselection probability `P(ζ)`.
    pub p_zeta: f64,
}

impl ParameterPlan {
    /// Builds a plan from a choice of `α`, the relative distance to the
    /// limit used to pick `m`, and the measurement-budget parameter `k`.
    ///
    /// # Errors
    ///
    /// Propagates parameter errors from the underlying formulas.
    pub fn from_alpha(alpha: f64, limit_rel_tol: f64, k: usize) -> Result<Self, CoreError> {
        if k == 0 {
            return Err(CoreError::InvalidParams {
                reason: "k must be at least 1".into(),
            });
        }
        let m = choose_m(alpha, limit_rel_tol)? as usize;
        let n2 = (alpha * k as f64 * m as f64).ceil() as usize;
        let p = f_alpha(alpha, m as u64)?;
        Ok(Self {
            alpha,
            m,
            k,
            n2,
            p_zeta: p,
        })
    }

    /// Converts the plan into correlation parameters, given the reference
    /// campaign size `n1`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] when `n1 < k`.
    pub fn into_params(self, n1: usize) -> Result<CorrelationParams, CoreError> {
        let params = CorrelationParams {
            n1,
            n2: self.n2,
            k: self.k,
            m: self.m,
        };
        params.validate()?;
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_experiment_p_zeta() {
        // §V.B: "In the experiment, α = 10 and m = 20, so the probability of
        // the event ζ is fixed to: P(ζ) = 0.0045".
        let p = p_zeta(10.0, 20).unwrap();
        assert!((p - 0.0045).abs() < 5e-5, "P(ζ) = {p}");
    }

    #[test]
    fn limit_value_for_alpha_ten() {
        let l = f_limit(10.0).unwrap();
        // 1 - 1.1 * e^{-0.1} = 0.004678...
        assert!((l - 0.0046788).abs() < 1e-6, "limit = {l}");
    }

    #[test]
    fn f_alpha_independent_of_k_by_construction_and_increasing_in_m() {
        let mut prev = 0.0;
        for m in 1..200 {
            let f = f_alpha(10.0, m).unwrap();
            assert!(f >= prev - 1e-15, "f_10 not monotone at m = {m}");
            prev = f;
        }
    }

    #[test]
    fn f_alpha_converges_to_limit() {
        for &alpha in &[1.0, 2.0, 10.0, 100.0] {
            let limit = f_limit(alpha).unwrap();
            let f = f_alpha(alpha, 1_000_000).unwrap();
            assert!(
                (f - limit).abs() < 1e-5 * limit.max(1e-12),
                "alpha = {alpha}: f = {f}, limit = {limit}"
            );
        }
    }

    #[test]
    fn property_p1_large_alpha_drives_p_zeta_to_zero() {
        for m in [2u64, 20, 200] {
            let f = f_alpha(1e9, m).unwrap();
            assert!(f.abs() < 1e-9, "m = {m}: f = {f}");
        }
    }

    #[test]
    fn figure5_m_threshold_for_five_percent() {
        // Figure 5 reads m ≥ 17 for α = 10 at the 5 % band; the exact
        // crossing is between 17 and 18 (the paper reads the plot).
        let m = choose_m(10.0, 0.05).unwrap();
        assert!(
            (17..=18).contains(&m),
            "m* = {m}, expected 17 or 18 per Figure 5"
        );
        // A tighter band needs more averages.
        assert!(choose_m(10.0, 0.01).unwrap() > m);
    }

    #[test]
    fn f_alpha_one_at_m_one_is_zero() {
        // With a single selection a trace cannot repeat.
        assert_eq!(f_alpha(10.0, 1).unwrap(), 0.0);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(f_alpha(0.5, 10).is_err());
        assert!(f_alpha(f64::NAN, 10).is_err());
        assert!(f_alpha(10.0, 0).is_err());
        assert!(f_limit(0.0).is_err());
        assert!(choose_m(10.0, 0.0).is_err());
        assert!(choose_m(10.0, -1.0).is_err());
    }

    #[test]
    fn plan_reproduces_paper_n2() {
        let plan = ParameterPlan::from_alpha(10.0, 0.05, 50).unwrap();
        assert_eq!(plan.k, 50);
        assert!((17..=18).contains(&(plan.m as u64)));
        // n2 = α·k·m: with m = 17 → 8500, m = 18 → 9000; the paper rounds m
        // up to 20 for margin, giving 10 000.
        assert_eq!(plan.n2, 10 * 50 * plan.m);
        assert!(plan.p_zeta > 0.0 && plan.p_zeta < f_limit(10.0).unwrap());
        let params = plan.into_params(400).unwrap();
        assert_eq!(params.k, 50);
        assert!(params.validate().is_ok());
    }

    #[test]
    fn plan_rejects_small_n1() {
        let plan = ParameterPlan::from_alpha(10.0, 0.05, 50).unwrap();
        assert!(plan.into_params(10).is_err());
    }

    #[test]
    fn plan_rejects_zero_k() {
        assert!(ParameterPlan::from_alpha(10.0, 0.05, 0).is_err());
    }
}
