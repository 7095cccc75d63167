//! The correlation computation process of §III.
//!
//! Given a set of reference traces `T_RefD` and a set of device-under-test
//! traces `T_DUT`:
//!
//! 1. compute **one** `k`-averaged reference `A_RefD = mean(U_{T_RefD}(k))`
//!    (a single reference guarantees that all variation between the `m`
//!    output coefficients is due to the DUT, as the paper notes);
//! 2. compute `m` `k`-averaged DUT traces `A_{DUT,m}`;
//! 3. output `C_{RefD,DUT,m,k} = { ρ(A_RefD, A_{DUT,m}(i)) : i ∈ 1..m }`.

use rand::Rng;
use serde::{Deserialize, Serialize};

use ipmark_traces::stats::{mean, variance_population};
use ipmark_traces::TraceSource;

use crate::error::CoreError;
use crate::pipeline::{default_backend, Plan};

/// Parameters `(n1, n2, k, m)` of the correlation computation process.
///
/// The constraints of §V.B are enforced by [`CorrelationParams::validate`]:
/// `n1 ≥ k` (expression 1) and `n2 ≥ k·m` (expression 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CorrelationParams {
    /// Number of traces measured on the reference device.
    pub n1: usize,
    /// Number of traces measured on the device under test.
    pub n2: usize,
    /// Number of traces averaged per `A` trace.
    pub k: usize,
    /// Number of k-averaged DUT traces (= correlation coefficients).
    pub m: usize,
}

impl CorrelationParams {
    /// The paper's experimental parameters: `n1 = 400`, `n2 = 10 000`,
    /// `k = 50`, `m = 20` (α = 10, `P(ζ) = 0.0045`).
    pub fn paper() -> Self {
        Self {
            n1: 400,
            n2: 10_000,
            k: 50,
            m: 20,
        }
    }

    /// A reduced parameter set for fast tests (α = 10 preserved).
    pub fn reduced() -> Self {
        Self {
            n1: 60,
            n2: 1_000,
            k: 10,
            m: 10,
        }
    }

    /// The oversampling factor `α = n2 / (k·m)` controlling the reselection
    /// probability `P(ζ)`.
    pub fn alpha(&self) -> f64 {
        self.n2 as f64 / (self.k * self.m) as f64
    }

    /// Checks the §V.B constraints.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] when any of `k ≥ 1`, `m ≥ 1`,
    /// `n1 ≥ k`, `n2 ≥ k·m` is violated.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.k == 0 {
            return Err(CoreError::InvalidParams {
                reason: "k must be at least 1".into(),
            });
        }
        if self.m == 0 {
            return Err(CoreError::InvalidParams {
                reason: "m must be at least 1".into(),
            });
        }
        if self.n1 < self.k {
            return Err(CoreError::InvalidParams {
                reason: format!("expression (1) violated: n1 = {} < k = {}", self.n1, self.k),
            });
        }
        if self.n2 < self.k * self.m {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "expression (2) violated: n2 = {} < k·m = {}",
                    self.n2,
                    self.k * self.m
                ),
            });
        }
        Ok(())
    }
}

impl Default for CorrelationParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// The output of the correlation computation process: the set
/// `C_{RefD,DUT,m,k}` of `m` Pearson coefficients.
///
/// Invariant: non-empty and every coefficient finite — enforced by
/// [`CorrelationSet::new`] and by deserialization, so that
/// [`CorrelationSet::mean`] / [`CorrelationSet::variance`] are total.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CorrelationSet {
    coefficients: Vec<f64>,
}

impl serde::Deserialize for CorrelationSet {
    fn from_value(value: &serde::Value) -> Result<Self, serde::de::Error> {
        #[derive(serde::Deserialize)]
        struct Raw {
            coefficients: Vec<f64>,
        }
        let raw = Raw::from_value(value)?;
        CorrelationSet::new(raw.coefficients).map_err(serde::de::Error::custom)
    }
}

impl CorrelationSet {
    /// Wraps a coefficient vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for an empty vector or one
    /// containing non-finite coefficients.
    pub fn new(coefficients: Vec<f64>) -> Result<Self, CoreError> {
        if coefficients.is_empty() {
            return Err(CoreError::InvalidParams {
                reason: "correlation set cannot be empty".into(),
            });
        }
        if let Some(bad) = coefficients.iter().find(|c| !c.is_finite()) {
            return Err(CoreError::InvalidParams {
                reason: format!("correlation set contains a non-finite coefficient {bad}"),
            });
        }
        Ok(Self { coefficients })
    }

    /// The coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Number of coefficients (`m`).
    pub fn len(&self) -> usize {
        self.coefficients.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.coefficients.is_empty()
    }

    /// The mean `C̄` — the paper's first distinguisher statistic.
    ///
    /// Total: the constructor rejects empty sets, so the NaN fallback is
    /// unreachable and exists only to keep this accessor panic-free.
    pub fn mean(&self) -> f64 {
        mean(&self.coefficients).unwrap_or(f64::NAN)
    }

    /// The population variance `v(C)` — the paper's second (and better)
    /// distinguisher statistic.
    ///
    /// Total: the constructor rejects empty sets, so the NaN fallback is
    /// unreachable and exists only to keep this accessor panic-free.
    pub fn variance(&self) -> f64 {
        variance_population(&self.coefficients).unwrap_or(f64::NAN)
    }
}

/// Runs the correlation computation process between a reference-device
/// trace source and a DUT trace source.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] when the parameters violate §V.B or
/// exceed the provided sources, and propagates statistic errors (e.g. a
/// zero-variance trace from a dead device).
///
/// # Examples
///
/// ```
/// use ipmark_core::{correlation_process, CorrelationParams};
/// use ipmark_traces::TraceBlock;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two devices with the same deterministic waveform + noise.
/// let wave = |i: usize| (i as f64 * 0.7).sin();
/// let make = |seed: u64| -> TraceBlock {
///     let mut block = TraceBlock::new(format!("dev{seed}"));
///     for t in 0..100 {
///         let noise = ((t as f64 + seed as f64) * 13.37).sin() * 0.1;
///         let row: Vec<f64> = (0..64).map(|i| wave(i) + noise).collect();
///         block.push_row(&row).unwrap();
///     }
///     block
/// };
/// let refd = make(1);
/// let dut = make(2);
/// let params = CorrelationParams { n1: 100, n2: 100, k: 10, m: 5 };
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let c = correlation_process(&refd, &dut, &params, &mut rng)?;
/// assert_eq!(c.len(), 5);
/// assert!(c.mean() > 0.9);
/// # Ok(())
/// # }
/// ```
pub fn correlation_process<SR, SD, R>(
    refd: &SR,
    dut: &SD,
    params: &CorrelationParams,
    rng: &mut R,
) -> Result<CorrelationSet, CoreError>
where
    SR: TraceSource + ?Sized,
    SD: TraceSource + Sync + ?Sized,
    R: Rng + ?Sized,
{
    // Thin shim over the operator graph (see `crate::pipeline`): validate
    // before drawing so a failing call leaves the caller's RNG untouched,
    // exactly like the pre-graph implementation, then run the plan on the
    // environment-sized default pool. The drawn selections, buffer fill
    // order and per-row correlation are bit-identical to the historical
    // hand-rolled body (pinned by the tier-2 golden suites).
    validate_sources(refd, dut, params)?;
    let mut plan = Plan::correlation(params, rng)?;
    plan.execute(refd, dut, &default_backend())
}

pub(crate) fn validate_sources<SR, SD>(
    refd: &SR,
    dut: &SD,
    params: &CorrelationParams,
) -> Result<(), CoreError>
where
    SR: TraceSource + ?Sized,
    SD: TraceSource + ?Sized,
{
    params.validate()?;
    if refd.num_traces() < params.n1 {
        return Err(CoreError::InvalidParams {
            reason: format!(
                "reference source holds {} traces, n1 = {}",
                refd.num_traces(),
                params.n1
            ),
        });
    }
    if dut.num_traces() < params.n2 {
        return Err(CoreError::InvalidParams {
            reason: format!(
                "DUT source holds {} traces, n2 = {}",
                dut.num_traces(),
                params.n2
            ),
        });
    }
    if refd.trace_len() != dut.trace_len() {
        return Err(CoreError::InvalidParams {
            reason: format!(
                "trace lengths differ: reference {} vs DUT {}",
                refd.trace_len(),
                dut.trace_len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmark_traces::TraceBlock;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn noisy_set(device: &str, wave: &[f64], n: usize, seed: u64) -> TraceBlock {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut set = TraceBlock::new(device);
        for _ in 0..n {
            let samples: Vec<f64> = wave
                .iter()
                .map(|&w| w + ipmark_power::device::gaussian(&mut rng, 0.0, 0.5))
                .collect();
            set.push_row(&samples).unwrap();
        }
        set
    }

    fn wave_a() -> Vec<f64> {
        (0..128).map(|i| (i as f64 * 0.3).sin()).collect()
    }

    fn wave_b() -> Vec<f64> {
        (0..128).map(|i| (i as f64 * 0.77 + 1.0).cos()).collect()
    }

    #[test]
    fn params_validation_matches_paper_expressions() {
        assert!(CorrelationParams::paper().validate().is_ok());
        assert!(CorrelationParams::reduced().validate().is_ok());
        let bad_n1 = CorrelationParams {
            n1: 49,
            n2: 10_000,
            k: 50,
            m: 20,
        };
        assert!(bad_n1.validate().is_err());
        let bad_n2 = CorrelationParams {
            n1: 400,
            n2: 999,
            k: 50,
            m: 20,
        };
        assert!(bad_n2.validate().is_err());
        assert!(CorrelationParams {
            n1: 1,
            n2: 1,
            k: 0,
            m: 1
        }
        .validate()
        .is_err());
        assert!(CorrelationParams {
            n1: 1,
            n2: 1,
            k: 1,
            m: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn paper_alpha_is_ten() {
        assert_eq!(CorrelationParams::paper().alpha(), 10.0);
        assert_eq!(CorrelationParams::reduced().alpha(), 10.0);
    }

    #[test]
    fn correlation_set_statistics() {
        let c = CorrelationSet::new(vec![0.9, 0.8, 1.0]).unwrap();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!((c.mean() - 0.9).abs() < 1e-12);
        assert!((c.variance() - 2.0 / 300.0).abs() < 1e-12);
        assert!(CorrelationSet::new(vec![]).is_err());
        assert!(CorrelationSet::new(vec![0.5, f64::NAN]).is_err());
        assert!(CorrelationSet::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn deserialization_enforces_the_invariants() {
        // Empty or non-finite sets must not round-trip into panicking
        // mean()/variance() calls.
        assert!(serde_json::from_str::<CorrelationSet>(r#"{"coefficients":[]}"#).is_err());
        assert!(serde_json::from_str::<CorrelationSet>(r#"{"coefficients":[0.5,null]}"#).is_err());
        let ok: CorrelationSet = serde_json::from_str(r#"{"coefficients":[0.5,0.6]}"#).unwrap();
        assert!((ok.mean() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn same_waveform_correlates_near_one() {
        let refd = noisy_set("r", &wave_a(), 100, 1);
        let dut = noisy_set("d", &wave_a(), 400, 2);
        let params = CorrelationParams {
            n1: 100,
            n2: 400,
            k: 20,
            m: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let c = correlation_process(&refd, &dut, &params, &mut rng).unwrap();
        assert!(c.mean() > 0.95, "mean = {}", c.mean());
        assert!(c.variance() < 1e-3, "variance = {}", c.variance());
    }

    #[test]
    fn different_waveforms_correlate_weakly_with_high_variance() {
        let refd = noisy_set("r", &wave_a(), 100, 1);
        let dut = noisy_set("d", &wave_b(), 400, 2);
        let params = CorrelationParams {
            n1: 100,
            n2: 400,
            k: 20,
            m: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let c = correlation_process(&refd, &dut, &params, &mut rng).unwrap();
        assert!(c.mean().abs() < 0.5, "mean = {}", c.mean());
    }

    #[test]
    fn rejects_undersized_sources() {
        let refd = noisy_set("r", &wave_a(), 10, 1);
        let dut = noisy_set("d", &wave_a(), 400, 2);
        let params = CorrelationParams {
            n1: 100,
            n2: 400,
            k: 20,
            m: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(matches!(
            correlation_process(&refd, &dut, &params, &mut rng),
            Err(CoreError::InvalidParams { .. })
        ));
        assert!(matches!(
            correlation_process(&dut, &refd, &params, &mut rng),
            Err(CoreError::InvalidParams { .. })
        ));
    }

    #[test]
    fn rejects_mismatched_trace_lengths() {
        let refd = noisy_set("r", &wave_a(), 50, 1);
        let short: Vec<f64> = wave_a()[..64].to_vec();
        let dut = noisy_set("d", &short, 100, 2);
        let params = CorrelationParams {
            n1: 50,
            n2: 100,
            k: 10,
            m: 5,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(matches!(
            correlation_process(&refd, &dut, &params, &mut rng),
            Err(CoreError::InvalidParams { .. })
        ));
    }

    #[test]
    fn process_uses_only_first_n_traces() {
        // Traces beyond n2 are poisoned with NaN; the process must not
        // touch them.
        let mut dut = noisy_set("d", &wave_a(), 100, 2);
        dut.push_row(&[f64::NAN; 128]).unwrap();
        let refd = noisy_set("r", &wave_a(), 50, 1);
        let params = CorrelationParams {
            n1: 50,
            n2: 100,
            k: 10,
            m: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let c = correlation_process(&refd, &dut, &params, &mut rng).unwrap();
        assert!(c.coefficients().iter().all(|r| r.is_finite()));
    }

    #[test]
    fn fused_process_is_bitwise_equal_to_sequential_reference() {
        let refd = noisy_set("r", &wave_a(), 80, 1);
        let dut = noisy_set("d", &wave_a(), 300, 2);
        let params = CorrelationParams {
            n1: 80,
            n2: 300,
            k: 15,
            m: 8,
        };
        for seed in 0..4u64 {
            let fused =
                correlation_process(&refd, &dut, &params, &mut ChaCha8Rng::seed_from_u64(seed))
                    .unwrap();
            let seq = Plan::correlation(&params, &mut ChaCha8Rng::seed_from_u64(seed))
                .unwrap()
                .execute_seq(&refd, &dut)
                .unwrap();
            let fused_bits: Vec<u64> = fused.coefficients().iter().map(|c| c.to_bits()).collect();
            let seq_bits: Vec<u64> = seq.coefficients().iter().map(|c| c.to_bits()).collect();
            assert_eq!(fused_bits, seq_bits, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let refd = noisy_set("r", &wave_a(), 60, 1);
        let dut = noisy_set("d", &wave_a(), 200, 2);
        let params = CorrelationParams {
            n1: 60,
            n2: 200,
            k: 10,
            m: 6,
        };
        let c1 =
            correlation_process(&refd, &dut, &params, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        let c2 =
            correlation_process(&refd, &dut, &params, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        assert_eq!(c1, c2);
    }
}
