//! Correlation power analysis (CPA) against the watermark leakage
//! component.
//!
//! The paper's verification scheme is *cooperative* — the owner knows `Kw`.
//! This module answers the adversarial question the scheme implies: can a
//! third party recover `Kw` from power traces alone, ChipWhisperer-style?
//!
//! Because the FSM is input-independent and reset to a known state, the
//! attacker knows the exact state sequence and can predict, for every key
//! guess `g`, the Hamming distance of the S-Box output register `H`. The
//! guess whose predictions correlate best with the measured per-cycle power
//! is the recovered key. The companion ablation shows that with the S-Box
//! replaced by an identity table the predictions become key-independent and
//! the attack collapses — the non-linearity is what keys the signature.

use ipmark_core::ip::{CounterKind, IpSpec, Substitution};
use ipmark_core::pipeline::{default_backend, CorrelateStage};
use ipmark_core::WatermarkKey;
use ipmark_traces::kernels;
use ipmark_traces::{StatsError, TraceSource};
use serde::{Deserialize, Serialize};

use crate::error::AttackError;

/// Result of a CPA key search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpaResult {
    /// Correlation score per key guess (index = guess value).
    pub scores: Vec<f64>,
    /// The best-scoring guess.
    pub best_key: WatermarkKey,
    /// Score margin between the best and second-best guess (absolute).
    pub margin: f64,
    /// Rank of a designated "true" key if one was supplied to the search
    /// (0 = recovered exactly).
    pub true_key_rank: Option<usize>,
}

/// Compresses measured traces to a per-cycle power estimate: the mean over
/// all traces, then the mean over the samples of each cycle.
///
/// # Errors
///
/// Returns [`AttackError::Config`] when the trace length is not a multiple
/// of `samples_per_cycle` and propagates trace errors.
fn per_cycle_profile<S: TraceSource + ?Sized>(
    traces: &S,
    num_traces: usize,
    samples_per_cycle: usize,
) -> Result<Vec<f64>, AttackError> {
    if samples_per_cycle == 0 {
        return Err(AttackError::Config(
            "samples_per_cycle must be positive".into(),
        ));
    }
    if num_traces == 0 || num_traces > traces.num_traces() {
        return Err(AttackError::Config(format!(
            "num_traces {} out of range (campaign holds {})",
            num_traces,
            traces.num_traces()
        )));
    }
    let len = traces.trace_len();
    if !len.is_multiple_of(samples_per_cycle) {
        return Err(AttackError::Config(format!(
            "trace length {len} is not a multiple of samples_per_cycle {samples_per_cycle}"
        )));
    }
    let mut acc = vec![0.0; len];
    for i in 0..num_traces {
        traces.accumulate(i, &mut acc)?;
    }
    let cycles = len / samples_per_cycle;
    let norm = 1.0 / (num_traces as f64 * samples_per_cycle as f64);
    let mut profile = Vec::with_capacity(cycles);
    for c in 0..cycles {
        let s = kernels::sum(&acc[c * samples_per_cycle..(c + 1) * samples_per_cycle]);
        profile.push(s * norm);
    }
    Ok(profile)
}

/// Predicted per-cycle leakage of the `H` register for a key guess:
/// `HD(H_c, H_{c+1})` along the known state sequence.
///
/// # Errors
///
/// Returns [`AttackError::Invariant`] if the freshly built watermarked
/// spec has no `H` sequence — impossible by construction, surfaced as a
/// typed error rather than a panic.
pub fn predicted_leakage(
    counter: CounterKind,
    substitution: Substitution,
    guess: WatermarkKey,
    cycles: usize,
) -> Result<Vec<f64>, AttackError> {
    let spec = IpSpec::watermarked_with_substitution("guess", counter, guess, substitution);
    let h = spec
        .sbox_output_sequence(cycles + 1)
        .ok_or(AttackError::Invariant(
            "watermarked spec always has an H sequence",
        ))?;
    Ok((0..cycles)
        .map(|c| f64::from((h[c] ^ h[c + 1]).count_ones()))
        .collect())
}

/// Ranks 256 per-guess scores: returns (best guess, margin to the runner-up,
/// rank of `true_key` if supplied).
fn rank_guesses(
    scores: &[f64],
    true_key: Option<WatermarkKey>,
) -> (WatermarkKey, f64, Option<usize>) {
    debug_assert_eq!(scores.len(), 256);
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // Scores are finite by construction; total_cmp gives the same order
    // for finite values and stays total (panic-free) on the impossible
    // NaN path.
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let best = order[0];
    let margin = scores[best] - scores[order[1]];
    let rank = true_key.and_then(|k| order.iter().position(|&g| g == usize::from(k.value())));
    (WatermarkKey::new(best as u8), margin, rank)
}

/// Centers the measured profile once for reuse across all 256 hypotheses.
///
/// `None` means the profile itself is constant (dead device): every guess
/// scores 0 by convention, exactly as per-guess `pearson` calls would.
///
/// Pearson is symmetric in its arguments — bitwise, not just
/// mathematically, because `f64` multiplication commutes — so correlating
/// the centered *profile* against each *prediction* reproduces the
/// historical `pearson(prediction, profile)` scores exactly.
fn center_profile(profile: &[f64]) -> Result<Option<CorrelateStage>, AttackError> {
    CorrelateStage::try_center(profile).map_err(AttackError::from)
}

/// Scores one hypothesis against a centered profile (0 when either side is
/// constant, as under the identity ablation).
fn score_hypothesis(
    reference: Option<&CorrelateStage>,
    prediction: &[f64],
) -> Result<f64, AttackError> {
    match reference.map(|r| r.kernel().correlate(prediction)) {
        None | Some(Err(StatsError::ZeroVariance)) => Ok(0.0),
        Some(Ok(r)) => Ok(r),
        Some(Err(e)) => Err(e.into()),
    }
}

/// Evaluates a per-guess function over all 256 key guesses on the default
/// pool (env-sized, inline at one worker). Results come
/// back in guess order either way, so downstream ranking is thread-count
/// invariant.
fn guess_map<T, F>(per_guess: F) -> Result<Vec<T>, AttackError>
where
    T: Send,
    F: Fn(u8) -> Result<T, AttackError> + Sync,
{
    default_backend().try_map_indexed(256, |g| per_guess(g as u8))
}

/// Runs the CPA key search over all 256 guesses.
///
/// `true_key` is optional ground truth used only for reporting the rank in
/// [`CpaResult::true_key_rank`].
///
/// # Errors
///
/// Propagates profile/statistics errors; a constant profile (dead device)
/// surfaces as a zero-variance statistics error.
pub fn recover_key<S: TraceSource + ?Sized>(
    traces: &S,
    num_traces: usize,
    samples_per_cycle: usize,
    counter: CounterKind,
    substitution: Substitution,
    true_key: Option<WatermarkKey>,
) -> Result<CpaResult, AttackError> {
    let profile = per_cycle_profile(traces, num_traces, samples_per_cycle)?;
    let cycles = profile.len();
    if cycles < 4 {
        return Err(AttackError::Config(format!(
            "{cycles} cycles is too short for CPA"
        )));
    }

    // Predictions fan out across threads; the correlation itself runs
    // against the profile centered once, one fused sweep per hypothesis.
    // Bit-identical to per-guess `score_hypothesis` calls (the stage wraps
    // `PearsonRef`), including the zero-score convention for constant
    // predictions.
    let reference = center_profile(&profile)?;
    let predictions: Vec<Vec<f64>> =
        guess_map(|g| predicted_leakage(counter, substitution, WatermarkKey::new(g), cycles))?;
    let scores = match reference.as_ref() {
        None => vec![0.0; predictions.len()],
        Some(r) => r.many_or_zero(predictions.iter().map(Vec::as_slice))?,
    };

    let (best_key, margin, true_key_rank) = rank_guesses(&scores, true_key);
    Ok(CpaResult {
        scores,
        best_key,
        margin,
        true_key_rank,
    })
}

/// Phase-robust CPA: like [`recover_key`], but without assuming the
/// attacker knows where the cycle boundaries fall in the sample stream.
///
/// The attacker tries every trigger phase 0..`samples_per_cycle`; for each
/// phase the sample-level profile is folded into per-cycle values starting
/// at that offset, and each guess is scored by its best correlation over
/// all phases. This models a real bench where the scope trigger is not
/// aligned to the DUT clock.
///
/// # Errors
///
/// Same as [`recover_key`].
pub fn recover_key_phase_robust<S: TraceSource + ?Sized>(
    traces: &S,
    num_traces: usize,
    samples_per_cycle: usize,
    counter: CounterKind,
    substitution: Substitution,
    true_key: Option<WatermarkKey>,
) -> Result<CpaResult, AttackError> {
    if samples_per_cycle == 0 {
        return Err(AttackError::Config(
            "samples_per_cycle must be positive".into(),
        ));
    }
    if num_traces == 0 || num_traces > traces.num_traces() {
        return Err(AttackError::Config(format!(
            "num_traces {} out of range (campaign holds {})",
            num_traces,
            traces.num_traces()
        )));
    }
    let len = traces.trace_len();
    if len < 4 * samples_per_cycle {
        return Err(AttackError::Config(format!(
            "trace length {len} too short for phase-robust CPA"
        )));
    }
    let mut acc = vec![0.0; len];
    for i in 0..num_traces {
        traces.accumulate(i, &mut acc)?;
    }
    for a in &mut acc {
        *a /= num_traces as f64;
    }

    // Fold the sample profile into per-cycle means at each phase offset.
    let profiles: Vec<Vec<f64>> = (0..samples_per_cycle)
        .map(|phase| {
            let cycles = (len - phase) / samples_per_cycle;
            (0..cycles)
                .map(|c| {
                    let start = phase + c * samples_per_cycle;
                    kernels::sum(&acc[start..start + samples_per_cycle]) / samples_per_cycle as f64
                })
                .collect()
        })
        .collect();

    // One centered reference per phase, shared by all 256 hypotheses.
    let references: Vec<Option<CorrelateStage>> = profiles
        .iter()
        .map(|p| center_profile(p))
        .collect::<Result<_, _>>()?;

    let scores = guess_map(|g| {
        let mut best = 0.0f64;
        for (profile, reference) in profiles.iter().zip(&references) {
            let prediction =
                predicted_leakage(counter, substitution, WatermarkKey::new(g), profile.len())?;
            best = best.max(score_hypothesis(reference.as_ref(), &prediction)?);
        }
        Ok(best)
    })?;

    let (best_key, margin, true_key_rank) = rank_guesses(&scores, true_key);
    Ok(CpaResult {
        scores,
        best_key,
        margin,
        true_key_rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmark_core::ip::{default_chain, FabricatedDevice, SAMPLES_PER_CYCLE};
    use ipmark_power::ProcessVariation;

    fn campaign(spec: &IpSpec, cycles: usize, n: usize) -> ipmark_power::SimulatedAcquisition {
        let chain = default_chain().unwrap();
        let mut die = FabricatedDevice::fabricate(spec, &ProcessVariation::typical(), 3).unwrap();
        die.acquisition(&chain, cycles, n, 7).unwrap()
    }

    #[test]
    fn cpa_recovers_the_watermark_key() {
        let kw = WatermarkKey::new(0x5b);
        let spec = IpSpec::watermarked("target", CounterKind::Gray, kw);
        let acq = campaign(&spec, 256, 200);
        let result = recover_key(
            &acq,
            200,
            SAMPLES_PER_CYCLE,
            CounterKind::Gray,
            Substitution::AesSbox,
            Some(kw),
        )
        .unwrap();
        assert_eq!(result.best_key, kw, "margin = {}", result.margin);
        assert_eq!(result.true_key_rank, Some(0));
        assert!(result.margin > 0.0);
    }

    #[test]
    fn cpa_fails_against_identity_ablation() {
        let kw = WatermarkKey::new(0x5b);
        let spec = IpSpec::watermarked_with_substitution(
            "ablated",
            CounterKind::Gray,
            kw,
            Substitution::Identity,
        );
        let acq = campaign(&spec, 256, 200);
        let result = recover_key(
            &acq,
            200,
            SAMPLES_PER_CYCLE,
            CounterKind::Gray,
            Substitution::Identity,
            Some(kw),
        )
        .unwrap();
        // With H = state ^ Kw, HD(H_c, H_{c+1}) is key-independent: every
        // guess predicts the same leakage, so the best guess is arbitrary
        // and the margin collapses.
        assert!(
            result.margin < 1e-9,
            "identity ablation should have no key contrast, margin = {}",
            result.margin
        );
    }

    #[test]
    fn profile_validates_configuration() {
        let spec = IpSpec::watermarked("t", CounterKind::Binary, WatermarkKey::new(1));
        let acq = campaign(&spec, 16, 10);
        assert!(per_cycle_profile(&acq, 10, 0).is_err());
        assert!(per_cycle_profile(&acq, 0, SAMPLES_PER_CYCLE).is_err());
        assert!(per_cycle_profile(&acq, 11, SAMPLES_PER_CYCLE).is_err());
        assert!(per_cycle_profile(&acq, 10, 7).is_err());
        let p = per_cycle_profile(&acq, 10, SAMPLES_PER_CYCLE).unwrap();
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn predictions_differ_between_keys_with_sbox_only() {
        let a = predicted_leakage(
            CounterKind::Gray,
            Substitution::AesSbox,
            WatermarkKey::new(1),
            64,
        )
        .unwrap();
        let b = predicted_leakage(
            CounterKind::Gray,
            Substitution::AesSbox,
            WatermarkKey::new(2),
            64,
        )
        .unwrap();
        assert_ne!(a, b);
        let ia = predicted_leakage(
            CounterKind::Gray,
            Substitution::Identity,
            WatermarkKey::new(1),
            64,
        )
        .unwrap();
        let ib = predicted_leakage(
            CounterKind::Gray,
            Substitution::Identity,
            WatermarkKey::new(2),
            64,
        )
        .unwrap();
        // Identity: HD(H) = HD(state) regardless of key — except at the
        // very first edge out of the reset value H₀ = 0.
        assert_eq!(ia[1..], ib[1..]);
    }

    #[test]
    fn phase_robust_cpa_recovers_key() {
        let kw = WatermarkKey::new(0x2f);
        let spec = IpSpec::watermarked("target", CounterKind::Binary, kw);
        let acq = campaign(&spec, 256, 200);
        let result = recover_key_phase_robust(
            &acq,
            200,
            SAMPLES_PER_CYCLE,
            CounterKind::Binary,
            Substitution::AesSbox,
            Some(kw),
        )
        .unwrap();
        assert_eq!(result.best_key, kw, "margin = {}", result.margin);
        assert_eq!(result.true_key_rank, Some(0));
    }

    #[test]
    fn phase_robust_validates_inputs() {
        let spec = IpSpec::watermarked("t", CounterKind::Gray, WatermarkKey::new(1));
        let acq = campaign(&spec, 16, 10);
        assert!(recover_key_phase_robust(
            &acq,
            10,
            0,
            CounterKind::Gray,
            Substitution::AesSbox,
            None
        )
        .is_err());
        assert!(recover_key_phase_robust(
            &acq,
            0,
            SAMPLES_PER_CYCLE,
            CounterKind::Gray,
            Substitution::AesSbox,
            None
        )
        .is_err());
        let tiny = campaign(&spec, 2, 5);
        assert!(recover_key_phase_robust(
            &tiny,
            5,
            SAMPLES_PER_CYCLE,
            CounterKind::Gray,
            Substitution::AesSbox,
            None
        )
        .is_err());
    }

    #[test]
    fn short_captures_are_rejected() {
        let spec = IpSpec::watermarked("t", CounterKind::Binary, WatermarkKey::new(1));
        let acq = campaign(&spec, 2, 5);
        assert!(matches!(
            recover_key(
                &acq,
                5,
                SAMPLES_PER_CYCLE,
                CounterKind::Binary,
                Substitution::AesSbox,
                None
            ),
            Err(AttackError::Config(_))
        ));
    }
}
