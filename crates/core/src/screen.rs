//! Single-device counterfeit screening.
//!
//! The paper's distinguishers are comparative — they need a panel of DUTs
//! and pick the best. Its §I, however, also names the *absolute* question:
//! is this one device genuine or a counterfeit? [`CounterfeitScreen`]
//! answers it with a variance threshold calibrated from a population of
//! known-genuine verifications: a device whose correlation-set variance
//! exceeds the threshold is flagged.

use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ipmark_traces::TraceSource;

use crate::error::CoreError;
use crate::pipeline::{default_backend, Plan};
use crate::verify::{correlation_process, CorrelationParams, CorrelationSet};

/// The verdict for one screened device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScreeningVerdict {
    /// The measured correlation-set variance.
    pub variance: f64,
    /// The measured correlation-set mean (reported for context).
    pub mean: f64,
    /// The threshold the variance was compared against.
    pub threshold: f64,
    /// `true` when the device is judged to carry the watermarked IP.
    pub genuine: bool,
}

/// A calibrated variance threshold for absolute (single-device) decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterfeitScreen {
    threshold: f64,
}

impl CounterfeitScreen {
    /// Uses an explicit variance threshold.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for a non-positive or
    /// non-finite threshold.
    pub fn with_threshold(threshold: f64) -> Result<Self, CoreError> {
        if !threshold.is_finite() || threshold <= 0.0 {
            return Err(CoreError::InvalidParams {
                reason: format!("screening threshold must be positive, got {threshold}"),
            });
        }
        Ok(Self { threshold })
    }

    /// Calibrates the threshold from genuine-pair verification variances:
    /// `threshold = margin × max(genuine variances)`.
    ///
    /// Margin choice: the *hardest* negative class — the same FSM under a
    /// different watermark key — sits only ≈ 4–6× above genuine variances
    /// at paper-grade averaging (see the X3 ROC experiment), so a margin of
    /// 2–3 is the safe default. Unmarked clones and different FSMs sit an
    /// order of magnitude higher and tolerate margins up to ~10.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for an empty calibration set,
    /// non-positive margins, or degenerate (non-finite/zero) variances.
    pub fn calibrate(genuine_variances: &[f64], margin: f64) -> Result<Self, CoreError> {
        if genuine_variances.is_empty() {
            return Err(CoreError::InvalidParams {
                reason: "calibration needs at least one genuine variance".into(),
            });
        }
        if !margin.is_finite() || margin <= 1.0 {
            return Err(CoreError::InvalidParams {
                reason: format!("margin must exceed 1, got {margin}"),
            });
        }
        let max = genuine_variances.iter().cloned().fold(f64::NAN, f64::max);
        if !max.is_finite() || max <= 0.0 {
            return Err(CoreError::InvalidParams {
                reason: format!("genuine variances are degenerate (max = {max})"),
            });
        }
        Self::with_threshold(max * margin)
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Judges an already-computed correlation set.
    pub fn judge(&self, set: &CorrelationSet) -> ScreeningVerdict {
        let variance = set.variance();
        ScreeningVerdict {
            variance,
            mean: set.mean(),
            threshold: self.threshold,
            genuine: variance <= self.threshold,
        }
    }

    /// Runs the full §III process against one DUT and judges the result.
    ///
    /// # Errors
    ///
    /// Propagates correlation-process errors.
    pub fn screen<SR, SD, R>(
        &self,
        refd: &SR,
        dut: &SD,
        params: &CorrelationParams,
        rng: &mut R,
    ) -> Result<ScreeningVerdict, CoreError>
    where
        SR: TraceSource + ?Sized,
        SD: TraceSource + Sync + ?Sized,
        R: Rng + ?Sized,
    {
        let set = correlation_process(refd, dut, params, rng)?;
        Ok(self.judge(&set))
    }

    /// The ChaCha8 seed that [`CounterfeitScreen::screen_panel`] derives for
    /// panel position `index`. Public so callers can reproduce any single
    /// panel verdict with [`CounterfeitScreen::screen`].
    #[must_use]
    pub fn panel_seed(base_seed: u64, index: usize) -> u64 {
        base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64)
    }

    /// Screens a whole panel of DUTs against one reference device.
    ///
    /// Each device gets its own ChaCha8 stream seeded with
    /// [`CounterfeitScreen::panel_seed`]`(base_seed, index)`, so verdict
    /// `j` equals a standalone [`CounterfeitScreen::screen`] call with that
    /// seed — at any worker count, including one. The devices fan out over
    /// the default pool; with at least one device per worker, each
    /// device's k-averaging runs inline on its thread (DESIGN.md §7).
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest-index) correlation-process error.
    pub fn screen_panel<SR, SD>(
        &self,
        refd: &SR,
        duts: &[SD],
        params: &CorrelationParams,
        base_seed: u64,
    ) -> Result<Vec<ScreeningVerdict>, CoreError>
    where
        SR: TraceSource + Sync + ?Sized,
        SD: TraceSource + Sync,
    {
        let pool = default_backend();
        pool.try_map_indexed(duts.len(), |j| {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(Self::panel_seed(base_seed, j));
            crate::verify::validate_sources(refd, &duts[j], params)?;
            let mut plan = Plan::correlation(params, &mut rng)?;
            let set = plan.execute(refd, &duts[j], &pool)?;
            Ok(self.judge(&set))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::correlation_process;

    fn set(coeffs: &[f64]) -> CorrelationSet {
        CorrelationSet::new(coeffs.to_vec()).unwrap()
    }

    #[test]
    fn calibration_sets_threshold_above_genuine_spread() {
        let screen = CounterfeitScreen::calibrate(&[1e-6, 3e-6, 2e-6], 5.0).unwrap();
        assert!((screen.threshold() - 1.5e-5).abs() < 1e-12);
    }

    #[test]
    fn calibration_validation() {
        assert!(CounterfeitScreen::calibrate(&[], 5.0).is_err());
        assert!(CounterfeitScreen::calibrate(&[1e-6], 1.0).is_err());
        assert!(CounterfeitScreen::calibrate(&[0.0], 5.0).is_err());
        assert!(CounterfeitScreen::calibrate(&[f64::NAN], 5.0).is_err());
        assert!(CounterfeitScreen::with_threshold(0.0).is_err());
        assert!(CounterfeitScreen::with_threshold(-1.0).is_err());
    }

    #[test]
    fn judge_splits_on_threshold() {
        let screen = CounterfeitScreen::with_threshold(1e-4).unwrap();
        // Tight set: variance ~ 2.2e-5 < 1e-4 -> genuine... compute:
        let tight = set(&[0.90, 0.91, 0.905]);
        let v = screen.judge(&tight);
        assert!(v.genuine, "variance {}", v.variance);
        assert!(v.variance < 1e-4);
        let loose = set(&[0.2, 0.9, 0.5]);
        let v = screen.judge(&loose);
        assert!(!v.genuine, "variance {}", v.variance);
        assert_eq!(v.threshold, 1e-4);
    }

    #[test]
    fn screen_panel_matches_per_device_screens() {
        use ipmark_traces::TraceBlock;

        // Cheap synthetic panel: one genuine twin of the reference and one
        // device with an unrelated waveform.
        let wave_a: Vec<f64> = (0..96).map(|i| (i as f64 * 0.31).sin()).collect();
        let wave_b: Vec<f64> = (0..96).map(|i| (i as f64 * 0.83 + 0.4).cos()).collect();
        let noisy = |name: &str, wave: &[f64], n: usize, seed: u64| {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut set = TraceBlock::new(name);
            for _ in 0..n {
                let samples: Vec<f64> = wave
                    .iter()
                    .map(|&w| w + ipmark_power::device::gaussian(&mut rng, 0.0, 0.4))
                    .collect();
                set.push_row(&samples).unwrap();
            }
            set
        };
        let refd = noisy("ref", &wave_a, 60, 1);
        let genuine = noisy("genuine", &wave_a, 300, 2);
        let fake = noisy("fake", &wave_b, 300, 3);
        let params = CorrelationParams {
            n1: 60,
            n2: 300,
            k: 20,
            m: 8,
        };
        let screen = CounterfeitScreen::with_threshold(1e-5).unwrap();

        let duts = [genuine, fake];
        let verdicts = screen.screen_panel(&refd, &duts, &params, 77).unwrap();
        assert_eq!(verdicts.len(), 2);
        assert!(
            verdicts[0].genuine,
            "genuine variance {} vs fake {}",
            verdicts[0].variance, verdicts[1].variance
        );
        assert!(
            !verdicts[1].genuine,
            "genuine variance {} vs fake {}",
            verdicts[0].variance, verdicts[1].variance
        );

        // The documented contract: verdict j reproduces a standalone screen
        // with the derived panel seed.
        for (j, dut) in duts.iter().enumerate() {
            let mut rng =
                rand_chacha::ChaCha8Rng::seed_from_u64(CounterfeitScreen::panel_seed(77, j));
            let lone = screen.screen(&refd, dut, &params, &mut rng).unwrap();
            assert_eq!(verdicts[j], lone, "panel index {j}");
        }
    }

    #[test]
    fn margin_2_5_separates_the_rekeyed_negative_class() {
        // The hardest negative: same FSM, different key. At paper-grade
        // averaging its variance sits only ~4-6x above genuine, so the
        // recommended margin of 2.5 must split the two while a margin of 5
        // would not (regression for the CLI default).
        use crate::ip::{default_chain, ip_b, FabricatedDevice, IpSpec};
        use crate::{CounterKind, WatermarkKey};
        use ipmark_power::ProcessVariation;
        use rand::SeedableRng;

        let chain = default_chain().unwrap();
        let variation = ProcessVariation::typical();
        let params = CorrelationParams {
            n1: 100,
            n2: 2000,
            k: 50,
            m: 20,
        };
        let acq = |spec: &IpSpec, die: u64, n: usize| {
            FabricatedDevice::fabricate(spec, &variation, die)
                .unwrap()
                .acquisition(&chain, 256, n, die)
                .unwrap()
        };
        let refd = acq(&ip_b(), 1, params.n1);
        let genuine = acq(&ip_b(), 2, params.n2);
        let rekeyed = acq(
            &IpSpec::watermarked("rekeyed", CounterKind::Gray, WatermarkKey::new(0x99)),
            3,
            params.n2,
        );
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let genuine_set = correlation_process(&refd, &genuine, &params, &mut rng).unwrap();
        let screen = CounterfeitScreen::calibrate(&[genuine_set.variance()], 2.5).unwrap();
        assert!(screen.judge(&genuine_set).genuine);
        let v_rekeyed = screen.screen(&refd, &rekeyed, &params, &mut rng).unwrap();
        assert!(
            !v_rekeyed.genuine,
            "rekeyed variance {:.3e} vs threshold {:.3e}",
            v_rekeyed.variance,
            screen.threshold()
        );
    }

    #[test]
    fn end_to_end_screen_flags_unmarked_clone() {
        use crate::ip::{default_chain, ip_b, FabricatedDevice, IpSpec};
        use crate::CounterKind;
        use ipmark_power::ProcessVariation;
        use rand::SeedableRng;

        let chain = default_chain().unwrap();
        let variation = ProcessVariation::typical();
        // k = 40 averaging shrinks the genuine (noise-driven) variance an
        // order of magnitude below the clone's structural variance; at the
        // weaker k = 20 the two populations nearly touch and no margin
        // separates them reliably.
        let params = CorrelationParams {
            n1: 60,
            n2: 1600,
            k: 40,
            m: 16,
        };
        let acq = |spec: &IpSpec, die: u64, n: usize| {
            FabricatedDevice::fabricate(spec, &variation, die)
                .unwrap()
                .acquisition(&chain, 128, n, die * 11)
                .unwrap()
        };
        let refd = acq(&ip_b(), 1, params.n1);
        let genuine = acq(&ip_b(), 2, params.n2);
        let clone = acq(&IpSpec::unmarked("clone", CounterKind::Gray), 3, params.n2);

        // Calibrate from a small population of genuine verifications, as
        // the screen's contract prescribes: a single m = 16 variance
        // estimate is too noisy to set a stable threshold from.
        let genuine_sets: Vec<_> = (5u64..8)
            .map(|seed| {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                correlation_process(&refd, &genuine, &params, &mut rng).unwrap()
            })
            .collect();
        let variances: Vec<f64> = genuine_sets.iter().map(CorrelationSet::variance).collect();
        let screen = CounterfeitScreen::calibrate(&variances, 2.5).unwrap();

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let v_genuine = screen.judge(&genuine_sets[0]);
        assert!(v_genuine.genuine);
        let v_clone = screen.screen(&refd, &clone, &params, &mut rng).unwrap();
        assert!(!v_clone.genuine, "clone variance {}", v_clone.variance);
    }
}
