//! Device instances and CMOS process variation.
//!
//! The paper implements the same IP on eight different Cyclone-III FPGAs
//! and reports that verification is "insensitive to the CMOS variation
//! process". To reproduce that claim, every simulated device instance gets
//! its own gain, offset and per-component weight jitter, drawn from a
//! [`ProcessVariation`] distribution with a per-device seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::error::PowerError;
use crate::leakage::WeightedComponentModel;
use crate::noise::standard_normal;

/// Magnitudes of inter-die variation, as relative standard deviations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessVariation {
    /// Relative σ of the global gain (≈ transistor strength spread).
    pub gain_sigma: f64,
    /// Absolute σ of the static offset (≈ leakage-current spread), in the
    /// same units as the leakage model output.
    pub offset_sigma: f64,
    /// Relative σ of each component's weight multiplier (≈ local variation).
    pub weight_sigma: f64,
    /// Absolute σ of the per-die routing fingerprint (data-dependent
    /// place-and-route differences), in leakage-model units per cycle.
    pub fingerprint_sigma: f64,
}

impl ProcessVariation {
    /// Typical mature-process corner used by the experiments (a few percent
    /// of inter-die spread).
    pub fn typical() -> Self {
        Self {
            gain_sigma: 0.03,
            offset_sigma: 0.02,
            weight_sigma: 0.02,
            fingerprint_sigma: 0.35,
        }
    }

    /// No variation at all: every device is an identical twin.
    pub fn none() -> Self {
        Self {
            gain_sigma: 0.0,
            offset_sigma: 0.0,
            weight_sigma: 0.0,
            fingerprint_sigma: 0.0,
        }
    }

    /// Validates that all sigmas are finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] otherwise.
    pub fn validate(&self) -> Result<(), PowerError> {
        for (name, v) in [
            ("gain_sigma", self.gain_sigma),
            ("offset_sigma", self.offset_sigma),
            ("weight_sigma", self.weight_sigma),
            ("fingerprint_sigma", self.fingerprint_sigma),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(PowerError::Config(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for ProcessVariation {
    fn default() -> Self {
        Self::typical()
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer used to derive
/// independent seeds throughout the workspace.
///
/// The finalizer is a **bijection** on `u64` (every step — add, xor-shift
/// mix, odd-constant multiply — is invertible), which is what makes
/// clone-and-offset seed derivations such as
/// `ipmark_core::campaign::cell_seed` injective: distinct inputs can never
/// collapse onto one seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Draws a Gaussian with the given mean and standard deviation from one
/// [`standard_normal`] draw. For one-off draws (die sampling, tests); the
/// measurement chain's noise sweep draws from the same sampler.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    mean + sigma * standard_normal(rng)
}

/// One physical device instance: a nominal leakage model perturbed by
/// process variation, plus a per-die *routing fingerprint*.
///
/// The effective per-cycle power is
/// `gain × jittered_model(activity) + offset + fingerprint(cycle)`.
///
/// The fingerprint is a deterministic pseudo-random per-cycle perturbation
/// unique to the die. Physically it aggregates the data-dependent effects of
/// per-board place-and-route differences (net capacitances, clock-tree
/// skew): two boards carrying the *same* IP still dissipate slightly
/// different waveforms. This is what keeps the matched-pair correlation of
/// the paper's Figure 4 at ≈ 0.94 rather than 1.0 — the reference device
/// and the device under test are different physical boards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    name: String,
    gain: f64,
    offset: f64,
    model: WeightedComponentModel,
    fingerprint_sigma: f64,
    fingerprint_seed: u64,
}

impl DeviceModel {
    /// Instantiates a device from a nominal model and a variation corner,
    /// deterministically from `seed` (one seed per physical die).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] for an invalid variation corner.
    pub fn sample(
        name: impl Into<String>,
        nominal: &WeightedComponentModel,
        variation: &ProcessVariation,
        seed: u64,
    ) -> Result<Self, PowerError> {
        variation.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let gain = gaussian(&mut rng, 1.0, variation.gain_sigma).max(0.1);
        let offset = gaussian(&mut rng, 0.0, variation.offset_sigma);
        let weights = nominal
            .weights()
            .iter()
            .map(|w| w.scaled(gaussian(&mut rng, 1.0, variation.weight_sigma).max(0.1)))
            .collect();
        Ok(Self {
            name: name.into(),
            gain,
            offset,
            model: WeightedComponentModel::new(nominal.base(), weights),
            fingerprint_sigma: variation.fingerprint_sigma,
            fingerprint_seed: splitmix64(seed ^ 0x005f_6970_6d61_726b_u64),
        })
    }

    /// A device exactly matching the nominal model (no variation, no
    /// fingerprint).
    pub fn nominal(name: impl Into<String>, model: WeightedComponentModel) -> Self {
        Self {
            name: name.into(),
            gain: 1.0,
            offset: 0.0,
            model,
            fingerprint_sigma: 0.0,
            fingerprint_seed: 0,
        }
    }

    /// Device label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Static offset of this die.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// The per-die routing-fingerprint contribution at a given cycle index:
    /// a deterministic pseudo-random value unique to (die, cycle).
    pub fn fingerprint(&self, cycle: u64) -> f64 {
        if self.fingerprint_sigma == 0.0 {
            return 0.0;
        }
        // Two independent uniform 64-bit values from the (seed, cycle) pair,
        // turned into one Gaussian via Box–Muller. This is a pure function
        // of (die, cycle), not a stream draw, so it keeps the fixed-cost
        // transform: a rejection sampler would need a retry sequence.
        let u1 = splitmix64(self.fingerprint_seed ^ splitmix64(cycle));
        let u2 = splitmix64(u1 ^ 0xd1b5_4a32_d192_ed03);
        let f1 = (u1 >> 11) as f64 / (1u64 << 53) as f64;
        let f2 = (u2 >> 11) as f64 / (1u64 << 53) as f64;
        let f1 = f1.max(f64::MIN_POSITIVE);
        self.fingerprint_sigma * (-2.0 * f1.ln()).sqrt() * (2.0 * std::f64::consts::PI * f2).cos()
    }

    /// Effective power for one cycle of activity on this die.
    pub fn cycle_power(&self, record: &ipmark_netlist::ActivityRecord) -> f64 {
        self.gain * self.model.cycle_power(record) + self.offset + self.fingerprint(record.cycle)
    }

    /// Validates the device against a circuit's component count.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::ModelShapeMismatch`] on disagreement.
    pub fn validate(&self, circuit_components: usize) -> Result<(), PowerError> {
        self.model.validate(circuit_components)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::ComponentWeights;
    use ipmark_netlist::{ActivityRecord, ComponentActivity};

    fn nominal() -> WeightedComponentModel {
        WeightedComponentModel::new(5.0, vec![ComponentWeights::state_toggle(1.0); 3])
    }

    #[test]
    fn validation_rejects_negative_sigmas() {
        let bad = ProcessVariation {
            gain_sigma: -0.1,
            offset_sigma: 0.0,
            weight_sigma: 0.0,
            fingerprint_sigma: 0.0,
        };
        assert!(bad.validate().is_err());
        assert!(ProcessVariation::typical().validate().is_ok());
        assert!(ProcessVariation::none().validate().is_ok());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let v = ProcessVariation::typical();
        let d1 = DeviceModel::sample("a", &nominal(), &v, 7).unwrap();
        let d2 = DeviceModel::sample("a", &nominal(), &v, 7).unwrap();
        let d3 = DeviceModel::sample("a", &nominal(), &v, 8).unwrap();
        assert_eq!(d1, d2);
        assert_ne!(d1.gain, d3.gain);
    }

    #[test]
    fn zero_variation_gives_nominal_device() {
        let d = DeviceModel::sample("a", &nominal(), &ProcessVariation::none(), 3).unwrap();
        assert_eq!(d.gain, 1.0);
        assert_eq!(d.offset(), 0.0);
        assert_eq!(d.model, nominal());
    }

    #[test]
    fn variation_spread_matches_sigma_roughly() {
        let v = ProcessVariation {
            gain_sigma: 0.05,
            offset_sigma: 0.0,
            weight_sigma: 0.0,
            fingerprint_sigma: 0.0,
        };
        let gains: Vec<f64> = (0..500)
            .map(|s| DeviceModel::sample("d", &nominal(), &v, s).unwrap().gain)
            .collect();
        let mean = gains.iter().sum::<f64>() / gains.len() as f64;
        let var = gains.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gains.len() as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean gain {mean}");
        assert!(
            (var.sqrt() - 0.05).abs() < 0.01,
            "gain sigma {}",
            var.sqrt()
        );
    }

    #[test]
    fn cycle_power_applies_gain_and_offset() {
        let d = DeviceModel::nominal("n", nominal());
        let r = ActivityRecord {
            cycle: 0,
            components: vec![
                ComponentActivity {
                    state_hd: 2,
                    ..Default::default()
                };
                3
            ],
        };
        // 1.0 * (5 + 3*2) + 0
        assert_eq!(d.cycle_power(&r), 11.0);
        assert!(d.validate(3).is_ok());
        assert!(d.validate(2).is_err());
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let xs: Vec<f64> = (0..20_000).map(|_| gaussian(&mut rng, 2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.4, "var {var}");
    }
}
