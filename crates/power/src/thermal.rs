//! Temperature drift of the measurement gain across a trace.
//!
//! A die heats up while a campaign runs: transistor mobility drops, supply
//! regulation shifts, and the effective amplitude of the measured power
//! waveform drifts slowly over the acquisition window. The scenario
//! campaigns model this as a **slow multiplicative gain ramp across one
//! trace**: sample `i` of an `n`-sample trace is scaled by
//! `1 + slope · i/(n−1)`, so the trace starts at the nominal gain and ends
//! at `1 + slope` times it.
//!
//! The ramp is applied to the *measured* trace (after pulse shaping,
//! filtering and noise), matching where a thermal amplitude drift enters a
//! real oscilloscope capture.

use serde::{Deserialize, Serialize};

use crate::error::PowerError;

/// A linear per-trace gain ramp: sample `i` of an `n`-sample trace is
/// multiplied by `1 + slope · i/(n−1)`.
///
/// `slope = 0` is the exact identity — [`ThermalDrift::apply_in_place`]
/// returns before touching the samples, so a zero-slope scenario is
/// bit-identical to a pipeline without the drift stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalDrift {
    slope: f64,
}

impl ThermalDrift {
    /// A drift with the given end-of-trace relative gain change.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] for a non-finite slope or one at or
    /// below `-1` (the end-of-trace gain must stay positive).
    pub fn new(slope: f64) -> Result<Self, PowerError> {
        if !slope.is_finite() {
            return Err(PowerError::Config(format!(
                "thermal-drift slope must be finite, got {slope}"
            )));
        }
        if slope <= -1.0 {
            return Err(PowerError::Config(format!(
                "thermal-drift slope must stay above -1 (end gain 1 + slope must \
                 be positive), got {slope}"
            )));
        }
        Ok(Self { slope })
    }

    /// The exact identity drift (`slope = 0`).
    pub fn none() -> Self {
        Self { slope: 0.0 }
    }

    /// Whether this drift is the exact identity.
    pub fn is_none(&self) -> bool {
        self.slope == 0.0
    }

    /// Applies the gain ramp to one trace in place.
    ///
    /// A zero slope returns immediately without reading or writing any
    /// sample; traces shorter than two samples have no ramp to apply.
    pub fn apply_in_place(&self, samples: &mut [f64]) {
        if self.slope == 0.0 || samples.len() < 2 {
            return;
        }
        let step = self.slope / (samples.len() - 1) as f64;
        for (i, x) in samples.iter_mut().enumerate() {
            *x *= 1.0 + step * i as f64;
        }
    }
}

impl Default for ThermalDrift {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_slope() {
        assert!(ThermalDrift::new(0.0).is_ok());
        assert!(ThermalDrift::new(0.25).is_ok());
        assert!(ThermalDrift::new(-0.5).is_ok());
        assert!(ThermalDrift::new(-1.0).is_err());
        assert!(ThermalDrift::new(-1.5).is_err());
        assert!(ThermalDrift::new(f64::NAN).is_err());
        assert!(ThermalDrift::new(f64::INFINITY).is_err());
    }

    #[test]
    fn zero_slope_is_bit_identity() {
        let original = vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE, 1e300];
        let mut samples = original.clone();
        ThermalDrift::none().apply_in_place(&mut samples);
        let got: Vec<u64> = samples.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = original.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
        assert!(ThermalDrift::none().is_none());
        assert!(ThermalDrift::default().is_none());
    }

    #[test]
    fn ramp_endpoints_match_definition() {
        let mut samples = vec![1.0; 5];
        let drift = ThermalDrift::new(0.2).unwrap();
        drift.apply_in_place(&mut samples);
        assert!(
            (samples[0] - 1.0).abs() < 1e-15,
            "start gain {}",
            samples[0]
        );
        assert!((samples[4] - 1.2).abs() < 1e-15, "end gain {}", samples[4]);
        // Interior samples interpolate linearly.
        assert!((samples[2] - 1.1).abs() < 1e-15, "mid gain {}", samples[2]);
    }

    #[test]
    fn short_traces_are_untouched() {
        let drift = ThermalDrift::new(0.5).unwrap();
        let mut one = vec![3.0];
        drift.apply_in_place(&mut one);
        assert_eq!(one, vec![3.0]);
        let mut empty: Vec<f64> = Vec::new();
        drift.apply_in_place(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn negative_slope_cools_the_trace() {
        let mut samples = vec![2.0; 3];
        ThermalDrift::new(-0.5)
            .unwrap()
            .apply_in_place(&mut samples);
        assert!((samples[2] - 1.0).abs() < 1e-15);
        assert!(samples[0] > samples[1] && samples[1] > samples[2]);
    }
}
