//! Adversarial DUT models for the scenario campaigns.
//!
//! The paper evaluates the distinguishers against honest hardware: a
//! genuine marked device and a bare unmarked clone. Follow-up work (SIGNED,
//! ICMarks) asks the harder question — does verification stay
//! discriminative when the device under test is built by an adversary who
//! *partially knows* the watermark key, or who *masks* the S-Box leakage to
//! hide a stolen mark? This module captures those threat models as
//! [`AdversaryModel`]s, each expanding into a positive-class and a
//! negative-class DUT build for ROC analysis:
//!
//! * [`AdversaryModel::Honest`] — the baseline: genuine marked device vs
//!   unmarked counterfeit. High AUC means the verifier works at all.
//! * [`AdversaryModel::GuessedKey`] — a *forger* embeds a leakage component
//!   keyed by a guess sharing `bits_known` low bits with the true `Kw`.
//!   The ROC pits genuine devices against forgeries; with all 8 bits known
//!   the forgery is exact and AUC collapses to 0.5 by construction.
//! * [`AdversaryModel::MaskedLeakage`] — a *thief* ships the genuine marked
//!   design but attenuates the S-Box leakage weights by `suppression`. The
//!   ROC pits masked-but-marked devices against honest unmarked ones: AUC
//!   measures whether the hidden mark is still detectable, degrading toward
//!   0.5 as suppression approaches 1.

use ipmark_core::ip::{layout, IpSpec};
use ipmark_core::WatermarkKey;
use ipmark_power::leakage::WeightedComponentModel;

use crate::error::AttackError;

/// Width of the watermark key in bits (the paper's `Kw` is one byte).
pub const KEY_BITS: u32 = 8;

/// One adversarial DUT scenario (see the module docs for the threat
/// models and their ROC class framing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryModel {
    /// No evasion: genuine marked device vs bare unmarked clone.
    Honest,
    /// A forged watermark keyed by a guess that agrees with the true `Kw`
    /// on the `bits_known` least-significant bits and is wrong on the rest.
    GuessedKey {
        /// Number of correctly guessed key bits, `0..=KEY_BITS`.
        bits_known: u32,
    },
    /// The genuine marked design with its S-Box leakage weights attenuated
    /// by the given fraction (`0` = no masking, `1` = leakage removed).
    MaskedLeakage {
        /// Fraction of the S-Box leakage suppressed, in `[0, 1]`.
        suppression: f64,
    },
}

impl AdversaryModel {
    /// Checks the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Config`] when `bits_known > KEY_BITS` or
    /// `suppression` is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), AttackError> {
        match *self {
            AdversaryModel::Honest => Ok(()),
            AdversaryModel::GuessedKey { bits_known } => {
                if bits_known > KEY_BITS {
                    return Err(AttackError::Config(format!(
                        "guessed-key adversary knows at most {KEY_BITS} bits, got {bits_known}"
                    )));
                }
                Ok(())
            }
            AdversaryModel::MaskedLeakage { suppression } => {
                if !suppression.is_finite() || !(0.0..=1.0).contains(&suppression) {
                    return Err(AttackError::Config(format!(
                        "masked-leakage suppression must lie in [0, 1], got {suppression}"
                    )));
                }
                Ok(())
            }
        }
    }

    /// A short, stable label for reports and fixtures.
    pub fn label(&self) -> String {
        match *self {
            AdversaryModel::Honest => "honest".to_owned(),
            AdversaryModel::GuessedKey { bits_known } => format!("guessed-key/{bits_known}"),
            AdversaryModel::MaskedLeakage { suppression } => format!("masked/{suppression:.2}"),
        }
    }

    /// The positive-class DUT build for ROC analysis: the device the
    /// verifier should call *marked/genuine*.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Config`] for invalid parameters or an
    /// unmarked `genuine` spec.
    pub fn positive_build(&self, genuine: &IpSpec) -> Result<DutBuild, AttackError> {
        self.validate()?;
        require_marked(genuine)?;
        match *self {
            AdversaryModel::Honest | AdversaryModel::GuessedKey { .. } => {
                Ok(DutBuild::plain(genuine.clone()))
            }
            AdversaryModel::MaskedLeakage { suppression } => {
                // The thief's device: genuine design, S-Box leakage scaled
                // down. The verifier should still spot the mark.
                let spec = rename(genuine, &format!("{}-masked", genuine.name()))?;
                Ok(DutBuild {
                    spec,
                    sbox_scale: 1.0 - suppression,
                })
            }
        }
    }

    /// The negative-class DUT build for ROC analysis: the device the
    /// verifier should call *unmarked/forged*.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Config`] for invalid parameters or an
    /// unmarked `genuine` spec.
    pub fn negative_build(&self, genuine: &IpSpec) -> Result<DutBuild, AttackError> {
        self.validate()?;
        let key = require_marked(genuine)?;
        match *self {
            AdversaryModel::Honest | AdversaryModel::MaskedLeakage { .. } => Ok(DutBuild::plain(
                IpSpec::unmarked(format!("{}-clone", genuine.name()), genuine.counter()),
            )),
            AdversaryModel::GuessedKey { bits_known } => {
                let forged = forged_key(key, bits_known);
                Ok(DutBuild::plain(IpSpec::watermarked_with_substitution(
                    format!("{}-forged{bits_known}", genuine.name()),
                    genuine.counter(),
                    forged,
                    genuine.substitution(),
                )))
            }
        }
    }
}

/// The forger's key guess: agrees with `kw` on the `bits_known`
/// least-significant bits and complements every remaining bit (the worst
/// consistent guess). `bits_known = KEY_BITS` reproduces `kw` exactly.
pub fn forged_key(kw: WatermarkKey, bits_known: u32) -> WatermarkKey {
    let mask: u8 = if bits_known >= KEY_BITS {
        0xff
    } else {
        ((1u16 << bits_known) - 1) as u8
    };
    WatermarkKey::new((kw.value() & mask) | (!kw.value() & !mask))
}

/// One concrete DUT construction: the circuit spec plus the scale applied
/// to the S-Box leakage weights of its nominal power model.
#[derive(Debug, Clone, PartialEq)]
pub struct DutBuild {
    spec: IpSpec,
    sbox_scale: f64,
}

impl DutBuild {
    fn plain(spec: IpSpec) -> Self {
        Self {
            spec,
            sbox_scale: 1.0,
        }
    }

    /// The genuine marked device itself, unmodified — what the reference
    /// bench measures.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Config`] for an unmarked spec.
    pub fn genuine(spec: &IpSpec) -> Result<Self, AttackError> {
        require_marked(spec)?;
        Ok(Self::plain(spec.clone()))
    }

    /// The circuit specification to fabricate.
    pub fn spec(&self) -> &IpSpec {
        &self.spec
    }

    /// The nominal power model of this build: the spec's calibrated model,
    /// with the S-Box component weights scaled by the build's suppression.
    ///
    /// An unscaled build returns the spec's model bit-identically (no
    /// multiply is applied), so honest builds stay on the unmodified
    /// pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Invariant`] if a scaled build's layout lacks
    /// the S-Box component (impossible for marked specs).
    pub fn nominal_model(&self) -> Result<WeightedComponentModel, AttackError> {
        let mut model = self.spec.nominal_model();
        if self.sbox_scale != 1.0 {
            let weights = model.weights_mut();
            let sbox = weights
                .get_mut(layout::SBOX)
                .ok_or(AttackError::Invariant("scaled build without S-Box layout"))?;
            *sbox = sbox.scaled(self.sbox_scale);
        }
        Ok(model)
    }
}

fn require_marked(genuine: &IpSpec) -> Result<WatermarkKey, AttackError> {
    genuine.key().ok_or_else(|| {
        AttackError::Config(format!(
            "adversary scenarios need a marked genuine IP, `{}` carries no key",
            genuine.name()
        ))
    })
}

fn rename(spec: &IpSpec, name: &str) -> Result<IpSpec, AttackError> {
    let key = require_marked(spec)?;
    Ok(IpSpec::watermarked_with_substitution(
        name,
        spec.counter(),
        key,
        spec.substitution(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmark_core::ip::{ip_a, KW1};
    use ipmark_core::CounterKind;

    #[test]
    fn validation_bounds_the_parameters() {
        assert!(AdversaryModel::Honest.validate().is_ok());
        assert!(AdversaryModel::GuessedKey { bits_known: 8 }
            .validate()
            .is_ok());
        assert!(AdversaryModel::GuessedKey { bits_known: 9 }
            .validate()
            .is_err());
        assert!(AdversaryModel::MaskedLeakage { suppression: 0.0 }
            .validate()
            .is_ok());
        assert!(AdversaryModel::MaskedLeakage { suppression: 1.0 }
            .validate()
            .is_ok());
        assert!(AdversaryModel::MaskedLeakage { suppression: 1.01 }
            .validate()
            .is_err());
        assert!(AdversaryModel::MaskedLeakage { suppression: -0.1 }
            .validate()
            .is_err());
        assert!(AdversaryModel::MaskedLeakage {
            suppression: f64::NAN
        }
        .validate()
        .is_err());
    }

    #[test]
    fn labels_are_distinct_and_stable() {
        let labels: Vec<String> = [
            AdversaryModel::Honest,
            AdversaryModel::GuessedKey { bits_known: 4 },
            AdversaryModel::GuessedKey { bits_known: 8 },
            AdversaryModel::MaskedLeakage { suppression: 0.5 },
            AdversaryModel::MaskedLeakage { suppression: 0.75 },
        ]
        .iter()
        .map(AdversaryModel::label)
        .collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "{labels:?}");
        assert_eq!(labels[0], "honest");
    }

    #[test]
    fn forged_key_agrees_on_known_low_bits_only() {
        for bits in 0..=KEY_BITS {
            let guess = forged_key(KW1, bits);
            let agree = !(guess.value() ^ KW1.value());
            let mask: u8 = if bits >= 8 {
                0xff
            } else {
                ((1u16 << bits) - 1) as u8
            };
            assert_eq!(agree, mask, "bits_known = {bits}");
        }
        // Perfect knowledge reproduces the key exactly.
        assert_eq!(forged_key(KW1, KEY_BITS), KW1);
        // Zero knowledge complements every bit.
        assert_eq!(forged_key(KW1, 0).value(), !KW1.value());
    }

    #[test]
    fn honest_builds_pit_genuine_against_unmarked_clone() {
        let genuine = ip_a();
        let pos = AdversaryModel::Honest.positive_build(&genuine).unwrap();
        let neg = AdversaryModel::Honest.negative_build(&genuine).unwrap();
        assert_eq!(pos.spec(), &genuine);
        assert_eq!(pos.sbox_scale, 1.0);
        assert!(neg.spec().key().is_none());
        assert_eq!(neg.spec().counter(), genuine.counter());
        // Unscaled builds return the calibrated model untouched.
        assert_eq!(pos.nominal_model().unwrap(), genuine.nominal_model());
    }

    #[test]
    fn guessed_key_negative_carries_the_forged_key() {
        let genuine = ip_a();
        let neg = AdversaryModel::GuessedKey { bits_known: 3 }
            .negative_build(&genuine)
            .unwrap();
        assert_eq!(neg.spec().key(), Some(forged_key(KW1, 3)));
        assert_eq!(neg.spec().counter(), genuine.counter());
        // With every bit known the forgery matches the genuine key.
        let exact = AdversaryModel::GuessedKey { bits_known: 8 }
            .negative_build(&genuine)
            .unwrap();
        assert_eq!(exact.spec().key(), Some(KW1));
    }

    #[test]
    fn masked_leakage_scales_only_the_sbox_weights() {
        let genuine = ip_a();
        let adv = AdversaryModel::MaskedLeakage { suppression: 0.6 };
        let pos = adv.positive_build(&genuine).unwrap();
        assert_eq!(pos.spec().key(), Some(KW1));
        assert!((pos.sbox_scale - 0.4).abs() < 1e-15);
        let masked = pos.nominal_model().unwrap();
        let clean = genuine.nominal_model();
        for (i, (m, c)) in masked.weights().iter().zip(clean.weights()).enumerate() {
            if i == layout::SBOX {
                assert_eq!(*m, c.scaled(0.4));
            } else {
                assert_eq!(m, c, "component {i}");
            }
        }
        // Negative class is the honest unmarked clone.
        let neg = adv.negative_build(&genuine).unwrap();
        assert!(neg.spec().key().is_none());
    }

    #[test]
    fn unmarked_genuine_is_rejected() {
        let unmarked = IpSpec::unmarked("bare", CounterKind::Gray);
        for adv in [
            AdversaryModel::Honest,
            AdversaryModel::GuessedKey { bits_known: 4 },
            AdversaryModel::MaskedLeakage { suppression: 0.5 },
        ] {
            assert!(matches!(
                adv.positive_build(&unmarked),
                Err(AttackError::Config(_))
            ));
            assert!(matches!(
                adv.negative_build(&unmarked),
                Err(AttackError::Config(_))
            ));
        }
    }
}
