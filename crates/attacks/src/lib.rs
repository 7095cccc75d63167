//! # ipmark-attacks
//!
//! Side-channel analyses and robustness studies for the `ipmark`
//! reproduction of *"IP Watermark Verification Based on Power Consumption
//! Analysis"* (SOCC 2014).
//!
//! * [`cpa`] — ChipWhisperer-style correlation power analysis: recover the
//!   watermark key `Kw` from traces alone, plus the S-Box ablation showing
//!   the non-linearity is what keys the signature (extension X4);
//! * [`roc`] — ROC/AUC machinery for the single-device counterfeit
//!   decision (extension X3, the paper's second verification objective);
//! * [`collision`] — exhaustive key-collision analysis quantifying the
//!   paper's claim that `Kw` prevents collisions between IPs with the same
//!   FSM;
//! * [`adversary`] — evasive DUT threat models (guessed keys, masked
//!   leakage) feeding the scenario campaigns of extension X10.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod collision;
pub mod cpa;
pub mod error;
pub mod roc;

pub use adversary::{forged_key, AdversaryModel, DutBuild, KEY_BITS};
pub use collision::{analyze_collisions, CollisionAnalysis};
pub use cpa::{recover_key, recover_key_phase_robust, CpaResult};
pub use error::AttackError;
pub use roc::{RocCurve, RocPoint};
