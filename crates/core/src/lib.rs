//! # ipmark-core
//!
//! Reproduction of the primary contribution of *"IP Watermark Verification
//! Based on Power Consumption Analysis"* (C. Marchand, L. Bossuet, E. Jung —
//! IEEE SOCC 2014): verifying whether a device under test (DUT) embeds a
//! watermarked FSM, purely from power-consumption measurements.
//!
//! ## The scheme
//!
//! * **Embedding** ([`ip`]): an FSM is extended — without adding states or
//!   edges — with a lightweight *side-channel leakage component*: the state
//!   is XOR-mixed with a watermark key `Kw` and routed through the AES
//!   S-Box (in RAM) into an output register `H`. The S-Box non-linearity
//!   makes the power signature both strong and key-dependent.
//! * **Verification** ([`verify`]): the correlation computation process —
//!   `k`-average the reference traces once, `k`-average the DUT traces `m`
//!   times, and collect the `m` Pearson coefficients `C_{RefD,DUT,m,k}`.
//! * **Decision** ([`distinguisher`]): pick the DUT by the *higher mean* or
//!   (far better) the *lower variance* of the correlation set, with the
//!   paper's confidence distances `Δmean` / `Δv`.
//! * **Parameter theory** ([`params`]): the reselection probability
//!   `P(ζ) = f_α(m)`, its limits, and the `α → m → k → n2` selection
//!   recipe of §V.B.
//!
//! ## Quick start
//!
//! ```
//! use ipmark_core::{
//!     distinguisher::{Distinguisher, LowerVariance},
//!     ip::{ip_a, ip_b, reference_ips},
//!     matrix::{ExperimentConfig, IdentificationMatrix},
//!     verify::CorrelationParams,
//! };
//!
//! # fn main() -> Result<(), ipmark_core::CoreError> {
//! // A reduced campaign: which DUT carries IP_A?
//! let mut config = ExperimentConfig::reduced()?;
//! config.cycles = 128;
//! config.params = CorrelationParams { n1: 45, n2: 1_800, k: 15, m: 12 };
//! let matrix = IdentificationMatrix::run(&[ip_a()], &[ip_a(), ip_b()], &config)?;
//! let decision = &matrix.decide(&LowerVariance)?[0];
//! assert_eq!(matrix.dut_names()[decision.best], "IP_A");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod distinguisher;
pub mod error;
pub mod ip;
pub mod key;
pub mod matrix;
pub mod params;
pub mod pipeline;
pub mod report;
pub mod screen;
pub mod session;
pub mod verify;

pub use campaign::{
    cell_seed, CampaignConfig, CellCoord, CellOutcome, CellSeeds, ScenarioGrid, CELL_SEED_SALT,
};
pub use distinguisher::{Decision, Distinguisher, DistinguisherKind, HigherMean, LowerVariance};
pub use error::{CoreError, SessionError};
pub use ip::{
    default_chain, ip_a, ip_b, ip_c, ip_d, reference_ips, CounterKind, FabricatedDevice, IpSpec,
    Substitution,
};
pub use key::WatermarkKey;
pub use matrix::{ExperimentConfig, IdentificationMatrix};
pub use params::{choose_m, f_alpha, f_limit, p_zeta, ParameterPlan};
pub use pipeline::{
    default_backend, AcquireStage, CorrelateStage, DecideStage, KAverageStage, Plan, ResumablePlan,
};
pub use report::{CandidateReport, VerificationReport};
pub use screen::{CounterfeitScreen, ScreeningVerdict};
pub use session::{EarlyStopRule, SessionOptions, SessionStatus, Verdict, VerificationSession};
pub use verify::{correlation_process, CorrelationParams, CorrelationSet};
