//! # ipmark
//!
//! A from-scratch Rust reproduction of *"IP Watermark Verification Based on
//! Power Consumption Analysis"* — C. Marchand, L. Bossuet, E. Jung, 27th
//! IEEE International System-on-Chip Conference (SOCC 2014), pp. 330–335.
//!
//! The paper verifies whether a device under test embeds a watermarked FSM
//! using nothing but power-consumption measurements: a lightweight leakage
//! component (state ⊕ `Kw` → AES S-Box → register `H`) amplifies the FSM's
//! side-channel signature, and a correlation computation process over
//! `k`-averaged traces — distinguished by the *variance* of the resulting
//! Pearson coefficients — identifies the matching device.
//!
//! This crate is a façade re-exporting the workspace:
//!
//! * [`netlist`] — cycle-accurate RT-level simulator (the "FPGA");
//! * [`fsm`] — FSM toolkit + classic embedding baselines;
//! * [`crypto`] — GF(2⁸) and the AES S-Box (checked against FIPS-197);
//! * [`power`] — leakage model, process variation, measurement chain (the
//!   "oscilloscope");
//! * [`traces`] — trace sets, statistics, `U_X(k)` selection, k-averaging;
//! * [`core`] — the paper's verification scheme itself;
//! * [`attacks`] — CPA key recovery, ROC analysis, collision analysis and
//!   adversary models.
//!
//! ## Quick start
//!
//! Verify which of two devices carries `IP_A`:
//!
//! ```
//! use ipmark::core::{
//!     ip::{ip_a, ip_b},
//!     matrix::{ExperimentConfig, IdentificationMatrix},
//!     verify::CorrelationParams,
//!     LowerVariance,
//! };
//!
//! # fn main() -> Result<(), ipmark::core::CoreError> {
//! let mut config = ExperimentConfig::reduced()?;
//! config.cycles = 128;
//! config.params = CorrelationParams { n1: 45, n2: 1_800, k: 15, m: 12 };
//! let matrix = IdentificationMatrix::run(&[ip_a()], &[ip_a(), ip_b()], &config)?;
//! let decision = &matrix.decide(&LowerVariance)?[0];
//! assert_eq!(matrix.dut_names()[decision.best], "IP_A");
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and
//! `crates/bench` for the binaries regenerating every table and figure of
//! the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ipmark_attacks as attacks;
pub use ipmark_core as core;
pub use ipmark_crypto as crypto;
pub use ipmark_fsm as fsm;
pub use ipmark_netlist as netlist;
pub use ipmark_parallel as parallel;
pub use ipmark_power as power;
pub use ipmark_traces as traces;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use ipmark_core::{
        correlation_process, default_chain, ip_a, ip_b, ip_c, ip_d, reference_ips, CoreError,
        CorrelationParams, CorrelationSet, CounterKind, Decision, Distinguisher, DistinguisherKind,
        EarlyStopRule, ExperimentConfig, FabricatedDevice, HigherMean, IdentificationMatrix,
        IpSpec, LowerVariance, SessionError, SessionOptions, SessionStatus, Substitution, Verdict,
        VerificationSession, WatermarkKey,
    };
    pub use ipmark_power::{MeasurementChain, ProcessVariation};
    pub use ipmark_traces::streaming::ChunkedSource;
    pub use ipmark_traces::{Trace, TraceBlock, TraceError, TraceSource, TraceView, TraceViewMut};
}
