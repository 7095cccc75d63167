//! # ipmark-power
//!
//! CMOS power-consumption simulation for the `ipmark` reproduction of
//! *"IP Watermark Verification Based on Power Consumption Analysis"*
//! (SOCC 2014).
//!
//! The paper measures real FPGAs with an oscilloscope; this crate replaces
//! that bench with a physically grounded simulation pipeline:
//!
//! 1. [`leakage`] — switching activity (from `ipmark-netlist`) → per-cycle
//!    power, via a weighted Hamming-distance/weight model;
//! 2. [`device`] — per-die process variation (gain/offset/weight jitter),
//!    needed to reproduce the paper's CMOS-variation-insensitivity claim;
//! 3. [`chain`] — the measurement chain: pulse shaping, Gaussian noise,
//!    analog bandwidth;
//! 4. [`acquire`] — the paper's `Pw(device, n)`
//!    ([`SimulatedAcquisition::acquire_block`]): `n` measured traces
//!    sharing the device's deterministic waveform with independent noise.
//!
//! [`acquire::SimulatedAcquisition`] serves traces on demand
//! (implementing `ipmark_traces::TraceSource`), so campaigns of 10 000
//! traces cost memory proportional to one trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acquire;
pub mod chain;
pub mod device;
pub mod error;
pub mod leakage;
pub mod noise;
pub mod thermal;

pub use acquire::{cycle_powers, SimulatedAcquisition};
pub use chain::{MeasurementChain, PulseShape};
pub use device::{DeviceModel, ProcessVariation};
pub use error::PowerError;
pub use leakage::{ComponentWeights, WeightedComponentModel};
pub use noise::NoiseRng;
pub use thermal::ThermalDrift;
