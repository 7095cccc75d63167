//! # ipmark-netlist
//!
//! A small cycle-accurate register-transfer netlist simulator with
//! switching-activity recording — the hardware substrate of the `ipmark`
//! reproduction of *"IP Watermark Verification Based on Power Consumption
//! Analysis"* (Marchand, Bossuet, Jung — SOCC 2014).
//!
//! The paper implements its watermarked IPs on Altera Cyclone-III FPGAs and
//! measures their power consumption. This crate replaces the FPGA: circuits
//! are built from the [`Component`]s those IPs need (registers, binary and
//! Gray counters, constants, the key XOR, concatenation and the synchronous
//! S-Box ROM), wired with [`CircuitBuilder`], and simulated one clock cycle
//! at a time with [`Circuit::step`]. Every step reports an
//! [`ActivityRecord`] — the per-component Hamming
//! distances and weights that the `ipmark-power` crate converts into a
//! simulated power trace.
//!
//! ## Example
//!
//! Build the heart of the paper's leakage component (Fig. 3): a Gray counter
//! XOR-ed with a watermark key addressing an S-Box-like memory into an
//! output register:
//!
//! ```
//! use ipmark_netlist::{
//!     comb::{Constant, Xor2},
//!     memory::SyncRom,
//!     seq::GrayCounter,
//!     BitVec, CircuitBuilder,
//! };
//!
//! # fn main() -> Result<(), ipmark_netlist::NetlistError> {
//! let sbox: Vec<u64> = (0..256).map(|i| (i * 7 + 3) % 256).collect();
//! let mut b = CircuitBuilder::new();
//! let counter = b.add("fsm", GrayCounter::new(8, 0)?);
//! let key = b.add("kw", Constant::new(BitVec::truncated(0x5a, 8)));
//! let xor = b.add("mix", Xor2::new(8));
//! let rom = b.add("sbox", SyncRom::new(sbox, 8, 0)?);
//! b.connect_ports(counter, 0, xor, 0)?;
//! b.connect_ports(key, 0, xor, 1)?;
//! b.connect_ports(xor, 0, rom, 0)?;
//! b.expose(rom, 0, "h")?;
//!
//! let mut circuit = b.build()?;
//! let activity = circuit.run_free(256)?;
//! assert_eq!(activity.len(), 256);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod activity;
pub mod bits;
pub mod circuit;
pub mod codes;
pub mod comb;
pub mod component;
pub mod error;
pub mod memory;
pub mod seq;
pub mod vcd;

pub use activity::{ActivityRecord, ComponentActivity};
pub use bits::{BitVec, BitsError};
pub use circuit::{Circuit, CircuitBuilder, ComponentId, ComponentInfo, StepResult};
pub use component::Component;
pub use error::NetlistError;
