//! # ipmark-fsm
//!
//! Finite-state-machine toolkit for the `ipmark` reproduction of *"IP
//! Watermark Verification Based on Power Consumption Analysis"*
//! (SOCC 2014).
//!
//! The paper verifies watermarks embedded in the FSM of an IP; this crate
//! supplies the FSM substrate:
//!
//! * [`machine`] — explicit Mealy machines with a validated builder;
//! * [`analysis`] — periodicity (the paper requires captures longer than
//!   the FSM period);
//! * [`generate`] — random machines for tests beyond the paper's counters;
//! * [`netlist_adapter`] — run any machine inside the power-simulation
//!   pipeline.
//!
//! ## Example
//!
//! ```
//! use ipmark_fsm::{analysis, Fsm};
//!
//! # fn main() -> Result<(), ipmark_fsm::FsmError> {
//! // A counter, as an explicit machine with known periodicity.
//! let counter = Fsm::binary_counter(8)?;
//! assert_eq!(analysis::periodicity(&counter, 0)?, (0, 256));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod error;
pub mod generate;
pub mod machine;
pub mod netlist_adapter;

pub use error::FsmError;
pub use generate::{random_fsm, RandomFsmConfig};
pub use machine::{Fsm, FsmBuilder};
pub use netlist_adapter::{FsmComponent, StateEncoding};
