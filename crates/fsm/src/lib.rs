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
//! * [`analysis`] — reachability, periodicity (the paper requires captures
//!   longer than the FSM period), minimization, I/O equivalence, and a
//!   behavioural signature (the property-extraction identification of the
//!   paper's reference \[14\]);
//! * [`embed`] — the *traditional* embedding baselines the paper contrasts
//!   itself with: unspecified-transition watermarks (Torunoglu–Charbon)
//!   and redundant-state watermarks;
//! * [`netlist_adapter`] — run any machine inside the power-simulation
//!   pipeline.
//!
//! ## Example
//!
//! ```
//! use ipmark_fsm::{analysis, embed, Fsm};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), ipmark_fsm::FsmError> {
//! // Embed a 4-bit watermark into a partially specified controller.
//! let mut design = embed::IncompleteFsm::new(8, 4, 8)?;
//! for s in 0..8 {
//!     design.transition(s, 0, (s + 1) % 8, s as u64)?;
//!     design.transition(s, 1, s, 0xff)?;
//! }
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let marked =
//!     embed::embed_transition_watermark(&design, &[true, false, true, true], &mut rng)?;
//! assert!(embed::verify_proof(&marked.fsm, &marked.proof)?);
//!
//! // The paper's counters, as explicit machines with known periodicity.
//! let gray = Fsm::gray_counter(8)?;
//! assert_eq!(analysis::periodicity(&gray, 0)?, (0, 256));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod embed;
pub mod error;
pub mod generate;
pub mod machine;
pub mod netlist_adapter;

pub use embed::{EmbeddedWatermark, IncompleteFsm, WatermarkProof};
pub use error::FsmError;
pub use generate::{random_fsm, RandomFsmConfig};
pub use machine::{Fsm, FsmBuilder};
pub use netlist_adapter::{FsmComponent, StateEncoding};
