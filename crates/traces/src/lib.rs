//! # ipmark-traces
//!
//! Power-trace containers and statistics for the `ipmark` reproduction of
//! *"IP Watermark Verification Based on Power Consumption Analysis"*
//! (SOCC 2014).
//!
//! The paper's correlation computation process (§III) is a pipeline of three
//! primitives, all of which live here:
//!
//! 1. trace sets `T_device` ([`TraceBlock`], or any [`TraceSource`]),
//! 2. uniform random distinct selection `U_X(k)` and `k`-averaging
//!    `mean(U_T(k))` ([`select`], [`average`]),
//! 3. the Pearson coefficient ρ ([`stats::pearson`]).
//!
//! `ipmark-core` composes them into the full verification scheme.
//!
//! ## Example
//!
//! ```
//! use ipmark_traces::{average::k_average, stats::pearson, TraceBlock};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut refd = TraceBlock::new("RefD");
//! for i in 0..100 {
//!     let jitter = (i as f64 * 0.37).sin() * 0.01;
//!     refd.push_row(&[1.0 + jitter, 2.0, 3.0 - jitter])?;
//! }
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let a = k_average(&refd, 50, &mut rng)?;
//! let b = k_average(&refd, 50, &mut rng)?;
//! let rho = pearson(a.samples(), b.samples())?;
//! assert!(rho > 0.99); // same device: near-perfect correlation
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the mmap module is the workspace's single
// audited unsafe island (raw mmap(2) FFI for zero-copy corpus reads and
// madvise(2) huge-page advice for large sample arenas) and carries its own
// scoped `allow` with per-call safety comments. Everything else still
// refuses unsafe code at compile time.
#![deny(unsafe_code)]

pub mod align;
pub mod average;
pub mod block;
pub mod codec;
pub mod error;
pub mod io;
pub mod kernels;
pub mod mmap;
pub mod select;
pub mod stats;
pub mod streaming;
pub mod trace;

pub use block::{TraceBlock, TraceChunk, TraceView, TraceViewMut};
pub use codec::AdcDomain;
pub use error::{SelectError, StatsError, TraceError};
pub use io::IoError;
pub use mmap::{read_block_mapped, MappedBlock};
pub use trace::{Trace, TraceSource};
