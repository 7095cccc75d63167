//! # ipmark-crypto
//!
//! Cryptographic substrate of the `ipmark` reproduction of *"IP Watermark
//! Verification Based on Power Consumption Analysis"* (SOCC 2014).
//!
//! The paper's leakage component stores the AES substitution table in RAM
//! and feeds the key-mixed FSM state through it. This crate derives that
//! S-Box at compile time from first principles — GF(2⁸) inversion followed
//! by the FIPS-197 affine map ([`sbox`]) — and its tests check every entry
//! against the FIPS-197 Figure 7 table, written out independently of the
//! construction.
//!
//! ## Example
//!
//! ```
//! use ipmark_crypto::sbox::{sub_byte, sbox_table_u64};
//!
//! // The non-linear mapping used by the watermark leakage component:
//! let state = 0x42u8;
//! let key = 0x5au8;
//! let h = sub_byte(state ^ key);
//! assert_eq!(h, sbox_table_u64()[(state ^ key) as usize] as u8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sbox;

pub use sbox::{sbox_table_u64, AES_SBOX};
