//! Dead-API fixture: the root façade, re-exporting the library crate the way
//! the real workspace does, so example paths such as
//! `ipmark::core::used_by_example` resolve through it.

pub use ipmark_core as core;
