//! # zenesis-bench
//!
//! Shared experiment drivers behind both the `repro` binary (which prints
//! every table and figure of the paper) and the Criterion benches. Each
//! public function corresponds to one experiment in DESIGN.md §4.

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::*;
