//! # zenesis-bench
//!
//! Experiment drivers behind the `repro` binary, which prints every table
//! and figure of the paper. Each public function corresponds to one
//! experiment in DESIGN.md §4.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub(crate) mod experiments;

pub use experiments::*;
