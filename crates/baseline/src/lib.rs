//! # zenesis-baseline
//!
//! Classical thresholding baselines the paper compares against (Tables 1
//! vs 3): Otsu's global threshold. It is the "traditional method" whose
//! failure on raw low-contrast crystalline FIB-SEM motivates Zenesis.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod otsu;

pub use otsu::{otsu_threshold, segment_otsu, try_segment_otsu, OtsuDegenerate};
