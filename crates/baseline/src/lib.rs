//! # zenesis-baseline
//!
//! Classical thresholding baselines the paper compares against (Tables 1
//! vs 3): Otsu's method in global, multi-level, and windowed-adaptive
//! forms. These are the "traditional methods" whose failure on raw
//! low-contrast crystalline FIB-SEM motivates Zenesis.

#![forbid(unsafe_code)]

mod otsu;

pub use otsu::{
    adaptive_otsu, multi_otsu2, otsu_threshold, segment_otsu, try_otsu_threshold,
    try_segment_otsu, OtsuDegenerate,
};
