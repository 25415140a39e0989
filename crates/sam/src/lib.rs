//! # zenesis-sam
//!
//! The Segment-Anything surrogate: a promptable segmenter with SAM's
//! architecture contract (paper §Foundation Model for Segmentation):
//!
//! * an **image encoder** (`embedding`) producing the representation the
//!   decoder reads (a denoised multi-scale intensity/gradient embedding
//!   standing in for ViT-H features — DESIGN.md §2);
//! * a **prompt encoder** (`prompt`) for point clicks, bounding boxes,
//!   and rough masks;
//! * a **mask decoder** ([`decoder`]) producing pixel masks with
//!   *multimask* output at three granularities;
//! * per-mask **quality scores** (`score`): the stability score from the
//!   SAM paper (mask agreement under decoder-parameter perturbation) and a
//!   homogeneity-weighted predicted quality;
//! * an **automatic everything-mode** (`auto`) — point grid, mask
//!   proposals, dedup, max-confidence selection — which is exactly the
//!   paper's "SAM-only" baseline and reproduces its documented failure:
//!   on low-contrast crystalline data the most confident segment is the
//!   black background.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub(crate) mod auto;
pub mod decoder;
pub(crate) mod embedding;
pub(crate) mod prompt;
pub(crate) mod score;

mod sam;

pub use auto::AutoConfig;
pub use embedding::ImageEmbedding;
pub use prompt::{PointLabel, Polarity, Prompt, PromptSet};
pub use sam::{MaskPrediction, Sam, SamConfig, SamVariant};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, keeping its guard even if a holder panicked. A panic under
/// the lock is caught and reported by its caller; it must not turn every
/// later lock of the same state into a second panic.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
