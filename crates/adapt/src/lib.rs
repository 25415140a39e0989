//! # zenesis-adapt
//!
//! The data-readiness layer: "lightweight multi-modal adaptation techniques
//! that enable zero-shot operation on raw scientific data" (paper
//! contribution 3).
//!
//! Raw FIB-SEM slices are 16-bit, low-contrast, noisy, and striped; the
//! foundation-model stack expects well-exposed 8-bit-like inputs. This
//! crate converts between the two **without fine-tuning and without
//! destroying domain information**: every operator works in the canonical
//! normalized `f32` domain of `zenesis-image` and is assembled into a
//! declarative, serializable [`AdaptPipeline`] (the no-code contract — a
//! UI ships JSON, the pipeline runs).
//!
//! Operators:
//! * [`normalize`] — min-max, robust percentile, and z-score normalization.
//! * [`equalize`] — global histogram equalization and CLAHE.
//! * [`denoise`] — bilateral and non-local-means-lite (plus re-exported
//!   median/Gaussian from `zenesis-image`).
//! * [`destripe`] — FIB curtaining (vertical stripe) suppression.
//! * [`resample`] — bilinear resizing to model-native resolutions.
//! * [`pipeline`] — the composable stage list with provenance tracing.

#![forbid(unsafe_code)]

pub mod denoise;
pub mod flatten;
pub mod destripe;
pub mod equalize;
pub mod normalize;
pub mod pipeline;
pub mod resample;

pub use pipeline::{AdaptError, AdaptPipeline, AdaptStage, AdaptTrace};
