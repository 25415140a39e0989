//! # Zenesis
//!
//! A Rust reproduction of *"Foundation Models for Zero-Shot Segmentation
//! of Scientific Images without AI-Ready Data"* (ICPP 2025): the Zenesis
//! no-code interactive segmentation platform, rebuilt from scratch with
//! surrogate foundation models (see `DESIGN.md` for the substitution
//! argument) and a synthetic FIB-SEM benchmark with exact ground truth.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`obs`] | `zenesis-obs` | observability: spans, metrics, traces |
//! | [`par`] | `zenesis-par` | from-scratch parallel runtime |
//! | [`image`] | `zenesis-image` | scientific image substrate |
//! | [`tiff`] | `zenesis-tiff` | TIFF/BigTIFF streaming volume I/O |
//! | [`adapt`] | `zenesis-adapt` | data-readiness adaptation |
//! | [`tensor`] | `zenesis-tensor` | matmul, softmax, SIMD dispatch |
//! | [`nn`] | `zenesis-nn` | Eq. 1 attention weights |
//! | [`ground`] | `zenesis-ground` | GroundingDINO surrogate |
//! | [`sam`] | `zenesis-sam` | SAM surrogate |
//! | [`baseline`] | `zenesis-baseline` | Otsu baselines |
//! | [`metrics`] | `zenesis-metrics` | evaluation framework |
//! | [`data`] | `zenesis-data` | FIB-SEM phantom generator |
//! | [`core`] | `zenesis-core` | the platform pipeline |
//! | [`serve`] | `zenesis-serve` | panic-safe concurrent job service |
//!
//! ## Quickstart
//!
//! ```
//! use zenesis::core::{Zenesis, ZenesisConfig};
//! use zenesis::data::{generate_slice, PhantomConfig, SampleKind};
//!
//! // A raw 16-bit FIB-SEM slice (synthetic, with ground truth).
//! let slice = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 7));
//!
//! // The platform: adapt -> ground("catalyst particles") -> segment.
//! let z = Zenesis::new(ZenesisConfig::default());
//! let result = z.segment_slice(&slice.raw, "catalyst particles");
//!
//! assert!(result.combined.iou(&slice.truth) > 0.5);
//! ```

#![forbid(unsafe_code)]

pub use zenesis_adapt as adapt;
pub use zenesis_baseline as baseline;
pub use zenesis_core as core;
pub use zenesis_data as data;
pub use zenesis_ground as ground;
pub use zenesis_image as image;
pub use zenesis_ledger as ledger;
pub use zenesis_metrics as metrics;
pub use zenesis_nn as nn;
pub use zenesis_obs as obs;
pub use zenesis_par as par;
pub use zenesis_sam as sam;
pub use zenesis_serve as serve;
pub use zenesis_tensor as tensor;
pub use zenesis_tiff as tiff;
