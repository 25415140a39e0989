//! # zenesis-data
//!
//! Procedural FIB-SEM phantoms standing in for the paper's proprietary
//! catalyst-layer dataset (see DESIGN.md §2 for the substitution argument).
//!
//! Two sample types mirror the paper's Dataset Description:
//!
//! * **Crystalline IrO2** — needle-like structures (high aspect ratio,
//!   oriented) at *low contrast* over a dominant near-black background.
//!   This is the regime where the paper reports Otsu and SAM-only collapse.
//! * **Amorphous IrOx** — blobby particle agglomerates embedded in a
//!   textured Nafion-ionomer film with distinct contrast, where classical
//!   methods partially work.
//!
//! The degradation model stacks the named FIB-SEM artifacts: Poisson-like
//! shot noise, additive Gaussian read noise, vertical curtaining stripes,
//! per-slice defocus blur, and slice-to-slice contrast drift. Output is
//! 16-bit with a deliberately narrow occupied dynamic range (raw detector
//! counts), i.e. *non-AI-ready by construction*.
//!
//! Every sample carries its exact ground-truth [`zenesis_image::BitMask`],
//! which the real
//! dataset lacks — that is precisely what lets this reproduction score the
//! paper's metrics.

#![forbid(unsafe_code)]

mod dataset;
pub mod modalities;
mod noise;
mod phantom;
mod value_noise;

pub use dataset::{benchmark_dataset, generate_volume, Dataset, Sample, VolumeSample};
pub use modalities::{generate_modality, Modality, ModalityFrame};
pub use noise::NoiseConfig;
pub use phantom::{generate_slice, PhantomConfig, SampleKind};
pub use value_noise::{fbm, ValueNoise};
