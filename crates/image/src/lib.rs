//! # zenesis-image
//!
//! Scientific image substrate for the Zenesis platform.
//!
//! The paper's central premise is that scientific instruments (FIB-SEM,
//! cryoTEM, microCT) emit *non-AI-ready* data: 8/16/32-bit grayscale or RGB,
//! 2-D slices or anisotropic 3-D volumes, with extreme dynamic ranges. This
//! crate provides the containers and classical image-processing primitives
//! every other Zenesis crate builds on:
//!
//! * [`Image<T>`] — row-major 2-D raster over any [`Pixel`] type
//!   (`u8`/`u16`/`f32`), with RGB support via [`RgbImage`].
//! * [`Volume<T>`] — a z-stack of slices with anisotropic voxel metadata.
//! * [`BitMask`] — packed binary masks with set algebra.
//! * [`BoxRegion`] / [`Point`] — prompt geometry shared with the grounding
//!   and SAM crates (IoU, intersection, clamping, expansion).
//! * Filtering ([`filter`]), morphology ([`morphology`]), connected
//!   components ([`components`]), histograms ([`histogram`]), distance
//!   transforms ([`distance`]), drawing/overlays ([`draw`]).
//! * I/O ([`io`]): PGM/PPM and a PNG encoder (TIFF lives in
//!   `zenesis-tiff`).

#![warn(unreachable_pub)]

pub mod components;
pub mod distance;
pub mod draw;
pub(crate) mod error;
pub mod filter;
pub(crate) mod geometry;
pub mod histogram;
pub(crate) mod image;
pub mod io;
pub(crate) mod mask;
pub mod morphology;
pub(crate) mod pixel;
pub(crate) mod volume;

pub use components::{label_components, ComponentStats, Labels};
pub use error::{ImageError, Result};
pub use geometry::{BoxRegion, Point};
pub use image::{Image, RgbImage};
pub use mask::BitMask;
pub use pixel::Pixel;
pub use volume::{Volume, VoxelSize};
