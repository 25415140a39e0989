//! Image and volume codecs.
//!
//! Scientific pipelines live and die by formats; the paper's platform
//! ingests TIFF stacks straight off the microscope. This module provides:
//!
//! * [`pgm`] — binary PGM (P5) for 8/16-bit grayscale and PPM (P6) for RGB;
//!   the simplest interchange format, used for all figure outputs.
//! * [`png`] — a from-scratch PNG *encoder* (stored-deflate zlib): the
//!   universally viewable output format for figure panels.
//!
//! TIFF/BigTIFF (the instrument format) lives in the dedicated
//! `zenesis-tiff` crate: classic and BigTIFF containers, strips and
//! tiles, 8/16/32-bit grayscale, and a streaming multi-page volume
//! reader (contract in docs/DATA.md).

pub mod pgm;
pub mod png;
