//! Error type shared by image containers and I/O.

use std::fmt;

/// Errors produced by image construction, geometry checks, and codecs.
#[derive(Debug)]
pub enum ImageError {
    /// Buffer length does not match `width * height (* channels)`.
    ShapeMismatch {
        expected: usize,
        actual: usize,
    },
    /// A width/height/depth of zero where a non-empty raster is required.
    EmptyDimensions,
    /// `width * height (* channels)` does not fit in `usize`.
    TooLarge {
        width: usize,
        height: usize,
    },
    /// Coordinates or a region fall outside the raster.
    OutOfBounds {
        what: &'static str,
    },
    /// Two operands must have equal dimensions.
    DimensionMismatch {
        a: (usize, usize),
        b: (usize, usize),
    },
    /// A file could not be parsed as the expected format.
    Decode(String),
    /// Unsupported feature of a format (e.g. compressed TIFF).
    Unsupported(String),
    Io(std::io::Error),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer length {actual} does not match shape ({expected} expected)"
                )
            }
            ImageError::EmptyDimensions => write!(f, "image dimensions must be non-zero"),
            ImageError::TooLarge { width, height } => {
                write!(
                    f,
                    "image of {width}x{height} has too many samples to address"
                )
            }
            ImageError::OutOfBounds { what } => write!(f, "{what} out of bounds"),
            ImageError::DimensionMismatch { a, b } => {
                write!(f, "dimension mismatch: {}x{} vs {}x{}", a.0, a.1, b.0, b.1)
            }
            ImageError::Decode(msg) => write!(f, "decode error: {msg}"),
            ImageError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            ImageError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ImageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ImageError {
    fn from(e: std::io::Error) -> Self {
        ImageError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ImageError>;
