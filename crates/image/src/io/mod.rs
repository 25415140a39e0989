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

/// Scratch files of the codec tests.
#[cfg(test)]
pub(crate) mod testing {
    use std::path::{Path, PathBuf};

    /// A fresh directory under the system temp dir, removed on drop: also
    /// when the test holding it fails.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(name: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }
}
