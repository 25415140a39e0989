//! Random-access byte sources.
//!
//! Decoding is defined over [`TiffRead`] — "give me `buf.len()` bytes at
//! `offset`" — so the same parser serves an in-memory byte slice and a
//! file handle. The file implementation never maps or slurps the whole
//! stack: the streaming [`crate::VolumeReader`] built on top of it holds
//! O(one slice) in memory regardless of how many gigabytes the file is.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Mutex;

/// A source of bytes addressable by absolute offset.
///
/// `read_exact_at` must fill `buf` completely or fail; a short read is
/// reported as [`std::io::ErrorKind::UnexpectedEof`], which the parser
/// converts into [`crate::TiffError::Truncated`] with structural context.
pub trait TiffRead: Send + Sync {
    /// Total length of the source in bytes.
    fn len(&self) -> u64;

    /// True when the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fill `buf` from `offset`, exactly.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()>;
}

impl TiffRead for [u8] {
    fn len(&self) -> u64 {
        <[u8]>::len(self) as u64
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let start = usize::try_from(offset)
            .map_err(|_| std::io::Error::from(std::io::ErrorKind::UnexpectedEof))?;
        let end = start
            .checked_add(buf.len())
            .filter(|&e| e <= <[u8]>::len(self))
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::UnexpectedEof))?;
        buf.copy_from_slice(&self[start..end]);
        Ok(())
    }
}

// `[u8]` is unsized and so cannot be a trait object itself; the
// reference impl is what lets a borrowed byte slice be passed where a
// `&dyn TiffRead` is expected.
impl TiffRead for &[u8] {
    fn len(&self) -> u64 {
        TiffRead::len(*self)
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        TiffRead::read_exact_at(*self, offset, buf)
    }
}

impl TiffRead for Vec<u8> {
    fn len(&self) -> u64 {
        self.as_slice().len() as u64
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        TiffRead::read_exact_at(self.as_slice(), offset, buf)
    }
}

/// A file-backed source. Reads seek under an internal mutex so parallel
/// slice workers can share one reader; each read touches only the bytes
/// it asks for.
#[derive(Debug)]
pub struct FileSource {
    file: Mutex<File>,
    len: u64,
}

impl FileSource {
    /// Open `path` for random-access reading.
    pub(crate) fn open(path: impl AsRef<Path>) -> std::io::Result<FileSource> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(FileSource {
            file: Mutex::new(file),
            len,
        })
    }
}

impl TiffRead for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        // An offset past EOF reads zero bytes; read_exact then reports
        // UnexpectedEof, which is exactly the truncation signal we want.
        let mut f = self.file.lock().expect("file source lock");
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// Either backing store behind [`crate::VolumeReader`].
#[derive(Debug)]
pub enum Source {
    /// A file on disk, read slice-by-slice.
    File(FileSource),
    /// An owned in-memory byte buffer.
    Mem(Vec<u8>),
}

impl TiffRead for Source {
    fn len(&self) -> u64 {
        match self {
            Source::File(f) => f.len(),
            Source::Mem(m) => TiffRead::len(m),
        }
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        match self {
            Source::File(f) => f.read_exact_at(offset, buf),
            Source::Mem(m) => TiffRead::read_exact_at(m, offset, buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_reads_in_and_out_of_range() {
        let data: Vec<u8> = (0..16u8).collect();
        let mut buf = [0u8; 4];
        TiffRead::read_exact_at(data.as_slice(), 4, &mut buf).unwrap();
        assert_eq!(buf, [4, 5, 6, 7]);
        assert!(TiffRead::read_exact_at(data.as_slice(), 14, &mut buf).is_err());
        assert!(TiffRead::read_exact_at(data.as_slice(), u64::MAX, &mut buf).is_err());
    }

    #[test]
    fn file_source_reads_at_offsets() {
        let dir = std::env::temp_dir().join(format!("zenesis-tiff-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.bin");
        std::fs::write(&path, (0..32u8).collect::<Vec<_>>()).unwrap();
        let src = FileSource::open(&path).unwrap();
        assert_eq!(src.len(), 32);
        let mut buf = [0u8; 2];
        src.read_exact_at(30, &mut buf).unwrap();
        assert_eq!(buf, [30, 31]);
        assert!(src.read_exact_at(31, &mut [0u8; 2]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
