//! `zenesis-tiff` — native TIFF/BigTIFF I/O for scientific image stacks.
//!
//! The paper's inputs are FIB-SEM TIFF stacks that are *not* AI-ready:
//! torn transfers, odd bit depths, multi-gigabyte multi-page files.
//! This crate is the repro's own ingestion layer — no external image
//! dependencies — implementing exactly the subset such instruments
//! emit for raw data, and refusing everything else with a structured
//! [`TiffError`] carrying byte-offset context (the full contract lives
//! in `docs/DATA.md`).
//!
//! | Capability | Scope |
//! |---|---|
//! | Containers | classic TIFF (magic 42) and BigTIFF (magic 43), `II` and `MM` byte order |
//! | Pixels | grayscale, 1 sample/pixel, 8/16/32-bit unsigned or 32-bit IEEE float, uncompressed |
//! | Layout | strips and tiles |
//! | Volumes | multi-page stacks streamed slice-by-slice via [`VolumeReader`] (O(one slice) memory) |
//! | Encoding | deterministic little-endian writer ([`TiffStackWriter`]), image + segmentation-mask helpers |
//!
//! Decoded samples are normalized into the repo's `Image<f32>`
//! substrate: `u8`/`u16` map to `v / MAX` in `[0, 1]`, 32-bit unsigned
//! maps through `f64` (lossy above 24 bits), floats pass through.
//!
//! ```
//! use zenesis_image::Image;
//! use zenesis_tiff::{read_tiff, write_tiff_u16};
//!
//! let img = Image::from_fn(64, 48, |x, y| (x * 97 + y * 31) as u16);
//! let bytes = write_tiff_u16(&img).unwrap();
//! let pages = read_tiff(&bytes).unwrap();
//! assert_eq!(pages.len(), 1);
//! assert_eq!(pages[0].dims(), (64, 48));
//! ```
//!
//! Reads pass through the `io.tiff` fault-injection site (see
//! `zenesis-fault`) and emit `io.tiff.*` spans and counters.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod decode;
mod encode;
mod error;
mod format;
mod source;
mod volume;

use std::io::Cursor;
use std::path::Path;

use zenesis_image::{BitMask, Image, Volume};

pub use decode::TiffPage;
pub use encode::{EncodeLayout, EncodeOptions, TiffStackWriter};
pub use error::{Result, TiffError};
use format::Endian;
pub use source::{FileSource, Source, TiffRead};
pub use volume::VolumeReader;

// ---------------------------------------------------------------- decode --

/// Decode every page of an in-memory TIFF at native bit depth.
pub fn read_tiff(data: &[u8]) -> Result<Vec<TiffPage>> {
    let reader = VolumeReaderPages::new(data)?;
    (0..reader.pages.len()).map(|z| reader.page(z)).collect()
}

/// Internal: parsed chain over a borrowed byte slice.
struct VolumeReaderPages<'a> {
    data: &'a [u8],
    endian: Endian,
    pages: Vec<format::PageMeta>,
}

impl<'a> VolumeReaderPages<'a> {
    fn new(data: &'a [u8]) -> Result<Self> {
        let (header, pages) = format::scan_chain(&data)?;
        Ok(VolumeReaderPages {
            data,
            endian: header.endian,
            pages,
        })
    }

    fn page(&self, z: usize) -> Result<TiffPage> {
        decode::decode_page(&self.data, &self.pages[z], self.endian)
    }
}

/// Load the first page of a TIFF file at native bit depth.
pub fn load_tiff(path: impl AsRef<Path>) -> Result<TiffPage> {
    let data = std::fs::read(path)?;
    let mut pages = read_tiff(&data)?;
    Ok(pages.swap_remove(0))
}

// ---------------------------------------------------------------- encode --

fn encode_with<F>(opts: EncodeOptions, append: F) -> Result<Vec<u8>>
where
    F: FnOnce(&mut TiffStackWriter<Cursor<Vec<u8>>>) -> Result<()>,
{
    let mut w = TiffStackWriter::new(Cursor::new(Vec::new()), opts)?;
    append(&mut w)?;
    Ok(w.finish()?.into_inner())
}

/// Encode an 8-bit image as a single-strip classic TIFF.
pub fn write_tiff_u8(img: &Image<u8>) -> Result<Vec<u8>> {
    encode_with(EncodeOptions::default(), |w| w.append_u8(img))
}

/// Encode a 16-bit image as a single-strip classic TIFF.
pub fn write_tiff_u16(img: &Image<u16>) -> Result<Vec<u8>> {
    encode_with(EncodeOptions::default(), |w| w.append_u16(img))
}

/// Encode a 16-bit volume as a multi-page classic TIFF, one page per
/// slice, each a single strip.
pub fn write_tiff_volume_u16(vol: &Volume<u16>) -> Result<Vec<u8>> {
    encode_with(EncodeOptions::default(), |w| {
        vol.slices().iter().try_for_each(|s| w.append_u16(s))
    })
}

/// Write a 16-bit image to `path` atomically (tmp + rename).
pub fn save_tiff_u16(img: &Image<u16>, path: impl AsRef<Path>) -> Result<()> {
    zenesis_obs::output::write_atomic(path, write_tiff_u16(img)?)?;
    Ok(())
}

/// Write a 16-bit volume to `path` atomically (tmp + rename).
pub fn save_tiff_volume_u16(vol: &Volume<u16>, path: impl AsRef<Path>) -> Result<()> {
    zenesis_obs::output::write_atomic(path, write_tiff_volume_u16(vol)?)?;
    Ok(())
}

// ----------------------------------------------------------------- masks --

/// Encode a stack of masks as a multi-page 8-bit TIFF, one page per
/// slice (255 = inside, 0 = outside).
pub(crate) fn write_mask_volume_tiff(masks: &[BitMask]) -> Result<Vec<u8>> {
    encode_with(EncodeOptions::default(), |w| {
        masks.iter().try_for_each(|m| w.append_u8(&m.to_image()))
    })
}

/// Write a mask stack to `path` atomically (tmp + rename).
pub fn save_mask_volume_tiff(masks: &[BitMask], path: impl AsRef<Path>) -> Result<()> {
    zenesis_obs::output::write_atomic(path, write_mask_volume_tiff(masks)?)?;
    Ok(())
}

/// Decode a mask TIFF back into bit masks: every page must be 8-bit;
/// any nonzero sample is inside the mask.
pub fn read_mask_tiff(data: &[u8]) -> Result<Vec<BitMask>> {
    read_tiff(data)?
        .into_iter()
        .map(|p| match p {
            TiffPage::U8(img) => {
                let (w, h) = img.dims();
                Ok(BitMask::from_fn(w, h, |x, y| img.get(x, y) > 0))
            }
            other => Err(TiffError::Inconsistent {
                what: format!("expected 8-bit mask page, found {}-bit", other.bits()),
                offset: 0,
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_page_u16_roundtrips() {
        let img = Image::from_fn(33, 21, |x, y| (x * 601 + y * 57) as u16);
        let bytes = write_tiff_u16(&img).unwrap();
        let pages = read_tiff(&bytes).unwrap();
        assert_eq!(pages, vec![TiffPage::U16(img)]);
    }

    #[test]
    fn mask_volume_roundtrips() {
        let masks: Vec<BitMask> = (0..3)
            .map(|z| BitMask::from_fn(17, 9, |x, y| (x + y + z) % 3 == 0))
            .collect();
        let bytes = write_mask_volume_tiff(&masks).unwrap();
        let back = read_mask_tiff(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in masks.iter().zip(&back) {
            assert_eq!(a.words(), b.words());
        }
    }
}
