//! Page payload assembly and sample conversion.
//!
//! [`decode_page`] pulls one page's strips or tiles out of a
//! [`TiffRead`] source and assembles them into a row-major sample
//! buffer, typed by the page's declared bit depth. Conversion into the
//! repo's `Image<f32>` substrate (the normalization contract in
//! `docs/DATA.md`) happens in [`TiffPage::to_f32`].

use zenesis_image::Image;

use crate::error::{Result, TiffError};
use crate::format::{ChunkLayout, Endian, PageMeta, SampleFormat};
use crate::source::TiffRead;

/// One decoded page, at its native bit depth. Samples read in the
/// BlackIsZero sense: a WhiteIsZero page arrives inverted (`MAX - v`).
#[derive(Debug, Clone, PartialEq)]
pub enum TiffPage {
    /// 8-bit unsigned samples.
    U8(Image<u8>),
    /// 16-bit unsigned samples.
    U16(Image<u16>),
    /// 32-bit samples already normalized to f32 (from 32-bit unsigned
    /// integer data — lossy above 24 bits — or IEEE binary32 floats).
    F32(Image<f32>),
}

impl TiffPage {
    /// `(width, height)` of the page.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            TiffPage::U8(img) => img.dims(),
            TiffPage::U16(img) => img.dims(),
            TiffPage::F32(img) => img.dims(),
        }
    }

    /// Native bits per sample of the source page.
    pub fn bits(&self) -> u16 {
        match self {
            TiffPage::U8(_) => 8,
            TiffPage::U16(_) => 16,
            TiffPage::F32(_) => 32,
        }
    }

    /// Normalize into the `Image<f32>` substrate: u8/u16 map to
    /// `v / MAX` in `[0, 1]`; f32 passes through unchanged.
    pub fn to_f32(&self) -> Image<f32> {
        match self {
            TiffPage::U8(img) => img.to_f32(),
            TiffPage::U16(img) => img.to_f32(),
            TiffPage::F32(img) => img.clone(),
        }
    }
}

/// Assemble the raw sample bytes of `page` into one row-major buffer.
fn assemble(src: &dyn TiffRead, page: &PageMeta) -> Result<Vec<u8>> {
    let w = page.width as usize;
    let h = page.height as usize;
    let bps = page.bps();
    let row_bytes = w * bps;
    let mut out = vec![0u8; row_bytes * h];
    match &page.layout {
        ChunkLayout::Strips {
            rows_per_strip,
            offsets,
            counts,
        } => {
            // Strips are contiguous runs of full rows: read each one
            // straight into its place in the output buffer.
            let rps = *rows_per_strip as usize;
            for (i, (&off, &cnt)) in offsets.iter().zip(counts).enumerate() {
                let start = i * rps * row_bytes;
                let end = start + cnt as usize;
                read_payload(src, off, &mut out[start..end], "strip payload")?;
            }
        }
        ChunkLayout::Tiles {
            tile_w,
            tile_h,
            offsets,
            counts,
        } => {
            let tw = *tile_w as usize;
            let th = *tile_h as usize;
            let across = w.div_ceil(tw);
            let tile_row_bytes = tw * bps;
            let mut tile = vec![0u8; tile_row_bytes * th];
            for (i, (&off, &cnt)) in offsets.iter().zip(counts).enumerate() {
                debug_assert_eq!(cnt as usize, tile.len());
                read_payload(src, off, &mut tile, "tile payload")?;
                let x0 = (i % across) * tw;
                let y0 = (i / across) * th;
                // Edge tiles are padded to full size; copy only the
                // rows and columns that land inside the image.
                let copy_w = tw.min(w - x0) * bps;
                for ty in 0..th.min(h - y0) {
                    let dst = (y0 + ty) * row_bytes + x0 * bps;
                    out[dst..dst + copy_w]
                        .copy_from_slice(&tile[ty * tile_row_bytes..ty * tile_row_bytes + copy_w]);
                }
            }
        }
    }
    Ok(out)
}

fn read_payload(src: &dyn TiffRead, offset: u64, buf: &mut [u8], what: &'static str) -> Result<()> {
    src.read_exact_at(offset, buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TiffError::Truncated {
                offset,
                needed: buf.len() as u64,
                what,
            }
        } else {
            TiffError::Io(e)
        }
    })
}

/// Decode one parsed page into a typed [`TiffPage`].
pub(crate) fn decode_page(src: &dyn TiffRead, page: &PageMeta, endian: Endian) -> Result<TiffPage> {
    let bytes = assemble(src, page)?;
    let w = page.width as usize;
    let h = page.height as usize;
    let le = endian == Endian::Little;
    // A WhiteIsZero sample `v` is `MAX - v` in BlackIsZero terms, which
    // for unsigned integers is `v` with every bit flipped. Float pages
    // are refused as WhiteIsZero at parse time.
    let flip = if page.white_is_zero { u32::MAX } else { 0 };
    // Width/height are validated nonzero and buffer lengths match the
    // geometry by construction, so from_vec cannot fail below.
    Ok(match (page.bits, page.format) {
        (8, SampleFormat::Uint) => {
            let px = bytes.into_iter().map(|v| v ^ flip as u8).collect();
            TiffPage::U8(Image::from_vec(w, h, px).expect("validated page geometry"))
        }
        (16, SampleFormat::Uint) => {
            let px = bytes
                .chunks_exact(2)
                .map(|c| {
                    let b = [c[0], c[1]];
                    let v = if le {
                        u16::from_le_bytes(b)
                    } else {
                        u16::from_be_bytes(b)
                    };
                    v ^ flip as u16
                })
                .collect();
            TiffPage::U16(Image::from_vec(w, h, px).expect("validated page geometry"))
        }
        (32, fmt) => {
            let px = bytes
                .chunks_exact(4)
                .map(|c| {
                    let b = [c[0], c[1], c[2], c[3]];
                    let v = if le {
                        u32::from_le_bytes(b)
                    } else {
                        u32::from_be_bytes(b)
                    };
                    match fmt {
                        SampleFormat::Float => f32::from_bits(v),
                        // 32-bit uints exceed f32's 24-bit mantissa;
                        // normalize through f64 (documented lossy).
                        SampleFormat::Uint => ((v ^ flip) as f64 / u32::MAX as f64) as f32,
                    }
                })
                .collect();
            TiffPage::F32(Image::from_vec(w, h, px).expect("validated page geometry"))
        }
        // parse_ifd admits only the arms above.
        (bits, _) => {
            return Err(TiffError::Unsupported {
                what: format!("{bits} bits/sample"),
                offset: page.offset,
            })
        }
    })
}
