//! Deterministic TIFF/BigTIFF encoder.
//!
//! [`TiffStackWriter`] appends pages to any `Write + Seek` sink and
//! links their IFDs on `finish`. Output is always little-endian (`II`),
//! uncompressed grayscale, with byte-identical layout for identical
//! input — the golden round-trip suite and the CI smoke checksum both
//! lean on that determinism.
//!
//! Layout: header, then each page's pixel payload (2-aligned), then all
//! out-of-line offset/count arrays, then all IFDs, with the header's
//! first-IFD pointer patched last.

use std::io::{Seek, SeekFrom, Write};

use zenesis_image::Image;

use crate::error::{Result, TiffError};
use crate::format::{
    SampleFormat, TAG_BITS_PER_SAMPLE, TAG_COMPRESSION, TAG_HEIGHT, TAG_PHOTOMETRIC,
    TAG_ROWS_PER_STRIP, TAG_SAMPLES_PER_PIXEL, TAG_SAMPLE_FORMAT, TAG_STRIP_BYTE_COUNTS,
    TAG_STRIP_OFFSETS, TAG_TILE_BYTE_COUNTS, TAG_TILE_LENGTH, TAG_TILE_OFFSETS, TAG_TILE_WIDTH,
    TAG_WIDTH, TYPE_LONG, TYPE_LONG8, TYPE_SHORT,
};

/// How the encoder chunks a page's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeLayout {
    /// One strip holding the whole page (the default; what the mask
    /// encoder and `docs/DATA.md` hex examples use).
    SingleStrip,
    /// Strips of `rows_per_strip` rows (last one short).
    Strips {
        /// Rows per strip; clamped to the page height, must be > 0.
        rows_per_strip: u32,
    },
    /// Fixed-size tiles; edge tiles are zero-padded to full size.
    Tiles {
        /// Tile width in pixels, must be > 0.
        width: u32,
        /// Tile height in pixels, must be > 0.
        height: u32,
    },
}

/// Encoder options.
#[derive(Debug, Clone, Copy)]
pub struct EncodeOptions {
    /// Emit a BigTIFF (version 43, 64-bit offsets) instead of classic.
    pub bigtiff: bool,
    /// Chunking of each page's payload.
    pub layout: EncodeLayout,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            bigtiff: false,
            layout: EncodeLayout::SingleStrip,
        }
    }
}

/// A page staged for writing: payload already on the sink, tables kept
/// until `finish` lays out the IFDs.
struct StagedPage {
    width: u32,
    height: u32,
    bits: u16,
    format: SampleFormat,
    /// `(offset, byte_count)` of each written chunk, in chunk order.
    chunks: Vec<(u64, u64)>,
    /// `Strips { rows_per_strip }` or `Tiles { .. }` as declared.
    layout: EncodeLayout,
}

/// Streaming multi-page writer. Append pages one at a time — each
/// page's payload is written immediately, so encoding a volume holds
/// O(one slice) in memory — then call [`finish`](Self::finish).
pub struct TiffStackWriter<W: Write + Seek> {
    sink: W,
    opts: EncodeOptions,
    pages: Vec<StagedPage>,
    pos: u64,
}

impl<W: Write + Seek> TiffStackWriter<W> {
    /// Write the file header and return a writer ready for pages.
    pub fn new(mut sink: W, opts: EncodeOptions) -> Result<TiffStackWriter<W>> {
        validate_layout(opts.layout)?;
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(b"II");
        if opts.bigtiff {
            header.extend_from_slice(&43u16.to_le_bytes());
            header.extend_from_slice(&8u16.to_le_bytes());
            header.extend_from_slice(&0u16.to_le_bytes());
            header.extend_from_slice(&0u64.to_le_bytes()); // first IFD, patched in finish
        } else {
            header.extend_from_slice(&42u16.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes()); // first IFD, patched in finish
        }
        sink.write_all(&header)?;
        let pos = header.len() as u64;
        Ok(TiffStackWriter {
            sink,
            opts,
            pages: Vec::new(),
            pos,
        })
    }

    /// Append an 8-bit page.
    pub fn append_u8(&mut self, img: &Image<u8>) -> Result<()> {
        let (w, h) = img.dims();
        let bytes: Vec<u8> = img.as_slice().to_vec();
        self.append_samples(w, h, 8, SampleFormat::Uint, 1, &bytes)
    }

    /// Append a 16-bit page (little-endian samples).
    pub fn append_u16(&mut self, img: &Image<u16>) -> Result<()> {
        let (w, h) = img.dims();
        let bytes: Vec<u8> = img
            .as_slice()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        self.append_samples(w, h, 16, SampleFormat::Uint, 2, &bytes)
    }

    /// Append a 32-bit float page (IEEE binary32, little-endian).
    pub fn append_f32(&mut self, img: &Image<f32>) -> Result<()> {
        let (w, h) = img.dims();
        let bytes: Vec<u8> = img
            .as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        self.append_samples(w, h, 32, SampleFormat::Float, 4, &bytes)
    }

    /// Chunk `samples` (row-major, already little-endian) per the
    /// configured layout and write the chunks to the sink.
    fn append_samples(
        &mut self,
        w: usize,
        h: usize,
        bits: u16,
        format: SampleFormat,
        bps: usize,
        samples: &[u8],
    ) -> Result<()> {
        let row_bytes = w * bps;
        let mut chunks: Vec<(u64, u64)> = Vec::new();
        match self.opts.layout {
            EncodeLayout::SingleStrip => {
                chunks.push(self.write_chunk(samples)?);
            }
            EncodeLayout::Strips { rows_per_strip } => {
                let rps = (rows_per_strip as usize).min(h);
                for band in samples.chunks(rps * row_bytes) {
                    chunks.push(self.write_chunk(band)?);
                }
            }
            EncodeLayout::Tiles { width, height } => {
                let tw = width as usize;
                let th = height as usize;
                let tile_row = tw * bps;
                let mut tile = vec![0u8; tile_row * th];
                for y0 in (0..h).step_by(th) {
                    for x0 in (0..w).step_by(tw) {
                        tile.fill(0);
                        let copy_w = tw.min(w - x0) * bps;
                        for ty in 0..th.min(h - y0) {
                            let src = (y0 + ty) * row_bytes + x0 * bps;
                            tile[ty * tile_row..ty * tile_row + copy_w]
                                .copy_from_slice(&samples[src..src + copy_w]);
                        }
                        chunks.push(self.write_chunk(&tile)?);
                    }
                }
            }
        }
        let effective = match self.opts.layout {
            EncodeLayout::Strips { rows_per_strip } => EncodeLayout::Strips {
                rows_per_strip: (rows_per_strip as usize).min(h) as u32,
            },
            other => other,
        };
        self.pages.push(StagedPage {
            width: w as u32,
            height: h as u32,
            bits,
            format,
            chunks,
            layout: effective,
        });
        Ok(())
    }

    /// Write one chunk payload 2-aligned; return `(offset, len)`.
    fn write_chunk(&mut self, bytes: &[u8]) -> Result<(u64, u64)> {
        if self.pos % 2 == 1 {
            self.sink.write_all(&[0u8])?;
            self.pos += 1;
        }
        let off = self.pos;
        self.check_offset(off)?;
        self.sink.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok((off, bytes.len() as u64))
    }

    /// Classic files address with u32: refuse to emit an offset that
    /// cannot be represented rather than silently wrapping.
    fn check_offset(&self, off: u64) -> Result<()> {
        if !self.opts.bigtiff && off > u32::MAX as u64 {
            return Err(TiffError::TooLarge {
                what: "classic TIFF offset",
                value: off,
                limit: u32::MAX as u64,
            });
        }
        Ok(())
    }

    /// Lay out and write the IFDs (plus out-of-line chunk tables),
    /// patch the header's first-IFD pointer, and return the sink.
    pub fn finish(mut self) -> Result<W> {
        if self.pages.is_empty() {
            return Err(TiffError::NoPages);
        }
        let big = self.opts.bigtiff;
        let (count_size, entry_size, next_size, off_size) = if big {
            (8u64, 20u64, 8u64, 8u64)
        } else {
            (2u64, 12u64, 4u64, 4u64)
        };

        // Plan: out-of-line offset/count arrays first, then the IFDs,
        // everything 2-aligned. Two passes keep the layout a pure
        // function of the staged pages — deterministic by construction.
        let mut cursor = self.pos + self.pos % 2;
        let mut array_offsets: Vec<(u64, u64)> = Vec::new(); // per page: (offsets table, counts table)
        for page in &self.pages {
            let n = page.chunks.len() as u64;
            if n > 1 {
                let table = n * off_size;
                array_offsets.push((cursor, cursor + table));
                cursor += 2 * table;
            } else {
                array_offsets.push((0, 0));
            }
        }
        let mut ifd_offsets: Vec<u64> = Vec::new();
        for page in &self.pages {
            ifd_offsets.push(cursor);
            cursor += count_size + entry_count(page) as u64 * entry_size + next_size;
        }
        for (&ifd, page) in ifd_offsets.iter().zip(&self.pages) {
            self.check_offset(
                ifd + count_size + entry_count(page) as u64 * entry_size + next_size,
            )?;
        }

        // Execute the plan.
        if self.pos % 2 == 1 {
            self.sink.write_all(&[0u8])?;
            self.pos += 1;
        }
        for (page, &(off_table, cnt_table)) in self.pages.iter().zip(&array_offsets) {
            if off_table == 0 {
                continue;
            }
            debug_assert_eq!(self.pos, off_table);
            let _ = cnt_table;
            for &(off, _) in &page.chunks {
                write_off(&mut self.sink, big, off)?;
            }
            for &(_, cnt) in &page.chunks {
                write_off(&mut self.sink, big, cnt)?;
            }
            self.pos += 2 * page.chunks.len() as u64 * off_size;
        }
        for (i, page) in self.pages.iter().enumerate() {
            debug_assert_eq!(self.pos, ifd_offsets[i]);
            let next = ifd_offsets.get(i + 1).copied().unwrap_or(0);
            let written = write_ifd(&mut self.sink, big, page, array_offsets[i], next)?;
            self.pos += written;
        }

        // Patch the header's first-IFD pointer.
        if big {
            self.sink.seek(SeekFrom::Start(8))?;
            self.sink.write_all(&ifd_offsets[0].to_le_bytes())?;
        } else {
            self.sink.seek(SeekFrom::Start(4))?;
            self.sink
                .write_all(&(ifd_offsets[0] as u32).to_le_bytes())?;
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

fn validate_layout(layout: EncodeLayout) -> Result<()> {
    let zero_tag = match layout {
        EncodeLayout::SingleStrip => None,
        EncodeLayout::Strips { rows_per_strip: 0 } => Some(TAG_ROWS_PER_STRIP),
        EncodeLayout::Strips { .. } => None,
        EncodeLayout::Tiles { width: 0, .. } => Some(TAG_TILE_WIDTH),
        EncodeLayout::Tiles { height: 0, .. } => Some(TAG_TILE_LENGTH),
        EncodeLayout::Tiles { .. } => None,
    };
    match zero_tag {
        Some(tag) => Err(TiffError::ZeroDimension { tag, ifd: 0 }),
        None => Ok(()),
    }
}

/// Number of IFD entries a staged page produces.
fn entry_count(page: &StagedPage) -> usize {
    match page.layout {
        // 256,257,258,259,262,273,277,278,279,339
        EncodeLayout::SingleStrip | EncodeLayout::Strips { .. } => 10,
        // 256,257,258,259,262,277,322,323,324,325,339
        EncodeLayout::Tiles { .. } => 11,
    }
}

fn write_off<W: Write>(sink: &mut W, big: bool, v: u64) -> Result<()> {
    if big {
        sink.write_all(&v.to_le_bytes())?;
    } else {
        sink.write_all(&(v as u32).to_le_bytes())?;
    }
    Ok(())
}

/// One IFD entry. `value` is stored inline (left-justified in the
/// value field) — array-valued entries pass the table offset instead.
fn write_entry<W: Write>(
    sink: &mut W,
    big: bool,
    tag: u16,
    typ: u16,
    count: u64,
    value: u64,
) -> Result<()> {
    sink.write_all(&tag.to_le_bytes())?;
    sink.write_all(&typ.to_le_bytes())?;
    if big {
        sink.write_all(&count.to_le_bytes())?;
    } else {
        sink.write_all(&(count as u32).to_le_bytes())?;
    }
    let mut field = [0u8; 8];
    let width = match typ {
        TYPE_SHORT => 2,
        TYPE_LONG => 4,
        _ => 8,
    };
    field[..width].copy_from_slice(&v_bytes(value)[..width]);
    sink.write_all(&field[..if big { 8 } else { 4 }])?;
    Ok(())
}

fn v_bytes(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// Write one page's IFD; returns bytes written.
fn write_ifd<W: Write>(
    sink: &mut W,
    big: bool,
    page: &StagedPage,
    tables: (u64, u64),
    next: u64,
) -> Result<u64> {
    let n = entry_count(page);
    if big {
        sink.write_all(&(n as u64).to_le_bytes())?;
    } else {
        sink.write_all(&(n as u16).to_le_bytes())?;
    }
    let long = if big { TYPE_LONG8 } else { TYPE_LONG };
    let chunks = page.chunks.len() as u64;
    // Single-chunk tables fit inline; multi-chunk point at the tables.
    let (off_val, cnt_val) = if chunks == 1 {
        (page.chunks[0].0, page.chunks[0].1)
    } else {
        tables
    };
    let photometric = 1u64; // BlackIsZero
    let fmt = match page.format {
        SampleFormat::Uint => 1u64,
        SampleFormat::Float => 3u64,
    };
    let mut entry = |t: u16, typ: u16, c: u64, v: u64| write_entry(sink, big, t, typ, c, v);
    entry(TAG_WIDTH, TYPE_LONG, 1, page.width as u64)?;
    entry(TAG_HEIGHT, TYPE_LONG, 1, page.height as u64)?;
    entry(TAG_BITS_PER_SAMPLE, TYPE_SHORT, 1, page.bits as u64)?;
    entry(TAG_COMPRESSION, TYPE_SHORT, 1, 1)?;
    entry(TAG_PHOTOMETRIC, TYPE_SHORT, 1, photometric)?;
    match page.layout {
        EncodeLayout::SingleStrip | EncodeLayout::Strips { .. } => {
            let rps = match page.layout {
                EncodeLayout::Strips { rows_per_strip } => rows_per_strip as u64,
                _ => page.height as u64,
            };
            entry(TAG_STRIP_OFFSETS, long, chunks, off_val)?;
            entry(TAG_SAMPLES_PER_PIXEL, TYPE_SHORT, 1, 1)?;
            entry(TAG_ROWS_PER_STRIP, TYPE_LONG, 1, rps)?;
            entry(TAG_STRIP_BYTE_COUNTS, long, chunks, cnt_val)?;
        }
        EncodeLayout::Tiles { width, height } => {
            entry(TAG_SAMPLES_PER_PIXEL, TYPE_SHORT, 1, 1)?;
            entry(TAG_TILE_WIDTH, TYPE_LONG, 1, width as u64)?;
            entry(TAG_TILE_LENGTH, TYPE_LONG, 1, height as u64)?;
            entry(TAG_TILE_OFFSETS, long, chunks, off_val)?;
            entry(TAG_TILE_BYTE_COUNTS, long, chunks, cnt_val)?;
        }
    }
    entry(TAG_SAMPLE_FORMAT, TYPE_SHORT, 1, fmt)?;
    if big {
        sink.write_all(&next.to_le_bytes())?;
    } else {
        sink.write_all(&(next as u32).to_le_bytes())?;
    }
    let count_size = if big { 8 } else { 2 } as u64;
    let entry_size = if big { 20 } else { 12 } as u64;
    let next_size = if big { 8 } else { 4 } as u64;
    Ok(count_size + n as u64 * entry_size + next_size)
}
