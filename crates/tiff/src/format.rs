//! Header and IFD parsing for classic TIFF and BigTIFF.
//!
//! The parser reads *structure only* — tags, offsets, chunk tables —
//! through a [`TiffRead`] source, so scanning a multi-gigabyte stack's
//! page directory touches a few kilobytes of the file. Pixel payloads
//! are fetched later, per page, by [`crate::decode`].
//!
//! Supported subset (deliberately what microscopes emit for raw data):
//! grayscale (PhotometricInterpretation 0/1), 1 sample/pixel, 8/16/32
//! bits/sample (unsigned integer, or IEEE float at 32), uncompressed,
//! striped or tiled, classic (32-bit offsets) or BigTIFF (64-bit
//! offsets), both byte orders. Everything else is a structured
//! [`TiffError::Unsupported`] — silent misdecoding of scientific data
//! is worse than refusal.

use std::collections::HashSet;

use crate::error::{Result, TiffError};
use crate::source::TiffRead;

pub(crate) const TAG_WIDTH: u16 = 256;
pub(crate) const TAG_HEIGHT: u16 = 257;
pub(crate) const TAG_BITS_PER_SAMPLE: u16 = 258;
pub(crate) const TAG_COMPRESSION: u16 = 259;
pub(crate) const TAG_PHOTOMETRIC: u16 = 262;
pub(crate) const TAG_STRIP_OFFSETS: u16 = 273;
pub(crate) const TAG_SAMPLES_PER_PIXEL: u16 = 277;
pub(crate) const TAG_ROWS_PER_STRIP: u16 = 278;
pub(crate) const TAG_STRIP_BYTE_COUNTS: u16 = 279;
pub(crate) const TAG_TILE_WIDTH: u16 = 322;
pub(crate) const TAG_TILE_LENGTH: u16 = 323;
pub(crate) const TAG_TILE_OFFSETS: u16 = 324;
pub(crate) const TAG_TILE_BYTE_COUNTS: u16 = 325;
pub(crate) const TAG_SAMPLE_FORMAT: u16 = 339;

pub(crate) const TYPE_SHORT: u16 = 3;
pub(crate) const TYPE_LONG: u16 = 4;
pub(crate) const TYPE_LONG8: u16 = 16;

/// Hard cap on IFD entries per directory and pages per file: a hostile
/// header must not make the scanner allocate without bound.
const MAX_ENTRIES: u64 = 65_536;
const MAX_PAGES: u64 = 65_536;
/// Hard cap on chunks (strips/tiles) per page.
const MAX_CHUNKS: u64 = 1 << 22;

/// Byte order of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endian {
    /// `II`: little-endian (Intel).
    Little,
    /// `MM`: big-endian (Motorola).
    Big,
}

/// How the samples of a page are to be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SampleFormat {
    /// Unsigned integer samples (SampleFormat 1, the default).
    Uint,
    /// IEEE binary32 float samples (SampleFormat 3; 32-bit only).
    Float,
}

/// Parsed file header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TiffHeader {
    pub(crate) endian: Endian,
    pub(crate) big: bool,
    pub(crate) first_ifd: u64,
}

/// Where a page's pixel payload lives.
#[derive(Debug, Clone)]
pub(crate) enum ChunkLayout {
    /// Horizontal bands of `rows_per_strip` rows each (last may be short).
    Strips {
        rows_per_strip: u32,
        offsets: Vec<u64>,
        counts: Vec<u64>,
    },
    /// A grid of fixed-size tiles, edge tiles padded to full size.
    Tiles {
        tile_w: u32,
        tile_h: u32,
        offsets: Vec<u64>,
        counts: Vec<u64>,
    },
}

/// Validated metadata of one page (one IFD).
#[derive(Debug, Clone)]
pub(crate) struct PageMeta {
    /// Offset of the IFD this page was parsed from (error context).
    pub(crate) offset: u64,
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) bits: u16,
    pub(crate) format: SampleFormat,
    /// PhotometricInterpretation 0: the sample value 0 is white. Only
    /// unsigned pages carry it; decode inverts them to BlackIsZero.
    pub(crate) white_is_zero: bool,
    pub(crate) layout: ChunkLayout,
    pub(crate) next: u64,
}

impl PageMeta {
    /// Bytes per sample.
    pub(crate) fn bps(&self) -> usize {
        self.bits as usize / 8
    }
}

/// Offset-addressed multi-byte reads with endian and width context.
pub(crate) struct Parser<'a> {
    pub(crate) src: &'a dyn TiffRead,
    pub(crate) endian: Endian,
    pub(crate) big: bool,
}

impl<'a> Parser<'a> {
    pub(crate) fn read(&self, offset: u64, buf: &mut [u8], what: &'static str) -> Result<()> {
        self.src.read_exact_at(offset, buf).map_err(|e| {
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

    pub(crate) fn u16_at(&self, offset: u64, what: &'static str) -> Result<u16> {
        let mut b = [0u8; 2];
        self.read(offset, &mut b, what)?;
        Ok(match self.endian {
            Endian::Little => u16::from_le_bytes(b),
            Endian::Big => u16::from_be_bytes(b),
        })
    }

    pub(crate) fn u32_at(&self, offset: u64, what: &'static str) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read(offset, &mut b, what)?;
        Ok(match self.endian {
            Endian::Little => u32::from_le_bytes(b),
            Endian::Big => u32::from_be_bytes(b),
        })
    }

    pub(crate) fn u64_at(&self, offset: u64, what: &'static str) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(offset, &mut b, what)?;
        Ok(match self.endian {
            Endian::Little => u64::from_le_bytes(b),
            Endian::Big => u64::from_be_bytes(b),
        })
    }

    /// Read a file offset: u32 in classic files, u64 in BigTIFF.
    pub(crate) fn off_at(&self, offset: u64, what: &'static str) -> Result<u64> {
        if self.big {
            self.u64_at(offset, what)
        } else {
            Ok(self.u32_at(offset, what)? as u64)
        }
    }
}

/// Parse the 8-byte (classic) or 16-byte (BigTIFF) file header.
pub(crate) fn parse_header(src: &dyn TiffRead) -> Result<TiffHeader> {
    let mut order = [0u8; 2];
    src.read_exact_at(0, &mut order)
        .map_err(|_| TiffError::Truncated {
            offset: 0,
            needed: 8,
            what: "file header",
        })?;
    let endian = match &order {
        b"II" => Endian::Little,
        b"MM" => Endian::Big,
        _ => return Err(TiffError::BadMagic { found: order }),
    };
    let p = Parser {
        src,
        endian,
        big: false,
    };
    let version = p.u16_at(2, "file header")?;
    match version {
        42 => {
            let first_ifd = p.u32_at(4, "file header")? as u64;
            Ok(TiffHeader {
                endian,
                big: false,
                first_ifd,
            })
        }
        43 => {
            let offset_size = p.u16_at(4, "BigTIFF header")?;
            let pad = p.u16_at(6, "BigTIFF header")?;
            if offset_size != 8 || pad != 0 {
                return Err(TiffError::BadBigTiff { offset_size, pad });
            }
            let first_ifd = p.u64_at(8, "BigTIFF header")?;
            Ok(TiffHeader {
                endian,
                big: true,
                first_ifd,
            })
        }
        found => Err(TiffError::BadVersion { found }),
    }
}

/// Raw (tag, type, count, value-field offset) of one IFD entry.
struct RawEntry {
    tag: u16,
    typ: u16,
    count: u64,
    /// Offset of the entry's value field itself (inline bytes live here).
    value_field: u64,
}

/// Read the value(s) of an entry as u64s. SHORT/LONG/LONG8 only — the
/// tags in the supported subset never legitimately use anything else.
fn entry_values(p: &Parser, e: &RawEntry, ifd: u64) -> Result<Vec<u64>> {
    let elem: u64 = match e.typ {
        TYPE_SHORT => 2,
        TYPE_LONG => 4,
        TYPE_LONG8 if p.big => 8,
        t => {
            return Err(TiffError::Unsupported {
                what: format!("value type {t} for tag {}", e.tag),
                offset: ifd,
            })
        }
    };
    if e.count > MAX_CHUNKS {
        return Err(TiffError::TooLarge {
            what: "IFD entry count",
            value: e.count,
            limit: MAX_CHUNKS,
        });
    }
    let inline_cap: u64 = if p.big { 8 } else { 4 };
    let total = elem * e.count;
    let value_off = if total <= inline_cap {
        e.value_field
    } else {
        let off = p.off_at(e.value_field, "IFD entry value offset")?;
        // The whole out-of-line array must lie inside the file.
        if off.checked_add(total).is_none_or(|end| end > p.src.len()) {
            return Err(TiffError::OutOfBounds {
                what: "IFD value array",
                offset: off,
                len: total,
                file_len: p.src.len(),
            });
        }
        off
    };
    let mut out = Vec::with_capacity(e.count as usize);
    for i in 0..e.count {
        let off = value_off + i * elem;
        out.push(match elem {
            2 => p.u16_at(off, "IFD entry value")? as u64,
            4 => p.u32_at(off, "IFD entry value")? as u64,
            _ => p.u64_at(off, "IFD entry value")?,
        });
    }
    Ok(out)
}

/// Tag values accumulated while walking one IFD.
#[derive(Default)]
struct RawIfd {
    width: Option<u64>,
    height: Option<u64>,
    bits: Option<u64>,
    compression: Option<u64>,
    photometric: Option<u64>,
    samples: Option<u64>,
    sample_format: Option<u64>,
    rows_per_strip: Option<u64>,
    strip_offsets: Option<Vec<u64>>,
    strip_counts: Option<Vec<u64>>,
    tile_w: Option<u64>,
    tile_h: Option<u64>,
    tile_offsets: Option<Vec<u64>>,
    tile_counts: Option<Vec<u64>>,
}

/// Parse and validate the IFD at `ifd_off` into a [`PageMeta`].
pub(crate) fn parse_ifd(p: &Parser, ifd_off: u64) -> Result<PageMeta> {
    let (n, entries_off, entry_size, next_off) = if p.big {
        let n = p.u64_at(ifd_off, "IFD entry count")?;
        (n, ifd_off + 8, 20u64, ifd_off + 8 + n.saturating_mul(20))
    } else {
        let n = p.u16_at(ifd_off, "IFD entry count")? as u64;
        (n, ifd_off + 2, 12u64, ifd_off + 2 + n * 12)
    };
    if n > MAX_ENTRIES {
        return Err(TiffError::TooLarge {
            what: "IFD entry count",
            value: n,
            limit: MAX_ENTRIES,
        });
    }
    let mut raw = RawIfd::default();
    for i in 0..n {
        let eoff = entries_off + i * entry_size;
        let e = RawEntry {
            tag: p.u16_at(eoff, "IFD entry")?,
            typ: p.u16_at(eoff + 2, "IFD entry")?,
            count: if p.big {
                p.u64_at(eoff + 4, "IFD entry")?
            } else {
                p.u32_at(eoff + 4, "IFD entry")? as u64
            },
            value_field: eoff + if p.big { 12 } else { 8 },
        };
        let scalar = |raw_field: &mut Option<u64>| -> Result<()> {
            *raw_field = Some(entry_values(p, &e, ifd_off)?[0]);
            Ok(())
        };
        match e.tag {
            TAG_WIDTH => scalar(&mut raw.width)?,
            TAG_HEIGHT => scalar(&mut raw.height)?,
            TAG_BITS_PER_SAMPLE => scalar(&mut raw.bits)?,
            TAG_COMPRESSION => scalar(&mut raw.compression)?,
            TAG_PHOTOMETRIC => scalar(&mut raw.photometric)?,
            TAG_SAMPLES_PER_PIXEL => scalar(&mut raw.samples)?,
            TAG_SAMPLE_FORMAT => scalar(&mut raw.sample_format)?,
            TAG_ROWS_PER_STRIP => scalar(&mut raw.rows_per_strip)?,
            TAG_STRIP_OFFSETS => raw.strip_offsets = Some(entry_values(p, &e, ifd_off)?),
            TAG_STRIP_BYTE_COUNTS => raw.strip_counts = Some(entry_values(p, &e, ifd_off)?),
            TAG_TILE_WIDTH => scalar(&mut raw.tile_w)?,
            TAG_TILE_LENGTH => scalar(&mut raw.tile_h)?,
            TAG_TILE_OFFSETS => raw.tile_offsets = Some(entry_values(p, &e, ifd_off)?),
            TAG_TILE_BYTE_COUNTS => raw.tile_counts = Some(entry_values(p, &e, ifd_off)?),
            _ => {} // tolerated and ignored (resolution, software, ...)
        }
    }
    let next = p.off_at(next_off, "next-IFD pointer")?;
    validate_ifd(p, ifd_off, raw, next)
}

fn validate_ifd(p: &Parser, ifd: u64, raw: RawIfd, next: u64) -> Result<PageMeta> {
    let unsupported = |what: String| TiffError::Unsupported { what, offset: ifd };
    let inconsistent = |what: String| TiffError::Inconsistent { what, offset: ifd };

    let compression = raw.compression.unwrap_or(1);
    if compression != 1 {
        return Err(unsupported(format!("compression {compression}")));
    }
    let samples = raw.samples.unwrap_or(1);
    if samples != 1 {
        return Err(unsupported(format!(
            "{samples} samples/pixel (grayscale only)"
        )));
    }
    let white_is_zero = match raw.photometric.unwrap_or(1) {
        0 => true,
        1 => false,
        p => return Err(unsupported(format!("photometric interpretation {p}"))),
    };
    let width = raw
        .width
        .ok_or_else(|| inconsistent("missing ImageWidth".into()))?;
    let height = raw
        .height
        .ok_or_else(|| inconsistent("missing ImageLength".into()))?;
    if width == 0 {
        return Err(TiffError::ZeroDimension {
            tag: TAG_WIDTH,
            ifd,
        });
    }
    if height == 0 {
        return Err(TiffError::ZeroDimension {
            tag: TAG_HEIGHT,
            ifd,
        });
    }
    if width > u32::MAX as u64 || height > u32::MAX as u64 {
        return Err(TiffError::TooLarge {
            what: "image dimension",
            value: width.max(height),
            limit: u32::MAX as u64,
        });
    }
    let bits = raw.bits.unwrap_or(1);
    if !matches!(bits, 8 | 16 | 32) {
        return Err(unsupported(format!("{bits} bits/sample")));
    }
    let format = match raw.sample_format.unwrap_or(1) {
        1 => SampleFormat::Uint,
        3 if bits == 32 => SampleFormat::Float,
        3 => return Err(unsupported(format!("float samples at {bits} bits"))),
        f => return Err(unsupported(format!("sample format {f}"))),
    };
    // A float page has no MAX to invert against; image-tiff refuses
    // WhiteIsZero floats for the same reason.
    if white_is_zero && format == SampleFormat::Float {
        return Err(unsupported("WhiteIsZero float samples".into()));
    }
    let bps = bits / 8;
    // The assembled page must fit in addressable memory.
    let total_bytes = width
        .checked_mul(height)
        .and_then(|px| px.checked_mul(bps))
        .ok_or(TiffError::TooLarge {
            what: "page byte size",
            value: u64::MAX,
            limit: usize::MAX as u64,
        })?;
    if usize::try_from(total_bytes).is_err() {
        return Err(TiffError::TooLarge {
            what: "page byte size",
            value: total_bytes,
            limit: usize::MAX as u64,
        });
    }

    let tiled = raw.tile_offsets.is_some()
        || raw.tile_counts.is_some()
        || raw.tile_w.is_some()
        || raw.tile_h.is_some();
    let layout = if tiled {
        let tile_w = raw
            .tile_w
            .ok_or_else(|| inconsistent("missing TileWidth".into()))?;
        let tile_h = raw
            .tile_h
            .ok_or_else(|| inconsistent("missing TileLength".into()))?;
        if tile_w == 0 {
            return Err(TiffError::ZeroDimension {
                tag: TAG_TILE_WIDTH,
                ifd,
            });
        }
        if tile_h == 0 {
            return Err(TiffError::ZeroDimension {
                tag: TAG_TILE_LENGTH,
                ifd,
            });
        }
        let offsets = raw
            .tile_offsets
            .ok_or_else(|| inconsistent("missing TileOffsets".into()))?;
        let counts = raw
            .tile_counts
            .ok_or_else(|| inconsistent("missing TileByteCounts".into()))?;
        let expect = width.div_ceil(tile_w) * height.div_ceil(tile_h);
        if offsets.len() != counts.len() || offsets.len() as u64 != expect {
            return Err(inconsistent(format!(
                "tile tables: geometry needs {expect} tiles, found {} offsets / {} counts",
                offsets.len(),
                counts.len()
            )));
        }
        let tile_bytes = tile_w * tile_h * bps;
        for (i, (&off, &cnt)) in offsets.iter().zip(&counts).enumerate() {
            if cnt != tile_bytes {
                return Err(inconsistent(format!(
                    "tile {i} byte count {cnt} != {tile_w}x{tile_h}x{bps} = {tile_bytes}"
                )));
            }
            check_bounds(p, "tile payload", off, cnt)?;
        }
        ChunkLayout::Tiles {
            tile_w: tile_w as u32,
            tile_h: tile_h as u32,
            offsets,
            counts,
        }
    } else {
        let rows_per_strip = raw.rows_per_strip.unwrap_or(height).min(height);
        if rows_per_strip == 0 {
            return Err(TiffError::ZeroDimension {
                tag: TAG_ROWS_PER_STRIP,
                ifd,
            });
        }
        let offsets = raw
            .strip_offsets
            .ok_or_else(|| inconsistent("missing StripOffsets".into()))?;
        let counts = raw
            .strip_counts
            .ok_or_else(|| inconsistent("missing StripByteCounts".into()))?;
        let expect = height.div_ceil(rows_per_strip);
        if offsets.len() != counts.len() || offsets.len() as u64 != expect {
            return Err(inconsistent(format!(
                "strip tables: geometry needs {expect} strips, found {} offsets / {} counts",
                offsets.len(),
                counts.len()
            )));
        }
        for (i, (&off, &cnt)) in offsets.iter().zip(&counts).enumerate() {
            let rows = rows_per_strip.min(height - i as u64 * rows_per_strip);
            let strip_bytes = rows * width * bps;
            if cnt != strip_bytes {
                return Err(inconsistent(format!(
                    "strip {i} byte count {cnt} != {rows} row(s) x {width} x {bps} = {strip_bytes}"
                )));
            }
            check_bounds(p, "strip payload", off, cnt)?;
        }
        ChunkLayout::Strips {
            rows_per_strip: rows_per_strip as u32,
            offsets,
            counts,
        }
    };
    Ok(PageMeta {
        offset: ifd,
        width: width as u32,
        height: height as u32,
        bits: bits as u16,
        format,
        white_is_zero,
        layout,
        next,
    })
}

/// A chunk payload must lie entirely inside the file.
fn check_bounds(p: &Parser, what: &'static str, offset: u64, len: u64) -> Result<()> {
    let file_len = p.src.len();
    if offset.checked_add(len).is_none_or(|end| end > file_len) {
        return Err(TiffError::OutOfBounds {
            what,
            offset,
            len,
            file_len,
        });
    }
    Ok(())
}

/// Walk the IFD chain from the header: every page's metadata, in file
/// order, with cyclic `next` pointers detected instead of looping.
pub(crate) fn scan_chain(src: &dyn TiffRead) -> Result<(TiffHeader, Vec<PageMeta>)> {
    let header = parse_header(src)?;
    let p = Parser {
        src,
        endian: header.endian,
        big: header.big,
    };
    let mut visited: HashSet<u64> = HashSet::new();
    let mut pages = Vec::new();
    let mut ifd_off = header.first_ifd;
    while ifd_off != 0 {
        if !visited.insert(ifd_off) {
            return Err(TiffError::CyclicIfd { offset: ifd_off });
        }
        if pages.len() as u64 >= MAX_PAGES {
            return Err(TiffError::TooLarge {
                what: "page count",
                value: pages.len() as u64 + 1,
                limit: MAX_PAGES,
            });
        }
        let meta = parse_ifd(&p, ifd_off)?;
        ifd_off = meta.next;
        pages.push(meta);
    }
    if pages.is_empty() {
        return Err(TiffError::NoPages);
    }
    Ok((header, pages))
}
