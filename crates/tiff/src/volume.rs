//! Streaming multi-page volume reader.
//!
//! [`VolumeReader::open`] scans the IFD chain once (metadata only),
//! validates that every page has the same shape, and then hands out
//! slices on demand: each [`read_slice`](VolumeReader::read_slice)
//! touches exactly one page's payload, so Mode B can stream a stack
//! larger than RAM with peak residency bounded by O(one slice).
//!
//! Reads pass through the `io.tiff` fault-injection site and are
//! instrumented with `io.tiff.*` spans and counters, plus the
//! `io.tiff.{open,read_slice}.lat` histograms that feed the repro
//! latency table, run ledgers, and the `/metrics` exposition.

use std::path::Path;
use std::time::Instant;

use zenesis_image::Image;

use crate::decode::{decode_page, TiffPage};
use crate::error::{Result, TiffError};
use crate::format::{scan_chain, Endian, PageMeta};
use crate::source::{FileSource, Source};

/// A multi-page TIFF stack open for slice-by-slice reading.
///
/// Shared by reference across parallel slice workers: `read_slice`
/// takes `&self`, and the underlying [`FileSource`] serializes raw
/// reads behind its own mutex.
pub struct VolumeReader {
    src: Source,
    endian: Endian,
    big: bool,
    pages: Vec<PageMeta>,
}

impl VolumeReader {
    /// Open a file-backed stack. Scans the page directory without
    /// reading any pixel payloads.
    pub fn open(path: impl AsRef<Path>) -> Result<VolumeReader> {
        let _span = zenesis_obs::span("io.tiff.open");
        let t0 = zenesis_obs::enabled().then(Instant::now);
        let src = FileSource::open(path)?;
        let reader = VolumeReader::from_source(Source::File(src));
        if let Some(t0) = t0 {
            zenesis_obs::record_ms("io.tiff.open.lat", t0.elapsed().as_secs_f64() * 1e3);
        }
        reader
    }

    /// Open an in-memory stack (tests, serve payloads).
    pub fn from_bytes(data: Vec<u8>) -> Result<VolumeReader> {
        let _span = zenesis_obs::span("io.tiff.open");
        let t0 = zenesis_obs::enabled().then(Instant::now);
        let reader = VolumeReader::from_source(Source::Mem(data));
        if let Some(t0) = t0 {
            zenesis_obs::record_ms("io.tiff.open.lat", t0.elapsed().as_secs_f64() * 1e3);
        }
        reader
    }

    fn from_source(src: Source) -> Result<VolumeReader> {
        let (header, pages) = scan_chain(&src)?;
        // A volume is a stack of congruent slices: reject shape or
        // sample-type drift between pages up front, not at slice 37.
        let first = &pages[0];
        for p in &pages[1..] {
            if (p.width, p.height, p.bits, p.format)
                != (first.width, first.height, first.bits, first.format)
            {
                return Err(TiffError::Inconsistent {
                    what: format!(
                        "page shape drift: {}x{}@{} then {}x{}@{}",
                        first.width, first.height, first.bits, p.width, p.height, p.bits
                    ),
                    offset: p.offset,
                });
            }
        }
        zenesis_obs::counter("io.tiff.volumes_opened").inc();
        Ok(VolumeReader {
            src,
            endian: header.endian,
            big: header.big,
            pages,
        })
    }

    /// Number of slices (pages) in the stack.
    pub fn depth(&self) -> usize {
        self.pages.len()
    }

    /// Slice width in pixels.
    pub fn width(&self) -> usize {
        self.pages[0].width as usize
    }

    /// Slice height in pixels.
    pub fn height(&self) -> usize {
        self.pages[0].height as usize
    }

    /// Native bits per sample of the stack.
    pub fn bits(&self) -> u16 {
        self.pages[0].bits
    }

    /// True when the file is a BigTIFF (64-bit offsets).
    pub fn is_bigtiff(&self) -> bool {
        self.big
    }

    /// Read page `z` at its native bit depth.
    ///
    /// The read passes through the `io.tiff` fault site: an armed
    /// `Error` injection surfaces as [`TiffError::Injected`], which
    /// the volume pipeline's quarantine ladder treats like any other
    /// decode failure. The injection decision is a pure function of
    /// `(seed, site, z)`, so a retry or a checkpoint-resume re-read of
    /// the same slice sees the same decision.
    ///
    /// # Panics
    /// Panics if `z >= self.depth()` — an internal indexing bug, not a
    /// data condition.
    pub fn read_page(&self, z: usize) -> Result<TiffPage> {
        assert!(z < self.depth(), "slice {z} out of {}", self.depth());
        if let Some(zenesis_fault::Injection::Error) = zenesis_fault::trip("io.tiff") {
            return Err(TiffError::Injected);
        }
        let _span = zenesis_obs::span("io.tiff.read_slice");
        let t0 = zenesis_obs::enabled().then(Instant::now);
        let page = &self.pages[z];
        let decoded = decode_page(&self.src, page, self.endian)?;
        if let Some(t0) = t0 {
            zenesis_obs::record_ms("io.tiff.read_slice.lat", t0.elapsed().as_secs_f64() * 1e3);
        }
        zenesis_obs::counter("io.tiff.slices_read").inc();
        zenesis_obs::counter("io.tiff.bytes_read")
            .add((page.width as u64) * (page.height as u64) * page.bps() as u64);
        Ok(decoded)
    }

    /// Read page `z` normalized into the `Image<f32>` substrate.
    pub fn read_slice(&self, z: usize) -> Result<Image<f32>> {
        Ok(self.read_page(z)?.to_f32())
    }
}
