//! A minimal PNG *encoder* (no decoder): 8-bit grayscale and RGB,
//! zlib "stored" (uncompressed) deflate blocks.
//!
//! PGM/PPM are the working formats in-tree, but figure outputs people
//! actually open in a browser or slide deck want PNG. Stored-mode deflate
//! keeps the encoder dependency-free and byte-exact: every standard
//! viewer decodes it, at the cost of no compression (fine for 128-px
//! figure panels).

use std::path::Path;

use crate::error::Result;
use crate::image::{Image, RgbImage};

/// CRC-32 (ISO 3309), as required for PNG chunk checksums.
fn crc32(data: &[u8]) -> u32 {
    // Small, allocation-free bitwise implementation; figure-sized inputs
    // don't need a table.
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Adler-32, as required for the zlib stream.
fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let mut a = 1u32;
    let mut b = 0u32;
    for &byte in data {
        a = (a + byte as u32) % MOD;
        b = (b + a) % MOD;
    }
    (b << 16) | a
}

fn chunk(out: &mut Vec<u8>, kind: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(kind);
    out.extend_from_slice(payload);
    let mut crc_input = Vec::with_capacity(4 + payload.len());
    crc_input.extend_from_slice(kind);
    crc_input.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&crc_input).to_be_bytes());
}

/// Wrap raw bytes in a zlib stream of stored (uncompressed) deflate
/// blocks (max 65535 bytes each).
fn zlib_stored(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() + raw.len() / 65535 * 5 + 16);
    out.push(0x78); // CMF: deflate, 32K window
    out.push(0x01); // FLG: check bits, no dict, fastest
    let mut chunks = raw.chunks(65535).peekable();
    if raw.is_empty() {
        // A single final empty stored block.
        out.extend_from_slice(&[0x01, 0x00, 0x00, 0xFF, 0xFF]);
    }
    while let Some(c) = chunks.next() {
        let last = chunks.peek().is_none();
        out.push(if last { 0x01 } else { 0x00 }); // BFINAL + BTYPE=00
        let len = c.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(c);
    }
    out.extend_from_slice(&adler32(raw).to_be_bytes());
    out
}

fn encode_png(width: usize, height: usize, color_type: u8, scanlines: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&(width as u32).to_be_bytes());
    ihdr.extend_from_slice(&(height as u32).to_be_bytes());
    ihdr.push(8); // bit depth
    ihdr.push(color_type); // 0 = gray, 2 = rgb
    ihdr.extend_from_slice(&[0, 0, 0]); // deflate, adaptive, no interlace
    chunk(&mut out, b"IHDR", &ihdr);
    chunk(&mut out, b"IDAT", &zlib_stored(scanlines));
    chunk(&mut out, b"IEND", &[]);
    out
}

/// Encode an 8-bit grayscale image as PNG bytes.
pub(crate) fn encode_png_gray(img: &Image<u8>) -> Vec<u8> {
    let (w, h) = img.dims();
    // Each scanline is prefixed by filter byte 0 (None).
    let mut scanlines = Vec::with_capacity(h * (w + 1));
    for y in 0..h {
        scanlines.push(0);
        scanlines.extend_from_slice(img.row(y));
    }
    encode_png(w, h, 0, &scanlines)
}

/// Encode an RGB image as PNG bytes.
pub(crate) fn encode_png_rgb(img: &RgbImage) -> Vec<u8> {
    let (w, h) = (img.width(), img.height());
    let data = img.as_slice();
    let mut scanlines = Vec::with_capacity(h * (w * 3 + 1));
    for y in 0..h {
        scanlines.push(0);
        scanlines.extend_from_slice(&data[y * w * 3..(y + 1) * w * 3]);
    }
    encode_png(w, h, 2, &scanlines)
}

/// Save an 8-bit grayscale PNG.
pub fn save_png_gray(img: &Image<u8>, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, encode_png_gray(img))?;
    Ok(())
}

/// Save an RGB PNG.
pub fn save_png_rgb(img: &RgbImage, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, encode_png_rgb(img))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0x0000_0000);
        // PNG's own canonical example: CRC of "IEND" with empty payload.
        assert_eq!(crc32(b"IEND"), 0xAE42_6082);
    }

    #[test]
    fn adler32_known_vectors() {
        // Adler32("Wikipedia") = 0x11E60398.
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32(b""), 1);
    }

    #[test]
    fn zlib_stored_roundtrip_by_manual_inflate() {
        // Decode our own stored stream to verify framing.
        let raw: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let z = zlib_stored(&raw);
        assert_eq!(z[0], 0x78);
        // Walk the stored blocks.
        let mut pos = 2;
        let mut decoded = Vec::new();
        loop {
            let bfinal = z[pos] & 1;
            assert_eq!(z[pos] >> 1, 0, "stored block type");
            let len = u16::from_le_bytes([z[pos + 1], z[pos + 2]]) as usize;
            let nlen = u16::from_le_bytes([z[pos + 3], z[pos + 4]]);
            assert_eq!(nlen, !(len as u16));
            decoded.extend_from_slice(&z[pos + 5..pos + 5 + len]);
            pos += 5 + len;
            if bfinal == 1 {
                break;
            }
        }
        assert_eq!(decoded, raw);
        let adler = u32::from_be_bytes([z[pos], z[pos + 1], z[pos + 2], z[pos + 3]]);
        assert_eq!(adler, adler32(&raw));
    }

    #[test]
    fn png_structure_gray() {
        let img = Image::<u8>::from_fn(5, 3, |x, y| (x * 50 + y * 10) as u8);
        let png = encode_png_gray(&img);
        // Signature.
        assert_eq!(
            &png[0..8],
            &[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]
        );
        // IHDR immediately after: length 13.
        assert_eq!(&png[8..12], &13u32.to_be_bytes());
        assert_eq!(&png[12..16], b"IHDR");
        assert_eq!(&png[16..20], &5u32.to_be_bytes()); // width
        assert_eq!(&png[20..24], &3u32.to_be_bytes()); // height
        assert_eq!(png[24], 8); // bit depth
        assert_eq!(png[25], 0); // gray
                                // Ends with IEND.
        assert_eq!(&png[png.len() - 8..png.len() - 4], b"IEND");
    }

    #[test]
    fn png_structure_rgb() {
        let img = RgbImage::filled(4, 4, [10, 200, 30]);
        let png = encode_png_rgb(&img);
        assert_eq!(png[25], 2); // rgb color type
                                // IDAT payload: 4 rows x (1 + 12) bytes wrapped in zlib.
        assert!(png.len() > 4 * 13);
    }

    #[test]
    fn files_written() {
        let dir = crate::io::testing::TempDir::new("zenesis_png_test");
        let g = Image::<u8>::from_fn(16, 16, |x, y| ((x ^ y) * 16) as u8);
        save_png_gray(&g, dir.join("g.png")).unwrap();
        let rgb = RgbImage::filled(8, 8, [255, 0, 0]);
        save_png_rgb(&rgb, dir.join("c.png")).unwrap();
        assert!(std::fs::metadata(dir.join("g.png")).unwrap().len() > 50);
    }
}
