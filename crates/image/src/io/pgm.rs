//! Binary PGM (P5) and PPM (P6) codecs.
//!
//! 16-bit PGM uses big-endian samples per the Netpbm specification.

use std::io::{Read, Write};
use std::path::Path;

use crate::error::{ImageError, Result};
use crate::image::{sample_count, Image, RgbImage};

fn write_header(out: &mut impl Write, magic: &str, w: usize, h: usize, maxval: u32) -> Result<()> {
    write!(out, "{magic}\n{w} {h}\n{maxval}\n")?;
    Ok(())
}

/// Write an 8-bit grayscale PGM.
pub(crate) fn write_pgm_u8(img: &Image<u8>, out: &mut impl Write) -> Result<()> {
    write_header(out, "P5", img.width(), img.height(), 255)?;
    out.write_all(img.as_slice())?;
    Ok(())
}

/// Write a 16-bit grayscale PGM (big-endian samples).
pub fn write_pgm_u16(img: &Image<u16>, out: &mut impl Write) -> Result<()> {
    write_header(out, "P5", img.width(), img.height(), 65535)?;
    let mut buf = Vec::with_capacity(img.len() * 2);
    for &v in img.as_slice() {
        buf.extend_from_slice(&v.to_be_bytes());
    }
    out.write_all(&buf)?;
    Ok(())
}

/// Write an RGB PPM.
pub(crate) fn write_ppm(img: &RgbImage, out: &mut impl Write) -> Result<()> {
    write_header(out, "P6", img.width(), img.height(), 255)?;
    out.write_all(img.as_slice())?;
    Ok(())
}

/// Convenience: save an 8-bit PGM to a path.
pub fn save_pgm_u8(img: &Image<u8>, path: impl AsRef<Path>) -> Result<()> {
    let mut f = std::fs::File::create(path)?;
    write_pgm_u8(img, &mut f)
}

/// Convenience: save a 16-bit PGM to a path.
pub fn save_pgm_u16(img: &Image<u16>, path: impl AsRef<Path>) -> Result<()> {
    let mut f = std::fs::File::create(path)?;
    write_pgm_u16(img, &mut f)
}

/// Convenience: save a PPM to a path.
pub fn save_ppm(img: &RgbImage, path: impl AsRef<Path>) -> Result<()> {
    let mut f = std::fs::File::create(path)?;
    write_ppm(img, &mut f)
}

struct HeaderReader<'a, R: Read> {
    inner: &'a mut R,
}

impl<R: Read> HeaderReader<'_, R> {
    fn read_byte(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.inner.read_exact(&mut b)?;
        Ok(b[0])
    }

    /// Read the next whitespace-delimited token, skipping `#` comments.
    fn token(&mut self) -> Result<String> {
        let mut b = self.read_byte()?;
        loop {
            if b == b'#' {
                while b != b'\n' {
                    b = self.read_byte()?;
                }
            } else if b.is_ascii_whitespace() {
                b = self.read_byte()?;
            } else {
                break;
            }
        }
        let mut tok = String::new();
        while !b.is_ascii_whitespace() {
            tok.push(b as char);
            b = self.read_byte()?;
        }
        Ok(tok)
    }
}

/// Decoded PGM payload (8- or 16-bit).
pub enum Pgm {
    U8(Image<u8>),
    U16(Image<u16>),
}

/// Parse a P5/P6 header up to the single whitespace byte before the
/// payload (consumed by `token`'s terminator): `(width, height, maxval)`.
fn read_header(input: &mut impl Read, magic: &str) -> Result<(usize, usize, usize)> {
    let mut hr = HeaderReader { inner: input };
    let got = hr.token()?;
    if got != magic {
        return Err(ImageError::Decode(format!("expected {magic}, got {got}")));
    }
    let mut number = || -> Result<usize> {
        let s = hr.token()?;
        s.parse()
            .map_err(|_| ImageError::Decode(format!("bad integer {s:?}")))
    };
    let (w, h, maxval) = (number()?, number()?, number()?);
    if w == 0 || h == 0 {
        return Err(ImageError::EmptyDimensions);
    }
    Ok((w, h, maxval))
}

/// Read the `n`-byte payload. Memory follows the bytes actually present,
/// not the header's claim: a file shorter than its header says fails
/// after reading what it holds, without allocating the claimed size.
fn read_payload(input: &mut impl Read, n: usize) -> Result<Vec<u8>> {
    let mut data = Vec::new();
    input.take(n as u64).read_to_end(&mut data)?;
    if data.len() != n {
        return Err(ImageError::Decode(format!(
            "truncated payload: {} of {n} bytes",
            data.len()
        )));
    }
    Ok(data)
}

/// Read a binary PGM (P5), 8- or 16-bit.
pub fn read_pgm(input: &mut impl Read) -> Result<Pgm> {
    let (w, h, maxval) = read_header(input, "P5")?;
    if maxval <= 255 {
        let data = read_payload(input, sample_count(w, h, 1)?)?;
        Ok(Pgm::U8(Image::from_vec(w, h, data)?))
    } else if maxval <= 65535 {
        // Two big-endian bytes per sample.
        let raw = read_payload(input, sample_count(w, h, 2)?)?;
        let data = raw
            .chunks_exact(2)
            .map(|c| u16::from_be_bytes([c[0], c[1]]))
            .collect();
        Ok(Pgm::U16(Image::from_vec(w, h, data)?))
    } else {
        Err(ImageError::Unsupported(format!("maxval {maxval}")))
    }
}

/// Read a binary PPM (P6), 8-bit RGB.
pub fn read_ppm(input: &mut impl Read) -> Result<RgbImage> {
    let (w, h, maxval) = read_header(input, "P6")?;
    if maxval != 255 {
        return Err(ImageError::Unsupported(format!("ppm maxval {maxval}")));
    }
    let data = read_payload(input, sample_count(w, h, 3)?)?;
    RgbImage::from_vec(w, h, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_u8_roundtrip() {
        let img = Image::<u8>::from_fn(13, 7, |x, y| (x * 19 + y * 3) as u8);
        let mut buf = Vec::new();
        write_pgm_u8(&img, &mut buf).unwrap();
        match read_pgm(&mut buf.as_slice()).unwrap() {
            Pgm::U8(back) => assert_eq!(back, img),
            _ => panic!("wrong depth"),
        }
    }

    #[test]
    fn pgm_u16_roundtrip() {
        let img = Image::<u16>::from_fn(5, 9, |x, y| (x * 9999 + y * 777) as u16);
        let mut buf = Vec::new();
        write_pgm_u16(&img, &mut buf).unwrap();
        match read_pgm(&mut buf.as_slice()).unwrap() {
            Pgm::U16(back) => assert_eq!(back, img),
            _ => panic!("wrong depth"),
        }
    }

    #[test]
    fn ppm_roundtrip() {
        let mut img = RgbImage::filled(4, 3, [1, 2, 3]);
        img.set(2, 1, [200, 100, 50]);
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        let back = read_ppm(&mut buf.as_slice()).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn comments_in_header_are_skipped() {
        let img = Image::<u8>::filled(2, 2, 7);
        let mut buf = Vec::new();
        write_pgm_u8(&img, &mut buf).unwrap();
        // Inject a comment line after the magic.
        let mut with_comment = b"P5\n# microscope metadata\n2 2\n255\n".to_vec();
        with_comment.extend_from_slice(&buf[buf.len() - 4..]);
        match read_pgm(&mut with_comment.as_slice()).unwrap() {
            Pgm::U8(back) => assert_eq!(back, img),
            _ => panic!("wrong depth"),
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let data = b"P6\n2 2\n255\n0123".to_vec();
        assert!(read_pgm(&mut data.as_slice()).is_err());
        let data2 = b"P5\n2 2\n255\n0123".to_vec();
        assert!(read_ppm(&mut data2.as_slice()).is_err());
    }

    #[test]
    fn truncated_payload_errors() {
        let data = b"P5\n4 4\n255\nxx".to_vec();
        assert!(read_pgm(&mut data.as_slice()).is_err());
    }

    #[test]
    fn overflowing_header_dimensions_are_rejected() {
        // 2^32 x 2^32 samples wrap to 0 in unchecked arithmetic, which
        // the empty payload would then satisfy.
        let data = b"P5\n4294967296 4294967296\n255\n".to_vec();
        assert!(matches!(
            read_pgm(&mut data.as_slice()),
            Err(ImageError::TooLarge { .. })
        ));
        let data = b"P5\n4294967296 4294967296\n65535\n".to_vec();
        assert!(matches!(
            read_pgm(&mut data.as_slice()),
            Err(ImageError::TooLarge { .. })
        ));
    }

    #[test]
    fn huge_header_with_short_payload_fails_without_allocating_the_claim() {
        // 1048576 x 349525 x 3 bytes is about 2^40 (1 TiB). Reading must
        // fail on the 12 bytes present, not try to allocate the claim.
        let mut data = b"P6\n1048576 349525\n255\n".to_vec();
        data.extend_from_slice(&[7; 12]);
        match read_ppm(&mut data.as_slice()) {
            Err(ImageError::Decode(msg)) => assert!(msg.contains("12 of"), "{msg}"),
            other => panic!("expected a truncation error, got {other:?}"),
        }
    }

    #[test]
    fn file_save_and_load() {
        let dir = std::env::temp_dir().join("zenesis_pgm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pgm");
        let img = Image::<u16>::from_fn(8, 8, |x, y| ((x + 1) * (y + 1) * 900) as u16);
        save_pgm_u16(&img, &path).unwrap();
        let mut f = std::fs::File::open(&path).unwrap();
        match read_pgm(&mut f).unwrap() {
            Pgm::U16(back) => assert_eq!(back, img),
            _ => panic!("wrong depth"),
        }
    }
}
