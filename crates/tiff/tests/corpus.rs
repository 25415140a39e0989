//! Adversarial corpus: every committed fixture under `tests/corpus/` is
//! a file a real instrument transfer could have produced — torn,
//! truncated, cyclic, or lying about its geometry — and every one must
//! come back as a *structured* [`TiffError`], never a panic and never a
//! silently misdecoded image. The fixtures are bytes on disk (not
//! generated at test time) so the decoder is exercised against the
//! exact artifacts `docs/DATA.md` documents. The one valid page among
//! them, [`WHITE_IS_ZERO`], must instead decode as its tags say.

use zenesis_image::Image;
use zenesis_tiff::{load_tiff, read_tiff, write_tiff_u16, write_tiff_u8, TiffError, TiffPage};
use zenesis_tiff::{EncodeLayout, EncodeOptions, TiffStackWriter, VolumeReader};

/// A `write_tiff_u16` page of [`white_is_zero_source`] with its
/// PhotometricInterpretation patched from 1 (BlackIsZero) to 0
/// (WhiteIsZero): 0 is white, 65535 is black.
const WHITE_IS_ZERO: &str = "white_is_zero_u16.tif";

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(corpus_dir().join(name)).unwrap_or_else(|e| panic!("corpus fixture {name}: {e}"))
}

/// Every corpus file decodes to an error through both entry points, and
/// the error renders a non-empty message (offset context included).
#[test]
fn every_corpus_file_is_a_structured_error() {
    let mut seen = 0;
    for entry in std::fs::read_dir(corpus_dir()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name == WHITE_IS_ZERO {
            continue;
        }
        let data = std::fs::read(&path).unwrap();
        seen += 1;
        let err = read_tiff(&data)
            .err()
            .unwrap_or_else(|| panic!("{name}: read_tiff accepted a corrupt file"));
        assert!(!err.to_string().is_empty(), "{name}: empty error message");
        let err = VolumeReader::from_bytes(data)
            .err()
            .unwrap_or_else(|| panic!("{name}: VolumeReader accepted a corrupt file"));
        assert!(!err.to_string().is_empty(), "{name}: empty error message");
    }
    assert!(seen >= 9, "corpus shrank: only {seen} fixtures found");
}

#[test]
fn truncated_header_reports_truncation() {
    // The 4-byte file dies reading the first-IFD pointer at offset 4.
    match read_tiff(&fixture("truncated_header.tif")) {
        Err(TiffError::Truncated { offset, what, .. }) => {
            assert_eq!(offset, 4);
            assert_eq!(what, "file header");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn bad_magic_reports_the_bytes_found() {
    match read_tiff(&fixture("bad_magic.tif")) {
        Err(TiffError::BadMagic { found }) => assert_eq!(&found, b"XX"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn bad_version_reports_the_version_found() {
    match read_tiff(&fixture("bad_version.tif")) {
        Err(TiffError::BadVersion { found }) => assert_eq!(found, 44),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn bigtiff_bad_offsetsize_is_rejected() {
    match read_tiff(&fixture("bigtiff_bad_offsetsize.tif")) {
        Err(TiffError::BadBigTiff { offset_size, pad }) => {
            assert_eq!((offset_size, pad), (4, 0));
        }
        other => panic!("expected BadBigTiff, got {other:?}"),
    }
}

#[test]
fn cyclic_ifd_is_detected_not_looped() {
    match read_tiff(&fixture("cyclic_ifd.tif")) {
        Err(TiffError::CyclicIfd { offset }) => assert!(offset > 0),
        other => panic!("expected CyclicIfd, got {other:?}"),
    }
}

#[test]
fn strip_past_eof_reports_bounds() {
    match read_tiff(&fixture("strip_past_eof.tif")) {
        Err(TiffError::OutOfBounds {
            offset,
            len,
            file_len,
            ..
        }) => {
            assert!(offset + len > file_len);
        }
        // The byte-count consistency check may fire first; both refuse.
        Err(TiffError::Inconsistent { .. }) => {}
        other => panic!("expected OutOfBounds/Inconsistent, got {other:?}"),
    }
}

#[test]
fn zero_dimension_names_the_tag() {
    match read_tiff(&fixture("zero_dim.tif")) {
        Err(TiffError::ZeroDimension { tag, .. }) => assert_eq!(tag, 256),
        other => panic!("expected ZeroDimension, got {other:?}"),
    }
}

#[test]
fn ifd_past_eof_reports_truncation_at_the_pointer() {
    match read_tiff(&fixture("ifd_past_eof.tif")) {
        Err(TiffError::Truncated { offset, .. }) => assert_eq!(offset, 100_000),
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn torn_ifd_is_truncation_not_garbage() {
    // Entry count promises 7 entries; the file ends after the first.
    match read_tiff(&fixture("torn_ifd.tif")) {
        Err(TiffError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

/// Random byte soup (deterministic transforms of a valid file) must
/// never panic either — errors only. A cheap in-process fuzz pass over
/// truncations and single-byte corruptions of a real file.
#[test]
fn mutated_valid_files_never_panic() {
    let img = zenesis_image::Image::from_fn(9, 7, |x, y| (x * 31 + y) as u16);
    let valid = zenesis_tiff::write_tiff_u16(&img).unwrap();
    // Every truncation point.
    for cut in 0..valid.len() {
        let _ = read_tiff(&valid[..cut]);
    }
    // Every single-byte corruption at a sample of offsets and values.
    for pos in 0..valid.len() {
        let mut mutated = valid.clone();
        mutated[pos] ^= 0xA5;
        let _ = read_tiff(&mutated);
    }
}

fn white_is_zero_source() -> Image<u16> {
    Image::from_fn(9, 7, |x, y| (x * 6007 + y * 911) as u16)
}

/// Set the SHORT value of `tag` in the first IFD of a classic
/// little-endian file, as the encoder writes it.
fn patch_tag(bytes: &mut [u8], tag: u16, value: u16) {
    let u16_at = |b: &[u8], at: usize| u16::from_le_bytes([b[at], b[at + 1]]);
    assert_eq!(&bytes[..4], b"II*\0", "classic little-endian TIFF");
    let ifd = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let entry = (0..u16_at(bytes, ifd) as usize)
        .map(|i| ifd + 2 + i * 12)
        .find(|&e| u16_at(bytes, e) == tag)
        .unwrap_or_else(|| panic!("encoder writes tag {tag}"));
    bytes[entry + 8..entry + 10].copy_from_slice(&value.to_le_bytes());
}

const PHOTOMETRIC: u16 = 262;
const SAMPLE_FORMAT: u16 = 339;

/// A classic single-strip file holding one 32-bit float page.
fn f32_page(img: &Image<f32>) -> Vec<u8> {
    let opts = EncodeOptions {
        bigtiff: false,
        layout: EncodeLayout::SingleStrip,
    };
    let mut w = TiffStackWriter::new(std::io::Cursor::new(Vec::new()), opts).unwrap();
    w.append_f32(img).unwrap();
    w.finish().unwrap().into_inner()
}

/// The committed WhiteIsZero page decodes inverted (`65535 - v`) through
/// every reader: `read_tiff`, `load_tiff` and `VolumeReader`.
#[test]
fn white_is_zero_page_decodes_inverted() {
    let src = white_is_zero_source();
    let mut bytes = write_tiff_u16(&src).unwrap();
    patch_tag(&mut bytes, PHOTOMETRIC, 0);
    assert_eq!(
        bytes,
        fixture(WHITE_IS_ZERO),
        "the fixture is the patched page"
    );

    let want = src.map(|v| u16::MAX - v);
    assert_eq!(
        read_tiff(&bytes).unwrap(),
        vec![TiffPage::U16(want.clone())]
    );
    let path = corpus_dir().join(WHITE_IS_ZERO);
    assert_eq!(load_tiff(&path).unwrap(), TiffPage::U16(want.clone()));
    let reader = VolumeReader::open(&path).unwrap();
    assert_eq!(reader.read_slice(0).unwrap(), want.to_f32());
    let streamed = VolumeReader::from_bytes(bytes).unwrap().read_slice(0);
    assert_eq!(streamed.unwrap(), want.to_f32());
}

/// The 8- and 32-bit unsigned arms invert too. The encoder writes no
/// 32-bit unsigned page, so a float page's SampleFormat is patched to 1:
/// its bits then read as `u32` samples.
#[test]
fn white_is_zero_u8_and_u32_pages_decode_inverted() {
    let src = Image::from_fn(5, 3, |x, y| (x * 50 + y) as u8);
    let mut bytes = write_tiff_u8(&src).unwrap();
    patch_tag(&mut bytes, PHOTOMETRIC, 0);
    let want = src.map(|v| u8::MAX - v);
    assert_eq!(read_tiff(&bytes).unwrap(), vec![TiffPage::U8(want)]);

    let img = Image::from_fn(4, 3, |x, y| (x + 4 * y) as f32 * 0.07);
    let mut bytes = f32_page(&img);
    patch_tag(&mut bytes, SAMPLE_FORMAT, 1);
    patch_tag(&mut bytes, PHOTOMETRIC, 0);
    let want = img.map(|v| ((u32::MAX - v.to_bits()) as f64 / u32::MAX as f64) as f32);
    assert_eq!(read_tiff(&bytes).unwrap(), vec![TiffPage::F32(want)]);
}

/// A float page has no MAX to invert against, so WhiteIsZero is refused.
#[test]
fn white_is_zero_float_page_is_unsupported() {
    let mut bytes = f32_page(&Image::from_fn(4, 4, |x, y| (x + y) as f32 * 0.1));
    patch_tag(&mut bytes, PHOTOMETRIC, 0);
    match read_tiff(&bytes) {
        Err(TiffError::Unsupported { what, .. }) => assert!(what.contains("WhiteIsZero"), "{what}"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    assert!(matches!(
        VolumeReader::from_bytes(bytes),
        Err(TiffError::Unsupported { .. })
    ));
}

/// Photometric values past WhiteIsZero and BlackIsZero (RGB, palette,
/// ...) stay refused.
#[test]
fn other_photometric_values_are_unsupported() {
    let mut bytes = write_tiff_u16(&white_is_zero_source()).unwrap();
    patch_tag(&mut bytes, PHOTOMETRIC, 2);
    assert!(matches!(
        read_tiff(&bytes),
        Err(TiffError::Unsupported { .. })
    ));
}
