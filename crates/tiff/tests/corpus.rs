//! Adversarial corpus: every committed fixture under `tests/corpus/` is
//! a file a real instrument transfer could have produced — torn,
//! truncated, cyclic, or lying about its geometry — and every one must
//! come back as a *structured* [`TiffError`], never a panic and never a
//! silently misdecoded image. The fixtures are bytes on disk (not
//! generated at test time) so the decoder is exercised against the
//! exact artifacts `docs/DATA.md` documents.

use zenesis_tiff::{read_tiff, TiffError, VolumeReader};

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
