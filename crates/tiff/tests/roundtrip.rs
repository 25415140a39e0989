//! Golden round-trip matrix for the codec: every bit depth × chunk
//! layout × container variant must decode back bit-identically, the
//! encoder must be byte-deterministic, and big-endian (`MM`) files —
//! which our writer never emits — must still decode via a hand-crafted
//! fixture.

use std::io::Cursor;

use proptest::prelude::*;
use zenesis_image::{Image, VoxelSize};
use zenesis_tiff::{
    read_tiff, write_tiff_volume_u16, EncodeLayout, EncodeOptions, TiffPage, TiffStackWriter,
    VolumeReader,
};

/// Encode `pages` with the given options and return the file bytes.
fn encode(opts: EncodeOptions, pages: &[TiffPage]) -> Vec<u8> {
    let mut w = TiffStackWriter::new(Cursor::new(Vec::new()), opts).unwrap();
    for p in pages {
        match p {
            TiffPage::U8(img) => w.append_u8(img).unwrap(),
            TiffPage::U16(img) => w.append_u16(img).unwrap(),
            TiffPage::F32(img) => w.append_f32(img).unwrap(),
        }
    }
    w.finish().unwrap().into_inner()
}

/// Test pages at the three supported bit depths, sized to exercise
/// partial strips (29 % 5 != 0) and clipped edge tiles (37 % 16 != 0).
fn sample_pages() -> Vec<TiffPage> {
    vec![
        TiffPage::U8(Image::from_fn(37, 29, |x, y| (x * 7 + y * 13) as u8)),
        TiffPage::U16(Image::from_fn(37, 29, |x, y| (x * 601 + y * 57) as u16)),
        TiffPage::F32(Image::from_fn(37, 29, |x, y| {
            (x as f32 * 0.017 - y as f32 * 0.003).sin()
        })),
    ]
}

fn layouts() -> Vec<EncodeLayout> {
    vec![
        EncodeLayout::SingleStrip,
        EncodeLayout::Strips { rows_per_strip: 5 },
        EncodeLayout::Tiles {
            width: 16,
            height: 16,
        },
    ]
}

#[test]
fn golden_matrix_roundtrips_bit_identically() {
    for bigtiff in [false, true] {
        for layout in layouts() {
            let opts = EncodeOptions { bigtiff, layout };
            for page in sample_pages() {
                let bytes = encode(opts, std::slice::from_ref(&page));
                let back = read_tiff(&bytes).unwrap_or_else(|e| {
                    panic!("decode failed (bigtiff={bigtiff}, {layout:?}): {e}")
                });
                assert_eq!(
                    back,
                    vec![page.clone()],
                    "round trip not bit-identical (bigtiff={bigtiff}, {layout:?}, {} bits)",
                    page.bits()
                );
            }
        }
    }
}

#[test]
fn multi_page_mixed_depth_stack_roundtrips() {
    for bigtiff in [false, true] {
        let opts = EncodeOptions {
            bigtiff,
            layout: EncodeLayout::Strips { rows_per_strip: 7 },
        };
        let pages = sample_pages();
        let bytes = encode(opts, &pages);
        assert_eq!(read_tiff(&bytes).unwrap(), pages, "bigtiff={bigtiff}");
    }
}

#[test]
fn encoder_is_byte_deterministic() {
    for bigtiff in [false, true] {
        for layout in layouts() {
            let opts = EncodeOptions { bigtiff, layout };
            let a = encode(opts, &sample_pages());
            let b = encode(opts, &sample_pages());
            assert_eq!(a, b, "bytes differ (bigtiff={bigtiff}, {layout:?})");
        }
    }
}

#[test]
fn volume_reader_streams_what_read_tiff_decodes() {
    let opts = EncodeOptions {
        bigtiff: true,
        layout: EncodeLayout::Tiles {
            width: 16,
            height: 16,
        },
    };
    let pages: Vec<TiffPage> = (0..4)
        .map(|z| {
            TiffPage::U16(Image::from_fn(37, 29, move |x, y| {
                (x + y * 3 + z * 1000) as u16
            }))
        })
        .collect();
    let bytes = encode(opts, &pages);
    let eager = read_tiff(&bytes).unwrap();
    let reader = VolumeReader::from_bytes(bytes).unwrap();
    assert_eq!(reader.depth(), 4);
    assert_eq!((reader.width(), reader.height()), (37, 29));
    assert!(reader.is_bigtiff());
    for (z, page) in eager.iter().enumerate() {
        let streamed = reader.read_slice(z).unwrap();
        assert_eq!(streamed, page.to_f32(), "slice {z}");
    }
}

#[test]
fn u16_volume_roundtrips_through_helpers() {
    let vol = zenesis_image::Volume::from_slices(
        (0..3)
            .map(|z| Image::from_fn(21, 17, move |x, y| (x * 31 + y * 5 + z * 7919) as u16))
            .collect(),
        VoxelSize::default(),
    )
    .unwrap();
    let bytes = write_tiff_volume_u16(&vol).unwrap();
    let back = read_tiff(&bytes).unwrap();
    assert_eq!(back.len(), 3);
    for (a, b) in vol.slices().iter().zip(&back) {
        assert_eq!(&TiffPage::U16(a.clone()), b);
    }
}

/// A hand-built big-endian (`MM`) classic TIFF: 3x2, 16-bit, one strip.
/// Our writer only emits `II`, so `MM` decoding needs its own fixture.
fn big_endian_fixture() -> (Vec<u8>, Image<u16>) {
    let img = Image::from_fn(3, 2, |x, y| (0x0102 * (1 + x + y * 3)) as u16);
    let mut f: Vec<u8> = Vec::new();
    f.extend_from_slice(b"MM");
    f.extend_from_slice(&42u16.to_be_bytes());
    f.extend_from_slice(&20u32.to_be_bytes()); // first IFD at 20
                                               // Pixel payload at offset 8: 6 big-endian u16 samples.
    for &v in img.as_slice() {
        f.extend_from_slice(&v.to_be_bytes());
    }
    assert_eq!(f.len(), 20);
    // IFD: entry count, 7 SHORT entries, next-IFD = 0. Inline values are
    // left-justified in the 4-byte value field per the TIFF spec.
    let entry = |tag: u16, value: u16| {
        let mut e = Vec::new();
        e.extend_from_slice(&tag.to_be_bytes());
        e.extend_from_slice(&3u16.to_be_bytes()); // SHORT
        e.extend_from_slice(&1u32.to_be_bytes());
        e.extend_from_slice(&value.to_be_bytes());
        e.extend_from_slice(&[0u8; 2]);
        e
    };
    f.extend_from_slice(&7u16.to_be_bytes());
    f.extend_from_slice(&entry(256, 3)); // ImageWidth
    f.extend_from_slice(&entry(257, 2)); // ImageLength
    f.extend_from_slice(&entry(258, 16)); // BitsPerSample
    f.extend_from_slice(&entry(259, 1)); // Compression = none
    f.extend_from_slice(&entry(262, 1)); // Photometric = BlackIsZero
    f.extend_from_slice(&entry(273, 8)); // StripOffsets -> payload
    f.extend_from_slice(&entry(279, 12)); // StripByteCounts
    f.extend_from_slice(&0u32.to_be_bytes());
    (f, img)
}

#[test]
fn big_endian_classic_decodes() {
    let (bytes, expect) = big_endian_fixture();
    let pages = read_tiff(&bytes).unwrap();
    assert_eq!(pages, vec![TiffPage::U16(expect)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Arbitrary 16-bit content through arbitrary strip heights and both
    // containers: always bit-identical.
    #[test]
    fn arbitrary_u16_roundtrips(
        vals in prop::collection::vec(any::<u16>(), 60),
        w in prop::sample::select(vec![1usize, 2, 3, 5, 6, 10]),
        rows in 1u32..8,
        bigtiff in any::<bool>(),
    ) {
        if 60 % w == 0 {
            let img = Image::from_vec(w, 60 / w, vals).unwrap();
            let opts = EncodeOptions {
                bigtiff,
                layout: EncodeLayout::Strips { rows_per_strip: rows },
            };
            let bytes = encode(opts, &[TiffPage::U16(img.clone())]);
            prop_assert_eq!(read_tiff(&bytes).unwrap(), vec![TiffPage::U16(img)]);
        }
    }
}

#[test]
fn volume_io_latencies_feed_the_stage_table() {
    // The open/read histograms are the hook that puts TIFF I/O into the
    // repro latency table, run ledgers, and the /metrics exposition:
    // after streaming a stack, `io.tiff.{open,read_slice}` must show up
    // as `*.lat`-backed stage rows.
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    let opts = EncodeOptions {
        bigtiff: false,
        layout: EncodeLayout::Strips { rows_per_strip: 8 },
    };
    let pages: Vec<TiffPage> = (0..3)
        .map(|z| TiffPage::U16(Image::from_fn(16, 16, move |x, y| (x + y + z) as u16)))
        .collect();
    let reader = VolumeReader::from_bytes(encode(opts, &pages)).unwrap();
    for z in 0..reader.depth() {
        reader.read_slice(z).unwrap();
    }
    let rows = zenesis_obs::latency_rows();
    let open = rows.iter().find(|r| r.stage == "io.tiff.open");
    assert!(open.is_some_and(|r| r.count >= 1), "{rows:?}");
    let read = rows.iter().find(|r| r.stage == "io.tiff.read_slice");
    assert!(read.is_some_and(|r| r.count >= 3), "{rows:?}");
}
