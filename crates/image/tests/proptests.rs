//! Property tests for the image substrate: geometry algebra, mask set
//! identities, codec round-trips, and filter invariants.

use proptest::prelude::*;
use zenesis_image::filter::{gaussian_blur, median_filter};
use zenesis_image::io::pgm::{read_pgm, write_pgm_u16, Pgm};
use zenesis_image::morphology::{close, dilate, erode, open, Structuring};
use zenesis_image::{BitMask, BoxRegion, Image, Point};

fn arb_box() -> impl Strategy<Value = BoxRegion> {
    (0usize..30, 0usize..30, 0usize..30, 0usize..30)
        .prop_map(|(a, b, c, d)| BoxRegion::new(a.min(c), b.min(d), a.max(c), b.max(d)))
}

fn arb_mask(w: usize, h: usize) -> impl Strategy<Value = BitMask> {
    prop::collection::vec(any::<bool>(), w * h).prop_map(move |bits| {
        let mut m = BitMask::new(w, h);
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                m.set(i % w, i / w, true);
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ------------------------------------------------------------ geometry

    #[test]
    fn box_iou_symmetric_and_bounded(a in arb_box(), b in arb_box()) {
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn intersect_commutative_idempotent(a in arb_box(), b in arb_box()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.intersect(&a).area(), a.area());
        prop_assert!(a.intersect(&b).area() <= a.area().min(b.area()));
    }

    #[test]
    fn clamp_result_inside_raster(a in arb_box(), w in 1usize..40, h in 1usize..40) {
        let c = a.clamp_to(w, h);
        prop_assert!(c.x1 <= w && c.y1 <= h);
        prop_assert!(c.is_empty() || (c.x0 < c.x1 && c.y0 < c.y1));
    }

    #[test]
    fn box_contains_its_pixels(a in arb_box()) {
        for p in a.pixels().take(200) {
            prop_assert!(a.contains(p));
        }
    }

    // ---------------------------------------------------------------- mask

    #[test]
    fn mask_inclusion_exclusion(a in arb_mask(17, 9), b in arb_mask(17, 9)) {
        prop_assert_eq!(a.count() + b.count(), a.or(&b).count() + a.and(&b).count());
    }

    #[test]
    fn mask_de_morgan(a in arb_mask(13, 11), b in arb_mask(13, 11)) {
        let lhs = a.or(&b).not();
        let rhs = a.not().and(&b.not());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mask_double_complement(a in arb_mask(21, 5)) {
        prop_assert_eq!(a.not().not(), a);
    }

    #[test]
    fn mask_iou_dice_relation(a in arb_mask(12, 12), b in arb_mask(12, 12)) {
        let inter = a.intersection_count(&b) as f64;
        let (ca, cb) = (a.count() as f64, b.count() as f64);
        if ca + cb > 0.0 {
            let iou = a.iou(&b);
            let dice = 2.0 * inter / (ca + cb);
            // dice = 2*iou / (1 + iou)
            prop_assert!((dice - 2.0 * iou / (1.0 + iou)).abs() < 1e-9);
        }
    }

    #[test]
    fn bounding_box_contains_all_true(a in arb_mask(16, 16)) {
        if let Some(bb) = a.bounding_box() {
            for p in a.iter_true() {
                prop_assert!(bb.contains(p));
            }
            // And is tight: shrinking any side loses a pixel.
            prop_assert!(a.iter_true().any(|p| p.x == bb.x0));
            prop_assert!(a.iter_true().any(|p| p.x + 1 == bb.x1));
            prop_assert!(a.iter_true().any(|p| p.y == bb.y0));
            prop_assert!(a.iter_true().any(|p| p.y + 1 == bb.y1));
        } else {
            prop_assert_eq!(a.count(), 0);
        }
    }

    // ---------------------------------------------------------- morphology

    #[test]
    fn erosion_shrinks_dilation_grows(a in arb_mask(14, 14)) {
        let se = Structuring::Square(1);
        let e = erode(&a, se);
        let d = dilate(&a, se);
        prop_assert_eq!(e.intersection_count(&a), e.count()); // e ⊆ a
        prop_assert_eq!(a.intersection_count(&d), a.count()); // a ⊆ d
    }

    #[test]
    fn open_close_are_bounded_by_original(a in arb_mask(14, 14)) {
        let se = Structuring::Square(1);
        let o = open(&a, se);
        let c = close(&a, se);
        prop_assert_eq!(o.intersection_count(&a), o.count()); // open ⊆ a
        // Closing is extensive away from the raster border (the erosion
        // step treats outside-of-raster as unset, so border pixels may be
        // lost; interior pixels never are).
        for y in 1..13 {
            for x in 1..13 {
                if a.get(x, y) {
                    prop_assert!(c.get(x, y), "closing lost interior pixel ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn opening_is_idempotent(a in arb_mask(12, 12)) {
        let se = Structuring::Square(1);
        let o1 = open(&a, se);
        let o2 = open(&o1, se);
        prop_assert_eq!(o1, o2);
    }

    // ------------------------------------------------------------- filters

    #[test]
    fn gaussian_blur_stays_in_range(vals in prop::collection::vec(0.0f32..1.0, 64)) {
        let img = Image::from_vec(8, 8, vals).unwrap();
        let out = gaussian_blur(&img, 1.0);
        for &v in out.as_slice() {
            prop_assert!((-1e-5..=1.0 + 1e-5).contains(&v));
        }
    }

    #[test]
    fn median_output_values_come_from_input(vals in prop::collection::vec(0.0f32..1.0, 49)) {
        let img = Image::from_vec(7, 7, vals.clone()).unwrap();
        let out = median_filter(&img, 1);
        for &v in out.as_slice() {
            prop_assert!(vals.iter().any(|&x| (x - v).abs() < 1e-7));
        }
    }

    // ---------------------------------------------------------------- I/O

    #[test]
    fn pgm16_roundtrip(vals in prop::collection::vec(any::<u16>(), 30), w in prop::sample::select(vec![1usize, 2, 3, 5, 6])) {
        if 30 % w == 0 {
            let img = Image::from_vec(w, 30 / w, vals).unwrap();
            let mut buf = Vec::new();
            write_pgm_u16(&img, &mut buf).unwrap();
            match read_pgm(&mut buf.as_slice()).unwrap() {
                Pgm::U16(back) => prop_assert_eq!(back, img),
                _ => prop_assert!(false, "depth changed"),
            }
        }
    }

    // TIFF round-trip properties moved to the dedicated zenesis-tiff
    // crate (crates/tiff/tests/roundtrip.rs) with the codec itself.

    #[test]
    fn distance_zero_iff_in_mask(a in arb_mask(10, 10)) {
        let d = zenesis_image::distance::distance_to_mask(&a);
        for y in 0..10 {
            for x in 0..10 {
                let inside = a.get(x, y);
                let dist = d[y * 10 + x];
                prop_assert_eq!(inside, dist == 0.0);
            }
        }
    }

    #[test]
    fn point_distance_triangle(ax in 0usize..50, ay in 0usize..50, bx in 0usize..50, by in 0usize..50, cx in 0usize..50, cy in 0usize..50) {
        let (a, b, c) = (Point::new(ax, ay), Point::new(bx, by), Point::new(cx, cy));
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    }
}
