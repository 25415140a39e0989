//! Property tests for metric identities and aggregation.

use proptest::prelude::*;
use zenesis_image::BitMask;
use zenesis_metrics::{Confusion, MeanStd};

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

    #[test]
    fn all_scores_in_unit_interval(a in arb_mask(12, 12), b in arb_mask(12, 12)) {
        let s = Confusion::from_masks(&a, &b).scores();
        for v in [s.accuracy, s.iou, s.dice, s.precision, s.recall, s.specificity] {
            prop_assert!((0.0..=1.0).contains(&v), "{v}");
        }
        prop_assert!((-1.0..=1.0).contains(&s.mcc));
    }

    #[test]
    fn iou_dice_relation_holds(a in arb_mask(10, 10), b in arb_mask(10, 10)) {
        let c = Confusion::from_masks(&a, &b);
        let (iou, dice) = (c.iou(), c.dice());
        prop_assert!((dice - 2.0 * iou / (1.0 + iou)).abs() < 1e-9);
        prop_assert!(iou <= dice + 1e-12);
    }

    #[test]
    fn iou_symmetric_accuracy_symmetric(a in arb_mask(10, 10), b in arb_mask(10, 10)) {
        let ab = Confusion::from_masks(&a, &b);
        let ba = Confusion::from_masks(&b, &a);
        prop_assert!((ab.iou() - ba.iou()).abs() < 1e-12);
        prop_assert!((ab.accuracy() - ba.accuracy()).abs() < 1e-12);
        prop_assert!((ab.dice() - ba.dice()).abs() < 1e-12);
        // Precision and recall swap.
        prop_assert!((ab.precision() - ba.recall()).abs() < 1e-12);
    }

    #[test]
    fn confusion_counts_partition_total(a in arb_mask(9, 11), b in arb_mask(9, 11)) {
        let c = Confusion::from_masks(&a, &b);
        prop_assert_eq!(c.total(), 99);
        prop_assert_eq!(c.tp + c.fn_, b.count());
        prop_assert_eq!(c.tp + c.fp, a.count());
    }

    #[test]
    fn self_comparison_is_perfect(a in arb_mask(12, 12)) {
        let c = Confusion::from_masks(&a, &a);
        prop_assert_eq!(c.accuracy(), 1.0);
        prop_assert_eq!(c.iou(), 1.0);
    }

    #[test]
    fn mean_std_shift_invariance(vals in prop::collection::vec(-100.0f64..100.0, 1..40), shift in -50.0f64..50.0) {
        let base = MeanStd::of(&vals);
        let shifted: Vec<f64> = vals.iter().map(|v| v + shift).collect();
        let s = MeanStd::of(&shifted);
        prop_assert!((s.mean - (base.mean + shift)).abs() < 1e-7);
        prop_assert!((s.std - base.std).abs() < 1e-7);
    }

    #[test]
    fn mean_std_bounds(vals in prop::collection::vec(0.0f64..1.0, 1..40)) {
        let s = MeanStd::of(&vals);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(s.mean >= lo - 1e-12 && s.mean <= hi + 1e-12);
        prop_assert!(s.std <= (hi - lo) / 2.0 + 1e-9);
    }
}
