//! Property tests for the adaptation operators: range safety, monotonic
//! remapping, and pipeline composition on arbitrary inputs.

use proptest::prelude::*;
use zenesis_adapt::normalize::{gamma, invert, min_max, percentile_stretch, zscore};
use zenesis_adapt::{AdaptPipeline, AdaptStage};
use zenesis_image::Image;

fn arb_image(side: usize) -> impl Strategy<Value = Image<f32>> {
    prop::collection::vec(0.0f32..1.0, side * side)
        .prop_map(move |v| Image::from_vec(side, side, v).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_stage_outputs_finite_unit_range(img in arb_image(16)) {
        let stages = vec![
            AdaptStage::MinMax,
            AdaptStage::PercentileStretch { p_lo: 0.01, p_hi: 0.99 },
            AdaptStage::ZScore,
            AdaptStage::Gamma { gamma: 0.7 },
            AdaptStage::Invert,
            AdaptStage::Equalize,
            AdaptStage::Clahe { tiles: 2, clip_limit: 2.0 },
            AdaptStage::Median { radius: 1 },
            AdaptStage::Gaussian { sigma: 1.0 },
            AdaptStage::Bilateral { sigma_s: 1.0, sigma_r: 0.2 },
            AdaptStage::Destripe { smooth_radius: 4 },
            AdaptStage::FlattenPlane,
            AdaptStage::Highpass { sigma: 3.0 },
        ];
        for stage in stages {
            let out = stage.apply(&img);
            for &v in out.as_slice() {
                prop_assert!(v.is_finite(), "{}: {v}", stage.name());
                prop_assert!((-0.001..=1.001).contains(&v), "{}: {v}", stage.name());
            }
        }
    }

    #[test]
    fn min_max_is_idempotent(img in arb_image(12)) {
        let once = min_max(&img);
        let twice = min_max(&once);
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn normalizations_preserve_ordering(img in arb_image(10)) {
        // min-max, gamma and zscore are monotone: pixel order preserved.
        let v = img.as_slice();
        for out in [min_max(&img), gamma(&img, 2.0), zscore(&img)] {
            let o = out.as_slice();
            for i in 0..v.len() {
                for j in (i + 1)..v.len().min(i + 6) {
                    if v[i] < v[j] {
                        prop_assert!(o[i] <= o[j] + 1e-6);
                    }
                }
            }
        }
    }

    #[test]
    fn invert_involution(img in arb_image(10)) {
        let back = invert(&invert(&img));
        for (a, b) in back.as_slice().iter().zip(img.as_slice()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn percentile_stretch_within_minmax_bounds(img in arb_image(12)) {
        // Robust stretch saturates where min-max does not; both hit [0,1].
        let robust = percentile_stretch(&img, 0.05, 0.95);
        for &v in robust.as_slice() {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn pipeline_composition_associative(img in arb_image(12)) {
        // Running a pipeline equals running its stages one by one.
        let p = AdaptPipeline::recommended();
        let composed = p.run(&img).0;
        let mut manual = img.clone();
        for stage in &p.stages {
            manual = stage.apply(&manual);
        }
        prop_assert_eq!(composed, manual);
    }

    #[test]
    fn serde_roundtrip_any_pipeline(gamma_v in 0.2f32..4.0, tiles in 1usize..6) {
        let p = AdaptPipeline::identity()
            .then(AdaptStage::Gamma { gamma: gamma_v })
            .then(AdaptStage::Clahe { tiles, clip_limit: 2.0 })
            .then(AdaptStage::FlattenPlane);
        let json = serde_json::to_string(&p).unwrap();
        let back: AdaptPipeline = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, p);
    }
}
