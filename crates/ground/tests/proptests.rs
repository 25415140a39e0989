//! Property tests for the grounding stack: tokenizer robustness, lexicon
//! encoding stability, and detection invariants on arbitrary images.

use proptest::prelude::*;
use zenesis_ground::{tokenize, DinoConfig, GroundingDino, Lexicon};
use zenesis_image::Image;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tokenizer_never_panics_never_empties_tokens(s in ".{0,200}") {
        let tokens = tokenize(&s);
        for t in &tokens {
            prop_assert!(!t.is_empty());
            prop_assert!(t.chars().all(|c| c.is_alphanumeric() || c == '_'));
        }
    }

    #[test]
    fn tokenizer_case_insensitive(word in "[a-zA-Z]{1,12}") {
        prop_assert_eq!(tokenize(&word.to_uppercase()), tokenize(&word.to_lowercase()));
    }

    #[test]
    fn lexicon_encoding_total_and_deterministic(term in "[a-z_]{1,16}") {
        let lx = Lexicon::scientific();
        let a = lx.encode(&term);
        let b = lx.encode(&term);
        prop_assert_eq!(a, b);
        prop_assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn taught_concepts_take_priority(term in "[a-z]{1,10}", w in -1.0f32..1.0) {
        let mut lx = Lexicon::scientific();
        let mut v = [0.0f32; zenesis_ground::N_CHANNELS];
        v[0] = w;
        lx.add_concept(&term, v);
        prop_assert_eq!(lx.encode(&term), v);
        // Re-teaching overwrites, not duplicates.
        v[0] = -w;
        lx.add_concept(&term, v);
        prop_assert_eq!(lx.encode(&term), v);
    }

    #[test]
    fn grounding_invariants_on_random_images(
        vals in prop::collection::vec(0.0f32..1.0, 64 * 64),
        prompt in prop::sample::select(vec!["bright", "dark pores", "needle", "catalyst particles", "zeolite"]),
    ) {
        let img = Image::from_vec(64, 64, vals).unwrap();
        let dino = GroundingDino::new(DinoConfig::default());
        let g = dino.ground(&img, prompt);
        // Relevance bounded.
        for &v in g.relevance.as_slice() {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        // Detections: boxes inside the raster, scores sorted and bounded.
        let mut prev = f64::INFINITY;
        for d in &g.detections {
            prop_assert!(d.bbox.x1 <= 64 && d.bbox.y1 <= 64);
            prop_assert!(!d.bbox.is_empty());
            prop_assert!((0.0..=1.0).contains(&d.score));
            prop_assert!(d.score <= prev + 1e-12);
            prev = d.score;
        }
        // NMS guarantee: pairwise IoU below the configured threshold.
        for i in 0..g.detections.len() {
            for j in (i + 1)..g.detections.len() {
                prop_assert!(
                    g.detections[i].bbox.iou(&g.detections[j].bbox)
                        <= DinoConfig::default().nms_iou + 1e-12
                );
            }
        }
    }
}
