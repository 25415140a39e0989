//! End-to-end fine-tuning: learn a concept from one labelled phantom
//! slice and use it zero-shot (as prompt vocabulary) on unseen slices.

use zenesis_adapt::AdaptPipeline;
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_ground::{learn_concept, DinoConfig, Exemplar, FinetuneConfig, GroundingDino};
use zenesis_image::BitMask;

fn adapted_slice(kind: SampleKind, seed: u64) -> (zenesis_image::Image<f32>, BitMask) {
    let g = generate_slice(&PhantomConfig::new(kind, seed));
    (AdaptPipeline::recommended().run(&g.raw.to_f32()).0, g.truth)
}

#[test]
fn learned_concept_grounds_unseen_slices() {
    // Learn "my_needles" from two labelled crystalline slices, then
    // ground the learned term on unseen slices. (Crystalline is the fair
    // transfer target: needles are separable in the 8-channel feature
    // space. The amorphous topographic-brow distractor is deliberately
    // feature-identical to particles — there the built-in pipeline leans
    // on the text-conditioned shape prior, which a learned linear
    // concept also inherits, but patch-level relevance alone cannot
    // isolate the particles; see `learned_concept_limit_on_amorphous`.)
    let (img_a, mask_a) = adapted_slice(SampleKind::Crystalline, 1);
    let (img_b, mask_b) = adapted_slice(SampleKind::Crystalline, 4);
    let concept = learn_concept(
        "my_needles",
        &[
            Exemplar {
                image: &img_a,
                mask: &mask_a,
            },
            Exemplar {
                image: &img_b,
                mask: &mask_b,
            },
        ],
        &FinetuneConfig::default(),
    )
    .expect("learnable concept");
    assert!(
        concept.separation > 0.2,
        "separation {}",
        concept.separation
    );

    let mut dino = GroundingDino::new(DinoConfig::default());
    dino.teach(&concept);
    for seed in [2u64, 3] {
        let (img, truth) = adapted_slice(SampleKind::Crystalline, seed);
        let g = dino.ground(&img, "my_needles");
        assert!(!g.detections.is_empty(), "seed {seed}: no detections");
        let (w, h) = img.dims();
        let mut boxes = BitMask::new(w, h);
        for d in &g.detections {
            boxes.or_with(&BitMask::from_box(w, h, d.bbox));
        }
        let recall = boxes.intersection_count(&truth) as f64 / truth.count() as f64;
        assert!(
            recall > 0.5,
            "seed {seed}: learned-term box recall {recall}"
        );
        assert!(boxes.coverage() < 0.85, "seed {seed}: boxes too broad");
    }
}

#[test]
fn learned_concept_limit_on_amorphous() {
    // Documented limitation: a linear concept cannot isolate amorphous
    // particles from the feature-identical topographic brow at patch
    // level, but it must still correlate with the truth region (its
    // relevance over truth patches exceeds the background mean).
    let (img_a, mask_a) = adapted_slice(SampleKind::Amorphous, 1);
    let concept = learn_concept(
        "my_catalyst",
        &[Exemplar {
            image: &img_a,
            mask: &mask_a,
        }],
        &FinetuneConfig::default(),
    )
    .expect("learnable");
    let mut dino = GroundingDino::new(DinoConfig::default());
    dino.teach(&concept);
    let (img, truth) = adapted_slice(SampleKind::Amorphous, 2);
    let g = dino.ground(&img, "my_catalyst");
    let rel = g.relevance_full(img.width(), img.height());
    let mut in_sum = 0.0;
    let mut in_n = 0.0;
    let mut out_sum = 0.0;
    let mut out_n = 0.0;
    for y in 0..img.height() {
        for x in 0..img.width() {
            if truth.get(x, y) {
                in_sum += rel.get(x, y) as f64;
                in_n += 1.0;
            } else {
                out_sum += rel.get(x, y) as f64;
                out_n += 1.0;
            }
        }
    }
    assert!(
        in_sum / in_n > out_sum / out_n + 0.05,
        "learned relevance should still prefer the truth region: in {:.3} out {:.3}",
        in_sum / in_n,
        out_sum / out_n
    );
}

#[test]
fn taught_concept_overrides_builtin() {
    let (img, mask) = adapted_slice(SampleKind::Crystalline, 7);
    // Teach a deliberately inverted meaning for "bright" (maps to the
    // needle concept learned from crystalline truth).
    let concept = learn_concept(
        "bright",
        &[Exemplar {
            image: &img,
            mask: &mask,
        }],
        &FinetuneConfig::default(),
    )
    .expect("learnable");
    let mut dino = GroundingDino::new(DinoConfig::default());
    let before = dino.ground(&img, "bright");
    dino.teach(&concept);
    let after = dino.ground(&img, "bright");
    // The override must change the relevance field.
    assert_ne!(
        before.relevance.as_slice(),
        after.relevance.as_slice(),
        "override should change grounding"
    );
}

#[test]
fn untaught_term_remains_weak() {
    let (img, _) = adapted_slice(SampleKind::Amorphous, 5);
    let dino = GroundingDino::new(DinoConfig::default());
    let g = dino.ground(&img, "flubbergrain");
    // Unknown hashed embeddings give near-uniform relevance: few or no
    // confident boxes, never a panic.
    for d in &g.detections {
        assert!(d.score.is_finite());
    }
}
