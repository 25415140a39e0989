//! Integration: GroundingDINO surrogate on adapted FIB-SEM phantoms.
//!
//! These tests pin the behaviour the Zenesis pipeline depends on — the
//! text prompt must pull boxes onto the right structures for both sample
//! types, across seeds.

use zenesis_adapt::AdaptPipeline;
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_ground::{DinoConfig, GroundingDino};
use zenesis_image::BitMask;

fn grounded_box_mask(kind: SampleKind, seed: u64, prompt: &str) -> (BitMask, BitMask) {
    let g = generate_slice(&PhantomConfig::new(kind, seed));
    let adapted = AdaptPipeline::recommended().run(&g.raw.to_f32()).0;
    let dino = GroundingDino::new(DinoConfig::default());
    let grounding = dino.ground(&adapted, prompt);
    let (w, h) = adapted.dims();
    let mut boxes = BitMask::new(w, h);
    for d in &grounding.detections {
        boxes.or_with(&BitMask::from_box(w, h, d.bbox));
    }
    (boxes, g.truth)
}

#[test]
fn crystalline_boxes_cover_needles() {
    let mut total_recall = 0.0;
    for seed in [1u64, 2, 3] {
        let (boxes, truth) = grounded_box_mask(
            SampleKind::Crystalline,
            seed,
            "needle-like crystalline catalyst",
        );
        assert!(boxes.count() > 0, "seed {seed}: no boxes");
        // Recall: fraction of needle pixels inside some box.
        let recall = boxes.intersection_count(&truth) as f64 / truth.count() as f64;
        total_recall += recall;
        assert!(recall > 0.5, "seed {seed}: box recall {recall}");
        // Precision proxy: boxes should not cover the whole image.
        let cov = boxes.coverage();
        assert!(cov < 0.75, "seed {seed}: boxes cover {cov} of image");
    }
    assert!(
        total_recall / 3.0 > 0.7,
        "mean recall {}",
        total_recall / 3.0
    );
}

#[test]
fn amorphous_boxes_cover_particles() {
    for seed in [11u64, 12, 13] {
        let (boxes, truth) =
            grounded_box_mask(SampleKind::Amorphous, seed, "bright catalyst particles");
        assert!(boxes.count() > 0, "seed {seed}: no boxes");
        let recall = boxes.intersection_count(&truth) as f64 / truth.count() as f64;
        assert!(recall > 0.6, "seed {seed}: box recall {recall}");
        let cov = boxes.coverage();
        assert!(cov < 0.85, "seed {seed}: boxes cover {cov} of image");
    }
}

#[test]
fn background_prompt_avoids_structures() {
    let g = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 5));
    let adapted = AdaptPipeline::recommended().run(&g.raw.to_f32()).0;
    let dino = GroundingDino::new(DinoConfig::default());
    let needle = dino.ground(&adapted, "needle-like crystalline catalyst");
    let bg = dino.ground(&adapted, "dark background");
    // The two prompts must attend to different places: correlation of the
    // relevance maps should be low or negative.
    let a = needle.relevance.as_slice();
    let b = bg.relevance.as_slice();
    let n = a.len() as f64;
    let (ma, mb) = (
        a.iter().map(|&v| v as f64).sum::<f64>() / n,
        b.iter().map(|&v| v as f64).sum::<f64>() / n,
    );
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x as f64 - ma) * (y as f64 - mb);
        va += (x as f64 - ma).powi(2);
        vb += (y as f64 - mb).powi(2);
    }
    let corr = cov / (va.sqrt() * vb.sqrt() + 1e-12);
    assert!(corr < 0.3, "prompts should diverge, corr {corr}");
}
