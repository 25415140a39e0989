//! Integration: the SAM surrogate on adapted FIB-SEM phantoms.
//!
//! These pin the two behaviours the paper's analysis hinges on:
//! SAM-only collapses on crystalline slices (the black background is the
//! maximum-confidence segment), while box prompts rescue segmentation on
//! both sample types.

use zenesis_adapt::AdaptPipeline;
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_image::{BitMask, Image};
use zenesis_sam::{PromptSet, Sam, SamConfig};

fn adapted(kind: SampleKind, seed: u64) -> (Image<f32>, BitMask) {
    let g = generate_slice(&PhantomConfig::new(kind, seed));
    let img = AdaptPipeline::recommended().run(&g.raw.to_f32()).0;
    (img, g.truth)
}

/// The minimally-stretched rendition the SAM-only baseline is fed in the
/// paper's comparison (a generic tool does not get Zenesis's adaptation).
fn baseline_view(kind: SampleKind, seed: u64) -> (Image<f32>, BitMask) {
    let g = generate_slice(&PhantomConfig::new(kind, seed));
    let img = AdaptPipeline::minimal().run(&g.raw.to_f32()).0;
    (img, g.truth)
}

#[test]
fn sam_only_fails_on_crystalline() {
    for seed in [1u64, 2, 3] {
        let (img, truth) = baseline_view(SampleKind::Crystalline, seed);
        let sam = Sam::new(SamConfig::default());
        let emb = sam.encode(&img);
        let pred = sam.segment_auto(&emb);
        let iou = pred.iou(&truth);
        assert!(
            iou < 0.3,
            "seed {seed}: SAM-only should fail on crystalline, iou {iou}"
        );
    }
}

#[test]
fn sam_only_partial_on_amorphous() {
    // Over the benchmark's amorphous slices (which carry the per-slice
    // defocus/contrast drift of Table 2's setting), SAM-only lands
    // between the crystalline collapse and the box-prompted result: it
    // sometimes finds an agglomerate, sometimes locks onto background —
    // the paper's "performs better but still lags" behaviour.
    let ds = zenesis_data::benchmark_dataset(128, 2025);
    let sam = Sam::new(SamConfig::default());
    let mut auto_sum = 0.0;
    let mut boxed_sum = 0.0;
    let mut n = 0.0;
    for s in ds
        .samples
        .iter()
        .filter(|s| s.kind == SampleKind::Amorphous)
    {
        let view = AdaptPipeline::minimal().run(&s.raw.to_f32()).0;
        let emb = sam.encode(&view);
        auto_sum += sam.segment_auto(&emb).iou(&s.truth);
        let bbox = s.truth.bounding_box().expect("non-empty truth");
        boxed_sum += sam.segment(&emb, &PromptSet::from_box(bbox)).iou(&s.truth);
        n += 1.0;
    }
    let auto_mean = auto_sum / n;
    let boxed_mean = boxed_sum / n;
    assert!(
        auto_mean > 0.05,
        "SAM-only should not collapse entirely on amorphous ({auto_mean})"
    );
    assert!(
        auto_mean < boxed_mean - 0.15,
        "SAM-only ({auto_mean}) must lag box-prompted decoding ({boxed_mean})"
    );
}

#[test]
fn box_prompt_rescues_crystalline() {
    for seed in [1u64, 2] {
        let (img, truth) = adapted(SampleKind::Crystalline, seed);
        let sam = Sam::new(SamConfig::default());
        let emb = sam.encode(&img);
        // Oracle box: the truth bounding box (the role DINO plays).
        let bbox = truth.bounding_box().expect("non-empty truth");
        let pred = sam.segment(&emb, &PromptSet::from_box(bbox));
        let iou = pred.iou(&truth);
        assert!(iou > 0.5, "seed {seed}: box-prompted iou {iou}");
    }
}

#[test]
fn box_prompt_rescues_amorphous() {
    for seed in [11u64, 12] {
        let (img, truth) = adapted(SampleKind::Amorphous, seed);
        let sam = Sam::new(SamConfig::default());
        let emb = sam.encode(&img);
        let bbox = truth.bounding_box().expect("non-empty truth");
        let pred = sam.segment(&emb, &PromptSet::from_box(bbox));
        let iou = pred.iou(&truth);
        assert!(iou > 0.5, "seed {seed}: box-prompted iou {iou}");
    }
}
