//! Cross-modality zero-shot validation (paper future work 1): the same
//! models, with no retraining, segment STM, EDX, and XRD frames from
//! natural-language prompts. The only per-modality choice is the
//! *readiness preset* — the adaptation recipe a domain user picks in the
//! no-code UI (plane flattening for STM, high-pass for XRD), which is the
//! paper's data-readiness thesis, not model tuning.

#![allow(clippy::field_reassign_with_default)]

use zenesis::adapt::AdaptPipeline;
use zenesis::core::{Zenesis, ZenesisConfig};
use zenesis::data::{generate_modality, Modality};
use zenesis::metrics::Confusion;

fn config_for(m: Modality) -> ZenesisConfig {
    let mut cfg = ZenesisConfig::default();
    cfg.adapt = match m.adapt_preset_name() {
        "stm" => AdaptPipeline::stm(),
        "xrd" => AdaptPipeline::xrd(),
        _ => AdaptPipeline::minimal(),
    };
    cfg
}

fn run_modality(m: Modality, seed: u64) -> (f64, f64) {
    let f = generate_modality(m, 128, seed);
    let z = Zenesis::new(config_for(m));
    let r = z.segment_slice(&f.raw, m.default_prompt());
    let c = Confusion::from_masks(&r.combined, &f.truth);
    (c.iou(), c.recall())
}

#[test]
fn stm_adsorbates_zero_shot() {
    let mut sum = 0.0;
    for seed in [1u64, 2, 3] {
        let (iou, recall) = run_modality(Modality::Stm, seed);
        assert!(recall > 0.5, "seed {seed}: STM recall {recall}");
        sum += iou;
    }
    let mean = sum / 3.0;
    assert!(mean > 0.4, "STM mean IoU {mean}");
}

#[test]
fn edx_grains_zero_shot() {
    let mut sum = 0.0;
    for seed in [11u64, 12, 13] {
        let (iou, recall) = run_modality(Modality::Edx, seed);
        assert!(recall > 0.4, "seed {seed}: EDX recall {recall}");
        sum += iou;
    }
    let mean = sum / 3.0;
    assert!(mean > 0.3, "EDX mean IoU {mean}");
}

#[test]
fn xrd_spots_zero_shot() {
    let mut sum = 0.0;
    for seed in [21u64, 22, 23] {
        let (iou, recall) = run_modality(Modality::Xrd, seed);
        assert!(recall > 0.4, "seed {seed}: XRD recall {recall}");
        sum += iou;
    }
    let mean = sum / 3.0;
    assert!(mean > 0.25, "XRD mean IoU {mean}");
}

#[test]
fn modality_prompts_are_specific() {
    // A prompt for the wrong structure should not reproduce the target
    // mask: grounding is doing real work, not just thresholding.
    let f = generate_modality(Modality::Stm, 128, 5);
    let z = Zenesis::new(config_for(Modality::Stm));
    let right = z
        .segment_slice(&f.raw, Modality::Stm.default_prompt())
        .combined;
    let wrong = z.segment_slice(&f.raw, "dark background").combined;
    let iou_right = right.iou(&f.truth);
    let iou_wrong = wrong.iou(&f.truth);
    assert!(
        iou_right > iou_wrong + 0.2,
        "right {iou_right:.3} vs wrong {iou_wrong:.3}"
    );
}
