//! Automatic "everything" mode — the paper's **SAM-only baseline**.
//!
//! A regular grid of point prompts proposes masks; duplicates are removed
//! by mask-IoU NMS; proposals are ranked by `crate::score::quality_score`
//! and the single **maximum-confidence** mask is the SAM-only answer (the
//! paper: "their reliance on maximum confidence scores to select regions
//! ... fails in low-contrast or ambiguous scenarios").

use zenesis_image::{BitMask, Point};

use crate::decoder::region_grow;
use crate::embedding::ImageEmbedding;
use crate::score::{quality_score, stability_score};

/// Automatic-mode parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoConfig {
    /// Grid spacing in pixels (points every `grid_step` in x and y).
    pub(crate) grid_step: usize,
    /// Step tolerance for growing.
    pub(crate) step_tol: f32,
    /// Global tolerance for growing.
    pub(crate) global_tol: f32,
    /// Minimum proposal area (pixels).
    pub(crate) min_area: usize,
    /// Mask-IoU above which two proposals are duplicates.
    pub(crate) dedup_iou: f64,
}

impl Default for AutoConfig {
    fn default() -> Self {
        AutoConfig {
            grid_step: 16,
            step_tol: 0.05,
            global_tol: 0.14,
            min_area: 24,
            dedup_iou: 0.7,
        }
    }
}

/// One automatic proposal.
#[derive(Debug, Clone)]
pub(crate) struct AutoMask {
    pub mask: BitMask,
    pub(crate) quality: f64,
}

/// Generate ranked mask proposals from a point grid (best first).
pub(crate) fn propose(emb: &ImageEmbedding, cfg: &AutoConfig) -> Vec<AutoMask> {
    let (w, h) = emb.dims();
    let step = cfg.grid_step.max(1);
    let mut seeds = Vec::new();
    let mut y = step / 2;
    while y < h {
        let mut x = step / 2;
        while x < w {
            seeds.push(Point::new(x, y));
            x += step;
        }
        y += step;
    }
    // Grow + score each seed in parallel.
    let raw: Vec<Option<AutoMask>> = zenesis_par::par_map_range(seeds.len(), |i| {
        let seed = seeds[i];
        let mask = region_grow(emb, &[seed], cfg.step_tol, cfg.global_tol, None);
        if mask.count() < cfg.min_area {
            return None;
        }
        let stability = stability_score(emb, &[seed], cfg.step_tol, cfg.global_tol);
        let quality = quality_score(emb, &mask, stability);
        Some(AutoMask { mask, quality })
    });
    let mut proposals: Vec<AutoMask> = raw.into_iter().flatten().collect();
    proposals.sort_by(|a, b| b.quality.partial_cmp(&a.quality).expect("finite quality"));
    // Mask-level NMS.
    let mut kept: Vec<AutoMask> = Vec::new();
    for p in proposals {
        if kept.iter().all(|k| k.mask.iou(&p.mask) <= cfg.dedup_iou) {
            kept.push(p);
        }
    }
    kept
}

/// The SAM-only segmentation: the single maximum-confidence proposal
/// (all-false if nothing qualifies).
pub(crate) fn segment_auto(emb: &ImageEmbedding, cfg: &AutoConfig) -> BitMask {
    propose(emb, cfg)
        .into_iter()
        .next()
        .map(|p| p.mask)
        .unwrap_or_else(|| {
            let (w, h) = emb.dims();
            BitMask::new(w, h)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::Image;

    /// Small bright square on a large uniform dark background.
    fn scene() -> Image<f32> {
        Image::from_fn(96, 96, |x, y| {
            if (32..60).contains(&x) && (32..60).contains(&y) {
                0.85
            } else {
                0.08
            }
        })
    }

    #[test]
    fn proposals_cover_both_regions() {
        let emb = ImageEmbedding::encode(&scene(), 0.8);
        let props = propose(&emb, &AutoConfig::default());
        assert!(props.len() >= 2, "got {} proposals", props.len());
        // Some proposal covers the square, some the background.
        let square_hit = props.iter().any(|p| p.mask.get(44, 44));
        let bg_hit = props.iter().any(|p| p.mask.get(4, 4));
        assert!(square_hit && bg_hit);
    }

    #[test]
    fn max_confidence_picks_dominant_background() {
        // The documented failure mode: the uniform background out-scores
        // the small object.
        let emb = ImageEmbedding::encode(&scene(), 0.8);
        let top = segment_auto(&emb, &AutoConfig::default());
        assert!(top.get(4, 4), "background should win");
        assert!(!top.get(44, 44));
        assert!(top.coverage() > 0.5);
    }

    #[test]
    fn dedup_removes_duplicate_background_masks() {
        let emb = ImageEmbedding::encode(&scene(), 0.8);
        let props = propose(&emb, &AutoConfig::default());
        // Many grid points hit the background, but after NMS only one
        // background-sized proposal survives.
        let big = props.iter().filter(|p| p.mask.coverage() > 0.5).count();
        assert_eq!(big, 1, "background duplicates must be merged");
    }

    #[test]
    fn proposals_sorted_by_quality() {
        let emb = ImageEmbedding::encode(&scene(), 0.8);
        let props = propose(&emb, &AutoConfig::default());
        for w in props.windows(2) {
            assert!(w[0].quality >= w[1].quality);
        }
    }

    #[test]
    fn min_area_filters_specks() {
        let mut img = scene();
        img.set(1, 1, 0.99); // lone hot pixel near a grid point
        let emb = ImageEmbedding::encode(&img, 0.3);
        let cfg = AutoConfig {
            min_area: 50,
            ..AutoConfig::default()
        };
        let props = propose(&emb, &cfg);
        for p in &props {
            assert!(p.mask.count() >= 50);
        }
    }

    #[test]
    fn empty_image_yields_single_everything_mask() {
        let img = Image::<f32>::filled(64, 64, 0.4);
        let emb = ImageEmbedding::encode(&img, 0.8);
        let top = segment_auto(&emb, &AutoConfig::default());
        // Uniform image: the whole frame is one stable region.
        assert!(top.coverage() > 0.95);
    }
}
