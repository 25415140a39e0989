//! Mask quality scores.
//!
//! * `stability_score` — the SAM paper's stability measure, adapted to
//!   this decoder: IoU between masks decoded at perturbed tolerances. A
//!   mask whose extent doesn't care about the exact threshold is a real
//!   object boundary; one that balloons or collapses is noise.
//! * `quality_score` — the "predicted IoU" analogue used to rank
//!   proposals: stability, weighted by interior homogeneity (a real
//!   segment is smoother inside than at its rim) and a gentle area prior
//!   (among equally stable, homogeneous candidates prefer the larger —
//!   this is what makes SAM-only pick the dominant background on
//!   crystalline data, exactly as the paper reports).

use zenesis_image::{BitMask, Point};

use crate::decoder::region_grow;
use crate::embedding::ImageEmbedding;

/// Stability of a point-grown region: IoU of masks grown at `0.75x` and
/// `1.25x` the global tolerance. Empty-at-both counts as unstable (0).
pub(crate) fn stability_score(
    emb: &ImageEmbedding,
    seeds: &[Point],
    step_tol: f32,
    global_tol: f32,
) -> f64 {
    let lo = region_grow(emb, seeds, step_tol, global_tol * 0.75, None);
    let hi = region_grow(emb, seeds, step_tol, global_tol * 1.25, None);
    if lo.count() == 0 || hi.count() == 0 {
        return 0.0;
    }
    lo.iou(&hi)
}

/// Rank a candidate mask. Components:
/// `stability^3 * homogeneity * area_weight` where homogeneity is
/// `1 - min(1, mean_texture / 0.2)` inside the mask and the area weight
/// is `(area / total)^0.25`.
///
/// Stability is cubed: it is the score's sharpest signal of a real object
/// boundary (SAM's predicted-IoU head behaves the same way), and cubing
/// keeps a large-but-sloppy region from outranking a genuinely stable
/// segment on area alone.
pub(crate) fn quality_score(emb: &ImageEmbedding, mask: &BitMask, stability: f64) -> f64 {
    let area = mask.count();
    if area == 0 {
        return 0.0;
    }
    let homogeneity = (1.0 - (emb.mean_texture_in(mask) / 0.2).min(1.0)).max(0.0);
    let area_weight = (area as f64 / mask.len() as f64).powf(0.25);
    stability.powi(3) * homogeneity * area_weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::{BoxRegion, Image};

    fn disk_image() -> Image<f32> {
        Image::from_fn(64, 64, |x, y| {
            let dx = x as f32 - 32.0;
            let dy = y as f32 - 32.0;
            if dx * dx + dy * dy < 14.0 * 14.0 {
                0.8
            } else {
                0.1
            }
        })
    }

    #[test]
    fn sharp_object_is_stable() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        let s = stability_score(&emb, &[Point::new(32, 32)], 0.05, 0.15);
        assert!(s > 0.9, "stability {s}");
    }

    #[test]
    fn gradient_region_is_unstable() {
        // Smooth ramp: grown extent tracks the tolerance directly.
        let img = Image::from_fn(64, 64, |x, _| x as f32 / 63.0);
        let emb = ImageEmbedding::encode(&img, 0.8);
        let s = stability_score(&emb, &[Point::new(32, 32)], 1.0, 0.15);
        assert!(s < 0.9, "ramp should be less stable, got {s}");
    }

    #[test]
    fn empty_region_scores_zero() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        assert_eq!(stability_score(&emb, &[], 0.05, 0.1), 0.0);
        let empty = BitMask::new(64, 64);
        assert_eq!(quality_score(&emb, &empty, 1.0), 0.0);
    }

    #[test]
    fn quality_prefers_smooth_interiors() {
        // Textured vs smooth halves; same stability input.
        let img = Image::from_fn(64, 64, |x, y| {
            if x < 32 {
                0.5
            } else if (x / 2 + y / 2) % 2 == 0 {
                0.2
            } else {
                0.8
            }
        });
        let emb = ImageEmbedding::encode(&img, 0.5);
        let smooth_mask = BitMask::from_box(64, 64, BoxRegion::new(2, 2, 30, 62));
        let rough_mask = BitMask::from_box(64, 64, BoxRegion::new(34, 2, 62, 62));
        let qs = quality_score(&emb, &smooth_mask, 1.0);
        let qr = quality_score(&emb, &rough_mask, 1.0);
        assert!(qs > qr, "smooth {qs} vs rough {qr}");
    }

    #[test]
    fn quality_area_prior_breaks_ties() {
        let img = Image::<f32>::filled(64, 64, 0.5);
        let emb = ImageEmbedding::encode(&img, 0.5);
        let small = BitMask::from_box(64, 64, BoxRegion::new(0, 0, 8, 8));
        let large = BitMask::from_box(64, 64, BoxRegion::new(0, 0, 48, 48));
        assert!(quality_score(&emb, &large, 1.0) > quality_score(&emb, &small, 1.0));
    }
}
