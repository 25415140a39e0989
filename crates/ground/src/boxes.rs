//! Relevance-map decoding: thresholded patch mask → morphological closing
//! → connected components → pixel boxes → text-score filter → greedy NMS.

use serde::{Deserialize, Serialize};
use zenesis_image::components::{label_components, Connectivity};
use zenesis_image::morphology::{close, Structuring};
use zenesis_image::{BitMask, BoxRegion};

/// One grounded detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Pixel-coordinate bounding box.
    pub bbox: BoxRegion,
    /// Mean relevance of the supporting patches (the "text score").
    pub score: f64,
    /// The prompt that produced this detection.
    pub phrase: String,
}

/// Decode a patch-level relevance map into boxes.
///
/// * `rel` — per-patch relevance in `[0, 1]`, `gw x gh` row-major.
/// * `box_threshold` — minimum relevance for a patch to join a region.
/// * `text_threshold` — minimum mean region relevance to keep the box.
/// * `patch` — patch side in pixels; `img_w/img_h` clamp the final boxes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_boxes(
    rel: &[f32],
    gw: usize,
    gh: usize,
    patch: usize,
    img_w: usize,
    img_h: usize,
    box_threshold: f32,
    text_threshold: f32,
    phrase: &str,
) -> Vec<Detection> {
    assert_eq!(rel.len(), gw * gh, "relevance map shape mismatch");
    let mut mask = BitMask::new(gw, gh);
    for (i, &r) in rel.iter().enumerate() {
        if r > box_threshold {
            mask.set(i % gw, i / gw, true);
        }
    }
    if mask.count() == 0 {
        return Vec::new();
    }
    // Bridge 1-patch gaps (needles are thinner than a patch). Union with
    // the original mask so isolated border patches survive the closing's
    // erosion step.
    let closed = mask.or(&close(&mask, Structuring::Square(1)));
    let labels = label_components(&closed, Connectivity::Eight);
    let mut dets = Vec::new();
    for s in labels.stats() {
        // Mean relevance over the supporting (original, pre-close) patches;
        // fall back to the closed component if closing swallowed them all.
        let comp = labels.component_mask(s.label);
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for p in comp.iter_true() {
            if mask.get(p.x, p.y) {
                sum += rel[p.y * gw + p.x] as f64;
                n += 1;
            }
        }
        if n == 0 {
            continue;
        }
        let score = sum / n as f64;
        if score < text_threshold as f64 {
            continue;
        }
        let bbox = BoxRegion::new(
            s.bbox.x0 * patch,
            s.bbox.y0 * patch,
            s.bbox.x1 * patch,
            s.bbox.y1 * patch,
        )
        .clamp_to(img_w, img_h);
        if bbox.is_empty() {
            continue;
        }
        dets.push(Detection {
            bbox,
            score,
            phrase: phrase.to_string(),
        });
    }
    dets.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
    dets
}

/// Greedy non-maximum suppression: keep detections in score order,
/// dropping any whose box IoU with a kept box exceeds `iou_threshold`.
pub fn nms(dets: Vec<Detection>, iou_threshold: f64) -> Vec<Detection> {
    let mut sorted = dets;
    sorted.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
    let mut kept: Vec<Detection> = Vec::new();
    for d in sorted {
        if kept.iter().all(|k| k.bbox.iou(&d.bbox) <= iou_threshold) {
            kept.push(d);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(x0: usize, y0: usize, x1: usize, y1: usize, score: f64) -> Detection {
        Detection {
            bbox: BoxRegion::new(x0, y0, x1, y1),
            score,
            phrase: "t".into(),
        }
    }

    #[test]
    fn decode_single_blob() {
        // 8x8 grid with a hot 3x3 region.
        let gw = 8;
        let gh = 8;
        let mut rel = vec![0.1f32; 64];
        for y in 2..5 {
            for x in 3..6 {
                rel[y * gw + x] = 0.9;
            }
        }
        let dets = decode_boxes(&rel, gw, gh, 8, 64, 64, 0.5, 0.5, "blob");
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].bbox, BoxRegion::new(24, 16, 48, 40));
        assert!((dets[0].score - 0.9).abs() < 1e-6);
        assert_eq!(dets[0].phrase, "blob");
    }

    #[test]
    fn decode_nothing_below_threshold() {
        let rel = vec![0.3f32; 16];
        let dets = decode_boxes(&rel, 4, 4, 8, 32, 32, 0.5, 0.5, "x");
        assert!(dets.is_empty());
    }

    #[test]
    fn text_threshold_filters_weak_regions() {
        let gw = 8;
        let mut rel = vec![0.0f32; 64];
        // Strong region.
        rel[2 * gw + 2] = 0.95;
        rel[2 * gw + 3] = 0.95;
        // Weak region far away (passes box threshold, fails text threshold).
        rel[6 * gw + 6] = 0.55;
        let dets = decode_boxes(&rel, gw, 8, 4, 32, 32, 0.5, 0.8, "x");
        assert_eq!(dets.len(), 1);
        assert!(dets[0].score > 0.9);
    }

    #[test]
    fn closing_bridges_one_patch_gaps() {
        let gw = 9;
        let mut rel = vec![0.0f32; 81];
        // Dashed line: every other patch hot on row 4.
        for x in (0..9).step_by(2) {
            rel[4 * gw + x] = 0.9;
        }
        let dets = decode_boxes(&rel, gw, 9, 8, 72, 72, 0.5, 0.5, "line");
        assert_eq!(dets.len(), 1, "gaps should merge into one detection");
        assert_eq!(dets[0].bbox.x0, 0);
        assert_eq!(dets[0].bbox.x1, 72);
    }

    #[test]
    fn detections_sorted_by_score() {
        let gw = 8;
        let mut rel = vec![0.0f32; 64];
        rel[0] = 0.6;
        rel[63] = 0.95;
        let dets = decode_boxes(&rel, gw, 8, 4, 32, 32, 0.5, 0.5, "x");
        assert_eq!(dets.len(), 2);
        assert!(dets[0].score > dets[1].score);
    }

    #[test]
    fn nms_suppresses_overlaps_keeps_distinct() {
        let dets = vec![
            det(0, 0, 10, 10, 0.9),
            det(1, 1, 11, 11, 0.8), // heavy overlap with first
            det(20, 20, 30, 30, 0.7),
        ];
        let kept = nms(dets, 0.5);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 0.9);
        assert_eq!(kept[1].score, 0.7);
    }

    #[test]
    fn nms_empty_and_single() {
        assert!(nms(vec![], 0.5).is_empty());
        let one = nms(vec![det(0, 0, 4, 4, 0.5)], 0.5);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn nms_idempotent() {
        let dets = vec![
            det(0, 0, 10, 10, 0.9),
            det(5, 5, 15, 15, 0.8),
            det(40, 40, 50, 50, 0.7),
        ];
        let once = nms(dets, 0.3);
        let twice = nms(once.clone(), 0.3);
        assert_eq!(once, twice);
    }
}
