//! Further Segment (Fig. 5): hierarchical segmentation.
//!
//! Paper: "enables users to further inspect selected segments, allowing
//! for hierarchical segmentation by triggering GroundingDINO and SAM on
//! subregions for more detailed analysis."

use zenesis_image::{BitMask, BoxRegion, Image};

use crate::pipeline::{Segmentation, Zenesis};

/// A child segmentation produced inside a parent region, mapped back to
/// parent coordinates.
#[derive(Debug, Clone)]
pub struct ChildSegmentation {
    /// The parent-frame region that was re-segmented.
    pub region: BoxRegion,
    /// Detections in parent coordinates.
    pub detections: Vec<zenesis_ground::Detection>,
    /// Combined child mask in parent coordinates (clipped to `region`).
    pub mask: BitMask,
    /// The sub-image result (crop coordinates), for inspection.
    pub crop_result: Segmentation,
}

impl Zenesis {
    /// Run the full DINO→SAM pipeline on a subregion of an adapted image
    /// with a (possibly different) prompt, mapping results back to the
    /// parent frame.
    pub fn further_segment(
        &self,
        adapted: &Image<f32>,
        region: BoxRegion,
        prompt: &str,
    ) -> Option<ChildSegmentation> {
        let (w, h) = adapted.dims();
        let region = region.clamp_to(w, h);
        let crop = adapted.crop(region).ok()?;
        let crop_result = self.segment_prepared(&self.prepare_adapted(&crop), prompt);
        // Map back to parent coordinates.
        let detections: Vec<zenesis_ground::Detection> = crop_result
            .detections
            .iter()
            .map(|d| {
                let mut d = d.clone();
                d.bbox = d.bbox.offset(region.x0, region.y0).clamp_to(w, h);
                d
            })
            .collect();
        let mut mask = BitMask::new(w, h);
        for p in crop_result.combined.iter_true() {
            let (px, py) = (p.x + region.x0, p.y + region.y0);
            if px < w && py < h {
                mask.set(px, py, true);
            }
        }
        Some(ChildSegmentation {
            region,
            detections,
            mask,
            crop_result,
        })
    }

    /// Convenience: further-segment inside the bounding box of an
    /// existing segment mask (the "click a segment, refine it" flow).
    pub fn further_segment_mask(
        &self,
        adapted: &Image<f32>,
        segment: &BitMask,
        prompt: &str,
    ) -> Option<ChildSegmentation> {
        let bbox = segment.bounding_box()?;
        self.further_segment(adapted, bbox.expand(4), prompt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZenesisConfig;

    /// A scene with a bright cluster containing darker holes — hierarchy
    /// material: level 1 finds the cluster, level 2 finds holes inside.
    fn scene() -> Image<f32> {
        Image::from_fn(128, 128, |x, y| {
            let in_cluster = (32..96).contains(&x) && (32..96).contains(&y);
            if !in_cluster {
                return 0.08;
            }
            let hole1 = (48..58).contains(&x) && (48..58).contains(&y);
            let hole2 = (70..80).contains(&x) && (66..76).contains(&y);
            if hole1 || hole2 {
                0.12
            } else {
                0.8
            }
        })
    }

    #[test]
    fn parent_then_child_segmentation() {
        let z = Zenesis::new(ZenesisConfig::default());
        let img = scene();
        let parent = z.segment_prepared(&z.prepare_adapted(&img), "bright particles");
        assert!(!parent.detections.is_empty());
        // Level 2: look for dark pores inside the parent's best box.
        let child = z
            .further_segment(&img, parent.detections[0].bbox, "dark pores")
            .expect("child segmentation");
        assert!(child.mask.count() > 0, "child found nothing");
        // Child mask lies inside the parent region.
        for p in child.mask.iter_true() {
            assert!(child.region.contains(p));
        }
        // Child mask covers the holes.
        assert!(child.mask.get(52, 52) || child.mask.get(74, 70));
    }

    #[test]
    fn child_detections_in_parent_coordinates() {
        let z = Zenesis::new(ZenesisConfig::default());
        let img = scene();
        let region = BoxRegion::new(32, 32, 96, 96);
        let child = z.further_segment(&img, region, "dark pores").unwrap();
        for d in &child.detections {
            assert!(
                region.expand(2).contains_box(&d.bbox),
                "detection {:?} escapes region {:?}",
                d.bbox,
                region
            );
        }
    }

    #[test]
    fn degenerate_region_none() {
        let z = Zenesis::new(ZenesisConfig::default());
        let img = scene();
        assert!(z
            .further_segment(&img, BoxRegion::new(200, 200, 210, 210), "x")
            .is_none());
    }

    #[test]
    fn further_segment_mask_uses_bbox() {
        let z = Zenesis::new(ZenesisConfig::default());
        let img = scene();
        let seg = BitMask::from_box(128, 128, BoxRegion::new(32, 32, 96, 96));
        let child = z
            .further_segment_mask(&img, &seg, "dark pores")
            .expect("child");
        assert!(child.region.contains_box(&BoxRegion::new(40, 40, 80, 80)));
        let empty = BitMask::new(128, 128);
        assert!(z.further_segment_mask(&img, &empty, "x").is_none());
    }
}
