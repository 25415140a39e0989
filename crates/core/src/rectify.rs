//! Human-in-the-loop Rectify Segmentation (Fig. 6).
//!
//! Paper: "adjustment of bounding boxes allows users to generate random
//! boxes (with criteria such as length or width equal to the image size)
//! and select the nearest segmentation area of interest, providing a
//! weakly supervised way to correct automated detections."
//!
//! The flow: the user asks for `n` candidate boxes; the platform decodes
//! each into a mask; the user clicks near the structure they want; the
//! candidate whose mask is nearest to the click (distance-transform
//! nearest, tie-broken by click containment) replaces the bad detection.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zenesis_image::distance::point_to_mask_distance;
use zenesis_image::{BitMask, BoxRegion, Point};
use zenesis_sam::{ImageEmbedding, PromptSet};

use crate::pipeline::Zenesis;

/// Candidate-generation criteria from the paper: boxes spanning the full
/// image width, full height, or free rectangles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateCriteria {
    /// Box width = image width (horizontal band).
    FullWidth,
    /// Box height = image height (vertical band).
    FullHeight,
    /// Unconstrained rectangle.
    Free,
    /// Round-robin mix of the above.
    Mixed,
}

/// One rectification candidate: a box and its decoded mask.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub bbox: BoxRegion,
    pub mask: BitMask,
}

/// Generate `n` random candidate boxes over a `w x h` image.
pub fn random_boxes(
    w: usize,
    h: usize,
    n: usize,
    criteria: CandidateCriteria,
    seed: u64,
) -> Vec<BoxRegion> {
    let mut rng = StdRng::seed_from_u64(seed);
    let min_side = (w.min(h) / 8).max(4);
    (0..n)
        .map(|i| {
            let c = match criteria {
                CandidateCriteria::Mixed => match i % 3 {
                    0 => CandidateCriteria::FullWidth,
                    1 => CandidateCriteria::FullHeight,
                    _ => CandidateCriteria::Free,
                },
                other => other,
            };
            match c {
                CandidateCriteria::FullWidth => {
                    let bh = rng.gen_range(min_side..=h);
                    let y0 = rng.gen_range(0..=h - bh);
                    BoxRegion::new(0, y0, w, y0 + bh)
                }
                CandidateCriteria::FullHeight => {
                    let bw = rng.gen_range(min_side..=w);
                    let x0 = rng.gen_range(0..=w - bw);
                    BoxRegion::new(x0, 0, x0 + bw, h)
                }
                CandidateCriteria::Free | CandidateCriteria::Mixed => {
                    let bw = rng.gen_range(min_side..=w);
                    let bh = rng.gen_range(min_side..=h);
                    let x0 = rng.gen_range(0..=w - bw);
                    let y0 = rng.gen_range(0..=h - bh);
                    BoxRegion::new(x0, y0, x0 + bw, y0 + bh)
                }
            }
        })
        .collect()
}

impl Zenesis {
    /// Decode candidate boxes into masks against an image's SAM
    /// embedding.
    pub fn decode_candidates(&self, emb: &ImageEmbedding, boxes: &[BoxRegion]) -> Vec<Candidate> {
        let _s = zenesis_obs::span("rectify.candidates");
        zenesis_par::par_map(boxes, |&bbox| Candidate {
            bbox,
            mask: self.sam().segment(emb, &PromptSet::from_box(bbox)),
        })
    }

    /// The full Rectify interaction: generate candidates, decode them
    /// against `emb` (the embedding the caller already holds — a
    /// session's [`crate::Prepared::embedding`]), and pick the one whose
    /// mask is nearest to the user's click. Returns `None` when every
    /// candidate decodes to an empty mask.
    pub fn rectify(
        &self,
        emb: &ImageEmbedding,
        click: Point,
        n_candidates: usize,
        criteria: CandidateCriteria,
        seed: u64,
    ) -> Option<Candidate> {
        let (w, h) = emb.dims();
        let boxes = random_boxes(w, h, n_candidates, criteria, seed);
        let candidates = self.decode_candidates(emb, &boxes);
        let picked = select_nearest(candidates, click);
        if zenesis_obs::enabled() {
            zenesis_obs::events::emit(zenesis_obs::events::Event::RectifyPick {
                x: click.x,
                y: click.y,
                candidates: n_candidates,
                picked_pixels: picked.as_ref().map_or(0, |c| c.mask.count() as u64),
            });
        }
        picked
    }
}

/// Pick the candidate whose mask is nearest to the click. Containment
/// (distance 0) wins outright; among containing candidates the smallest
/// mask wins (tightest selection); otherwise minimal chamfer distance.
pub fn select_nearest(candidates: Vec<Candidate>, click: Point) -> Option<Candidate> {
    let scored: Vec<(f32, usize, Candidate)> = candidates
        .into_iter()
        .filter(|c| c.mask.count() > 0)
        .map(|c| {
            let d = point_to_mask_distance(&c.mask, click.x, click.y);
            (d, c.mask.count(), c)
        })
        .collect();
    scored
        .into_iter()
        .min_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.1.cmp(&b.1))
        })
        .map(|(_, _, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZenesisConfig;
    use zenesis_image::Image;

    #[test]
    fn random_boxes_respect_criteria() {
        let boxes = random_boxes(100, 80, 20, CandidateCriteria::FullWidth, 1);
        for b in &boxes {
            assert_eq!(b.width(), 100, "full-width criterion");
            assert!(b.height() >= 4);
        }
        let boxes = random_boxes(100, 80, 20, CandidateCriteria::FullHeight, 2);
        for b in &boxes {
            assert_eq!(b.height(), 80);
        }
        let boxes = random_boxes(100, 80, 30, CandidateCriteria::Free, 3);
        for b in &boxes {
            assert!(b.x1 <= 100 && b.y1 <= 80);
            assert!(!b.is_empty());
        }
    }

    #[test]
    fn random_boxes_deterministic_by_seed() {
        let a = random_boxes(64, 64, 10, CandidateCriteria::Mixed, 7);
        let b = random_boxes(64, 64, 10, CandidateCriteria::Mixed, 7);
        let c = random_boxes(64, 64, 10, CandidateCriteria::Mixed, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mixed_contains_all_kinds() {
        let boxes = random_boxes(64, 48, 12, CandidateCriteria::Mixed, 5);
        assert!(boxes.iter().any(|b| b.width() == 64));
        assert!(boxes.iter().any(|b| b.height() == 48));
    }

    #[test]
    fn select_nearest_prefers_containing_then_smallest() {
        let mk = |r: BoxRegion| Candidate {
            bbox: r,
            mask: BitMask::from_box(40, 40, r),
        };
        let big = mk(BoxRegion::new(0, 0, 40, 40));
        let small = mk(BoxRegion::new(8, 8, 16, 16));
        let far = mk(BoxRegion::new(30, 30, 40, 40));
        let picked = select_nearest(vec![big, small, far], Point::new(10, 10)).unwrap();
        assert_eq!(picked.bbox, BoxRegion::new(8, 8, 16, 16));
    }

    #[test]
    fn select_nearest_by_distance_when_outside_all() {
        let mk = |r: BoxRegion| Candidate {
            bbox: r,
            mask: BitMask::from_box(40, 40, r),
        };
        let near = mk(BoxRegion::new(0, 0, 5, 5));
        let far = mk(BoxRegion::new(30, 30, 40, 40));
        let picked = select_nearest(vec![far, near], Point::new(8, 8)).unwrap();
        assert_eq!(picked.bbox, BoxRegion::new(0, 0, 5, 5));
    }

    #[test]
    fn select_nearest_empty_masks_none() {
        let empty = Candidate {
            bbox: BoxRegion::new(0, 0, 4, 4),
            mask: BitMask::new(10, 10),
        };
        assert!(select_nearest(vec![empty], Point::new(0, 0)).is_none());
        assert!(select_nearest(vec![], Point::new(0, 0)).is_none());
    }

    #[test]
    fn rectify_recovers_object_from_click() {
        // Bright disk; rectify with a click on the disk should return a
        // candidate whose mask covers it.
        let img = Image::<f32>::from_fn(64, 64, |x, y| {
            let dx = x as f32 - 40.0;
            let dy = y as f32 - 24.0;
            if dx * dx + dy * dy < 100.0 {
                0.85
            } else {
                0.1
            }
        });
        let z = Zenesis::new(ZenesisConfig::default());
        let emb = z.sam().encode(&img);
        let picked = z
            .rectify(&emb, Point::new(40, 24), 12, CandidateCriteria::Mixed, 3)
            .expect("some candidate");
        assert!(picked.mask.get(40, 24), "picked mask must cover the click");
    }
}
