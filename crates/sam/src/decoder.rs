//! The mask decoder: prompts + image embedding → binary masks.
//!
//! Two decoding paths, matching how prompts constrain the problem:
//!
//! * **Point path** — tolerance-bounded region growing on the smoothed
//!   embedding from the clicked seed(s): a pixel joins if it is close in
//!   intensity to both its accepted neighbour (step tolerance) and the
//!   seed statistic (global tolerance). Background clicks carve the grown
//!   region. Three global tolerances give SAM's multimask granularities.
//! * **Box path** — the box localizes the intensity statistics: a
//!   two-class Otsu split *inside the box* separates structure from
//!   background where the global histogram could not (this is precisely
//!   the mechanism by which grounding rescues SAM in the paper), followed
//!   by small-component suppression, gap closing, and hole filling.

use std::cell::RefCell;

use zenesis_image::components::{label_components, Connectivity};
use zenesis_image::morphology::fill_holes;
use zenesis_image::{BitMask, BoxRegion, Point};

use crate::embedding::ImageEmbedding;

thread_local! {
    /// Reused DFS frontier for [`region_grow`]. A multimask decode runs the
    /// grow three times (one per granularity) and the auto-segmenter runs it
    /// once per seed; recycling the frontier keeps those loops
    /// allocation-free after warm-up, mirroring `zenesis_tensor::Workspace`.
    static GROW_STACK: RefCell<Vec<Point>> = const { RefCell::new(Vec::new()) };
}

/// Tolerance-bounded region growing from seeds.
///
/// `step_tol` bounds the intensity jump between neighbouring accepted
/// pixels; `global_tol` bounds the deviation from the mean of the seed
/// pixels; `bounds` optionally restricts growth to a box.
pub fn region_grow(
    emb: &ImageEmbedding,
    seeds: &[Point],
    step_tol: f32,
    global_tol: f32,
    bounds: Option<BoxRegion>,
) -> BitMask {
    let (w, h) = emb.dims();
    let mut mask = BitMask::new(w, h);
    if seeds.is_empty() {
        return mask;
    }
    let bounds = bounds
        .map(|b| b.clamp_to(w, h))
        .unwrap_or_else(|| BoxRegion::full(w, h));
    let seed_mean: f32 = seeds
        .iter()
        .map(|p| emb.smooth.get(p.x.min(w - 1), p.y.min(h - 1)))
        .sum::<f32>()
        / seeds.len() as f32;
    // Take (not borrow) the scratch so re-entrancy can never panic; a
    // concurrent taker just pays one fresh allocation.
    let mut stack = GROW_STACK.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
    stack.clear();
    for s in seeds {
        let p = Point::new(s.x.min(w - 1), s.y.min(h - 1));
        if bounds.contains(p) && !mask.get(p.x, p.y) {
            mask.set(p.x, p.y, true);
            stack.push(p);
        }
    }
    while let Some(p) = stack.pop() {
        let pv = emb.smooth.get(p.x, p.y);
        let neighbours = [
            (p.x.wrapping_sub(1), p.y),
            (p.x + 1, p.y),
            (p.x, p.y.wrapping_sub(1)),
            (p.x, p.y + 1),
        ];
        for (nx, ny) in neighbours {
            if nx >= w || ny >= h {
                continue;
            }
            let np = Point::new(nx, ny);
            if !bounds.contains(np) || mask.get(nx, ny) {
                continue;
            }
            let nv = emb.smooth.get(nx, ny);
            if (nv - pv).abs() <= step_tol && (nv - seed_mean).abs() <= global_tol {
                mask.set(nx, ny, true);
                stack.push(np);
            }
        }
    }
    GROW_STACK.with(|cell| *cell.borrow_mut() = stack);
    mask
}

/// Decode from point prompts at one global tolerance. Background points
/// veto: their grown regions are subtracted.
pub fn decode_points(
    emb: &ImageEmbedding,
    fg: &[Point],
    bg: &[Point],
    step_tol: f32,
    global_tol: f32,
    bounds: Option<BoxRegion>,
) -> BitMask {
    let mut mask = region_grow(emb, fg, step_tol, global_tol, bounds);
    if !bg.is_empty() {
        let veto = region_grow(emb, bg, step_tol, global_tol, bounds);
        mask.subtract(&veto);
        // Keep only components still connected to a foreground seed.
        let labels = label_components(&mask, Connectivity::Four);
        let seeded: Vec<u32> = fg
            .iter()
            .filter(|s| s.x < mask.width() && s.y < mask.height())
            .map(|s| labels.get(s.x, s.y))
            .filter(|&l| l != 0)
            .collect();
        mask = labels.mask_where(|l| seeded.contains(&l));
    }
    mask
}

/// Decode from a box prompt: in-box Otsu split; `bright_fg` selects which
/// side of the split is the object.
///
/// `min_area` suppresses noise specks; thin structures are preserved
/// because cleanup is component-size-based rather than morphological
/// opening (which would erase 1-2 px needles).
pub fn decode_box(
    emb: &ImageEmbedding,
    bbox: BoxRegion,
    margin: usize,
    min_area: usize,
    fill: bool,
    bright_fg: bool,
) -> BitMask {
    let (w, h) = emb.dims();
    let roi = bbox.expand(margin).clamp_to(w, h);
    if roi.is_empty() {
        return BitMask::new(w, h);
    }
    let crop = emb.smooth.crop(roi).expect("clamped roi is valid");
    // Start from the in-box Otsu split, then walk the threshold toward the
    // object to maximize mask *stability* (SAM's stability criterion: the
    // extent should not care about the exact threshold). Otsu under heavy
    // class imbalance lands on the noise skirt; the stability scan finds
    // the plateau between skirt and core.
    let t0 = zenesis_baseline::otsu_threshold(&crop);
    let delta = 0.04f32;
    let count_fg = |t: f32| {
        crop.as_slice()
            .iter()
            .filter(|&&v| (v > t) == bright_fg)
            .count()
            .max(1)
    };
    let mut thr = t0;
    let mut best_stab = 0.0f64;
    let mut t = t0;
    let dir = if bright_fg { 1.0f32 } else { -1.0 };
    for _ in 0..18 {
        let grown = count_fg(t - dir * delta);
        let shrunk = count_fg(t + dir * delta);
        // "Stably empty" is not a segmentation: once the scan walks past
        // the object entirely, stop considering candidates.
        if shrunk < min_area.max(1) {
            break;
        }
        let (grown, shrunk) = (grown as f64, shrunk as f64);
        let stab = (shrunk / grown).min(grown / shrunk);
        if stab > best_stab {
            best_stab = stab;
            thr = t;
        }
        t += dir * 0.02;
    }
    // Foreground = selected side of the split, inside the ROI only: the
    // cleanup below works on the ROI-sized raster and is pasted back, so
    // a small box does not pay for full-image passes.
    let mut local = BitMask::from_threshold(&crop, thr);
    if !bright_fg {
        local = local.not();
    }
    // Drop specks, then fill interior holes. (No morphological closing:
    // it would merge and thicken the 1-2 px structures the crystalline
    // samples are made of; hole filling and component filtering do the
    // regularization instead.)
    let labels = label_components(&local, Connectivity::Eight);
    // Indexed by label; label 0 is the background.
    let keep: Vec<bool> = std::iter::once(false)
        .chain(labels.stats().iter().map(|s| s.area >= min_area))
        .collect();
    let mut local = labels.mask_where(|l| keep[l as usize]);
    if fill {
        // A hole is background with no 4-path to the image border. The
        // image is empty outside the ROI, so background on the ROI's rim
        // always has such a path and any path from inside crosses the
        // rim: holes of the ROI raster are exactly the holes of the image.
        local = fill_holes(&local);
    }
    let mut mask = BitMask::new(w, h);
    mask.paste(&local, roi.x0, roi.y0);
    mask
}

/// Refine a rough mask prompt: reseed from its interior and regrow.
pub(crate) fn decode_mask_prior(
    emb: &ImageEmbedding,
    prior: &BitMask,
    step_tol: f32,
    global_tol: f32,
) -> BitMask {
    // Seeds: the prior's interior (erode once via boundary subtraction to
    // avoid seeding on its uncertain rim).
    let mut interior = prior.clone();
    interior.subtract(&prior.boundary());
    let seeds: Vec<Point> = if interior.count() > 0 {
        interior.iter_true().collect()
    } else {
        prior.iter_true().collect()
    };
    if seeds.is_empty() {
        return BitMask::new(prior.width(), prior.height());
    }
    // Limit seed count for cost; take a uniform subsample.
    let step = (seeds.len() / 256).max(1);
    let sub: Vec<Point> = seeds.into_iter().step_by(step).collect();
    // Constrain growth near the prior: its bounding box plus margin.
    let bounds = prior.bounding_box().map(|b| b.expand(8));
    let grown = region_grow(emb, &sub, step_tol, global_tol, bounds);
    if grown.count() == 0 {
        return prior.clone();
    }
    // Keep every grown component (each one is anchored to a prior seed by
    // construction): multi-component structures — needle fields, particle
    // agglomerates — must survive propagation.
    grown
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::Image;

    /// Bright disk on dark background.
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

    fn disk_truth() -> BitMask {
        BitMask::from_fn(64, 64, |x, y| {
            let dx = x as f32 - 32.0;
            let dy = y as f32 - 32.0;
            dx * dx + dy * dy < 14.0 * 14.0
        })
    }

    #[test]
    fn grow_from_center_captures_disk() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        let m = region_grow(&emb, &[Point::new(32, 32)], 0.05, 0.15, None);
        let iou = m.iou(&disk_truth());
        assert!(iou > 0.8, "iou {iou}");
    }

    #[test]
    fn grow_from_background_captures_background() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        let m = region_grow(&emb, &[Point::new(2, 2)], 0.05, 0.15, None);
        assert!(m.coverage() > 0.6);
        assert!(!m.get(32, 32), "disk interior must not join background");
    }

    #[test]
    fn grow_respects_bounds() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        let b = BoxRegion::new(0, 0, 32, 64);
        let m = region_grow(&emb, &[Point::new(2, 2)], 0.05, 0.2, Some(b));
        for p in m.iter_true() {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn grow_empty_seeds_empty_mask() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        let m = region_grow(&emb, &[], 0.05, 0.2, None);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn tolerance_monotonicity() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        let tight = region_grow(&emb, &[Point::new(32, 32)], 0.05, 0.05, None);
        let loose = region_grow(&emb, &[Point::new(32, 32)], 0.05, 0.3, None);
        assert!(tight.count() <= loose.count());
        // tight ⊆ loose
        assert_eq!(tight.intersection_count(&loose), tight.count());
    }

    #[test]
    fn background_click_carves() {
        // Two touching bright regions of slightly different intensity;
        // a bg click on one side removes it.
        let img = Image::from_fn(64, 64, |x, _| {
            if x < 30 {
                0.75
            } else if x < 34 {
                0.1
            } else {
                0.8
            }
        });
        let emb = ImageEmbedding::encode(&img, 0.5);
        let m = decode_points(
            &emb,
            &[Point::new(50, 32)],
            &[Point::new(10, 32)],
            0.05,
            0.2,
            None,
        );
        assert!(m.get(50, 32));
        assert!(!m.get(10, 32));
    }

    #[test]
    fn decode_box_separates_in_box_statistics() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        let m = decode_box(&emb, BoxRegion::new(14, 14, 50, 50), 2, 6, true, true);
        let iou = m.iou(&disk_truth());
        assert!(iou > 0.8, "iou {iou}");
    }

    #[test]
    fn decode_box_outside_image_is_empty() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        let m = decode_box(&emb, BoxRegion::new(200, 200, 220, 220), 2, 6, true, true);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn decode_box_min_area_drops_specks() {
        // Disk plus a few hot pixels.
        let mut img = disk_image();
        img.set(5, 5, 0.9);
        img.set(60, 5, 0.9);
        let emb = ImageEmbedding::encode(&img, 0.3);
        let m = decode_box(&emb, BoxRegion::full(64, 64), 0, 20, true, true);
        assert!(!m.get(5, 5));
        assert!(m.get(32, 32));
    }

    #[test]
    fn mask_prior_refines_rough_mask() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        // Rough prior: a box partially covering the disk.
        let prior = BitMask::from_box(64, 64, BoxRegion::new(24, 24, 40, 40));
        let refined = decode_mask_prior(&emb, &prior, 0.05, 0.2);
        let iou = refined.iou(&disk_truth());
        assert!(iou > 0.6, "iou {iou}");
    }

    #[test]
    fn mask_prior_empty_is_empty() {
        let emb = ImageEmbedding::encode(&disk_image(), 0.8);
        let refined = decode_mask_prior(&emb, &BitMask::new(64, 64), 0.05, 0.2);
        assert_eq!(refined.count(), 0);
    }
}
