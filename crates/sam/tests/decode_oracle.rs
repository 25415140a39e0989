//! Oracle tests for the mask decoder: the single-pass, ROI-local
//! `decode_box` and the single-pass `decode_points` must equal the bodies
//! they replaced, kept here unchanged as references, on phantom
//! embeddings and on boxes of every awkward kind.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zenesis_adapt::AdaptPipeline;
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_image::components::{label_components, Connectivity};
use zenesis_image::morphology::fill_holes;
use zenesis_image::{BitMask, BoxRegion, Point};
use zenesis_sam::decoder::{decode_box, decode_points, region_grow};
use zenesis_sam::ImageEmbedding;

/// `decode_box` as it was: full-image threshold, label, one
/// `component_mask` per kept component, full-image hole filling.
fn decode_box_ref(
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
    let mut mask = BitMask::new(w, h);
    for y in roi.y0..roi.y1 {
        for x in roi.x0..roi.x1 {
            let above = emb.smooth.get(x, y) > thr;
            if above == bright_fg {
                mask.set(x, y, true);
            }
        }
    }
    let labels = label_components(&mask, Connectivity::Eight);
    let mut cleaned = BitMask::new(w, h);
    for s in labels.stats() {
        if s.area >= min_area {
            let mut comp = BitMask::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    if labels.get(x, y) == s.label {
                        comp.set(x, y, true);
                    }
                }
            }
            cleaned.or_with(&comp);
        }
    }
    if fill {
        fill_holes(&cleaned)
    } else {
        cleaned
    }
}

/// `decode_points` as it was: one `component_mask` per seeded component.
fn decode_points_ref(
    emb: &ImageEmbedding,
    fg: &[Point],
    bg: &[Point],
    step_tol: f32,
    global_tol: f32,
) -> BitMask {
    let mut mask = region_grow(emb, fg, step_tol, global_tol, None);
    if !bg.is_empty() {
        let veto = region_grow(emb, bg, step_tol, global_tol, None);
        mask.subtract(&veto);
        let labels = label_components(&mask, Connectivity::Four);
        let mut keep = BitMask::new(mask.width(), mask.height());
        for s in fg {
            if s.x < mask.width() && s.y < mask.height() {
                let l = labels.get(s.x, s.y);
                if l != 0 {
                    keep.or_with(&labels.component_mask(l));
                }
            }
        }
        mask = keep;
    }
    mask
}

fn embedding(kind: SampleKind, side: usize, seed: u64) -> ImageEmbedding {
    let g = generate_slice(&PhantomConfig::new(kind, seed).with_size(side, side));
    let img = AdaptPipeline::recommended().run(&g.raw.to_f32());
    ImageEmbedding::encode(&img, 1.5)
}

#[test]
fn decode_box_matches_full_image_oracle() {
    let mut rng = StdRng::seed_from_u64(24);
    for (kind, side) in [
        (SampleKind::Amorphous, 128),
        (SampleKind::Crystalline, 128),
        (SampleKind::Amorphous, 256),
        (SampleKind::Crystalline, 256),
    ] {
        let emb = embedding(kind, side, 5);
        let mut boxes = vec![
            BoxRegion::full(side, side),
            BoxRegion::new(0, 0, 1, 1),
            BoxRegion::new(side - 1, side - 1, side, side),
            BoxRegion::new(side / 2, side / 2, side / 2 + 1, side / 2 + 1),
            BoxRegion::new(0, 10, side, 26), // touches left and right
            BoxRegion::new(40, 0, 48, side), // touches top and bottom
            BoxRegion::new(side + 5, side + 5, side + 20, side + 20), // outside
            BoxRegion::new(side - 10, 30, side + 50, 60), // straddles the edge
        ];
        for _ in 0..10 {
            let (a, b) = (rng.gen_range(0..side), rng.gen_range(0..side));
            let (c, d) = (rng.gen_range(0..side), rng.gen_range(0..side));
            boxes.push(BoxRegion::new(
                a.min(b),
                c.min(d),
                a.max(b) + 1,
                c.max(d) + 1,
            ));
        }
        for bbox in boxes {
            let margin = rng.gen_range(0..4);
            for bright_fg in [true, false] {
                for fill in [true, false] {
                    for min_area in [0, 1, 6, 40] {
                        assert_eq!(
                            decode_box(&emb, bbox, margin, min_area, fill, bright_fg),
                            decode_box_ref(&emb, bbox, margin, min_area, fill, bright_fg),
                            "{kind:?} {side} {bbox:?} margin {margin} min_area {min_area} \
                             fill {fill} bright {bright_fg}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn decode_points_matches_per_component_oracle() {
    let mut rng = StdRng::seed_from_u64(25);
    for kind in [SampleKind::Amorphous, SampleKind::Crystalline] {
        let emb = embedding(kind, 128, 6);
        for _ in 0..24 {
            // Out-of-image seeds are legal prompts too.
            let mut points = |n: usize| -> Vec<Point> {
                (0..n)
                    .map(|_| Point::new(rng.gen_range(0..140), rng.gen_range(0..140)))
                    .collect()
            };
            let (fg, bg) = (points(3), points(2));
            for (step, global) in [(0.05, 0.15), (0.2, 0.5)] {
                assert_eq!(
                    decode_points(&emb, &fg, &bg, step, global, None),
                    decode_points_ref(&emb, &fg, &bg, step, global),
                    "{kind:?} fg {fg:?} bg {bg:?} tolerances {step}/{global}"
                );
            }
        }
    }
}
