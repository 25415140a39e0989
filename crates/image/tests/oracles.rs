//! Oracle tests for the word- and row-level kernels on the slice path.
//!
//! Each kernel replaced a per-pixel body; those bodies live on here,
//! unchanged, as reference functions, and the kernels must equal them
//! exactly (`to_bits` for floats) on shapes that cross every packing
//! boundary: widths that are not multiples of 64, single rows and
//! columns, radii beyond a word and beyond the raster.
//!
//! CI runs this file twice, portable and `-Ctarget-cpu=native`: the
//! compare-exchange network and the row-level convolution passes must
//! not depend on the SIMD level. The windowed statistics are also checked
//! at 1 and 2 threads, dispatched and forced scalar, in one process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zenesis_image::components::{label_components, Connectivity, Labels};
use zenesis_image::filter::{
    convolve_separable, gaussian_blur, gaussian_kernel, local_std, median_filter,
    orientation_coherence,
};
use zenesis_image::morphology::{close, dilate, erode, open, Structuring};
use zenesis_image::{BitMask, BoxRegion, Image, Point};

const WIDTHS: [usize; 8] = [1, 2, 63, 64, 65, 101, 128, 256];
const HEIGHTS: [usize; 3] = [1, 3, 37];

/// Shapes for the windowed statistics: widths around a SIMD word and a
/// row band, heights from one row to past a band boundary.
const STAT_WIDTHS: [usize; 8] = [1, 2, 7, 63, 64, 65, 101, 256];
const STAT_HEIGHTS: [usize; 4] = [1, 3, 37, 140];

// ------------------------------------------------------------------ oracles

/// The mask builders as they were: one `set` per pixel.
fn mask_from_fn_ref(w: usize, h: usize, f: impl Fn(usize, usize) -> bool) -> BitMask {
    let mut m = BitMask::new(w, h);
    for y in 0..h {
        for x in 0..w {
            if f(x, y) {
                m.set(x, y, true);
            }
        }
    }
    m
}

fn offsets_ref(se: Structuring) -> Vec<(isize, isize)> {
    let (r, disk) = match se {
        Structuring::Square(r) => (r as isize, false),
        Structuring::Disk(r) => (r as isize, true),
    };
    let mut v = Vec::new();
    for dy in -r..=r {
        for dx in -r..=r {
            if !disk || dx * dx + dy * dy <= r * r {
                v.push((dx, dy));
            }
        }
    }
    v
}

fn dilate_ref(mask: &BitMask, se: Structuring) -> BitMask {
    let offs = offsets_ref(se);
    mask_from_fn_ref(mask.width(), mask.height(), |x, y| {
        offs.iter()
            .any(|&(dx, dy)| mask.get_or_false(x as isize + dx, y as isize + dy))
    })
}

fn erode_ref(mask: &BitMask, se: Structuring) -> BitMask {
    let offs = offsets_ref(se);
    mask_from_fn_ref(mask.width(), mask.height(), |x, y| {
        offs.iter()
            .all(|&(dx, dy)| mask.get_or_false(x as isize + dx, y as isize + dy))
    })
}

/// Is `q - p` an offset of the structuring element?
fn in_se(se: Structuring, p: Point, q: Point) -> bool {
    let (dx, dy) = (p.x.abs_diff(q.x), p.y.abs_diff(q.y));
    match se {
        Structuring::Square(r) => dx <= r && dy <= r,
        Structuring::Disk(r) => dx * dx + dy * dy <= r * r,
    }
}

/// Dilation by direct distance test against the list of set pixels: no
/// offset table, so it stays cheap for radii far beyond the raster.
fn dilate_by_distance(mask: &BitMask, se: Structuring) -> BitMask {
    let set: Vec<Point> = mask.iter_true().collect();
    mask_from_fn_ref(mask.width(), mask.height(), |x, y| {
        set.iter().any(|&q| in_se(se, Point::new(x, y), q))
    })
}

/// Erosion by direct distance test against the list of unset pixels. The
/// element reaches `(±r, 0)` and `(0, ±r)` and stays inside the square
/// of radius `r`, so "no offset leaves the raster" is a box test.
fn erode_by_distance(mask: &BitMask, se: Structuring) -> BitMask {
    let (w, h) = mask.dims();
    let r = match se {
        Structuring::Square(r) | Structuring::Disk(r) => r,
    };
    let unset: Vec<Point> = mask.not().iter_true().collect();
    mask_from_fn_ref(w, h, |x, y| {
        x >= r
            && y >= r
            && x + r < w
            && y + r < h
            && !unset.iter().any(|&q| in_se(se, Point::new(x, y), q))
    })
}

fn median_ref(img: &Image<f32>, radius: usize) -> Image<f32> {
    let (w, h) = img.dims();
    let side = 2 * radius + 1;
    let data = (0..w * h)
        .map(|i| {
            let (x, y) = ((i % w) as isize, (i / w) as isize);
            let mut window = Vec::with_capacity(side * side);
            for dy in -(radius as isize)..=(radius as isize) {
                for dx in -(radius as isize)..=(radius as isize) {
                    window.push(img.get_clamped(x + dx, y + dy));
                }
            }
            let mid = window.len() / 2;
            *window
                .select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("NaN in image"))
                .1
        })
        .collect();
    Image::from_vec(w, h, data).unwrap()
}

fn component_mask_ref(labels: &Labels, label: u32) -> BitMask {
    mask_from_fn_ref(labels.width(), labels.height(), |x, y| {
        labels.get(x, y) == label
    })
}

fn resize_nearest_ref(img: &Image<f32>, new_w: usize, new_h: usize) -> Image<f32> {
    let sx = img.width() as f64 / new_w as f64;
    let sy = img.height() as f64 / new_h as f64;
    let mut data = Vec::with_capacity(new_w * new_h);
    for y in 0..new_h {
        for x in 0..new_w {
            let ox = ((x as f64 + 0.5) * sx) as usize;
            let oy = ((y as f64 + 0.5) * sy) as usize;
            data.push(img.get(ox.min(img.width() - 1), oy.min(img.height() - 1)));
        }
    }
    Image::from_vec(new_w, new_h, data).unwrap()
}

/// Separable convolution as it was first written: one clamped gather per
/// output pixel, taps in ascending order, rows then columns.
fn convolve_separable_ref(img: &Image<f32>, kernel: &[f32]) -> Image<f32> {
    let (w, h) = img.dims();
    let r = kernel.len() as isize / 2;
    let gather = |src: &Image<f32>, along_x: bool| {
        let data = (0..w * h)
            .map(|i| {
                let (x, y) = ((i % w) as isize, (i / w) as isize);
                let mut acc = 0.0f32;
                for (j, &kv) in kernel.iter().enumerate() {
                    let d = j as isize - r;
                    let v = if along_x {
                        src.get_clamped(x + d, y)
                    } else {
                        src.get_clamped(x, y + d)
                    };
                    acc += kv * v;
                }
                acc
            })
            .collect();
        Image::from_vec(w, h, data).unwrap()
    };
    gather(&gather(img, true), false)
}

/// The deleted `filter::box_blur`.
fn box_blur_ref(img: &Image<f32>, radius: usize) -> Image<f32> {
    let len = 2 * radius + 1;
    convolve_separable_ref(img, &vec![1.0 / len as f32; len])
}

/// The deleted `filter::sobel`: both 3x3 responses per pixel with
/// replicate borders, in the operators' expression order.
fn sobel_ref(img: &Image<f32>) -> (Image<f32>, Image<f32>) {
    let p = |x: usize, y: usize, dx: isize, dy: isize| {
        img.get_clamped(x as isize + dx, y as isize + dy)
    };
    let gx = img.map_indexed(|x, y, _| {
        (p(x, y, 1, -1) + 2.0 * p(x, y, 1, 0) + p(x, y, 1, 1))
            - (p(x, y, -1, -1) + 2.0 * p(x, y, -1, 0) + p(x, y, -1, 1))
    });
    let gy = img.map_indexed(|x, y, _| {
        (p(x, y, -1, 1) + 2.0 * p(x, y, 0, 1) + p(x, y, 1, 1))
            - (p(x, y, -1, -1) + 2.0 * p(x, y, 0, -1) + p(x, y, 1, -1))
    });
    (gx, gy)
}

/// `local_std` as it was: two box blurs and a per-pixel combine.
fn local_std_ref(img: &Image<f32>, radius: usize) -> Image<f32> {
    let mean = box_blur_ref(img, radius);
    let mean_sq = box_blur_ref(&img.map(|v| v * v), radius);
    mean.map_indexed(|x, y, m| {
        let var = mean_sq.get(x, y) - m * m;
        var.max(0.0).sqrt()
    })
}

/// `orientation_coherence` as it was: full-raster Sobel pair, three
/// product rasters, three Gaussian blurs, a per-pixel contrast.
fn orientation_coherence_ref(img: &Image<f32>, sigma: f32) -> Image<f32> {
    let (gx, gy) = sobel_ref(img);
    let k = gaussian_kernel(sigma);
    let prod = |f: &(dyn Fn(f32, f32) -> f32 + Sync)| {
        convolve_separable_ref(&gx.map_indexed(|x, y, a| f(a, gy.get(x, y))), &k)
    };
    let jxx = prod(&|a, _| a * a);
    let jyy = prod(&|_, b| b * b);
    let jxy = prod(&|a, b| a * b);
    jxx.map_indexed(|x, y, a| {
        let b = jyy.get(x, y);
        let c = jxy.get(x, y);
        let tr = a + b;
        if tr <= 1e-12 {
            return 0.0;
        }
        let d = ((a - b) * (a - b) + 4.0 * c * c).sqrt();
        (d / tr).clamp(0.0, 1.0)
    })
}

// --------------------------------------------------------------- generators

fn random_mask(rng: &mut StdRng, w: usize, h: usize, density: f64) -> BitMask {
    let bits: Vec<bool> = (0..w * h).map(|_| rng.gen_bool(density)).collect();
    mask_from_fn_ref(w, h, |x, y| bits[y * w + x])
}

/// Random image on a palette of `levels` values (small palettes force
/// duplicates inside every window). Never `-0.0`.
fn random_image(rng: &mut StdRng, w: usize, h: usize, levels: u32) -> Image<f32> {
    let data = (0..w * h)
        .map(|_| rng.gen_range(0..levels) as f32 / levels as f32 - 0.25)
        .collect();
    Image::from_vec(w, h, data).unwrap()
}

/// Random image spanning `[-0.5, 1.5]` with exact `±0.0`, `0.5` and
/// `1.0` sprinkled in: out-of-range samples and signed zeros are where a
/// reordered expression would show.
fn wild_image(rng: &mut StdRng, w: usize, h: usize) -> Image<f32> {
    let data = (0..w * h)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => 0.5,
            _ => rng.gen_range(-0.5f32..1.5),
        })
        .collect();
    Image::from_vec(w, h, data).unwrap()
}

fn assert_same_bits(got: &Image<f32>, want: &Image<f32>, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: pixel {i}: {a} vs {b}");
    }
}

// ------------------------------------------------------------ mask builders

#[test]
fn mask_builders_match_per_pixel_set() {
    let mut rng = StdRng::seed_from_u64(1);
    for w in WIDTHS {
        for h in HEIGHTS {
            let bits: Vec<bool> = (0..w * h).map(|_| rng.gen_bool(0.4)).collect();
            let want = mask_from_fn_ref(w, h, |x, y| bits[y * w + x]);
            assert_eq!(BitMask::from_fn(w, h, |x, y| bits[y * w + x]), want);

            let img = random_image(&mut rng, w, h, 7);
            let thr = 0.3;
            assert_eq!(
                BitMask::from_threshold(&img, thr),
                mask_from_fn_ref(w, h, |x, y| img.get(x, y) > thr),
                "from_threshold {w}x{h}"
            );

            for _ in 0..8 {
                let (a, b) = (rng.gen_range(0..=w + 2), rng.gen_range(0..=w + 2));
                let (c, d) = (rng.gen_range(0..=h + 2), rng.gen_range(0..=h + 2));
                let region = BoxRegion::new(a.min(b), c.min(d), a.max(b), c.max(d));
                let clamped = region.clamp_to(w, h);
                assert_eq!(
                    BitMask::from_box(w, h, region),
                    mask_from_fn_ref(w, h, |x, y| clamped.contains(Point::new(x, y))),
                    "from_box {w}x{h} {region:?}"
                );
            }
        }
    }
}

#[test]
fn paste_overwrites_exactly_the_rectangle() {
    let mut rng = StdRng::seed_from_u64(2);
    for (w, h) in [(1, 1), (65, 3), (101, 37), (256, 5)] {
        for (sw, sh) in [(1, 1), (3, 2), (64, 3), (70, 40), (300, 2)] {
            for _ in 0..6 {
                let dst = random_mask(&mut rng, w, h, 0.5);
                let src = random_mask(&mut rng, sw, sh, 0.5);
                let (x0, y0) = (rng.gen_range(0..=w), rng.gen_range(0..=h));
                let mut got = dst.clone();
                got.paste(&src, x0, y0);
                let want = mask_from_fn_ref(w, h, |x, y| {
                    if x >= x0 && y >= y0 && x - x0 < sw && y - y0 < sh {
                        src.get(x - x0, y - y0)
                    } else {
                        dst.get(x, y)
                    }
                });
                assert_eq!(got, want, "{sw}x{sh} into {w}x{h} at ({x0},{y0})");
            }
        }
    }
}

// --------------------------------------------------------------- morphology

#[test]
fn morphology_matches_offset_oracle_for_small_radii() {
    let mut rng = StdRng::seed_from_u64(3);
    for w in WIDTHS {
        for h in HEIGHTS {
            for density in [0.0, 0.03, 0.5, 0.97, 1.0] {
                let m = random_mask(&mut rng, w, h, density);
                for r in 0..=6 {
                    for se in [Structuring::Square(r), Structuring::Disk(r)] {
                        let what = format!("{w}x{h} density {density} {se:?}");
                        let d = dilate_ref(&m, se);
                        let e = erode_ref(&m, se);
                        assert_eq!(dilate(&m, se), d, "dilate {what}");
                        assert_eq!(erode(&m, se), e, "erode {what}");
                        assert_eq!(open(&m, se), dilate_ref(&e, se), "open {what}");
                        assert_eq!(close(&m, se), erode_ref(&d, se), "close {what}");
                    }
                }
            }
        }
    }
}

#[test]
fn morphology_matches_distance_oracle_for_large_radii() {
    let mut rng = StdRng::seed_from_u64(4);
    // 140 rows so that erosion by 63..=65 leaves an interior.
    for w in WIDTHS {
        for h in [1, 3, 37, 140] {
            // A handful of set (resp. unset) pixels keeps the pixel-list
            // oracles cheap; corners are where clamping goes wrong.
            let mut sparse = BitMask::new(w, h);
            for _ in 0..6 {
                sparse.set(rng.gen_range(0..w), rng.gen_range(0..h), true);
            }
            sparse.set(0, 0, rng.gen_bool(0.5));
            sparse.set(w - 1, h - 1, rng.gen_bool(0.5));
            let dense = sparse.not();
            for r in [63, 64, 65, 1000] {
                for se in [Structuring::Square(r), Structuring::Disk(r)] {
                    let what = format!("{w}x{h} {se:?}");
                    assert_eq!(
                        dilate(&sparse, se),
                        dilate_by_distance(&sparse, se),
                        "dilate {what}"
                    );
                    assert_eq!(
                        erode(&dense, se),
                        erode_by_distance(&dense, se),
                        "erode {what}"
                    );
                }
            }
        }
    }
}

#[test]
fn distance_oracle_agrees_with_offset_oracle() {
    let mut rng = StdRng::seed_from_u64(5);
    let m = random_mask(&mut rng, 65, 37, 0.04);
    for r in [0, 1, 3, 6] {
        for se in [Structuring::Square(r), Structuring::Disk(r)] {
            assert_eq!(dilate_by_distance(&m, se), dilate_ref(&m, se));
            assert_eq!(erode_by_distance(&m.not(), se), erode_ref(&m.not(), se));
        }
    }
}

#[test]
fn erosion_is_dual_to_dilation_away_from_the_border() {
    let mut rng = StdRng::seed_from_u64(6);
    for (w, h) in [(65, 37), (128, 37), (101, 37)] {
        let m = random_mask(&mut rng, w, h, 0.9);
        for r in 0..=6 {
            for se in [Structuring::Square(r), Structuring::Disk(r)] {
                let interior = BitMask::from_box(w, h, BoxRegion::new(r, r, w - r, h - r));
                let e = erode_ref(&m, se);
                let dual = dilate(&m.not(), se).not();
                assert_eq!(e.and(&interior), dual.and(&interior), "{w}x{h} {se:?}");
                // And nothing within `r` of the border survives erosion.
                assert_eq!(e.and(&interior), e, "{w}x{h} {se:?}");
            }
        }
    }
}

/// `Structuring::offsets()` used to allocate `(2r + 1)^2` tuples before
/// looking at the mask: 400 M entries for this call.
#[test]
fn radius_far_beyond_the_raster_is_clamped_not_allocated() {
    let empty = BitMask::new(20, 20);
    let mut one = BitMask::new(20, 20);
    one.set(7, 13, true);
    for r in [10_000, usize::MAX] {
        for se in [Structuring::Square(r), Structuring::Disk(r)] {
            assert_eq!(dilate(&one, se), BitMask::full(20, 20), "{se:?}");
            assert_eq!(dilate(&empty, se), empty, "{se:?}");
            assert_eq!(erode(&BitMask::full(20, 20), se), empty, "{se:?}");
            assert_eq!(erode(&one, se), empty, "{se:?}");
        }
    }
}

// ------------------------------------------------------------------- median

#[test]
fn median_matches_select_nth_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(7);
    // 96x64 is above the inline threshold: bands meet inside the image.
    let shapes = [(1, 1), (1, 9), (9, 1), (2, 2), (7, 7), (101, 37), (96, 64)];
    for (w, h) in shapes {
        for levels in [1, 3, 1 << 20] {
            let img = random_image(&mut rng, w, h, levels);
            for radius in [1, 2, 3] {
                let what = format!("{w}x{h} levels {levels} radius {radius}");
                assert_same_bits(
                    &median_filter(&img, radius),
                    &median_ref(&img, radius),
                    &what,
                );
            }
        }
    }
}

#[test]
fn median_is_the_same_at_every_thread_count() {
    let mut rng = StdRng::seed_from_u64(8);
    let img = random_image(&mut rng, 96, 64, 5);
    for radius in [1, 2] {
        let want = median_ref(&img, radius);
        for threads in [1, 2, 8] {
            let _guard = zenesis_par::ThreadsGuard::new(threads);
            assert_same_bits(&median_filter(&img, radius), &want, "threads");
        }
    }
}

#[test]
#[should_panic(expected = "NaN in image")]
fn median_3x3_panics_on_nan() {
    let mut img = Image::<f32>::filled(9, 9, 0.5);
    img.set(4, 4, f32::NAN);
    median_filter(&img, 1);
}

#[test]
#[should_panic(expected = "NaN in image")]
fn median_5x5_panics_on_nan() {
    let mut img = Image::<f32>::filled(9, 9, 0.5);
    img.set(0, 8, f32::NAN);
    median_filter(&img, 2);
}

// ----------------------------------------------------- components, resizing

#[test]
fn component_masks_match_per_pixel_oracle() {
    let mut rng = StdRng::seed_from_u64(9);
    for (w, h) in [(1, 1), (65, 3), (101, 37)] {
        let m = random_mask(&mut rng, w, h, 0.45);
        let labels = label_components(&m, Connectivity::Eight);
        let mut kept_union = BitMask::new(w, h);
        for l in 1..=labels.count() as u32 {
            let want = component_mask_ref(&labels, l);
            assert_eq!(labels.component_mask(l), want, "{w}x{h} label {l}");
            if l % 3 == 0 {
                kept_union.or_with(&want);
            }
        }
        assert_eq!(labels.mask_where(|l| l != 0 && l % 3 == 0), kept_union);
        assert_eq!(labels.mask_where(|l| l != 0), m);
    }
}

#[test]
fn resize_nearest_matches_per_pixel_oracle() {
    let mut rng = StdRng::seed_from_u64(10);
    let shapes = [(1, 1), (32, 32), (7, 5), (101, 37)];
    let targets = [(1, 1), (256, 256), (3, 2), (50, 80), (101, 37), (13, 111)];
    for (w, h) in shapes {
        let img = random_image(&mut rng, w, h, 1 << 16);
        for (nw, nh) in targets {
            let what = format!("{w}x{h} -> {nw}x{nh}");
            assert_same_bits(
                &img.resize_nearest(nw, nh),
                &resize_nearest_ref(&img, nw, nh),
                &what,
            );
        }
    }
}

// ------------------------------------------------------- windowed statistics

/// `got()` at 1 and 2 threads, with SIMD dispatch and forced scalar, must
/// equal `want` bit for bit.
fn assert_same_bits_everywhere(got: impl Fn() -> Image<f32>, want: &Image<f32>, what: &str) {
    for threads in [1, 2] {
        let _threads = zenesis_par::ThreadsGuard::new(threads);
        assert_same_bits(&got(), want, &format!("{what} threads {threads}"));
        let _scalar = zenesis_tensor::ScalarGuard::new();
        assert_same_bits(&got(), want, &format!("{what} threads {threads} scalar"));
    }
}

#[test]
fn separable_convolution_matches_per_pixel_gather() {
    let mut rng = StdRng::seed_from_u64(11);
    for (w, h) in [(1, 1), (7, 3), (65, 37), (256, 37)] {
        let img = wild_image(&mut rng, w, h);
        for sigma in [0.05, 0.5, 1.0, 2.0] {
            let k = gaussian_kernel(sigma);
            let want = convolve_separable_ref(&img, &k);
            let what = format!("{w}x{h} sigma {sigma}");
            assert_same_bits_everywhere(|| gaussian_blur(&img, sigma), &want, &what);
            assert_same_bits(&convolve_separable(&img, &k), &want, &what);
        }
    }
}

#[test]
fn local_std_matches_box_blur_oracle() {
    let mut rng = StdRng::seed_from_u64(12);
    for w in STAT_WIDTHS {
        for h in STAT_HEIGHTS {
            let img = wild_image(&mut rng, w, h);
            for radius in [1, 2, 3] {
                let what = format!("local_std {w}x{h} radius {radius}");
                let want = local_std_ref(&img, radius);
                assert_same_bits_everywhere(|| local_std(&img, radius), &want, &what);
            }
        }
    }
}

#[test]
fn coherence_matches_full_raster_oracle() {
    let mut rng = StdRng::seed_from_u64(13);
    for w in STAT_WIDTHS {
        for h in STAT_HEIGHTS {
            let img = wild_image(&mut rng, w, h);
            for sigma in [0.05, 0.5, 1.0, 2.0] {
                let what = format!("coherence {w}x{h} sigma {sigma}");
                let want = orientation_coherence_ref(&img, sigma);
                assert_same_bits_everywhere(|| orientation_coherence(&img, sigma), &want, &what);
            }
        }
    }
}

// -------------------------------------------------------- raster statistics

/// A random raster drawn from `palette`: small palettes of signed zeros
/// make the extremes tie across lanes with different bit patterns.
fn palette_image(rng: &mut StdRng, w: usize, h: usize, palette: &[f32]) -> Image<f32> {
    let data = (0..w * h)
        .map(|_| palette[rng.gen_range(0..palette.len())])
        .collect();
    Image::from_vec(w, h, data).unwrap()
}

/// `min_max_mean` as bits, at 1 and 2 threads, with SIMD dispatch and
/// forced scalar; every run must agree.
fn min_max_mean_everywhere(img: &Image<f32>, what: &str) -> (u32, u32, u64) {
    let bits = || {
        let (lo, hi, mean) = img.min_max_mean();
        (lo.to_bits(), hi.to_bits(), mean.to_bits())
    };
    let want = bits();
    for threads in [1, 2] {
        let _threads = zenesis_par::ThreadsGuard::new(threads);
        assert_eq!(bits(), want, "{what} threads {threads}");
        let _scalar = zenesis_tensor::ScalarGuard::new();
        assert_eq!(bits(), want, "{what} threads {threads} scalar");
    }
    want
}

#[test]
fn min_max_mean_is_min_max_and_mean_norm_in_one_pass() {
    let mut rng = StdRng::seed_from_u64(14);
    let palettes: [&[f32]; 3] = [&[0.0, -0.0, 0.25, 1.0], &[-0.5, 0.0, -0.0], &[0.0, -0.0]];
    for w in STAT_WIDTHS {
        for h in STAT_HEIGHTS {
            let mut images = vec![wild_image(&mut rng, w, h), random_image(&mut rng, w, h, 3)];
            images.extend(palettes.map(|p| palette_image(&mut rng, w, h, p)));
            for (k, img) in images.iter().enumerate() {
                let what = format!("{w}x{h} image {k}");
                let (lo, hi, mean) = min_max_mean_everywhere(img, &what);
                let (want_lo, want_hi) = img.min_max();
                assert_eq!((lo, hi), (want_lo.to_bits(), want_hi.to_bits()), "{what}");
                // Reassociation error scales with the mean magnitude; on
                // non-negative rasters this is relative to `mean_norm`.
                let scale =
                    img.as_slice().iter().map(|v| v.abs() as f64).sum::<f64>() / img.len() as f64;
                let (mean, want) = (f64::from_bits(mean), img.mean_norm());
                assert!(
                    (mean - want).abs() <= 1e-12 * scale,
                    "{what}: {mean} vs {want}"
                );
            }
        }
    }
    // Integer samples: exact extremes, the mean of the canonical values.
    let bytes = Image::<u8>::from_fn(37, 5, |x, y| ((x * 7 + y * 31) % 251) as u8);
    let (lo, hi, mean) = bytes.min_max_mean();
    assert_eq!((lo, hi), bytes.min_max());
    assert!((mean - bytes.mean_norm()).abs() <= 1e-12 * bytes.mean_norm());
}

#[test]
fn min_max_mean_reads_non_finite_samples_like_min_max() {
    // 13 x 7 = 91 samples: five full lane blocks and an 11-sample tail.
    let clean = Image::<f32>::from_fn(13, 7, |x, y| ((x * 5 + y * 3) % 11) as f32 / 10.0);
    for (i, v) in [
        (0, f32::NAN),
        (45, f32::NAN),
        (90, f32::NAN),
        (0, f32::INFINITY),
        (86, f32::NEG_INFINITY),
    ] {
        let mut img = clean.clone();
        img.as_mut_slice()[i] = v;
        let (lo, hi, mean) = min_max_mean_everywhere(&img, &format!("{v} at {i}"));
        let (want_lo, want_hi) = img.min_max();
        assert_eq!(
            (lo, hi),
            (want_lo.to_bits(), want_hi.to_bits()),
            "{v} at {i}"
        );
        assert!(!f64::from_bits(mean).is_finite(), "{v} at {i}");
    }
    let (.., mean) = clean.min_max_mean();
    assert!(mean.is_finite());
}
