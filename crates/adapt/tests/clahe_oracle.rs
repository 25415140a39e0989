//! Oracle test for the row-level CLAHE.
//!
//! `clahe_ref` is the per-pixel body CLAHE replaced: one `Vec<f64>` CDF
//! per tile and a closure per output pixel that recomputes its tile
//! coordinates. The kernel must equal it exactly (`to_bits`) on shapes
//! where tiles are empty, one pixel wide or ragged at the far edge, on
//! samples outside `[0, 1]` and on signed zeros, at 1 and 2 threads.
//!
//! CI runs this file twice, portable and `-Ctarget-cpu=native`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zenesis_adapt::equalize::clahe;
use zenesis_image::Image;

const WIDTHS: [usize; 8] = [1, 2, 7, 63, 64, 65, 101, 256];
const HEIGHTS: [usize; 4] = [1, 3, 37, 140];

fn clahe_ref(img: &Image<f32>, tiles: usize, clip_limit: f64) -> Image<f32> {
    let (w, h) = img.dims();
    let bins = 256usize;
    let tile_w = w.div_ceil(tiles);
    let tile_h = h.div_ceil(tiles);
    let cdfs: Vec<Vec<f64>> = (0..tiles * tiles)
        .map(|t| {
            let (tx, ty) = (t % tiles, t / tiles);
            let x0 = tx * tile_w;
            let y0 = ty * tile_h;
            let x1 = (x0 + tile_w).min(w);
            let y1 = (y0 + tile_h).min(h);
            let mut counts = vec![0f64; bins];
            let mut total = 0f64;
            for y in y0..y1 {
                for x in x0..x1 {
                    let v = img.get(x, y).clamp(0.0, 1.0);
                    let b = ((v * bins as f32) as usize).min(bins - 1);
                    counts[b] += 1.0;
                    total += 1.0;
                }
            }
            if total == 0.0 {
                return vec![0.0; bins];
            }
            let clip = clip_limit * total / bins as f64;
            let mut excess = 0.0;
            for c in counts.iter_mut() {
                if *c > clip {
                    excess += *c - clip;
                    *c = clip;
                }
            }
            let bonus = excess / bins as f64;
            for c in counts.iter_mut() {
                *c += bonus;
            }
            let mut acc = 0.0;
            counts
                .iter()
                .map(|&c| {
                    acc += c;
                    acc / total
                })
                .collect()
        })
        .collect();
    img.map_indexed(|x, y, v| {
        let b = ((v.clamp(0.0, 1.0) * bins as f32) as usize).min(bins - 1);
        let fx = (x as f64 + 0.5) / tile_w as f64 - 0.5;
        let fy = (y as f64 + 0.5) / tile_h as f64 - 0.5;
        let tx0 = fx.floor().clamp(0.0, (tiles - 1) as f64) as usize;
        let ty0 = fy.floor().clamp(0.0, (tiles - 1) as f64) as usize;
        let tx1 = (tx0 + 1).min(tiles - 1);
        let ty1 = (ty0 + 1).min(tiles - 1);
        let ax = (fx - tx0 as f64).clamp(0.0, 1.0);
        let ay = (fy - ty0 as f64).clamp(0.0, 1.0);
        let c00 = cdfs[ty0 * tiles + tx0][b];
        let c10 = cdfs[ty0 * tiles + tx1][b];
        let c01 = cdfs[ty1 * tiles + tx0][b];
        let c11 = cdfs[ty1 * tiles + tx1][b];
        let top = c00 * (1.0 - ax) + c10 * ax;
        let bot = c01 * (1.0 - ax) + c11 * ax;
        ((top * (1.0 - ay) + bot * ay) as f32).clamp(0.0, 1.0)
    })
}

/// Samples over `[-0.5, 1.5]` with exact `±0.0`, `1.0` and bin edges
/// mixed in; a small palette (`levels`) piles counts into few bins so
/// the clip and redistribution both engage.
fn wild_image(rng: &mut StdRng, w: usize, h: usize, levels: Option<u32>) -> Image<f32> {
    let data = (0..w * h)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => 128.0 / 256.0,
            _ => match levels {
                Some(n) => rng.gen_range(0..n) as f32 / n as f32,
                None => rng.gen_range(-0.5f32..1.5),
            },
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

#[test]
fn clahe_matches_per_pixel_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(1);
    for w in WIDTHS {
        for h in HEIGHTS {
            for levels in [None, Some(5)] {
                let img = wild_image(&mut rng, w, h, levels);
                for tiles in 1..=5 {
                    for clip in [1.0, 2.2, 40.0] {
                        let want = clahe_ref(&img, tiles, clip);
                        for threads in [1, 2] {
                            let _guard = zenesis_par::ThreadsGuard::new(threads);
                            let what = format!(
                                "{w}x{h} levels {levels:?} tiles {tiles} clip {clip} threads {threads}"
                            );
                            assert_same_bits(&clahe(&img, tiles, clip), &want, &what);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn clahe_of_a_constant_image_matches_oracle() {
    for v in [-0.0, 0.0, 0.3, 1.0, 7.0] {
        let img = Image::<f32>::filled(65, 37, v);
        for tiles in 1..=5 {
            assert_same_bits(
                &clahe(&img, tiles, 2.0),
                &clahe_ref(&img, tiles, 2.0),
                "constant",
            );
        }
    }
}
