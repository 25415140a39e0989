//! Histogram equalization: global and contrast-limited adaptive (CLAHE).
//!
//! Equalization is what makes the near-invisible crystalline needles in
//! low-dose FIB-SEM visually (and feature-wise) separable from background
//! without per-dataset tuning.

use zenesis_image::histogram::Histogram;
use zenesis_image::Image;
use zenesis_par::{par_rows, par_rows_min, SMALL_WORK_ELEMS};

/// Global histogram equalization via the CDF remap.
pub(crate) fn equalize(img: &Image<f32>) -> Image<f32> {
    let bins = 1024;
    let hist = Histogram::of_image(img, bins);
    let cdf = hist.cdf();
    // Normalize so the lowest occupied bin maps to 0.
    let cdf_min = cdf.iter().copied().find(|&c| c > 0.0).unwrap_or(0.0);
    let denom = (1.0 - cdf_min).max(1e-12);
    img.map(move |v| {
        let b = ((v.clamp(0.0, 1.0) * bins as f32) as usize).min(bins - 1);
        (((cdf[b] - cdf_min) / denom) as f32).clamp(0.0, 1.0)
    })
}

/// Histogram bins of a CLAHE tile.
pub(crate) const BINS: usize = 256;

/// The bin of a sample: clamp to `[0, 1]`, scale, truncate.
#[inline(always)]
fn bin_of(v: f32) -> usize {
    ((v.clamp(0.0, 1.0) * BINS as f32) as usize).min(BINS - 1)
}

/// Clipped, redistributed, normalized CDF of the tile whose pixels are
/// `x0..x1` of rows `y0..y1`; all zeros for an empty tile.
fn tile_cdf(
    img: &Image<f32>,
    (x0, x1): (usize, usize),
    (y0, y1): (usize, usize),
    clip_limit: f64,
    cdf: &mut [f64],
) {
    if x0 >= x1 || y0 >= y1 {
        cdf.fill(0.0);
        return;
    }
    let mut counts = [0u32; BINS];
    for y in y0..y1 {
        for &v in &img.row(y)[x0..x1] {
            counts[bin_of(v)] += 1;
        }
    }
    let total = ((x1 - x0) * (y1 - y0)) as f64;
    // Clip and redistribute.
    let clip = clip_limit * total / BINS as f64;
    let mut excess = 0.0;
    for (c, &n) in cdf.iter_mut().zip(&counts) {
        *c = n as f64;
        if *c > clip {
            excess += *c - clip;
            *c = clip;
        }
    }
    let bonus = excess / BINS as f64;
    // CDF normalized to [0, 1].
    let mut acc = 0.0;
    for c in cdf.iter_mut() {
        acc += *c + bonus;
        *c = acc / total;
    }
}

/// Where a pixel sits between tile centers along one axis: the lower and
/// upper tile and the weight of the upper one.
#[inline(always)]
fn tile_span(i: usize, tile: usize, tiles: usize) -> (usize, usize, f64) {
    let f = (i as f64 + 0.5) / tile as f64 - 0.5;
    let t0 = f.floor().clamp(0.0, (tiles - 1) as f64) as usize;
    let t1 = (t0 + 1).min(tiles - 1);
    (t0, t1, (f - t0 as f64).clamp(0.0, 1.0))
}

/// Contrast-limited adaptive histogram equalization.
///
/// The image is split into a `tiles x tiles` grid; each tile's histogram is
/// clipped at `clip_limit` times the uniform level (excess redistributed),
/// then pixels are remapped by bilinear interpolation between the four
/// surrounding tile CDFs — the standard CLAHE construction.
///
/// The tile CDFs live in one flat table. The remap takes its column
/// terms from a per-column table and its row terms once per output row,
/// so a pixel costs four lookups and the bilinear blend. The blend's f64
/// expressions and their order are fixed: `tests/clahe_oracle.rs` holds
/// the output to the per-pixel construction bit for bit.
pub fn clahe(img: &Image<f32>, tiles: usize, clip_limit: f64) -> Image<f32> {
    assert!(tiles >= 1, "need at least one tile");
    assert!(
        clip_limit >= 1.0,
        "clip limit is a multiple of uniform level"
    );
    let (w, h) = img.dims();
    let tile_w = w.div_ceil(tiles);
    let tile_h = h.div_ceil(tiles);
    // Per-tile clipped CDFs, one `BINS`-long row per tile. A tile costs
    // its area, so the grain rule counts pixels, not tiles.
    let mut cdfs = vec![0f64; tiles * tiles * BINS];
    let min_tiles = SMALL_WORK_ELEMS.div_ceil(tile_w * tile_h);
    par_rows_min(&mut cdfs, BINS, min_tiles * BINS, |t0, band| {
        for (t, cdf) in (t0..).zip(band.chunks_exact_mut(BINS)) {
            let (x0, y0) = ((t % tiles) * tile_w, (t / tiles) * tile_h);
            let xs = (x0, (x0 + tile_w).min(w));
            let ys = (y0, (y0 + tile_h).min(h));
            tile_cdf(img, xs, ys, clip_limit, cdf);
        }
    });
    // Remap with bilinear interpolation between tile centers.
    let cols: Vec<(usize, usize, f64)> = (0..w)
        .map(|x| {
            let (tx0, tx1, ax) = tile_span(x, tile_w, tiles);
            (tx0 * BINS, tx1 * BINS, ax)
        })
        .collect();
    let stride = tiles * BINS;
    let mut out = vec![0f32; w * h];
    par_rows(&mut out, w, |y0, band| {
        for (y, orow) in (y0..).zip(band.chunks_mut(w)) {
            let (ty0, ty1, ay) = tile_span(y, tile_h, tiles);
            let top = &cdfs[ty0 * stride..][..stride];
            let bot = &cdfs[ty1 * stride..][..stride];
            for ((o, &v), &(c0, c1, ax)) in orow.iter_mut().zip(img.row(y)).zip(&cols) {
                let b = bin_of(v);
                let upper = top[c0 + b] * (1.0 - ax) + top[c1 + b] * ax;
                let lower = bot[c0 + b] * (1.0 - ax) + bot[c1 + b] * ax;
                *o = ((upper * (1.0 - ay) + lower * ay) as f32).clamp(0.0, 1.0);
            }
        }
    });
    Image::from_vec(w, h, out).expect("shape preserved")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equalize_flattens_a_ramp() {
        let img = Image::<f32>::from_fn(64, 64, |x, _| 0.2 + 0.1 * (x as f32 / 63.0));
        let out = equalize(&img);
        let (lo, hi) = out.min_max();
        assert!(lo < 0.05);
        assert!(hi > 0.95);
    }

    #[test]
    fn equalize_monotone_nondecreasing() {
        let img = Image::<f32>::from_fn(32, 32, |x, y| ((x * 7 + y * 13) % 100) as f32 / 100.0);
        let out = equalize(&img);
        let mut pairs: Vec<(f32, f32)> = img
            .as_slice()
            .iter()
            .copied()
            .zip(out.as_slice().iter().copied())
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in pairs.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-6, "equalization must be monotone");
        }
    }

    #[test]
    fn equalize_constant_image_safe() {
        let img = Image::<f32>::filled(8, 8, 0.3);
        let out = equalize(&img);
        // All pixels map to the same value; no NaN/panic.
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(out.variance_norm(), 0.0);
    }

    #[test]
    fn clahe_improves_local_contrast() {
        // Two halves with different baselines and tiny local variation:
        // global equalization spends range on the split; CLAHE recovers
        // local texture in both halves.
        let img = Image::<f32>::from_fn(64, 64, |x, y| {
            let base = if y < 32 { 0.2 } else { 0.7 };
            base + 0.01 * ((x % 4) as f32)
        });
        let out = clahe(&img, 4, 4.0);
        // Local contrast within the top half.
        let local_in = (img.get(2, 10) - img.get(0, 10)).abs();
        let local_out = (out.get(2, 10) - out.get(0, 10)).abs();
        assert!(local_out > local_in, "CLAHE should amplify local contrast");
        assert!(out.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn clahe_single_tile_close_to_global() {
        let img = Image::<f32>::from_fn(32, 32, |x, y| ((x + y) % 17) as f32 / 17.0);
        let a = clahe(&img, 1, 1000.0); // effectively unclipped
        let b = equalize(&img);
        // Same construction up to binning differences.
        let mut max_diff = 0.0f32;
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            max_diff = max_diff.max((x - y).abs());
        }
        assert!(max_diff < 0.1, "max diff {max_diff}");
    }

    #[test]
    fn clahe_clip_limits_amplification() {
        // Mostly flat image with a weak gradient: unclipped AHE would
        // amplify noise wildly; a tight clip keeps output near input.
        let img = Image::<f32>::from_fn(32, 32, |x, _| 0.5 + 0.001 * (x as f32));
        let tight = clahe(&img, 2, 1.0);
        let loose = clahe(&img, 2, 40.0);
        let spread = |im: &Image<f32>| {
            let (lo, hi) = im.min_max();
            hi - lo
        };
        assert!(spread(&tight) <= spread(&loose) + 1e-6);
    }

    #[test]
    fn clahe_output_in_range_on_random() {
        let img =
            Image::<f32>::from_fn(40, 40, |x, y| ((x * 9901 + y * 7879) % 1000) as f32 / 999.0);
        let out = clahe(&img, 3, 2.0);
        assert!(out.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }
}
