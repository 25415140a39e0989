//! FIB curtaining suppression.
//!
//! Ion milling leaves vertical "curtains": multiplicative intensity bands
//! constant along y, varying along x. The classic fix is column statistics:
//! estimate each column's bias relative to a smooth baseline and divide it
//! out. This is a pure 1-D operation and cannot blur real 2-D structure.

use zenesis_image::Image;

/// Remove vertical stripes by normalizing column means against a smoothed
/// column-mean profile. `smooth_radius` controls the baseline window: it
/// must exceed the stripe width but stay below real structure scale.
pub(crate) fn destripe_columns(img: &Image<f32>, smooth_radius: usize) -> Image<f32> {
    let (w, h) = img.dims();
    // Column means.
    let mut col_mean = vec![0.0f64; w];
    for y in 0..h {
        let row = img.row(y);
        for (x, &v) in row.iter().enumerate() {
            col_mean[x] += v as f64;
        }
    }
    for m in col_mean.iter_mut() {
        *m /= h as f64;
    }
    // Smoothed baseline (moving average with replicate borders).
    let r = smooth_radius as isize;
    let baseline: Vec<f64> = (0..w as isize)
        .map(|x| {
            let mut s = 0.0;
            for dx in -r..=r {
                let xi = (x + dx).clamp(0, w as isize - 1) as usize;
                s += col_mean[xi];
            }
            s / (2 * r + 1) as f64
        })
        .collect();
    // Multiplicative correction per column, clamped to avoid blow-ups in
    // nearly-black columns.
    let gain: Vec<f32> = col_mean
        .iter()
        .zip(&baseline)
        .map(|(&m, &b)| {
            if m < 1e-6 {
                1.0
            } else {
                ((b / m) as f32).clamp(0.25, 4.0)
            }
        })
        .collect();
    img.map_indexed(|x, _, v| (v * gain[x]).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stripe severity, the measure these tests judge destriping by: standard
    /// deviation of column means after removing the smooth baseline. Near
    /// zero for stripe-free images.
    fn stripe_severity(img: &Image<f32>, smooth_radius: usize) -> f64 {
        let (w, h) = img.dims();
        let mut col_mean = vec![0.0f64; w];
        for y in 0..h {
            for (x, &v) in img.row(y).iter().enumerate() {
                col_mean[x] += v as f64;
            }
        }
        for m in col_mean.iter_mut() {
            *m /= h as f64;
        }
        let r = smooth_radius as isize;
        let mut var = 0.0;
        for x in 0..w as isize {
            let mut s = 0.0;
            for dx in -r..=r {
                let xi = (x + dx).clamp(0, w as isize - 1) as usize;
                s += col_mean[xi];
            }
            let base = s / (2 * r + 1) as f64;
            let d = col_mean[x as usize] - base;
            var += d * d;
        }
        (var / w as f64).sqrt()
    }

    fn striped(amp: f32) -> Image<f32> {
        // Smooth scene x stripe pattern.
        Image::from_fn(64, 48, |x, y| {
            let scene = 0.5 + 0.2 * ((y as f32 / 47.0) - 0.5);
            let stripe = 1.0 + amp * ((x as f32 * 1.3).sin());
            (scene * stripe).clamp(0.0, 1.0)
        })
    }

    #[test]
    fn destriping_reduces_severity() {
        let img = striped(0.25);
        let before = stripe_severity(&img, 8);
        let out = destripe_columns(&img, 8);
        let after = stripe_severity(&out, 8);
        assert!(after < before * 0.3, "before {before}, after {after}");
    }

    #[test]
    fn stripe_free_image_nearly_unchanged() {
        let img = Image::<f32>::from_fn(64, 48, |_, y| 0.3 + 0.4 * (y as f32 / 47.0));
        let out = destripe_columns(&img, 8);
        let mut max_diff = 0.0f32;
        for (a, b) in out.as_slice().iter().zip(img.as_slice()) {
            max_diff = max_diff.max((a - b).abs());
        }
        assert!(max_diff < 0.01, "max diff {max_diff}");
    }

    #[test]
    fn preserves_horizontal_structure() {
        // A bright horizontal band must survive destriping.
        let img = Image::<f32>::from_fn(64, 48, |x, y| {
            let band = if (20..28).contains(&y) { 0.8 } else { 0.3 };
            let stripe = 1.0 + 0.2 * ((x as f32 * 0.9).sin());
            (band * stripe).clamp(0.0, 1.0)
        });
        let out = destripe_columns(&img, 8);
        let band_mean: f32 = (0..64).map(|x| out.get(x, 24)).sum::<f32>() / 64.0;
        let bg_mean: f32 = (0..64).map(|x| out.get(x, 5)).sum::<f32>() / 64.0;
        assert!(band_mean > bg_mean + 0.3);
    }

    #[test]
    fn black_columns_do_not_explode() {
        let img = Image::<f32>::from_fn(32, 32, |x, _| if x == 10 { 0.0 } else { 0.5 });
        let out = destripe_columns(&img, 4);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(out.get(10, 16), 0.0);
    }

    #[test]
    fn severity_zero_for_flat() {
        let img = Image::<f32>::filled(32, 32, 0.6);
        assert!(stripe_severity(&img, 4) < 1e-12);
    }
}
