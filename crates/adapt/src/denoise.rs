//! Edge-preserving denoising.
//!
//! Low-dose FIB-SEM trades dose for damage: frames are shot-noise limited.
//! Plain smoothing would erase the faint needle edges the grounding model
//! needs, so the workhorses here are edge-preserving: bilateral filtering
//! and a patch-based non-local-means-lite. Median and Gaussian filters are
//! re-exported from `zenesis-image` for pipeline composition.

pub(crate) use zenesis_image::filter::{gaussian_blur, median_filter};

use zenesis_image::Image;
use zenesis_par::{par_map_range_min, SMALL_WORK_ELEMS};

/// Bilateral filter: Gaussian in space (sigma `sigma_s`, radius `3*sigma_s`)
/// and in intensity (sigma `sigma_r`).
pub(crate) fn bilateral(img: &Image<f32>, sigma_s: f32, sigma_r: f32) -> Image<f32> {
    assert!(sigma_s > 0.0 && sigma_r > 0.0);
    let (w, h) = img.dims();
    let radius = (2.0 * sigma_s).ceil() as isize;
    let s2 = 2.0 * sigma_s * sigma_s;
    let r2 = 2.0 * sigma_r * sigma_r;
    // Precompute the spatial kernel.
    let side = (2 * radius + 1) as usize;
    let mut spatial = vec![0.0f32; side * side];
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            spatial[((dy + radius) * (2 * radius + 1) + dx + radius) as usize] =
                (-((dx * dx + dy * dy) as f32) / s2).exp();
        }
    }
    let data = par_map_range_min(w * h, SMALL_WORK_ELEMS, |i| {
        let (x, y) = ((i % w) as isize, (i / w) as isize);
        let center = img.get_clamped(x, y);
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                let v = img.get_clamped(x + dx, y + dy);
                let dr = v - center;
                let wgt = spatial[((dy + radius) * (2 * radius + 1) + dx + radius) as usize]
                    * (-(dr * dr) / r2).exp();
                num += wgt * v;
                den += wgt;
            }
        }
        num / den
    });
    Image::from_vec(w, h, data).expect("shape preserved")
}

/// Non-local-means-lite: averages pixels whose 3x3 patches are similar,
/// searched in a `(2*search+1)^2` window. `strength` plays the role of h²
/// in classic NLM (larger = smoother).
pub(crate) fn nlm_lite(img: &Image<f32>, search: usize, strength: f32) -> Image<f32> {
    assert!(strength > 0.0);
    let (w, h) = img.dims();
    let s = search as isize;
    let patch_dist = |ax: isize, ay: isize, bx: isize, by: isize| -> f32 {
        let mut d = 0.0f32;
        for py in -1..=1isize {
            for px in -1..=1isize {
                let da = img.get_clamped(ax + px, ay + py);
                let db = img.get_clamped(bx + px, by + py);
                d += (da - db) * (da - db);
            }
        }
        d / 9.0
    };
    let data = par_map_range_min(w * h, SMALL_WORK_ELEMS, |i| {
        let (x, y) = ((i % w) as isize, (i / w) as isize);
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for dy in -s..=s {
            for dx in -s..=s {
                let d = patch_dist(x, y, x + dx, y + dy);
                let wgt = (-d / strength).exp();
                num += wgt * img.get_clamped(x + dx, y + dy);
                den += wgt;
            }
        }
        num / den
    });
    Image::from_vec(w, h, data).expect("shape preserved")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn add_noise(img: &Image<f32>, seed: u64, amp: f32) -> Image<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let noise: Vec<f32> = (0..img.len()).map(|_| rng.gen_range(-amp..amp)).collect();
        let data: Vec<f32> = img
            .as_slice()
            .iter()
            .zip(&noise)
            .map(|(v, n)| (v + n).clamp(0.0, 1.0))
            .collect();
        Image::from_vec(img.width(), img.height(), data).unwrap()
    }

    fn mse(a: &Image<f32>, b: &Image<f32>) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            / a.len() as f32
    }

    #[test]
    fn bilateral_reduces_noise() {
        let clean = Image::<f32>::from_fn(32, 32, |x, _| if x < 16 { 0.2 } else { 0.8 });
        let noisy = add_noise(&clean, 7, 0.1);
        let out = bilateral(&noisy, 1.5, 0.3);
        assert!(mse(&out, &clean) < mse(&noisy, &clean));
    }

    #[test]
    fn bilateral_preserves_strong_edge() {
        let clean = Image::<f32>::from_fn(32, 32, |x, _| if x < 16 { 0.1 } else { 0.9 });
        // Small range sigma: cross-edge pixels get ~zero weight.
        let out = bilateral(&clean, 2.0, 0.05);
        assert!((out.get(4, 16) - 0.1).abs() < 0.02);
        assert!((out.get(28, 16) - 0.9).abs() < 0.02);
        // Edge step magnitude retained.
        assert!(out.get(17, 16) - out.get(14, 16) > 0.6);
    }

    #[test]
    fn bilateral_constant_image_unchanged() {
        let img = Image::<f32>::filled(16, 16, 0.42);
        let out = bilateral(&img, 1.0, 0.1);
        for &v in out.as_slice() {
            assert!((v - 0.42).abs() < 1e-5);
        }
    }

    #[test]
    fn nlm_reduces_noise_preserves_mean() {
        let clean = Image::<f32>::from_fn(
            24,
            24,
            |x, y| if (x / 8 + y / 8) % 2 == 0 { 0.3 } else { 0.7 },
        );
        let noisy = add_noise(&clean, 11, 0.08);
        let out = nlm_lite(&noisy, 3, 0.02);
        assert!(mse(&out, &clean) < mse(&noisy, &clean));
        assert!((out.mean_norm() - noisy.mean_norm()).abs() < 0.02);
    }

    #[test]
    fn denoisers_output_finite_in_range() {
        let clean = Image::<f32>::from_fn(32, 32, |x, _| if x < 16 { 0.2 } else { 0.8 });
        let noisy = add_noise(&clean, 3, 0.2);
        for out in [bilateral(&noisy, 1.0, 0.2), nlm_lite(&noisy, 2, 0.05)] {
            assert!(out
                .as_slice()
                .iter()
                .all(|v| v.is_finite() && (-0.01..=1.01).contains(v)));
        }
    }
}
