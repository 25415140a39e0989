//! Background flattening operators for scan-probe and diffraction data.
//!
//! * `flatten_plane` — least-squares plane subtraction, the standard
//!   first step for STM/AFM topographs (piezo creep and sample tilt put a
//!   global plane under every frame).
//! * `highpass` — subtract a large-scale Gaussian background (the
//!   "rolling-ball" style background removal ImageJ users reach for),
//!   which strips beam-center glow and slow illumination fields while
//!   preserving compact structure.

use zenesis_image::filter::gaussian_blur;
use zenesis_image::Image;

/// Fit `z = a x + b y + c` by least squares and subtract it, re-centering
/// the result at 0.5. Output clamped to `[0, 1]`.
pub(crate) fn flatten_plane(img: &Image<f32>) -> Image<f32> {
    let (w, h) = img.dims();
    let n = (w * h) as f64;
    // Least squares against centered coordinates so the normal matrix is
    // diagonal-ish and well conditioned.
    let cx = (w as f64 - 1.0) / 2.0;
    let cy = (h as f64 - 1.0) / 2.0;
    let mut sxx = 0.0f64;
    let mut syy = 0.0f64;
    let mut sxz = 0.0f64;
    let mut syz = 0.0f64;
    let mut sz = 0.0f64;
    for y in 0..h {
        for x in 0..w {
            let xv = x as f64 - cx;
            let yv = y as f64 - cy;
            let z = img.get(x, y) as f64;
            sxx += xv * xv;
            syy += yv * yv;
            sxz += xv * z;
            syz += yv * z;
            sz += z;
        }
    }
    let a = if sxx > 0.0 { sxz / sxx } else { 0.0 };
    let b = if syy > 0.0 { syz / syy } else { 0.0 };
    let mean = sz / n;
    img.map_indexed(|x, y, v| {
        let plane = a * (x as f64 - cx) + b * (y as f64 - cy) + mean;
        ((v as f64 - plane + 0.5) as f32).clamp(0.0, 1.0)
    })
}

/// Subtract a sigma-scale Gaussian background and re-center at 0.5
/// (clamped). Structure smaller than ~sigma survives; slow fields vanish.
pub(crate) fn highpass(img: &Image<f32>, sigma: f32) -> Image<f32> {
    assert!(sigma > 0.0);
    let bg = gaussian_blur(img, sigma);
    let (w, h) = img.dims();
    let data: Vec<f32> = img
        .as_slice()
        .iter()
        .zip(bg.as_slice())
        .map(|(v, b)| (v - b + 0.5).clamp(0.0, 1.0))
        .collect();
    Image::from_vec(w, h, data).expect("shape preserved")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_is_removed_exactly() {
        let img = Image::from_fn(64, 64, |x, y| 0.2 + 0.004 * x as f32 + 0.002 * y as f32);
        let out = flatten_plane(&img);
        // A pure plane flattens to a constant 0.5.
        for &v in out.as_slice() {
            assert!((v - 0.5).abs() < 1e-4, "residual {v}");
        }
    }

    #[test]
    fn bumps_survive_flattening() {
        let img = Image::from_fn(64, 64, |x, y| {
            let plane = 0.2 + 0.005 * x as f32;
            let dx = x as f32 - 32.0;
            let dy = y as f32 - 32.0;
            plane + 0.3 * (-(dx * dx + dy * dy) / 25.0).exp()
        });
        let out = flatten_plane(&img);
        // Bump center stands clearly above the flattened terrace.
        assert!(out.get(32, 32) > out.get(5, 32) + 0.2);
        // And the terrace is level: both ends similar.
        assert!((out.get(5, 32) - out.get(60, 32)).abs() < 0.05);
    }

    #[test]
    fn flatten_constant_image_is_half() {
        let img = Image::<f32>::filled(16, 16, 0.73);
        let out = flatten_plane(&img);
        for &v in out.as_slice() {
            assert!((v - 0.5).abs() < 1e-5);
        }
    }

    #[test]
    fn highpass_removes_slow_field_keeps_spot() {
        let img = Image::from_fn(96, 96, |x, y| {
            let glow =
                0.4 * (-((x as f32 - 48.0).powi(2) + (y as f32 - 48.0).powi(2)) / 2500.0).exp();
            let dx = x as f32 - 70.0;
            let dy = y as f32 - 30.0;
            let spot = 0.4 * (-(dx * dx + dy * dy) / 6.0).exp();
            0.1 + glow + spot
        });
        let out = highpass(&img, 8.0);
        // The glow center is no longer elevated relative to the rim...
        assert!((out.get(48, 48) - out.get(90, 90)).abs() < 0.1);
        // ...but the sharp spot still is.
        assert!(out.get(70, 30) > out.get(90, 90) + 0.2);
    }

    #[test]
    fn highpass_output_in_range() {
        let img = Image::from_fn(32, 32, |x, y| ((x * 97 + y * 31) % 100) as f32 / 99.0);
        let out = highpass(&img, 3.0);
        assert!(out.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }
}
