//! The FIB-SEM degradation model: shot noise, read noise, curtaining
//! stripes, defocus blur, contrast drift, and dynamic-range compression.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zenesis_image::filter::gaussian_blur;
use zenesis_image::Image;

/// Parameters of the degradation stack applied to a clean phantom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Additive Gaussian (read) noise sigma, in normalized intensity.
    pub(crate) gaussian_sigma: f32,
    /// Poisson-like shot-noise strength: per-pixel sigma scales with
    /// `sqrt(intensity)`; this is the multiplier.
    pub(crate) shot_strength: f32,
    /// Peak multiplicative amplitude of vertical curtaining stripes.
    pub(crate) stripe_amplitude: f32,
    /// Defocus blur sigma in pixels (0 disables).
    pub(crate) defocus_sigma: f32,
    /// Multiplicative contrast factor (1.0 = nominal; drifts per slice).
    pub(crate) contrast: f32,
    /// Additive brightness offset.
    pub(crate) brightness: f32,
    /// Fraction of the 16-bit range the data actually occupies — raw
    /// detectors rarely use more than a sliver (non-AI-readiness!).
    pub(crate) dynamic_range: f32,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            gaussian_sigma: 0.03,
            shot_strength: 0.05,
            stripe_amplitude: 0.08,
            defocus_sigma: 0.45,
            contrast: 1.0,
            brightness: 0.0,
            dynamic_range: 0.22,
        }
    }
}

/// Apply the degradation stack to a clean normalized image, returning raw
/// 16-bit "detector counts".
pub(crate) fn degrade(clean: &Image<f32>, cfg: &NoiseConfig, seed: u64) -> Image<u16> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (w, h) = clean.dims();
    // 1. Defocus blur.
    let blurred = if cfg.defocus_sigma > 0.05 {
        gaussian_blur(clean, cfg.defocus_sigma)
    } else {
        clean.clone()
    };
    // 2. Contrast/brightness drift.
    let adjusted =
        blurred.map(|v| ((v - 0.5) * cfg.contrast + 0.5 + cfg.brightness).clamp(0.0, 1.0));
    // 3. Curtaining stripes: smooth multiplicative column profile.
    let mut stripe = vec![1.0f32; w];
    if cfg.stripe_amplitude > 0.0 {
        let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        let f1: f32 = rng.gen_range(0.35..0.8);
        let f2: f32 = rng.gen_range(0.05..0.2);
        for (x, s) in stripe.iter_mut().enumerate() {
            let xf = x as f32;
            *s = 1.0
                + cfg.stripe_amplitude
                    * (0.6 * (xf * f1 + phase).sin() + 0.4 * (xf * f2 + phase * 0.7).sin());
        }
    }
    // 4. Shot + read noise, then 5. dynamic-range compression to u16.
    let mut out = vec![0u16; w * h];
    for y in 0..h {
        for x in 0..w {
            let v = adjusted.get(x, y) * stripe[x];
            let shot = cfg.shot_strength * v.max(0.0).sqrt();
            let sigma = (cfg.gaussian_sigma * cfg.gaussian_sigma + shot * shot).sqrt();
            let noisy = if sigma > 0.0 {
                // Box-Muller without allocating a Normal distribution.
                let u1: f32 = rng.gen_range(1e-7..1.0f32);
                let u2: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
                v + sigma * (-2.0 * u1.ln()).sqrt() * u2.cos()
            } else {
                v
            };
            let compressed = (noisy.clamp(0.0, 1.0)) * cfg.dynamic_range;
            out[y * w + x] = (compressed * u16::MAX as f32).round().clamp(0.0, 65535.0) as u16;
        }
    }
    Image::from_vec(w, h, out).expect("shape preserved")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No degradation at all.
    fn clean_config() -> NoiseConfig {
        NoiseConfig {
            gaussian_sigma: 0.0,
            shot_strength: 0.0,
            stripe_amplitude: 0.0,
            defocus_sigma: 0.0,
            contrast: 1.0,
            brightness: 0.0,
            dynamic_range: 1.0,
        }
    }

    fn clean() -> Image<f32> {
        Image::from_fn(48, 48, |x, _| if x < 24 { 0.2 } else { 0.7 })
    }

    #[test]
    fn degrade_deterministic_per_seed() {
        let cfg = NoiseConfig::default();
        let a = degrade(&clean(), &cfg, 1);
        let b = degrade(&clean(), &cfg, 1);
        let c = degrade(&clean(), &cfg, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clean_config_is_lossless_up_to_quantization() {
        let img = clean();
        let out = degrade(&img, &clean_config(), 3);
        for (raw, orig) in out.as_slice().iter().zip(img.as_slice()) {
            let back = *raw as f32 / u16::MAX as f32;
            assert!((back - orig).abs() < 1e-3);
        }
    }

    #[test]
    fn dynamic_range_compresses_counts() {
        let cfg = NoiseConfig {
            dynamic_range: 0.1,
            gaussian_sigma: 0.0,
            shot_strength: 0.0,
            stripe_amplitude: 0.0,
            defocus_sigma: 0.0,
            ..NoiseConfig::default()
        };
        let out = degrade(&clean(), &cfg, 5);
        let max = out.as_slice().iter().copied().max().unwrap();
        assert!(max <= (0.1 * u16::MAX as f32) as u16 + 2);
        // Non-AI-ready: occupied range is a sliver of 16 bits.
        assert!(max < 8000);
    }

    #[test]
    fn noise_raises_variance() {
        let flat = Image::<f32>::filled(48, 48, 0.5);
        let quiet = degrade(&flat, &clean_config(), 7);
        let noisy = degrade(&flat, &NoiseConfig::default(), 7);
        let var = |img: &Image<u16>| img.to_f32().variance_norm();
        assert!(var(&noisy) > var(&quiet) + 1e-9);
    }

    #[test]
    fn stripes_modulate_columns() {
        let flat = Image::<f32>::filled(64, 64, 0.5);
        let cfg = NoiseConfig {
            gaussian_sigma: 0.0,
            shot_strength: 0.0,
            stripe_amplitude: 0.3,
            defocus_sigma: 0.0,
            dynamic_range: 1.0,
            ..NoiseConfig::default()
        };
        let out = degrade(&flat, &cfg, 11).to_f32();
        // Column means differ substantially across x.
        let col = |x: usize| (0..64).map(|y| out.get(x, y) as f64).sum::<f64>() / 64.0;
        let cols: Vec<f64> = (0..64).map(col).collect();
        let lo = cols.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = cols.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo > 0.05, "stripe spread {}", hi - lo);
    }

    #[test]
    fn defocus_softens_edge() {
        let cfg = NoiseConfig {
            gaussian_sigma: 0.0,
            shot_strength: 0.0,
            stripe_amplitude: 0.0,
            defocus_sigma: 2.0,
            dynamic_range: 1.0,
            ..NoiseConfig::default()
        };
        let out = degrade(&clean(), &cfg, 13).to_f32();
        // Edge pixel is now intermediate.
        let v = out.get(24, 24);
        assert!(v > 0.25 && v < 0.65, "edge value {v}");
    }
}
