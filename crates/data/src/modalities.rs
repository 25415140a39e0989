//! Additional imaging modalities (paper §Conclusion, future work 1):
//! "extend Zenesis to support additional imaging modalities such as X-ray
//! diffraction (XRD), scanning tunneling microscopy (STM), and
//! energy-dispersive X-ray spectroscopy (EDX)".
//!
//! Each generator produces raw data with that modality's signature
//! non-AI-readiness, plus exact ground truth — so the same zero-shot
//! pipeline can be validated across domains without any retuning:
//!
//! * **STM**: atomic lattice corrugation with adsorbates (bright
//!   protrusions) — the target — and vacancy defects; piezo creep tilts
//!   the background plane.
//! * **EDX**: an elemental count map — extremely sparse Poisson counts
//!   (single-digit mean), bright where the element's grains sit.
//! * **XRD**: a 2-D detector frame — Debye-Scherrer ring segments and
//!   sharp diffraction spots (the target) over beam-center glow.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zenesis_image::{BitMask, Image};

use crate::value_noise::{fbm, ValueNoise};

/// Supported extension modalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Scanning tunneling microscopy topograph.
    Stm,
    /// Energy-dispersive X-ray elemental count map.
    Edx,
    /// X-ray diffraction detector frame.
    Xrd,
}

impl Modality {
    /// Group label for evaluation tables.
    pub fn label(&self) -> &'static str {
        match self {
            Modality::Stm => "STM",
            Modality::Edx => "EDX",
            Modality::Xrd => "XRD",
        }
    }

    /// The adaptation preset a domain user would pick in the no-code UI
    /// (the readiness recipe, not a model retraining).
    pub fn adapt_preset_name(&self) -> &'static str {
        match self {
            Modality::Stm => "stm",
            Modality::Edx => "minimal",
            Modality::Xrd => "xrd",
        }
    }

    /// The natural-language prompt a domain user would type.
    pub fn default_prompt(&self) -> &'static str {
        match self {
            Modality::Stm => "bright adsorbate particles",
            Modality::Edx => "bright grains",
            Modality::Xrd => "bright diffraction spots",
        }
    }
}

/// A generated modality frame: raw counts plus ground truth of the
/// structure the default prompt asks for.
#[derive(Debug, Clone)]
pub struct ModalityFrame {
    pub raw: Image<u16>,
    pub truth: BitMask,
}

/// Generate one frame of the given modality at `side x side`.
pub fn generate_modality(modality: Modality, side: usize, seed: u64) -> ModalityFrame {
    match modality {
        Modality::Stm => stm(side, seed),
        Modality::Edx => edx(side, seed),
        Modality::Xrd => xrd(side, seed),
    }
}

fn to_u16(clean: &Image<f32>, dynamic_range: f32) -> Image<u16> {
    clean.map(|v| ((v.clamp(0.0, 1.0) * dynamic_range) * u16::MAX as f32).round() as u16)
}

// ----------------------------------------------------------------- STM --

fn stm(side: usize, seed: u64) -> ModalityFrame {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57A1);
    let n_ads = rng.gen_range(6..12);
    let ads: Vec<(f32, f32, f32)> = (0..n_ads)
        .map(|_| {
            (
                rng.gen_range(0.08..0.92) * side as f32,
                rng.gen_range(0.08..0.92) * side as f32,
                rng.gen_range(2.5..5.0),
            )
        })
        .collect();
    let lattice_k = rng.gen_range(0.9..1.3f32);
    let tilt_x = rng.gen_range(-0.15..0.15f32);
    let tilt_y = rng.gen_range(-0.15..0.15f32);
    let vn = ValueNoise::new(seed ^ 0x57A2);
    let clean = Image::from_fn(side, side, |x, y| {
        let (xf, yf) = (x as f32, y as f32);
        // Atomic corrugation: two interfering plane waves.
        let lattice =
            0.05 * ((lattice_k * xf).sin() + (lattice_k * 0.5 * xf + lattice_k * 0.87 * yf).sin());
        // Piezo creep: smooth plane tilt + slow drift.
        let plane = 0.25
            + tilt_x * xf / side as f32
            + tilt_y * yf / side as f32
            + 0.05 * (fbm(&vn, xf, yf, 0.01, 2) - 0.5);
        // Adsorbates: tall smooth protrusions (the target).
        let mut prot: f32 = 0.0;
        for &(ax, ay, r) in &ads {
            let d2 = (xf - ax) * (xf - ax) + (yf - ay) * (yf - ay);
            prot = prot.max(0.5 * (-d2 / (r * r)).exp());
        }
        (plane + lattice + prot).clamp(0.0, 1.0)
    });
    let truth = BitMask::from_fn(side, side, |x, y| {
        let (xf, yf) = (x as f32, y as f32);
        ads.iter().any(|&(ax, ay, r)| {
            let d2 = (xf - ax) * (xf - ax) + (yf - ay) * (yf - ay);
            (-d2 / (r * r)).exp() > 0.35
        })
    });
    ModalityFrame {
        raw: to_u16(&clean, 0.35),
        truth,
    }
}

// ----------------------------------------------------------------- EDX --

fn edx(side: usize, seed: u64) -> ModalityFrame {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED01);
    let n_grains = rng.gen_range(3..6);
    let grains: Vec<(f32, f32, f32)> = (0..n_grains)
        .map(|_| {
            (
                rng.gen_range(0.15..0.85) * side as f32,
                rng.gen_range(0.15..0.85) * side as f32,
                rng.gen_range(0.08..0.16) * side as f32,
            )
        })
        .collect();
    // Expected counts: background ~0.8, grains ~6 (sparse Poisson).
    let mut raw = Image::<u16>::zeros(side, side);
    let mut truth = BitMask::new(side, side);
    for y in 0..side {
        for x in 0..side {
            let (xf, yf) = (x as f32, y as f32);
            let mut in_grain = false;
            let mut lambda = 0.8f32;
            for &(gx, gy, r) in &grains {
                let d2 = (xf - gx) * (xf - gx) + (yf - gy) * (yf - gy);
                if d2 < r * r {
                    in_grain = true;
                    lambda = 6.0;
                    break;
                }
            }
            // Knuth-style Poisson sampling (small lambda).
            let l = (-lambda).exp();
            let mut k = 0u32;
            let mut p = 1.0f32;
            loop {
                p *= rng.gen_range(0.0..1.0f32);
                if p <= l || k > 60 {
                    break;
                }
                k += 1;
            }
            // Counts land in the lowest few codes of the u16 range — the
            // most extreme non-AI-readiness in the suite.
            raw.set(x, y, (k as u16).min(40) * 64);
            if in_grain {
                truth.set(x, y, true);
            }
        }
    }
    ModalityFrame { raw, truth }
}

// ----------------------------------------------------------------- XRD --

fn xrd(side: usize, seed: u64) -> ModalityFrame {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0D1F);
    let c = side as f32 / 2.0;
    let rings: Vec<(f32, f32)> = (0..3)
        .map(|i| {
            (
                (0.18 + 0.14 * i as f32) * side as f32 + rng.gen_range(-2.0..2.0),
                rng.gen_range(0.010..0.025), // ring intensity
            )
        })
        .collect();
    let n_spots = rng.gen_range(8..16);
    let spots: Vec<(f32, f32, f32)> = (0..n_spots)
        .map(|_| {
            // Spots sit on rings at random azimuth.
            let (ring_r, _) = rings[rng.gen_range(0..rings.len())];
            let theta = rng.gen_range(0.0..std::f32::consts::TAU);
            (
                c + ring_r * theta.cos(),
                c + ring_r * theta.sin(),
                rng.gen_range(1.6..3.0),
            )
        })
        .filter(|&(x, y, _)| x > 2.0 && y > 2.0 && x < side as f32 - 3.0 && y < side as f32 - 3.0)
        .collect();
    let clean = Image::from_fn(side, side, |x, y| {
        let (xf, yf) = (x as f32, y as f32);
        let r = ((xf - c) * (xf - c) + (yf - c) * (yf - c)).sqrt();
        // Beam-center glow.
        let glow = 0.30 * (-(r * r) / (0.06 * (side * side) as f32)).exp();
        // Powder rings.
        let mut ring_v = 0.0f32;
        for &(ring_r, amp) in &rings {
            let d = r - ring_r;
            ring_v += amp / (1.0 + d * d * 0.4) * 12.0;
        }
        // Diffraction spots (the target).
        let mut spot_v: f32 = 0.0;
        for &(sx, sy, sr) in &spots {
            let d2 = (xf - sx) * (xf - sx) + (yf - sy) * (yf - sy);
            spot_v = spot_v.max(0.6 * (-d2 / (sr * sr)).exp());
        }
        (0.02 + glow + ring_v + spot_v).clamp(0.0, 1.0)
    });
    let truth = BitMask::from_fn(side, side, |x, y| {
        let (xf, yf) = (x as f32, y as f32);
        spots.iter().any(|&(sx, sy, sr)| {
            let d2 = (xf - sx) * (xf - sx) + (yf - sy) * (yf - sy);
            (-d2 / (sr * sr)).exp() > 0.35
        })
    });
    ModalityFrame {
        raw: to_u16(&clean, 0.5),
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modalities_generate() {
        for m in [Modality::Stm, Modality::Edx, Modality::Xrd] {
            let f = generate_modality(m, 96, 5);
            assert_eq!(f.raw.dims(), (96, 96));
            assert_eq!(f.truth.dims(), (96, 96));
            assert!(f.truth.count() > 0, "{}: empty truth", m.label());
            assert!(
                f.truth.coverage() < 0.5,
                "{}: truth too large ({})",
                m.label(),
                f.truth.coverage()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        for m in [Modality::Stm, Modality::Edx, Modality::Xrd] {
            let a = generate_modality(m, 64, 9);
            let b = generate_modality(m, 64, 9);
            assert_eq!(a.raw, b.raw);
            assert_eq!(a.truth, b.truth);
            let c = generate_modality(m, 64, 10);
            assert_ne!(a.raw, c.raw, "{}", m.label());
        }
    }

    #[test]
    fn stm_adsorbates_brighter_than_terrace() {
        let f = generate_modality(Modality::Stm, 96, 3);
        let img = f.raw.to_f32();
        let mut fg = 0.0;
        let mut nf = 0.0;
        let mut bg = 0.0;
        let mut nb = 0.0;
        for y in 0..96 {
            for x in 0..96 {
                if f.truth.get(x, y) {
                    fg += img.get(x, y) as f64;
                    nf += 1.0;
                } else {
                    bg += img.get(x, y) as f64;
                    nb += 1.0;
                }
            }
        }
        assert!(fg / nf > bg / nb * 1.5);
    }

    #[test]
    fn edx_is_sparse_counts() {
        let f = generate_modality(Modality::Edx, 96, 7);
        // The modal value should be a tiny count code; most pixels far
        // below the u16 range.
        let max = *f.raw.as_slice().iter().max().unwrap();
        assert!(max < 4096, "EDX max code {max}");
        let zeros = f.raw.as_slice().iter().filter(|&&v| v == 0).count();
        assert!(zeros > 96 * 96 / 10, "EDX should have many zero pixels");
    }

    #[test]
    fn xrd_spots_sit_on_rings() {
        let f = generate_modality(Modality::Xrd, 128, 11);
        let c = 64.0f64;
        for p in f.truth.iter_true().take(500) {
            let r = ((p.x as f64 - c).powi(2) + (p.y as f64 - c).powi(2)).sqrt();
            assert!(
                r > 10.0 && r < 80.0,
                "spot pixel at radius {r} is off the ring band"
            );
        }
    }
}
