//! Clean phantom synthesis for the two catalyst morphologies.
//!
//! The generator is engineered so that the *reasons* the paper gives for
//! each method's behaviour are physically present in the data:
//!
//! * **Crystalline**: thin, oriented needles (the "needle-like morphology"
//!   with high specific surface area) at low contrast (~0.30) inside a
//!   catalyst band, over a dominant near-black background. Smooth
//!   topography/charging highlights live *outside* the band (membrane
//!   edges), so a global threshold is dragged into large false positives
//!   while the background remains the largest homogeneous region — the
//!   documented Otsu and SAM-only failure modes.
//! * **Amorphous**: rounded particle agglomerates (metaball clusters) that
//!   are brighter and internally smooth, embedded in a Nafion ionomer film
//!   with fine texture, plus smooth bright film highlights away from the
//!   agglomerates. Classical methods partially work here, as in Table 1/2.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zenesis_image::{BitMask, Image};

use crate::noise::{degrade, NoiseConfig};
use crate::value_noise::{fbm, ValueNoise};

/// Which catalyst morphology to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleKind {
    /// Needle-like crystalline IrO2.
    Crystalline,
    /// Blobby amorphous IrOx in ionomer.
    Amorphous,
}

impl SampleKind {
    /// Group label used in evaluation tables.
    pub fn label(&self) -> &'static str {
        match self {
            SampleKind::Crystalline => "Crystalline",
            SampleKind::Amorphous => "Amorphous",
        }
    }

    /// The natural-language prompt a user would type for this sample.
    pub fn default_prompt(&self) -> &'static str {
        match self {
            SampleKind::Crystalline => "needle-like crystalline catalyst",
            SampleKind::Amorphous => "catalyst particles",
        }
    }
}

/// Full phantom specification.
#[derive(Debug, Clone)]
pub struct PhantomConfig {
    pub(crate) width: usize,
    pub(crate) height: usize,
    pub(crate) kind: SampleKind,
    pub(crate) seed: u64,
    pub noise: NoiseConfig,
    /// z position in `[0, 1]` for volumes: structures drift smoothly
    /// with z so adjacent slices are correlated.
    pub(crate) z: f32,
}

impl PhantomConfig {
    pub fn new(kind: SampleKind, seed: u64) -> Self {
        PhantomConfig {
            width: 128,
            height: 128,
            kind,
            seed,
            noise: NoiseConfig::default(),
            z: 0.0,
        }
    }

    pub fn with_size(mut self, width: usize, height: usize) -> Self {
        self.width = width;
        self.height = height;
        self
    }

    pub(crate) fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = noise;
        self
    }

    pub(crate) fn with_z(mut self, z: f32) -> Self {
        self.z = z;
        self
    }
}

/// A generated slice: raw 16-bit counts plus exact ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedSlice {
    pub raw: Image<u16>,
    pub clean: Image<f32>,
    pub truth: BitMask,
}

/// Generate one phantom slice.
pub fn generate_slice(cfg: &PhantomConfig) -> GeneratedSlice {
    let (clean, truth) = match cfg.kind {
        SampleKind::Crystalline => crystalline_clean(cfg),
        SampleKind::Amorphous => amorphous_clean(cfg),
    };
    let raw = degrade(&clean, &cfg.noise, cfg.seed ^ 0xDEAD_BEEF);
    GeneratedSlice { raw, clean, truth }
}

// ------------------------------------------------------------ crystalline

fn crystalline_clean(cfg: &PhantomConfig) -> (Image<f32>, BitMask) {
    let (w, h) = (cfg.width, cfg.height);
    // Structure seed is independent of the noise seed so volumes share
    // geometry streams.
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(31) ^ 0xC0FFEE);
    let vn = ValueNoise::new(cfg.seed ^ 0xFACE);

    // The field of view: a milled trench window. Roughly half the frame is
    // the "entirely black background" outside the window (the trench walls
    // above and below); the sample itself is a flat low-intensity film.
    // This is the paper's crystalline geometry: the only sharp intensity
    // gradient in the image is the window edge, and the needles inside
    // have low contrast against the film.
    let win_top = (0.22 + 0.02 * (cfg.z * std::f32::consts::TAU).sin()) * h as f32;
    let win_bot = (0.74 + 0.015 * (cfg.z * 5.0).cos()) * h as f32;

    // Needle field inside a catalyst band within the window.
    let y_lo = (win_top as usize + 4).min(h.saturating_sub(2));
    let y_hi = (win_bot as usize).saturating_sub(4).max(y_lo + 2);
    let mut field = vec![0.0f32; w * h];
    let n_needles = rng.gen_range(22..32);
    let dominant_angle: f32 = rng.gen_range(0.0..std::f32::consts::PI) + cfg.z * 0.6;
    for _ in 0..n_needles {
        let cx = rng.gen_range(0.08 * w as f32..0.92 * w as f32) + cfg.z * 3.0;
        let cy = rng.gen_range(y_lo as f32 + 2.0..y_hi as f32 - 2.0);
        let len = rng.gen_range(0.10 * w as f32..0.26 * w as f32);
        let angle = dominant_angle + rng.gen_range(-0.5..0.5f32);
        let thickness: f32 = rng.gen_range(1.5..2.6);
        let (dx, dy) = (angle.cos(), angle.sin());
        let steps = (len * 2.0) as usize;
        for st in 0..=steps {
            let t = st as f32 / steps as f32 - 0.5;
            let px = cx + t * len * dx;
            let py = cy + t * len * dy;
            let r = (2.0 * thickness).ceil() as isize;
            for oy in -r..=r {
                for ox in -r..=r {
                    let x = px as isize + ox;
                    let y = py as isize + oy;
                    if x < 0 || y < 0 || x >= w as isize || y >= h as isize {
                        continue;
                    }
                    let fx = px - x as f32;
                    let fy = py - y as f32;
                    let d2 = fx * fx + fy * fy;
                    // Super-Gaussian cross-section: crisp facets, no soft
                    // skirt to blur the ground-truth support.
                    let r2 = d2 / (thickness * thickness);
                    let bump = (-(r2 * r2)).exp();
                    let cell = &mut field[y as usize * w + x as usize];
                    *cell = cell.max(bump);
                }
            }
        }
    }

    // Ground truth: needle support.
    let truth = BitMask::from_fn(w, h, |x, y| field[y * w + x] > 0.45);

    let img = Image::from_fn(w, h, |x, y| {
        let yf = y as f32;
        // Window edge softened over ~3 px (beam tails).
        let edge = |d: f32| (d / 3.0).clamp(0.0, 1.0);
        let inside = edge(yf - win_top).min(edge(win_bot - yf));
        // Sample film: flat and featureless up to a whisper of texture —
        // "lack of distinct edges or intensity variations".
        let film = 0.16 + 0.03 * (fbm(&vn, x as f32 + cfg.z * 11.0, yf, 0.05, 2) - 0.5) * 2.0;
        let needle = 0.16 * field[y * w + x];
        let black = 0.012f32;
        (black + inside * (film - black + needle)).clamp(0.0, 1.0)
    });
    (img, truth)
}

// -------------------------------------------------------------- amorphous

fn amorphous_clean(cfg: &PhantomConfig) -> (Image<f32>, BitMask) {
    let (w, h) = (cfg.width, cfg.height);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(57) ^ 0xBEAD);
    let vn_fine = ValueNoise::new(cfg.seed ^ 0xF1FE);
    let vn_coarse = ValueNoise::new(cfg.seed ^ 0xC0A5);
    let vn_blob = ValueNoise::new(cfg.seed ^ 0xB10B);

    // Particle agglomerates: metaball clusters in the left/center regions,
    // drifting with z.
    let n_clusters = rng.gen_range(2..4usize);
    let mut balls: Vec<(f32, f32, f32)> = Vec::new(); // (cx, cy, r)
    for c in 0..n_clusters {
        let ccx = rng.gen_range(0.18..0.62) * w as f32 + cfg.z * 5.0;
        let ccy = rng.gen_range(0.40..0.80) * h as f32 + (cfg.z * 7.0 + c as f32).sin() * 3.0;
        let n_balls = rng.gen_range(6..12);
        for _ in 0..n_balls {
            let bx = ccx + rng.gen_range(-0.12..0.12) * w as f32;
            let by = ccy + rng.gen_range(-0.12..0.12) * h as f32;
            let r = rng.gen_range(0.045..0.085) * w as f32 * (1.0 + 0.1 * (cfg.z * 9.0).cos());
            balls.push((bx, by, r));
        }
    }
    let blob_field = |x: f32, y: f32| -> f32 {
        let mut s = 0.0f32;
        for &(bx, by, r) in &balls {
            let d2 = (x - bx) * (x - bx) + (y - by) * (y - by);
            s += (-d2 / (r * r)).exp();
        }
        s
    };

    let mut field = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            field[y * w + x] = blob_field(x as f32, y as f32);
        }
    }
    let truth = BitMask::from_fn(w, h, |x, y| field[y * w + x] > 0.55);

    // Bright film highlight: a smooth patch on the right side, away from
    // the agglomerates — the distractor that costs Otsu its precision.
    let img = Image::from_fn(w, h, |x, y| {
        let xf = x as f32;
        let yf = y as f32;
        // Ionomer film: mid-gray with pronounced fine texture (the
        // granularity that makes region growing on the film unstable and
        // puts mass in the histogram's upper tail).
        let fine = fbm(&vn_fine, xf, yf, 0.33, 2);
        let coarse = fbm(&vn_coarse, xf + cfg.z * 13.0, yf, 0.04, 3);
        let ionomer = 0.30 + 0.14 * (fine - 0.5) * 2.0 + 0.09 * (coarse - 0.5) * 2.0;
        // Particles: bright, internally smooth (weak fine texture).
        let f = field[y * w + x];
        let particle_core = (f - 0.55).clamp(0.0, 1.0).min(0.6) / 0.6;
        let particle = 0.64 + 0.03 * (fbm(&vn_blob, xf, yf, 0.1, 2) - 0.5) * 2.0;
        // Topographic brow: a broad bright band along the top of the frame
        // (the tilted electrode surface catching the beam). Its intensity
        // overlaps the particle range — a global threshold inevitably
        // floods it — but it is *rough* (tilted surfaces exaggerate
        // granularity) and spatially separate from the agglomerates, so
        // texture-aware grounding and box-local statistics exclude it.
        let hy = (0.10 + 0.02 * (cfg.z * 4.0).sin()) * h as f32;
        let dy = yf - hy;
        let band_w = (-(dy * dy) / (2.0 * (0.085 * h as f32).powi(2))).exp()
            * (0.75 + 0.25 * (fbm(&vn_coarse, xf * 0.5 + 200.0, 7.0, 0.02, 2) - 0.5) * 2.0);
        let hl_rough = 0.24 * (fbm(&vn_blob, xf + 77.0, yf + 33.0, 0.15, 3) - 0.5) * 2.0;
        let highlight = band_w * (0.33 + hl_rough);
        let bg = (ionomer + highlight).clamp(0.0, 1.0);
        // Smooth blend at particle boundary.
        let t = smoothstep(0.40, 0.70, f).max(particle_core);
        (bg * (1.0 - t) + particle * t).clamp(0.0, 1.0)
    });
    (img, truth)
}

fn smoothstep(lo: f32, hi: f32, v: f32) -> f32 {
    let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crystalline_statistics() {
        let cfg = PhantomConfig::new(SampleKind::Crystalline, 7);
        let s = generate_slice(&cfg);
        assert_eq!(s.raw.dims(), (128, 128));
        let cov = s.truth.coverage();
        assert!(
            (0.01..0.18).contains(&cov),
            "needle coverage {cov} out of expected range"
        );
        // Low contrast: mean needle intensity well below 0.5 in clean image.
        let mut needle_sum = 0.0;
        let mut n = 0;
        for p in s.truth.iter_true() {
            needle_sum += s.clean.get(p.x, p.y);
            n += 1;
        }
        let needle_mean = needle_sum / n as f32;
        assert!(
            needle_mean > 0.1 && needle_mean < 0.5,
            "needle mean {needle_mean}"
        );
        // The trench wall (outside the window) is near-black; the film
        // inside the window is low but above it.
        assert!(s.clean.get(2, 2) < 0.05);
        assert!(s.clean.get(2, 64) > 0.08 && s.clean.get(2, 64) < 0.3);
    }

    #[test]
    fn crystalline_background_dominates() {
        let cfg = PhantomConfig::new(SampleKind::Crystalline, 3);
        let s = generate_slice(&cfg);
        // Dark pixels (below 0.1 clean: the black trench walls) cover a
        // large share of the frame: the "entirely black background" the
        // paper blames for Otsu/SAM-only failures.
        let dark =
            s.clean.as_slice().iter().filter(|&&v| v < 0.1).count() as f64 / s.clean.len() as f64;
        assert!(dark > 0.4, "dark fraction {dark}");
        // And the needles are a small minority of the window.
        assert!(s.truth.coverage() < 0.2);
    }

    #[test]
    fn amorphous_statistics() {
        let cfg = PhantomConfig::new(SampleKind::Amorphous, 11);
        let s = generate_slice(&cfg);
        let cov = s.truth.coverage();
        assert!(
            (0.08..0.45).contains(&cov),
            "particle coverage {cov} out of expected range"
        );
        // Particles are brighter than the ionomer on average.
        let mut fg = 0.0;
        let mut nf = 0usize;
        let mut bg = 0.0;
        let mut nb = 0usize;
        for y in 0..128 {
            for x in 0..128 {
                if s.truth.get(x, y) {
                    fg += s.clean.get(x, y) as f64;
                    nf += 1;
                } else {
                    bg += s.clean.get(x, y) as f64;
                    nb += 1;
                }
            }
        }
        assert!(fg / nf as f64 > bg / nb as f64 + 0.15);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 5));
        let b = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 5));
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.truth, b.truth);
        let c = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 6));
        assert_ne!(c.raw, a.raw);
    }

    #[test]
    fn z_evolution_is_smooth() {
        let base = PhantomConfig::new(SampleKind::Crystalline, 9);
        let s0 = generate_slice(&base.clone().with_z(0.0));
        let s1 = generate_slice(&base.clone().with_z(0.05));
        let s9 = generate_slice(&base.with_z(0.9));
        // Adjacent z: high mask overlap; distant z: lower.
        let near = s0.truth.iou(&s1.truth);
        let far = s0.truth.iou(&s9.truth);
        assert!(near > far, "near {near} vs far {far}");
        assert!(near > 0.2, "adjacent slices should overlap, iou {near}");
    }

    #[test]
    fn raw_is_non_ai_ready() {
        let s = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 13));
        let max = *s.raw.as_slice().iter().max().unwrap();
        // Occupies well under half the 16-bit range.
        assert!(max < 32768, "raw max {max}");
        assert!(max > 1000, "raw not all-black");
    }

    #[test]
    fn custom_size_respected() {
        let cfg = PhantomConfig::new(SampleKind::Amorphous, 1).with_size(64, 96);
        let s = generate_slice(&cfg);
        assert_eq!(s.raw.dims(), (64, 96));
        assert_eq!(s.truth.dims(), (64, 96));
    }
}
