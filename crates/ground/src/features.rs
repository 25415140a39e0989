//! The visual side of the shared embedding space: per-patch attribute
//! vectors over the 8 semantic channels.
//!
//! Channels (matching `lexicon::CH_*`):
//!
//! | # | name       | computed from |
//! |---|------------|----------------------------------------------|
//! | 0 | bright     | mean intensity |
//! | 1 | dark       | 1 - mean intensity |
//! | 2 | texture    | local standard deviation (radius 2) |
//! | 3 | edge       | Sobel gradient magnitude |
//! | 4 | elongation | structure-tensor coherence gated by edge energy |
//! | 5 | smooth     | 1 - texture |
//! | 6 | contrast   | absolute deviation from the global mean |
//! | 7 | bias       | constant 1 |
//!
//! The gating on elongation matters: a smooth illumination gradient has
//! perfectly coherent orientation but no edges — without the gate, the
//! charging artifacts in crystalline FIB-SEM would masquerade as needles.

use zenesis_image::filter::{gradient_magnitude, local_std, orientation_coherence};
use zenesis_image::Image;
use zenesis_par::{par_map_range_min, SMALL_WORK_ELEMS};
use zenesis_tensor::Matrix;

/// Number of semantic channels shared between text and image encoders.
pub const N_CHANNELS: usize = 8;

/// Human-readable channel names (for traces and the dashboard).
pub const CHANNEL_NAMES: [&str; N_CHANNELS] = [
    "bright",
    "dark",
    "texture",
    "edge",
    "elongation",
    "smooth",
    "contrast",
    "bias",
];

/// Per-patch feature vectors over a `gw x gh` grid.
#[derive(Debug, Clone)]
pub struct FeatureGrid {
    pub gw: usize,
    pub gh: usize,
    pub patch: usize,
    /// `(gw*gh) x N_CHANNELS` row-major (row = patch in row-major grid
    /// order).
    pub feats: Matrix,
}

impl FeatureGrid {
    /// Compute the feature grid of an adapted (normalized `[0,1]`) image
    /// at the default feature scale (sigma 1).
    pub fn compute(img: &Image<f32>, patch: usize) -> FeatureGrid {
        Self::compute_at_scale(img, patch, 1.0)
    }

    /// Compute the feature grid with an explicit feature-scale sigma: the
    /// Gaussian applied before feature extraction. It suppresses the pixel
    /// noise that contrast adaptation necessarily amplifies, at the cost
    /// of erasing structure thinner than ~2*sigma.
    pub fn compute_at_scale(img: &Image<f32>, patch: usize, sigma: f32) -> FeatureGrid {
        assert!(patch > 0);
        let (w, h) = img.dims();
        let gw = w.div_ceil(patch);
        let gh = h.div_ceil(patch);
        let img = &zenesis_image::filter::gaussian_blur(img, sigma.max(0.05));
        // Pixel-level channel maps.
        let texture = local_std(img, 2);
        let edge = gradient_magnitude(img);
        let coher = orientation_coherence(img, 2.0);
        let global_mean = img.mean_norm() as f32;
        // Patch pooling (parallel over patches). The inner loops walk
        // contiguous row slices of each channel map — no per-sample
        // bounds-checked (x, y) indexing — with the same y-outer /
        // x-inner accumulation order as the naive form, so pooled values
        // are bit-identical to it. A patch costs its area, so the grain
        // rule counts pixels, not patches.
        let n = gw * gh;
        let min_patches = SMALL_WORK_ELEMS.div_ceil(patch * patch);
        let rows: Vec<[f32; N_CHANNELS]> = par_map_range_min(n, min_patches, |t| {
            let (gx, gy) = (t % gw, t / gw);
            let x0 = gx * patch;
            let y0 = gy * patch;
            let x1 = (x0 + patch).min(w);
            let y1 = (y0 + patch).min(h);
            let count = ((x1 - x0) * (y1 - y0)) as f32;
            let mut mean = 0.0f32;
            let mut tex = 0.0f32;
            let mut edg = 0.0f32;
            let mut elo = 0.0f32;
            for y in y0..y1 {
                let iv = &img.row(y)[x0..x1];
                let tv = &texture.row(y)[x0..x1];
                let ev = &edge.row(y)[x0..x1];
                let cv = &coher.row(y)[x0..x1];
                for x in 0..iv.len() {
                    mean += iv[x];
                    tex += tv[x];
                    let e = ev[x];
                    edg += e;
                    // Gate coherence by local edge energy (soft).
                    let gate = (e / 0.6).min(1.0);
                    elo += cv[x] * gate * gate;
                }
            }
            mean /= count;
            tex = (tex / count / 0.25).min(1.0); // normalize: std 0.25 is "fully textured"
            edg = (edg / count / 1.2).min(1.0); // sobel magnitude ~[0, 4]
            elo = (elo / count).min(1.0);
            [
                mean,
                1.0 - mean,
                tex,
                edg,
                elo,
                1.0 - tex,
                (mean - global_mean).abs().min(1.0) * 2.0,
                1.0,
            ]
        });
        let mut feats = Matrix::zeros(n, N_CHANNELS);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                feats.set(r, c, v);
            }
        }
        FeatureGrid {
            gw,
            gh,
            patch,
            feats,
        }
    }

    /// Number of patches.
    pub fn len(&self) -> usize {
        self.gw * self.gh
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature vector of patch `(gx, gy)`.
    pub fn at(&self, gx: usize, gy: usize) -> &[f32] {
        self.feats.row(gy * self.gw + gx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimensions_with_padding() {
        let img = Image::<f32>::zeros(33, 17);
        let fg = FeatureGrid::compute(&img, 8);
        assert_eq!((fg.gw, fg.gh), (5, 3));
        assert_eq!(fg.feats.rows(), 15);
        assert_eq!(fg.feats.cols(), N_CHANNELS);
    }

    #[test]
    fn bright_and_dark_channels() {
        let img = Image::<f32>::from_fn(32, 16, |x, _| if x < 16 { 0.05 } else { 0.95 });
        let fg = FeatureGrid::compute(&img, 8);
        let dark_patch = fg.at(0, 0);
        let bright_patch = fg.at(3, 0);
        assert!(dark_patch[1] > 0.9 && dark_patch[0] < 0.1);
        assert!(bright_patch[0] > 0.9 && bright_patch[1] < 0.1);
        // Bias channel always 1.
        assert_eq!(dark_patch[7], 1.0);
    }

    #[test]
    fn texture_vs_smooth() {
        let img = Image::<f32>::from_fn(32, 32, |x, y| {
            if x < 16 {
                0.5
            } else {
                // coarse checkerboard texture (survives the sigma-1
                // feature-scale smoothing)
                if (x / 3 + y / 3) % 2 == 0 {
                    0.1
                } else {
                    0.9
                }
            }
        });
        let fg = FeatureGrid::compute(&img, 8);
        let smooth = fg.at(0, 2);
        let textured = fg.at(3, 2);
        assert!(smooth[5] > 0.9, "smooth channel {}", smooth[5]);
        assert!(textured[2] > 0.5, "texture channel {}", textured[2]);
    }

    #[test]
    fn elongation_fires_on_lines_not_gradients() {
        // Thin horizontal lines: elongated. Smooth ramp: coherent but no
        // edges — must NOT fire after gating.
        let lines = Image::<f32>::from_fn(32, 32, |_, y| if y % 8 == 4 { 0.9 } else { 0.05 });
        let ramp = Image::<f32>::from_fn(32, 32, |x, _| x as f32 / 31.0 * 0.3);
        let fl = FeatureGrid::compute(&lines, 8);
        let fr = FeatureGrid::compute(&ramp, 8);
        assert!(fl.at(2, 2)[4] > 0.2, "lines elongation {}", fl.at(2, 2)[4]);
        assert!(fr.at(2, 2)[4] < 0.05, "ramp elongation {}", fr.at(2, 2)[4]);
    }

    #[test]
    fn contrast_channel_deviation_from_global() {
        let img = Image::<f32>::from_fn(32, 32, |x, _| if x < 24 { 0.5 } else { 1.0 });
        let fg = FeatureGrid::compute(&img, 8);
        // Majority patches near global mean: low contrast channel.
        assert!(fg.at(0, 0)[6] <= 0.26);
        // Outlier bright patch: high contrast channel.
        assert!(fg.at(3, 0)[6] > 0.4);
    }

    #[test]
    fn features_bounded() {
        let img = Image::<f32>::from_fn(40, 40, |x, y| ((x * 7919 + y * 37) % 100) as f32 / 99.0);
        let fg = FeatureGrid::compute(&img, 8);
        for v in fg.feats.as_slice() {
            assert!((0.0..=1.0).contains(v), "feature {v} out of range");
        }
    }
}
