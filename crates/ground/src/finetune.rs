//! The optional fine-tuning module (paper §Conclusion, future work 3):
//! "an optional fine-tuning module that allows advanced users to adapt
//! the segmentation pipeline to highly specialized or critical datasets".
//!
//! In the surrogate architecture the text encoder is the concept lexicon,
//! so adaptation is *lexicon learning*: given exemplar pairs of
//! (adapted image, ground-truth mask), fit an attribute vector for a new
//! term such that patches inside the mask score high and patches outside
//! score low. The fit is a regularized least-squares on the shared
//! 8-channel feature space — closed-form, a few milliseconds, and the
//! learned term composes with the built-in vocabulary exactly like any
//! other token.

use serde::{Deserialize, Serialize};
use zenesis_image::{BitMask, Image};
use zenesis_tensor::Matrix;

use crate::features::{FeatureGrid, N_CHANNELS};
use crate::lexicon::CH_BIAS;

/// One labelled exemplar: an adapted image and the mask of the concept.
pub struct Exemplar<'a> {
    pub image: &'a Image<f32>,
    pub mask: &'a BitMask,
}

/// Configuration of the lexicon learner.
#[derive(Debug, Clone, Copy)]
pub struct FinetuneConfig {
    /// Patch side used for feature pooling (match the DinoConfig patch).
    pub(crate) patch: usize,
    /// Fraction of a patch that must be inside the mask to count as a
    /// positive example (in-between patches are dropped as ambiguous).
    pub(crate) positive_fraction: f32,
    /// Ridge regularization strength.
    pub(crate) lambda: f32,
    /// Scale of the fitted vector (matched to hand-authored entries).
    pub(crate) target_norm: f32,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            patch: 8,
            positive_fraction: 0.5,
            lambda: 0.05,
            target_norm: 1.8,
        }
    }
}

/// A learned concept: a name plus its fitted attribute vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnedConcept {
    pub name: String,
    pub vector: [f32; N_CHANNELS],
    /// Training diagnostics: positive/negative patch counts and the
    /// separation (mean positive score - mean negative score) achieved on
    /// the training exemplars.
    pub n_pos: usize,
    pub n_neg: usize,
    pub separation: f32,
}

/// Fit a new lexicon concept from exemplars.
///
/// Solves `(F^T F + lambda I) w = F^T y` over patch feature rows `F` with
/// labels `y in {-1, +1}`, then rescales `w` to `target_norm` and zeroes
/// the bias channel (a learned constant offset would make the concept
/// fire everywhere). Returns `None` when the exemplars contain no
/// unambiguous positive or no negative patches.
pub fn learn_concept(
    name: &str,
    exemplars: &[Exemplar<'_>],
    cfg: &FinetuneConfig,
) -> Option<LearnedConcept> {
    let mut rows: Vec<[f32; N_CHANNELS]> = Vec::new();
    let mut labels: Vec<f32> = Vec::new();
    for ex in exemplars {
        assert_eq!(
            ex.image.dims(),
            ex.mask.dims(),
            "exemplar image/mask dims differ"
        );
        let grid = FeatureGrid::compute(ex.image, cfg.patch);
        for gy in 0..grid.gh {
            for gx in 0..grid.gw {
                // Fraction of the patch covered by the mask.
                let x0 = gx * cfg.patch;
                let y0 = gy * cfg.patch;
                let x1 = (x0 + cfg.patch).min(ex.mask.width());
                let y1 = (y0 + cfg.patch).min(ex.mask.height());
                let mut inside = 0usize;
                let mut total = 0usize;
                for y in y0..y1 {
                    for x in x0..x1 {
                        total += 1;
                        if ex.mask.get(x, y) {
                            inside += 1;
                        }
                    }
                }
                if total == 0 {
                    continue;
                }
                let frac = inside as f32 / total as f32;
                let label = if frac >= cfg.positive_fraction {
                    1.0
                } else if frac == 0.0 {
                    -1.0
                } else {
                    continue; // ambiguous boundary patch
                };
                let mut row = [0.0f32; N_CHANNELS];
                row.copy_from_slice(grid.at(gx, gy));
                rows.push(row);
                labels.push(label);
            }
        }
    }
    let n_pos = labels.iter().filter(|&&l| l > 0.0).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    // Class-balanced weighted normal equations with ridge: positives and
    // negatives contribute equal total weight regardless of the (heavily
    // imbalanced) patch counts, so the fit cannot buy training accuracy
    // by under-serving the rare class.
    let n = rows.len();
    let w_pos = 0.5 / n_pos as f32;
    let w_neg = 0.5 / n_neg as f32;
    let weights: Vec<f32> = labels
        .iter()
        .map(|&l| if l > 0.0 { w_pos } else { w_neg })
        .collect();
    let f = Matrix::from_fn(n, N_CHANNELS, |r, c| rows[r][c] * weights[r].sqrt());
    let y = Matrix::from_fn(n, 1, |r, _| labels[r] * weights[r].sqrt());
    let mut ftf = f.transpose().matmul(&f);
    for i in 0..N_CHANNELS {
        ftf.set(i, i, ftf.get(i, i) + cfg.lambda);
    }
    let fty = f.transpose().matmul(&y);
    let w = solve_spd(&ftf, &fty)?;
    let mut vector = [0.0f32; N_CHANNELS];
    for (i, item) in vector.iter_mut().enumerate() {
        *item = w.get(i, 0);
    }
    vector[CH_BIAS] = 0.0;
    // Rescale to the hand-authored magnitude regime.
    let norm: f32 = vector.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm < 1e-9 {
        return None;
    }
    for v in vector.iter_mut() {
        *v *= cfg.target_norm / norm;
    }
    // Diagnostics: separation on the training patches.
    let mut pos_sum = 0.0f32;
    let mut neg_sum = 0.0f32;
    for (row, &label) in rows.iter().zip(&labels) {
        let score: f32 = row.iter().zip(&vector).map(|(a, b)| a * b).sum();
        if label > 0.0 {
            pos_sum += score;
        } else {
            neg_sum += score;
        }
    }
    let separation = pos_sum / n_pos as f32 - neg_sum / n_neg as f32;
    Some(LearnedConcept {
        name: name.to_string(),
        vector,
        n_pos,
        n_neg,
        separation,
    })
}

/// Solve `A x = b` for symmetric positive-definite `A` (Cholesky).
/// Returns `None` if the matrix is not SPD (degenerate features).
fn solve_spd(a: &Matrix, b: &Matrix) -> Option<Matrix> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.rows(), n);
    // Cholesky: A = L L^T.
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j) as f64;
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    // Forward substitution: L z = b.
    let mut z = vec![0.0f64; n];
    for i in 0..n {
        let mut sum = b.get(i, 0) as f64;
        for k in 0..i {
            sum -= l[i * n + k] * z[k];
        }
        z[i] = sum / l[i * n + i];
    }
    // Back substitution: L^T x = z.
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut sum = z[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    Some(Matrix::from_fn(n, 1, |r, _| x[r] as f32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::BoxRegion;

    /// Bright square scene with its mask.
    fn square_scene() -> (Image<f32>, BitMask) {
        let img = Image::from_fn(96, 96, |x, y| {
            if (24..72).contains(&x) && (24..72).contains(&y) {
                0.85
            } else {
                0.1
            }
        });
        let mask = BitMask::from_box(96, 96, BoxRegion::new(24, 24, 72, 72));
        (img, mask)
    }

    #[test]
    fn learns_brightness_concept_from_one_exemplar() {
        let (img, mask) = square_scene();
        let c = learn_concept(
            "my_phase",
            &[Exemplar {
                image: &img,
                mask: &mask,
            }],
            &FinetuneConfig::default(),
        )
        .expect("learnable");
        assert!(c.n_pos > 10 && c.n_neg > 10);
        assert!(c.separation > 0.5, "separation {}", c.separation);
        // The learned vector should prefer brightness over darkness.
        assert!(
            c.vector[0] > c.vector[1],
            "bright {} vs dark {}",
            c.vector[0],
            c.vector[1]
        );
        // Bias channel must be zero.
        assert_eq!(c.vector[CH_BIAS], 0.0);
        // Norm matches the hand-authored regime.
        let norm: f32 = c.vector.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.8).abs() < 1e-3);
    }

    #[test]
    fn degenerate_exemplars_return_none() {
        let img = Image::<f32>::filled(32, 32, 0.5);
        let all = BitMask::full(32, 32);
        let none = BitMask::new(32, 32);
        let cfg = FinetuneConfig::default();
        // All-positive: no negatives to contrast against.
        assert!(learn_concept(
            "x",
            &[Exemplar {
                image: &img,
                mask: &all
            }],
            &cfg
        )
        .is_none());
        // All-negative: no positives.
        assert!(learn_concept(
            "x",
            &[Exemplar {
                image: &img,
                mask: &none
            }],
            &cfg
        )
        .is_none());
    }

    #[test]
    fn multiple_exemplars_pool_patches() {
        let (img1, mask1) = square_scene();
        let img2 = Image::from_fn(96, 96, |x, y| {
            if (8..40).contains(&x) && (48..88).contains(&y) {
                0.9
            } else {
                0.15
            }
        });
        let mask2 = BitMask::from_box(96, 96, BoxRegion::new(8, 48, 40, 88));
        let one = learn_concept(
            "c",
            &[Exemplar {
                image: &img1,
                mask: &mask1,
            }],
            &FinetuneConfig::default(),
        )
        .unwrap();
        let two = learn_concept(
            "c",
            &[
                Exemplar {
                    image: &img1,
                    mask: &mask1,
                },
                Exemplar {
                    image: &img2,
                    mask: &mask2,
                },
            ],
            &FinetuneConfig::default(),
        )
        .unwrap();
        assert!(two.n_pos > one.n_pos);
        assert!(two.separation > 0.3);
    }

    #[test]
    fn learned_concept_serde_roundtrip() {
        let (img, mask) = square_scene();
        let c = learn_concept(
            "phase_x",
            &[Exemplar {
                image: &img,
                mask: &mask,
            }],
            &FinetuneConfig::default(),
        )
        .unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: LearnedConcept = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn solve_spd_known_system() {
        // A = [[4,2],[2,3]], b = [10, 8] -> x = [7/4, 3/2].
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let b = Matrix::from_vec(2, 1, vec![10.0, 8.0]);
        let x = solve_spd(&a, &b).unwrap();
        assert!((x.get(0, 0) - 1.75).abs() < 1e-5);
        assert!((x.get(1, 0) - 1.5).abs() < 1e-5);
    }

    #[test]
    fn solve_spd_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // indefinite
        let b = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
        assert!(solve_spd(&a, &b).is_none());
    }
}
