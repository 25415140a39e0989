//! Otsu's method: maximize between-class variance over the histogram.

use zenesis_image::histogram::Histogram;
use zenesis_image::{BitMask, Image};

/// Why Otsu's method could not produce a meaningful threshold.
///
/// A degenerate histogram has no between-class variance to maximize; any
/// "threshold" returned for it is an arbitrary number, and the mask built
/// from it is noise. The fault-tolerant volume path uses this reason to
/// mark a fallback slice `Failed` instead of shipping a garbage mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OtsuDegenerate {
    /// The image has no pixels.
    Empty,
    /// Every pixel landed in a single histogram bin (constant intensity,
    /// up to bin resolution).
    SingleBin,
}

impl std::fmt::Display for OtsuDegenerate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OtsuDegenerate::Empty => write!(f, "empty image"),
            OtsuDegenerate::SingleBin => write!(f, "constant intensity (single histogram bin)"),
        }
    }
}

/// Otsu's optimal global threshold, or the structured reason the
/// histogram is degenerate (empty image or single occupied bin).
pub(crate) fn try_otsu_threshold(img: &Image<f32>) -> Result<f32, OtsuDegenerate> {
    let bins = 1024;
    let hist = Histogram::of_image(img, bins);
    let total = hist.total() as f64;
    if total == 0.0 {
        return Err(OtsuDegenerate::Empty);
    }
    // Prefix sums of mass and intensity-weighted mass.
    let mut cum_mass = 0.0f64;
    let mut cum_mean = 0.0f64;
    let global_mean: f64 = hist.mean() * 1.0;
    let mut best_t = 0usize;
    let mut best_var = -1.0f64;
    for t in 0..bins - 1 {
        cum_mass += hist.count(t) as f64 / total;
        cum_mean += hist.bin_center(t) as f64 * hist.count(t) as f64 / total;
        let w0 = cum_mass;
        let w1 = 1.0 - w0;
        if w0 <= 0.0 || w1 <= 0.0 {
            continue;
        }
        let mu0 = cum_mean / w0;
        let mu1 = (global_mean - cum_mean) / w1;
        let var = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
        if var > best_var {
            best_var = var;
            best_t = t;
        }
    }
    if best_var < 0.0 {
        // Every split left one side empty: single occupied bin.
        return Err(OtsuDegenerate::SingleBin);
    }
    // Threshold at the upper edge of the winning bin.
    Ok((best_t as f32 + 1.0) / bins as f32)
}

/// Otsu's optimal global threshold on the normalized intensity domain.
///
/// Returns the threshold value in `[0, 1]`; pixels strictly above it are
/// foreground. Computed over a 1024-bin histogram by maximizing the
/// between-class variance `w0 * w1 * (mu0 - mu1)^2`. Degenerate
/// histograms (see `try_otsu_threshold`) fall back to `0.5`.
pub fn otsu_threshold(img: &Image<f32>) -> f32 {
    try_otsu_threshold(img).unwrap_or(0.5)
}

/// [`segment_otsu`] with the degenerate case surfaced: constant-intensity
/// and empty images return the structured reason instead of a mask built
/// from a meaningless threshold.
pub fn try_segment_otsu(img: &Image<f32>) -> Result<BitMask, OtsuDegenerate> {
    Ok(BitMask::from_threshold(img, try_otsu_threshold(img)?))
}

/// Segment by global Otsu: foreground = pixels above the Otsu threshold.
///
/// This is the paper's "Otsu thresholding" baseline exactly: no grounding,
/// no spatial regularization — whatever is brighter than the split is the
/// region of interest. Degenerate (constant-intensity or empty) images
/// return an **empty mask**: with no variance to split there is no
/// evidence any pixel is foreground.
pub fn segment_otsu(img: &Image<f32>) -> BitMask {
    let (w, h) = img.dims();
    try_segment_otsu(img).unwrap_or_else(|_| BitMask::new(w, h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bimodal(lo: f32, hi: f32, frac_hi: f32) -> Image<f32> {
        Image::from_fn(64, 64, |x, y| {
            let idx = (y * 64 + x) as f32 / (64.0 * 64.0);
            if idx < frac_hi {
                hi
            } else {
                lo
            }
        })
    }

    #[test]
    fn threshold_separates_bimodal() {
        let img = bimodal(0.2, 0.8, 0.4);
        let t = otsu_threshold(&img);
        assert!(t > 0.2 && t < 0.8, "t = {t}");
        let m = segment_otsu(&img);
        // Foreground = the bright 40%.
        let frac = m.coverage();
        assert!((frac - 0.4).abs() < 0.02, "coverage {frac}");
    }

    #[test]
    fn threshold_with_noise_still_separates() {
        let img = Image::from_fn(64, 64, |x, y| {
            let base = if (x / 8 + y / 8) % 2 == 0 { 0.25 } else { 0.75 };
            base + 0.05 * (((x * 7919 + y * 104729) % 100) as f32 / 100.0 - 0.5)
        });
        let t = otsu_threshold(&img);
        // Any split strictly between the two noisy modes is correct.
        assert!(t > 0.25 && t < 0.75, "t = {t}");
        // And the resulting mask matches the checkerboard exactly.
        let m = segment_otsu(&img);
        for y in 0..64 {
            for x in 0..64 {
                assert_eq!(m.get(x, y), (x / 8 + y / 8) % 2 != 0);
            }
        }
    }

    #[test]
    fn constant_image_degenerate_but_safe() {
        let img = Image::<f32>::filled(16, 16, 0.5);
        let t = otsu_threshold(&img);
        assert!(t.is_finite());
        let m = segment_otsu(&img);
        // No variance = no evidence of foreground: the mask is empty.
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn degenerate_histograms_report_structured_reason() {
        for v in [0.0, 0.5, 1.0] {
            let img = Image::<f32>::filled(16, 16, v);
            assert_eq!(
                try_otsu_threshold(&img),
                Err(OtsuDegenerate::SingleBin),
                "constant {v}"
            );
            assert_eq!(try_segment_otsu(&img), Err(OtsuDegenerate::SingleBin));
            // The infallible wrappers stay safe.
            assert!(otsu_threshold(&img).is_finite());
            assert_eq!(segment_otsu(&img).count(), 0);
        }
        assert!(OtsuDegenerate::SingleBin.to_string().contains("single"));
        // A barely-bimodal image is NOT degenerate.
        let img = bimodal(0.4, 0.6, 0.5);
        assert!(try_otsu_threshold(&img).is_ok());
        assert!(try_segment_otsu(&img).unwrap().count() > 0);
    }

    #[test]
    fn otsu_fails_on_unimodal_low_contrast() {
        // The crystalline failure mode: tiny bright structure on a big
        // noisy dark background — Otsu's split lands inside the noise and
        // selects far more than the true structure.
        let img = Image::from_fn(64, 64, |x, y| {
            let needle = y == 32 && (10..54).contains(&x);
            let noise = ((x * 2654435761 + y * 40503) % 97) as f32 / 97.0 * 0.12;
            if needle {
                0.35
            } else {
                0.02 + noise
            }
        });
        let m = segment_otsu(&img);
        let true_area = 44.0;
        // Otsu picks up large noise regions: selected area far exceeds GT.
        assert!(m.count() as f32 > 3.0 * true_area);
    }
}
