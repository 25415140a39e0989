//! Intensity histograms, percentiles, and cumulative distributions.
//!
//! Histograms drive Otsu thresholding (the paper's classical baseline),
//! percentile normalization, and histogram equalization in the adaptation
//! layer. All histograms are computed over the canonical normalized domain
//! so the same code serves 8-, 16-, and 32-bit data.

use crate::image::Image;
use crate::pixel::Pixel;

/// A fixed-bin histogram over `[0, 1]` with per-bin counts.
#[derive(Debug, Clone)]
pub struct Histogram {
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Histogram of an image with `n_bins` uniform bins over `[0, 1]`.
    /// Values outside `[0, 1]` are clamped into the end bins.
    pub fn of_image<T: Pixel>(img: &Image<T>, n_bins: usize) -> Self {
        assert!(n_bins >= 2, "need at least 2 bins");
        let mut bins = vec![0u64; n_bins];
        for v in img.as_slice() {
            let n = v.to_norm().clamp(0.0, 1.0);
            let mut b = (n * n_bins as f32) as usize;
            if b >= n_bins {
                b = n_bins - 1;
            }
            bins[b] += 1;
        }
        let total = img.len() as u64;
        Histogram { bins, total }
    }

    #[inline]
    pub fn count(&self, bin: usize) -> u64 {
        self.bins[bin]
    }

    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bin center in the normalized domain.
    #[inline]
    pub fn bin_center(&self, bin: usize) -> f32 {
        (bin as f32 + 0.5) / self.bins.len() as f32
    }

    /// Cumulative distribution function per bin (last entry is 1.0 for a
    /// non-empty image).
    pub fn cdf(&self) -> Vec<f64> {
        let mut acc = 0u64;
        let total = self.total.max(1) as f64;
        self.bins
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / total
            })
            .collect()
    }

    /// Value (normalized) below which `q` of the mass lies, `q` in `[0,1]`.
    pub fn percentile(&self, q: f64) -> f32 {
        let q = q.clamp(0.0, 1.0);
        // At least one sample must be covered so percentile(0) is the
        // minimum value rather than the first (possibly empty) bin.
        let target = (q * self.total as f64).max(1.0_f64.min(self.total as f64));
        let mut acc = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc as f64 >= target {
                return self.bin_center(i);
            }
        }
        1.0
    }

    /// Mean of the distribution (by bin centers).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let s: f64 = self
            .bins
            .iter()
            .enumerate()
            .map(|(i, &c)| self.bin_center(i) as f64 * c as f64)
            .sum();
        s / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_total() {
        let img = Image::<u8>::from_fn(16, 16, |x, y| ((x * 16 + y) % 256) as u8);
        let h = Histogram::of_image(&img, 256);
        assert_eq!(h.bins.iter().sum::<u64>(), 256);
        assert_eq!(h.total(), 256);
    }

    #[test]
    fn uniform_ramp_cdf_is_linear() {
        let img = Image::<u8>::from_fn(256, 1, |x, _| x as u8);
        let h = Histogram::of_image(&img, 256);
        let cdf = h.cdf();
        assert!((cdf[127] - 0.5).abs() < 0.01);
        assert!((cdf[255] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_of_constant_image() {
        let img = Image::<u8>::filled(10, 10, 128);
        let h = Histogram::of_image(&img, 256);
        let p50 = h.percentile(0.5);
        assert!((p50 - 128.5 / 256.0).abs() < 1e-4);
        assert_eq!(h.percentile(0.0), h.percentile(1.0));
    }

    #[test]
    fn percentile_monotone() {
        let img = Image::<u16>::from_fn(64, 64, |x, y| ((x * 137 + y * 911) % 65536) as u16);
        let h = Histogram::of_image(&img, 1024);
        let mut prev = -1.0f32;
        for i in 0..=10 {
            let p = h.percentile(i as f64 / 10.0);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn mean_matches_image_mean() {
        let img = Image::<u8>::from_fn(64, 64, |x, _| (x * 4) as u8);
        let h = Histogram::of_image(&img, 256);
        assert!((h.mean() - img.mean_norm()).abs() < 0.01);
    }

    #[test]
    fn out_of_range_floats_clamped() {
        let img = Image::<f32>::from_vec(2, 2, vec![-1.0, 0.5, 2.0, 0.25]).unwrap();
        let h = Histogram::of_image(&img, 10);
        assert_eq!(h.bins[0], 1);
        assert_eq!(h.bins[9], 1);
        assert_eq!(h.total(), 4);
    }
}
