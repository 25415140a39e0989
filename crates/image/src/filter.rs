//! Spatial filtering: separable convolution, Gaussian and box smoothing,
//! median filtering, and Sobel gradients with structure-tensor statistics.
//!
//! Filters operate on canonical `f32` images with replicate borders and are
//! parallelised over row bands via `zenesis-par` (the hot loops of the
//! adaptation layer and the visual feature pyramid run through here).
//!
//! The convolution and Sobel kernels walk output rows with tap-outer
//! (axpy) inner loops over contiguous row slices — no per-pixel
//! coordinate arithmetic or clamped gather — and are compiled twice
//! (portable baseline + AVX2 `#[target_feature]` re-compilation of the
//! same body) with runtime dispatch via `zenesis_tensor::simd_level`.
//! Per-pixel accumulation order is fixed (kernel taps in ascending
//! order), so results are bit-identical across dispatch levels, thread
//! counts, and to the pre-rewrite per-pixel gather loops — the committed
//! pipeline checksums (e.g. the `tiff-smoke` golden mask) rely on this.

use crate::image::Image;
use zenesis_par::{par_map_range_min, par_rows, par_rows2_min, SMALL_WORK_ELEMS};
use zenesis_tensor::{simd_level, SimdLevel};

/// Compile a row-band kernel body twice — portable baseline and an AVX2
/// re-compilation of the identical code — and pick at runtime. The
/// bodies are plain safe Rust with fixed per-element operation order, so
/// the two compilations produce bit-identical results (see
/// `zenesis-tensor`'s `src/simd.rs` for the contract).
macro_rules! simd_dispatch {
    ($name:ident => $body:ident ( $($arg:ident : $ty:ty),* $(,)? )) => {
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2($($arg: $ty),*) {
                $body($($arg),*)
            }
            match simd_level() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `simd_level()` only reports Avx2 when the CPU
                // supports it.
                SimdLevel::Avx2 => unsafe { avx2($($arg),*) },
                #[cfg(not(target_arch = "x86_64"))]
                SimdLevel::Avx2 => $body($($arg),*),
                SimdLevel::Scalar => $body($($arg),*),
            }
        }
    };
}

/// Build a normalized 1-D Gaussian kernel with radius `ceil(3*sigma)`.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as usize;
    let mut k = Vec::with_capacity(2 * radius + 1);
    let s2 = 2.0 * sigma * sigma;
    for i in -(radius as isize)..=(radius as isize) {
        k.push((-(i * i) as f32 / s2).exp());
    }
    let sum: f32 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// `out[x] += kv * src[clamp(x + d)]` over a whole row: the left and
/// right clamped fringes replicate the border sample; the interior is a
/// straight shifted axpy over two contiguous slices, the shape the
/// vectorizer turns into wide mul+add.
#[inline(always)]
fn axpy_shifted_clamped(src: &[f32], kv: f32, d: isize, out: &mut [f32]) {
    let w = src.len() as isize;
    let lo = (-d).clamp(0, w) as usize; // first x with x + d >= 0
    let hi = (w - d).clamp(0, w) as usize; // first x with x + d > w - 1
    let first = src[0];
    let last = src[src.len() - 1];
    for o in &mut out[..lo] {
        *o += kv * first;
    }
    if lo < hi {
        let s = &src[(lo as isize + d) as usize..(hi as isize + d) as usize];
        for (o, &v) in out[lo..hi].iter_mut().zip(s) {
            *o += kv * v;
        }
    }
    for o in &mut out[hi.max(lo)..] {
        *o += kv * last;
    }
}

/// Row-convolve a band of output rows (`y0..y0 + band_rows`): taps in
/// ascending order, each an [`axpy_shifted_clamped`] over the source
/// row — per-pixel accumulation order matches the naive gather exactly.
#[inline(always)]
fn conv_rows_band_impl(img: &Image<f32>, kernel: &[f32], y0: usize, band: &mut [f32]) {
    let w = img.dims().0;
    let r = kernel.len() as isize / 2;
    for (dy, orow) in band.chunks_mut(w).enumerate() {
        let src = img.row(y0 + dy);
        for (j, &kv) in kernel.iter().enumerate() {
            axpy_shifted_clamped(src, kv, j as isize - r, orow);
        }
    }
}

simd_dispatch!(conv_rows_band => conv_rows_band_impl(
    img: &Image<f32>,
    kernel: &[f32],
    y0: usize,
    band: &mut [f32],
));

/// Column-convolve a band of output rows: each tap is a plain axpy of
/// the (row-clamped) source row onto the output row.
#[inline(always)]
fn conv_cols_band_impl(img: &Image<f32>, kernel: &[f32], y0: usize, band: &mut [f32]) {
    let (w, h) = img.dims();
    let r = kernel.len() as isize / 2;
    for (dy, orow) in band.chunks_mut(w).enumerate() {
        let y = (y0 + dy) as isize;
        for (j, &kv) in kernel.iter().enumerate() {
            let sy = (y + j as isize - r).clamp(0, h as isize - 1) as usize;
            for (o, &v) in orow.iter_mut().zip(img.row(sy)) {
                *o += kv * v;
            }
        }
    }
}

simd_dispatch!(conv_cols_band => conv_cols_band_impl(
    img: &Image<f32>,
    kernel: &[f32],
    y0: usize,
    band: &mut [f32],
));

/// Convolve rows with `kernel` (odd length), replicate border.
pub fn convolve_rows(img: &Image<f32>, kernel: &[f32]) -> Image<f32> {
    assert!(kernel.len() % 2 == 1, "kernel length must be odd");
    let (w, h) = img.dims();
    let mut out = vec![0.0f32; w * h];
    par_rows(&mut out, w, |y0, band| conv_rows_band(img, kernel, y0, band));
    Image::from_vec(w, h, out).expect("shape preserved")
}

/// Convolve columns with `kernel` (odd length), replicate border.
pub fn convolve_cols(img: &Image<f32>, kernel: &[f32]) -> Image<f32> {
    assert!(kernel.len() % 2 == 1, "kernel length must be odd");
    let (w, h) = img.dims();
    let mut out = vec![0.0f32; w * h];
    par_rows(&mut out, w, |y0, band| conv_cols_band(img, kernel, y0, band));
    Image::from_vec(w, h, out).expect("shape preserved")
}

/// Separable convolution: rows then columns with the same 1-D kernel.
pub fn convolve_separable(img: &Image<f32>, kernel: &[f32]) -> Image<f32> {
    convolve_cols(&convolve_rows(img, kernel), kernel)
}

/// Gaussian blur with standard deviation `sigma`.
pub fn gaussian_blur(img: &Image<f32>, sigma: f32) -> Image<f32> {
    convolve_separable(img, &gaussian_kernel(sigma))
}

/// Box blur with window `(2*radius + 1)^2`.
pub fn box_blur(img: &Image<f32>, radius: usize) -> Image<f32> {
    let len = 2 * radius + 1;
    let kernel = vec![1.0 / len as f32; len];
    convolve_separable(img, &kernel)
}

/// `(min, max)` of two non-NaN values: a compare-exchange, the unit of
/// the sorting networks below. It compiles to a min/max instruction pair.
#[inline(always)]
fn cx(a: f32, b: f32) -> (f32, f32) {
    if b < a {
        (b, a)
    } else {
        (a, b)
    }
}

#[inline(always)]
fn min3(a: f32, b: f32, c: f32) -> f32 {
    cx(cx(a, b).0, c).0
}

#[inline(always)]
fn max3(a: f32, b: f32, c: f32) -> f32 {
    cx(cx(a, b).1, c).1
}

#[inline(always)]
fn med3(a: f32, b: f32, c: f32) -> f32 {
    let (lo, hi) = cx(a, b);
    cx(lo, cx(hi, c).0).1
}

/// `dst[x] = f(src[x - 1], src[x], src[x + 1])` with replicate-clamped
/// ends; the interior is one loop over contiguous windows.
#[inline(always)]
fn map_triples(src: &[f32], dst: &mut [f32], f: impl Fn(f32, f32, f32) -> f32) {
    let w = src.len();
    dst[0] = f(src[0], src[0], src[1.min(w - 1)]);
    if w > 1 {
        dst[w - 1] = f(src[w - 2], src[w - 1], src[w - 1]);
    }
    for (o, t) in dst[1..].iter_mut().zip(src.windows(3)) {
        *o = f(t[0], t[1], t[2]);
    }
}

/// 3x3 median of a band of output rows by selection network. Sort each
/// column of the three (row-clamped) source rows into `lo <= mid <= hi`;
/// the median of the nine is then the median of: the largest of three
/// neighbouring `lo`s, the median of the `mid`s, the smallest of the
/// `hi`s. Every step is a whole-row loop over contiguous slices.
#[inline(always)]
fn median3_band_impl(img: &Image<f32>, y0: usize, band: &mut [f32]) {
    let (w, h) = img.dims();
    let [mut lo, mut mid, mut hi, mut max_lo, mut med_mid] = [(); 5].map(|()| vec![0.0f32; w]);
    for (dy, orow) in band.chunks_mut(w).enumerate() {
        let (ym, yc, yp) = rows3(img, y0 + dy, h);
        for x in 0..w {
            let (a, b) = cx(ym[x], yc[x]);
            let (b, c) = cx(b, yp[x]);
            let (a, b) = cx(a, b);
            (lo[x], mid[x], hi[x]) = (a, b, c);
        }
        map_triples(&lo, &mut max_lo, max3);
        map_triples(&mid, &mut med_mid, med3);
        map_triples(&hi, orow, min3);
        for (o, (&a, &b)) in orow.iter_mut().zip(max_lo.iter().zip(med_mid.iter())) {
            *o = med3(a, b, *o);
        }
    }
}

simd_dispatch!(median3_band => median3_band_impl(
    img: &Image<f32>,
    y0: usize,
    band: &mut [f32],
));

/// Median of a band of output rows by selection from the gathered window;
/// one window buffer serves the whole band.
fn median_band(img: &Image<f32>, radius: usize, y0: usize, band: &mut [f32]) {
    let w = img.width();
    let r = radius as isize;
    let mut window = Vec::with_capacity((2 * radius + 1) * (2 * radius + 1));
    for (dy, orow) in band.chunks_mut(w).enumerate() {
        let y = (y0 + dy) as isize;
        for (x, o) in orow.iter_mut().enumerate() {
            let x = x as isize;
            window.clear();
            for wy in y - r..=y + r {
                for wx in x - r..=x + r {
                    window.push(img.get_clamped(wx, wy));
                }
            }
            let mid = window.len() / 2;
            *o = *window
                .select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("NaN in image"))
                .1;
        }
    }
}

/// Median filter over a `(2*radius+1)^2` window, replicate border.
///
/// The salt-and-pepper remover of choice for FIB-SEM shot noise.
/// `radius == 1`, the adaptation recipe's setting, runs as a branch-free
/// selection network over whole rows; other radii select from a gathered
/// window. Both give the value an ascending sort of the window has in the
/// middle; the bits are those of a window element, and only a window that
/// holds both `-0.0` and `+0.0` around its median (they compare equal)
/// leaves open which of the two comes out.
///
/// # Panics
/// With `"NaN in image"` if any sample is NaN (`radius > 0`).
pub fn median_filter(img: &Image<f32>, radius: usize) -> Image<f32> {
    if radius == 0 {
        return img.clone();
    }
    assert!(!img.as_slice().iter().any(|v| v.is_nan()), "NaN in image");
    let (w, h) = img.dims();
    let mut out = vec![0.0f32; w * h];
    if radius == 1 {
        par_rows(&mut out, w, |y0, band| median3_band(img, y0, band));
    } else {
        par_rows(&mut out, w, |y0, band| median_band(img, radius, y0, band));
    }
    Image::from_vec(w, h, out).expect("shape preserved")
}

/// Both Sobel responses at column `x` (clamped neighbours `xm`/`xp`),
/// with the exact expression trees of the 3x3 operators.
#[inline(always)]
fn sobel_at(ym: &[f32], yc: &[f32], yp: &[f32], xm: usize, x: usize, xp: usize) -> (f32, f32) {
    let gx = (ym[xp] + 2.0 * yc[xp] + yp[xp]) - (ym[xm] + 2.0 * yc[xm] + yp[xm]);
    let gy = (yp[xm] + 2.0 * yp[x] + yp[xp]) - (ym[xm] + 2.0 * ym[x] + ym[xp]);
    (gx, gy)
}

/// One output row of both Sobel responses: clamped fringe columns, then
/// an interior loop over three shifted row windows.
#[inline(always)]
fn sobel_row(ym: &[f32], yc: &[f32], yp: &[f32], gx: &mut [f32], gy: &mut [f32]) {
    let w = yc.len();
    let (a, b) = sobel_at(ym, yc, yp, 0, 0, 1.min(w - 1));
    gx[0] = a;
    gy[0] = b;
    for x in 1..w.saturating_sub(1) {
        let (a, b) = sobel_at(ym, yc, yp, x - 1, x, x + 1);
        gx[x] = a;
        gy[x] = b;
    }
    if w > 1 {
        let (a, b) = sobel_at(ym, yc, yp, w - 2, w - 1, w - 1);
        gx[w - 1] = a;
        gy[w - 1] = b;
    }
}

/// The three (row-clamped) source rows around `y`.
#[inline(always)]
fn rows3(img: &Image<f32>, y: usize, h: usize) -> (&[f32], &[f32], &[f32]) {
    (img.row(y.saturating_sub(1)), img.row(y), img.row((y + 1).min(h - 1)))
}

#[inline(always)]
fn sobel_band_impl(img: &Image<f32>, y0: usize, gx: &mut [f32], gy: &mut [f32]) {
    let (w, h) = img.dims();
    for (dy, (gxr, gyr)) in gx.chunks_mut(w).zip(gy.chunks_mut(w)).enumerate() {
        let (ym, yc, yp) = rows3(img, y0 + dy, h);
        sobel_row(ym, yc, yp, gxr, gyr);
    }
}

simd_dispatch!(sobel_band => sobel_band_impl(
    img: &Image<f32>,
    y0: usize,
    gx: &mut [f32],
    gy: &mut [f32],
));

/// Gradient images `(gx, gy)` from 3x3 Sobel operators.
pub fn sobel(img: &Image<f32>) -> (Image<f32>, Image<f32>) {
    let (w, h) = img.dims();
    let mut gx = vec![0.0f32; w * h];
    let mut gy = vec![0.0f32; w * h];
    par_rows2_min(&mut gx, &mut gy, w, SMALL_WORK_ELEMS, |y0, bx, by| {
        sobel_band(img, y0, bx, by);
    });
    (
        Image::from_vec(w, h, gx).expect("shape preserved"),
        Image::from_vec(w, h, gy).expect("shape preserved"),
    )
}

#[inline(always)]
fn grad_mag_band_impl(img: &Image<f32>, y0: usize, band: &mut [f32]) {
    let (w, h) = img.dims();
    let mut gx = vec![0.0f32; w];
    let mut gy = vec![0.0f32; w];
    for (dy, orow) in band.chunks_mut(w).enumerate() {
        let (ym, yc, yp) = rows3(img, y0 + dy, h);
        sobel_row(ym, yc, yp, &mut gx, &mut gy);
        for (o, (&a, &b)) in orow.iter_mut().zip(gx.iter().zip(gy.iter())) {
            *o = (a * a + b * b).sqrt();
        }
    }
}

simd_dispatch!(grad_mag_band => grad_mag_band_impl(
    img: &Image<f32>,
    y0: usize,
    band: &mut [f32],
));

/// Gradient magnitude `sqrt(gx^2 + gy^2)`, fused: the Sobel responses
/// live only as two row-length scratch buffers per band — the full
/// gradient images are never materialized.
pub fn gradient_magnitude(img: &Image<f32>) -> Image<f32> {
    let (w, h) = img.dims();
    let mut out = vec![0.0f32; w * h];
    par_rows(&mut out, w, |y0, band| grad_mag_band(img, y0, band));
    Image::from_vec(w, h, out).expect("shape preserved")
}

/// Local standard deviation over a `(2*radius+1)^2` window — the texture
/// energy channel of the grounding feature pyramid.
pub fn local_std(img: &Image<f32>, radius: usize) -> Image<f32> {
    let mean = box_blur(img, radius);
    let sq = img.map(|v| v * v);
    let mean_sq = box_blur(&sq, radius);
    let (w, h) = img.dims();
    let data = par_map_range_min(w * h, SMALL_WORK_ELEMS, |i| {
        let var = mean_sq.as_slice()[i] - mean.as_slice()[i] * mean.as_slice()[i];
        var.max(0.0).sqrt()
    });
    Image::from_vec(w, h, data).expect("shape preserved")
}

/// Structure-tensor orientation coherence in `[0, 1]` per pixel.
///
/// 1 means a strongly oriented neighbourhood (e.g. the needle-like
/// crystalline IrO2 morphology the dataset section describes), 0 an
/// isotropic one. Computed from the smoothed tensor's eigenvalue contrast
/// `((l1 - l2) / (l1 + l2))^2`.
pub fn orientation_coherence(img: &Image<f32>, sigma: f32) -> Image<f32> {
    let (gx, gy) = sobel(img);
    let (w, h) = img.dims();
    let mk = |f: &dyn Fn(usize) -> f32| {
        Image::from_vec(w, h, (0..w * h).map(f).collect()).expect("shape preserved")
    };
    let jxx = mk(&|i| gx.as_slice()[i] * gx.as_slice()[i]);
    let jyy = mk(&|i| gy.as_slice()[i] * gy.as_slice()[i]);
    let jxy = mk(&|i| gx.as_slice()[i] * gy.as_slice()[i]);
    let jxx = gaussian_blur(&jxx, sigma);
    let jyy = gaussian_blur(&jyy, sigma);
    let jxy = gaussian_blur(&jxy, sigma);
    let data = par_map_range_min(w * h, SMALL_WORK_ELEMS, |i| {
        let a = jxx.as_slice()[i];
        let b = jyy.as_slice()[i];
        let c = jxy.as_slice()[i];
        let tr = a + b;
        if tr <= 1e-12 {
            return 0.0;
        }
        let d = ((a - b) * (a - b) + 4.0 * c * c).sqrt();
        (d / tr).clamp(0.0, 1.0)
    });
    Image::from_vec(w, h, data).expect("shape preserved")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_kernel_normalized_symmetric() {
        let k = gaussian_kernel(1.5);
        assert!(k.len() % 2 == 1);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
        }
        // Peak in the middle.
        let mid = k.len() / 2;
        assert!(k.iter().all(|&v| v <= k[mid]));
    }

    #[test]
    fn blur_preserves_constant_images() {
        let img = Image::<f32>::filled(16, 16, 0.37);
        for out in [gaussian_blur(&img, 2.0), box_blur(&img, 3)] {
            for &v in out.as_slice() {
                assert!((v - 0.37).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn blur_preserves_mean_approximately() {
        let img = Image::<f32>::from_fn(32, 32, |x, y| ((x * 31 + y * 17) % 97) as f32 / 97.0);
        let out = gaussian_blur(&img, 1.0);
        assert!((out.mean_norm() - img.mean_norm()).abs() < 0.02);
        // And reduces variance.
        assert!(out.variance_norm() < img.variance_norm());
    }

    #[test]
    fn median_removes_salt_noise() {
        let mut img = Image::<f32>::filled(21, 21, 0.2);
        img.set(10, 10, 1.0); // single hot pixel
        let out = median_filter(&img, 1);
        assert!((out.get(10, 10) - 0.2).abs() < 1e-6);
    }

    #[test]
    fn median_radius_zero_is_identity() {
        let img = Image::<f32>::from_fn(8, 8, |x, y| (x + y) as f32 / 14.0);
        assert_eq!(median_filter(&img, 0), img);
    }

    #[test]
    fn median_preserves_step_edge() {
        let img = Image::<f32>::from_fn(20, 20, |x, _| if x < 10 { 0.0 } else { 1.0 });
        let out = median_filter(&img, 2);
        assert_eq!(out.get(2, 10), 0.0);
        assert_eq!(out.get(17, 10), 1.0);
    }

    #[test]
    fn sobel_detects_vertical_edge() {
        let img = Image::<f32>::from_fn(20, 20, |x, _| if x < 10 { 0.0 } else { 1.0 });
        let (gx, gy) = sobel(&img);
        // Strong horizontal gradient at the edge, none away from it.
        assert!(gx.get(9, 10).abs() > 1.0 || gx.get(10, 10).abs() > 1.0);
        assert!(gx.get(2, 10).abs() < 1e-6);
        assert!(gy.get(10, 10).abs() < 1e-6);
        let mag = gradient_magnitude(&img);
        assert!(mag.get(10, 10) > mag.get(2, 10));
    }

    #[test]
    fn local_std_flat_vs_textured() {
        let flat = Image::<f32>::filled(16, 16, 0.5);
        let tex = Image::<f32>::from_fn(16, 16, |x, y| ((x + y) % 2) as f32);
        let s_flat = local_std(&flat, 2);
        let s_tex = local_std(&tex, 2);
        assert!(s_flat.get(8, 8) < 1e-4);
        assert!(s_tex.get(8, 8) > 0.3);
    }

    #[test]
    fn coherence_high_on_stripes_low_on_flat() {
        // Vertical stripes: strongly oriented.
        let stripes = Image::<f32>::from_fn(32, 32, |x, _| ((x / 2) % 2) as f32);
        let coh = orientation_coherence(&stripes, 2.0);
        assert!(coh.get(16, 16) > 0.8);
        let flat = Image::<f32>::filled(32, 32, 0.4);
        let coh_flat = orientation_coherence(&flat, 2.0);
        assert!(coh_flat.get(16, 16) < 1e-6);
    }

    #[test]
    fn separable_matches_sequential_application() {
        let img = Image::<f32>::from_fn(15, 11, |x, y| ((x * 13 + y * 7) % 19) as f32 / 19.0);
        let k = gaussian_kernel(0.8);
        let a = convolve_separable(&img, &k);
        let b = convolve_cols(&convolve_rows(&img, &k), &k);
        assert_eq!(a, b);
    }
}
