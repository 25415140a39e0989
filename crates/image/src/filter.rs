//! Spatial filtering: separable convolution, Gaussian smoothing, median
//! filtering, Sobel gradient magnitude, and the windowed statistics of the
//! feature pyramid (local deviation, structure-tensor coherence).
//!
//! Filters operate on canonical `f32` images with replicate borders and are
//! parallelised over row bands via `zenesis-par` (the hot loops of the
//! adaptation layer and the visual feature pyramid run through here).
//!
//! The convolution and Sobel kernels walk output rows with tap-outer
//! (axpy) inner loops over contiguous row slices — no per-pixel
//! coordinate arithmetic or clamped gather — and are compiled twice
//! (portable baseline + AVX2 `#[target_feature]` re-compilation of the
//! same body) with runtime dispatch by `zenesis_tensor::simd_dispatch!`.
//! Per-pixel accumulation order is fixed (kernel taps in ascending
//! order), so results are bit-identical across dispatch levels, thread
//! counts, and to the pre-rewrite per-pixel gather loops — the committed
//! pipeline checksums (e.g. the `tiff-smoke` golden mask) rely on this.
//!
//! A statistic built from several smoothed planes (the box moments of
//! [`local_std`], the tensor products of [`orientation_coherence`]) writes
//! its row-pass planes side by side in one buffer of `planes * w` floats
//! per row, so one row band covers every plane; the column pass reduces
//! each output row from row scratch. Per-pixel intermediates (Sobel
//! responses, squares, products) never exist as full rasters.

use crate::image::Image;
use zenesis_par::{par_rows, par_rows_min, SMALL_WORK_ELEMS};
use zenesis_tensor::simd_dispatch;

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

/// Row-convolve one source row into `out`: taps in ascending order, each
/// an [`axpy_shifted_clamped`] — per-pixel accumulation order matches the
/// naive gather exactly.
#[inline(always)]
fn conv_row(src: &[f32], kernel: &[f32], out: &mut [f32]) {
    let r = kernel.len() as isize / 2;
    for (j, &kv) in kernel.iter().enumerate() {
        axpy_shifted_clamped(src, kv, j as isize - r, out);
    }
}

/// Column-convolve row `y` of a flat buffer of `row_len`-element rows
/// into `out`: each tap is a plain axpy of the (row-clamped) source row.
#[inline(always)]
fn conv_col_row(src: &[f32], row_len: usize, kernel: &[f32], y: usize, out: &mut [f32]) {
    let h = (src.len() / row_len) as isize;
    let r = kernel.len() as isize / 2;
    for (j, &kv) in kernel.iter().enumerate() {
        let sy = (y as isize + j as isize - r).clamp(0, h - 1) as usize;
        for (o, &v) in out.iter_mut().zip(&src[sy * row_len..(sy + 1) * row_len]) {
            *o += kv * v;
        }
    }
}

#[inline(always)]
fn conv_rows_band_impl(img: &Image<f32>, kernel: &[f32], y0: usize, band: &mut [f32]) {
    for (dy, orow) in band.chunks_mut(img.width()).enumerate() {
        conv_row(img.row(y0 + dy), kernel, orow);
    }
}

simd_dispatch!(conv_rows_band => conv_rows_band_impl(
    img: &Image<f32>,
    kernel: &[f32],
    y0: usize,
    band: &mut [f32],
));

#[inline(always)]
fn conv_cols_band_impl(img: &Image<f32>, kernel: &[f32], y0: usize, band: &mut [f32]) {
    let w = img.width();
    for (dy, orow) in band.chunks_mut(w).enumerate() {
        conv_col_row(img.as_slice(), w, kernel, y0 + dy, orow);
    }
}

simd_dispatch!(conv_cols_band => conv_cols_band_impl(
    img: &Image<f32>,
    kernel: &[f32],
    y0: usize,
    band: &mut [f32],
));

/// Convolve rows with `kernel` (odd length), replicate border.
pub(crate) fn convolve_rows(img: &Image<f32>, kernel: &[f32]) -> Image<f32> {
    assert!(kernel.len() % 2 == 1, "kernel length must be odd");
    let (w, h) = img.dims();
    let mut out = vec![0.0f32; w * h];
    par_rows(&mut out, w, |y0, band| {
        conv_rows_band(img, kernel, y0, band)
    });
    Image::from_vec(w, h, out).expect("shape preserved")
}

/// Convolve columns with `kernel` (odd length), replicate border.
pub(crate) fn convolve_cols(img: &Image<f32>, kernel: &[f32]) -> Image<f32> {
    assert!(kernel.len() % 2 == 1, "kernel length must be odd");
    let (w, h) = img.dims();
    let mut out = vec![0.0f32; w * h];
    par_rows(&mut out, w, |y0, band| {
        conv_cols_band(img, kernel, y0, band)
    });
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
    (
        img.row(y.saturating_sub(1)),
        img.row(y),
        img.row((y + 1).min(h - 1)),
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

/// Pass 1 of [`local_std`]: per source row, the row-convolved mean and
/// mean-square planes side by side (`2w` floats per row).
#[inline(always)]
fn moments_rows_band_impl(img: &Image<f32>, kernel: &[f32], y0: usize, band: &mut [f32]) {
    let w = img.width();
    let mut sq = vec![0.0f32; w];
    for (dy, orow) in band.chunks_mut(2 * w).enumerate() {
        let src = img.row(y0 + dy);
        for (s, &v) in sq.iter_mut().zip(src) {
            *s = v * v;
        }
        let (mean, mean_sq) = orow.split_at_mut(w);
        conv_row(src, kernel, mean);
        conv_row(&sq, kernel, mean_sq);
    }
}

simd_dispatch!(moments_rows_band => moments_rows_band_impl(
    img: &Image<f32>,
    kernel: &[f32],
    y0: usize,
    band: &mut [f32],
));

/// Pass 2 of [`local_std`]: column-convolve both planes of an output row
/// into row scratch, then `sqrt(max(E[v^2] - E[v]^2, 0))`.
#[inline(always)]
fn std_cols_band_impl(rows: &[f32], w: usize, kernel: &[f32], y0: usize, band: &mut [f32]) {
    let mut acc = vec![0.0f32; 2 * w];
    for (dy, orow) in band.chunks_mut(w).enumerate() {
        acc.fill(0.0);
        conv_col_row(rows, 2 * w, kernel, y0 + dy, &mut acc);
        let (mean, mean_sq) = acc.split_at(w);
        for (o, (&m, &m2)) in orow.iter_mut().zip(mean.iter().zip(mean_sq)) {
            let var = m2 - m * m;
            *o = var.max(0.0).sqrt();
        }
    }
}

simd_dispatch!(std_cols_band => std_cols_band_impl(
    rows: &[f32],
    w: usize,
    kernel: &[f32],
    y0: usize,
    band: &mut [f32],
));

/// Local standard deviation over a `(2*radius+1)^2` window — the texture
/// energy channel of the grounding feature pyramid.
///
/// The box means of `v` and `v^2` are separable convolutions with taps
/// `1 / (2*radius + 1)`; their row passes land interleaved in one `2w`-wide
/// buffer, and the column pass reduces each output row straight to the
/// deviation, so a call holds two full rasters.
pub fn local_std(img: &Image<f32>, radius: usize) -> Image<f32> {
    let len = 2 * radius + 1;
    let kernel = vec![1.0 / len as f32; len];
    let (w, h) = img.dims();
    let mut rows = vec![0.0f32; 2 * w * h];
    par_rows_min(&mut rows, 2 * w, 2 * SMALL_WORK_ELEMS, |y0, band| {
        moments_rows_band(img, &kernel, y0, band)
    });
    let mut out = vec![0.0f32; w * h];
    par_rows(&mut out, w, |y0, band| {
        std_cols_band(&rows, w, &kernel, y0, band)
    });
    Image::from_vec(w, h, out).expect("shape preserved")
}

/// Pass 1 of [`orientation_coherence`]: per source row, the Sobel
/// responses, the three tensor products `gx^2`, `gy^2`, `gx*gy`, and
/// their row convolutions side by side (`3w` floats per row).
#[inline(always)]
fn tensor_rows_band_impl(img: &Image<f32>, kernel: &[f32], y0: usize, band: &mut [f32]) {
    let (w, h) = img.dims();
    let mut grad = vec![0.0f32; 2 * w];
    let mut prod = vec![0.0f32; 3 * w];
    for (dy, orow) in band.chunks_mut(3 * w).enumerate() {
        let (ym, yc, yp) = rows3(img, y0 + dy, h);
        let (gx, gy) = grad.split_at_mut(w);
        sobel_row(ym, yc, yp, gx, gy);
        let (jxx, rest) = prod.split_at_mut(w);
        let (jyy, jxy) = rest.split_at_mut(w);
        let products = jxx.iter_mut().zip(jyy.iter_mut()).zip(jxy.iter_mut());
        for (((a, b), c), (&x, &y)) in products.zip(gx.iter().zip(gy.iter())) {
            (*a, *b, *c) = (x * x, y * y, x * y);
        }
        for (src, out) in prod.chunks_exact(w).zip(orow.chunks_exact_mut(w)) {
            conv_row(src, kernel, out);
        }
    }
}

simd_dispatch!(tensor_rows_band => tensor_rows_band_impl(
    img: &Image<f32>,
    kernel: &[f32],
    y0: usize,
    band: &mut [f32],
));

/// Pass 2 of [`orientation_coherence`]: column-convolve the three tensor
/// planes of an output row into row scratch, then the eigenvalue contrast.
#[inline(always)]
fn coherence_cols_band_impl(rows: &[f32], w: usize, kernel: &[f32], y0: usize, band: &mut [f32]) {
    let mut acc = vec![0.0f32; 3 * w];
    for (dy, orow) in band.chunks_mut(w).enumerate() {
        acc.fill(0.0);
        conv_col_row(rows, 3 * w, kernel, y0 + dy, &mut acc);
        let (jxx, rest) = acc.split_at(w);
        let (jyy, jxy) = rest.split_at(w);
        for (o, ((&a, &b), &c)) in orow.iter_mut().zip(jxx.iter().zip(jyy).zip(jxy)) {
            let tr = a + b;
            *o = if tr <= 1e-12 {
                0.0
            } else {
                let d = ((a - b) * (a - b) + 4.0 * c * c).sqrt();
                (d / tr).clamp(0.0, 1.0)
            };
        }
    }
}

simd_dispatch!(coherence_cols_band => coherence_cols_band_impl(
    rows: &[f32],
    w: usize,
    kernel: &[f32],
    y0: usize,
    band: &mut [f32],
));

/// Structure-tensor orientation coherence in `[0, 1]` per pixel.
///
/// 1 means a strongly oriented neighbourhood (e.g. the needle-like
/// crystalline IrO2 morphology the dataset section describes), 0 an
/// isotropic one. Computed from the Gaussian-smoothed tensor's eigenvalue
/// contrast `((l1 - l2) / (l1 + l2))^2`. The Sobel responses and their
/// products live only in row scratch; the three row-smoothed planes land
/// interleaved in one `3w`-wide buffer, so a call holds two full rasters.
pub fn orientation_coherence(img: &Image<f32>, sigma: f32) -> Image<f32> {
    let kernel = gaussian_kernel(sigma);
    let (w, h) = img.dims();
    let mut rows = vec![0.0f32; 3 * w * h];
    par_rows_min(&mut rows, 3 * w, 3 * SMALL_WORK_ELEMS, |y0, band| {
        tensor_rows_band(img, &kernel, y0, band)
    });
    let mut out = vec![0.0f32; w * h];
    par_rows(&mut out, w, |y0, band| {
        coherence_cols_band(&rows, w, &kernel, y0, band)
    });
    Image::from_vec(w, h, out).expect("shape preserved")
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
        for &v in gaussian_blur(&img, 2.0).as_slice() {
            assert!((v - 0.37).abs() < 1e-5);
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
    fn gradient_magnitude_detects_vertical_edge() {
        let img = Image::<f32>::from_fn(20, 20, |x, _| if x < 10 { 0.0 } else { 1.0 });
        let mag = gradient_magnitude(&img);
        // Strong response at the edge, none away from it.
        assert!(mag.get(9, 10) > 1.0 || mag.get(10, 10) > 1.0);
        assert!(mag.get(2, 10) < 1e-6);
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
