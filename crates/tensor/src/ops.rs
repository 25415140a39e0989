//! Row-wise and pointwise neural kernels: softmax, layer norm, GELU.
//!
//! The hot row and pointwise loops (softmax, layer norm, GELU) are
//! compiled twice — portable baseline and an AVX2 `#[target_feature]`
//! re-compilation of the same body — and dispatched at runtime by
//! `simd_dispatch!`. Both
//! builds execute the identical per-element IEEE operations in the same
//! order, so results are bit-identical across dispatch levels (the
//! contract `src/simd.rs` documents).

use crate::matrix::Matrix;
use zenesis_par::par_rows;

/// Fast `e^x` for `f32`: range-reduce to `x = n·ln2 + r`, evaluate a
/// degree-5 polynomial for `e^r` on `|r| ≤ ln2/2`, and reconstruct the
/// power of two by exponent-field arithmetic. Branch-free and built from
/// plain mul/add/bit ops, so the autovectorizer turns softmax loops into
/// SIMD — unlike calls into libm's `expf`, which serialize the row.
///
/// Relative error is below `4e-6` over `[-20, 20]` (≤ 48 ULP, pinned by
/// `fast_exp_pinned_accuracy_over_softmax_domain`); inputs are
/// clamped to `[-87, 88]` (softmax arguments are `≤ 0` after the max
/// subtraction, so the clamp only touches terms that are zero anyway).
#[inline(always)]
#[allow(clippy::excessive_precision)] // LN2_HI's digits are the exact f32 value: the hi/lo split relies on it
pub fn fast_exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Round-to-nearest via the 1.5·2^23 magic constant: valid for the
    // clamped domain and free of the libm `roundf` call.
    const MAGIC: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 88.0);
    let nf = (x * LOG2E + MAGIC) - MAGIC;
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    // e^r, degree-5 minimax-ish (Taylor) on |r| ≤ 0.3466.
    let p = 1.0
        + r * (1.0 + r * (0.5 + r * (1.666_666_7e-1 + r * (4.166_666_8e-2 + r * 8.333_334e-3))));
    let scale = f32::from_bits((((nf as i32) + 127) << 23) as u32);
    scale * p
}

/// Fast `tanh` built on [`fast_exp`]: `tanh(x) = 1 − 2 / (e^{2x} + 1)`.
/// Branch-free mul/add/div, so loops over it stay vectorizable — unlike
/// libm's `tanhf`, which serializes the whole row behind a call. The
/// `fast_exp` clamp saturates the ratio to ±1 for large `|x|`; absolute
/// error stays below `2e-6` everywhere.
#[inline(always)]
pub fn fast_tanh(x: f32) -> f32 {
    let e2x = fast_exp(2.0 * x);
    1.0 - 2.0 / (e2x + 1.0)
}

/// Numerically-stable softmax applied independently to each row — the
/// attention normalizer of the paper's Eq. (1).
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// [`softmax_rows`] in place — row-parallel and SIMD-dispatched; rows
/// are independent, so banding never changes results.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    par_rows(m.as_mut_slice(), cols, |_, band| {
        softmax_band(cols, band);
    });
}

#[inline(always)]
fn softmax_band_impl(cols: usize, band: &mut [f32]) {
    for row in band.chunks_mut(cols) {
        softmax_row(row);
    }
}

// Runtime-dispatched softmax over a band of rows (see `src/simd.rs`).
crate::simd_dispatch!(pub(crate) softmax_band => softmax_band_impl(cols: usize, band: &mut [f32]));

/// In-place stable softmax over one score row (shared by [`softmax_rows`]
/// and the fused attention kernel).
#[inline]
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = fast_exp(*v - max);
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Per-row layer normalization with learnable-free unit gain:
/// `(x - mean) / sqrt(var + eps)`.
pub fn layernorm_rows(m: &Matrix, eps: f32) -> Matrix {
    let mut out = m.clone();
    layernorm_inplace(&mut out, eps);
    out
}

/// [`layernorm_rows`] into a caller-provided (workspace-recycled) output
/// matrix of the same shape — no allocation on the steady-state path.
pub fn layernorm_rows_into(m: &Matrix, out: &mut Matrix, eps: f32) {
    assert_eq!(
        (m.rows(), m.cols()),
        (out.rows(), out.cols()),
        "layernorm output shape mismatch"
    );
    out.as_mut_slice().copy_from_slice(m.as_slice());
    layernorm_inplace(out, eps);
}

fn layernorm_inplace(out: &mut Matrix, eps: f32) {
    let cols = out.cols();
    par_rows(out.as_mut_slice(), cols, |_, band| {
        layernorm_band(cols, eps, band);
    });
}

/// One band of layernorm rows. The mean and variance reductions run in
/// eight fixed lanes folded by a fixed tree — the same order at every
/// SIMD level and thread count, so the dispatch stays bit-stable (see
/// `softmax_band` for the pattern).
#[inline(always)]
fn layernorm_band_impl(cols: usize, eps: f32, band: &mut [f32]) {
    for row in band.chunks_mut(cols) {
        let mut sm = [0.0f32; 8];
        let ch = row.chunks_exact(8);
        let mut sum: f32 = ch.remainder().iter().sum();
        for c in ch {
            for l in 0..8 {
                sm[l] += c[l];
            }
        }
        sum += (sm[0] + sm[4]) + (sm[1] + sm[5]) + ((sm[2] + sm[6]) + (sm[3] + sm[7]));
        let mean = sum / cols as f32;
        let mut vm = [0.0f32; 8];
        let ch = row.chunks_exact(8);
        let mut var: f32 = ch.remainder().iter().map(|v| (v - mean) * (v - mean)).sum();
        for c in ch {
            for l in 0..8 {
                let d = c[l] - mean;
                vm[l] += d * d;
            }
        }
        var += (vm[0] + vm[4]) + (vm[1] + vm[5]) + ((vm[2] + vm[6]) + (vm[3] + vm[7]));
        let inv = 1.0 / (var / cols as f32 + eps).sqrt();
        for v in row.iter_mut() {
            *v = (*v - mean) * inv;
        }
    }
}

crate::simd_dispatch!(layernorm_band => layernorm_band_impl(
    cols: usize, eps: f32, band: &mut [f32],
));

/// GELU activation (tanh approximation, as in the ViT reference impl),
/// with the inner `tanh` evaluated by [`fast_tanh`] so the encoder MLP
/// loop vectorizes instead of serializing behind libm's `tanhf` (the
/// single largest flat cost in the ViT/SAM encode benches). Differs from
/// the libm evaluation by under `1e-6` absolute — far inside the `1e-4`
/// kernel parity budget.
#[inline]
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + fast_tanh(SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)))
}

#[inline(always)]
fn gelu_slice_impl(data: &mut [f32]) {
    for v in data {
        *v = gelu(*v);
    }
}

crate::simd_dispatch!(gelu_slice => gelu_slice_impl(data: &mut [f32]));

/// Apply GELU to every element in place — row-parallel and
/// SIMD-dispatched; elementwise, so banding never changes results.
pub fn gelu_inplace(m: &mut Matrix) {
    let cols = m.cols().max(1);
    par_rows(m.as_mut_slice(), cols, |_, band| gelu_slice(band));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_exp_matches_libm() {
        // Dense sweep over the softmax-relevant domain plus the clamp
        // edges: relative error must stay well under the 1e-4 kernel
        // parity budget.
        let mut x = -30.0f32;
        while x <= 10.0 {
            let approx = fast_exp(x);
            let exact = x.exp();
            let rel = (approx - exact).abs() / exact.max(f32::MIN_POSITIVE);
            assert!(rel < 1e-5, "x={x}: {approx} vs {exact} (rel {rel})");
            x += 0.0137;
        }
        assert_eq!(fast_exp(0.0), 1.0);
        assert!(fast_exp(-200.0) >= 0.0 && fast_exp(-200.0) < 1e-30);
        assert!(fast_exp(100.0).is_finite());
    }

    #[test]
    fn fast_exp_pinned_accuracy_over_softmax_domain() {
        // Pinned contract: over [-20, 20] (the domain softmax arguments
        // land in after max-subtraction, plus headroom), fast_exp stays
        // within 48 ULP and 4e-6 relative error of libm (measured: 39
        // ULP / 3.3e-6). Future softmax or polynomial changes that
        // degrade the bound fail here rather than silently shifting IoU.
        let mut max_ulp: u32 = 0;
        let mut max_rel: f32 = 0.0;
        let mut i = 0u32;
        while i <= 40_000 {
            let x = -20.0 + i as f32 * 1e-3;
            let approx = fast_exp(x);
            let exact = x.exp();
            assert!(approx > 0.0 && approx.is_finite(), "x={x}: {approx}");
            // Both values are positive finite floats, so the bit-space
            // distance is the ULP distance.
            let ulp = (approx.to_bits() as i64 - exact.to_bits() as i64).unsigned_abs() as u32;
            let rel = (approx - exact).abs() / exact;
            max_ulp = max_ulp.max(ulp);
            max_rel = max_rel.max(rel);
            i += 1;
        }
        assert!(max_ulp <= 48, "max ULP error {max_ulp} exceeds pinned bound 48");
        assert!(max_rel <= 4e-6, "max relative error {max_rel} exceeds pinned bound 4e-6");
    }

    #[test]
    fn fast_tanh_close_to_libm_and_saturates() {
        let mut x = -10.0f32;
        while x <= 10.0 {
            let a = fast_tanh(x);
            let e = x.tanh();
            assert!((a - e).abs() < 2e-6, "x={x}: {a} vs {e}");
            x += 0.0113;
        }
        assert_eq!(fast_tanh(0.0), 0.0);
        assert_eq!(fast_tanh(50.0), 1.0);
        assert_eq!(fast_tanh(-50.0), -1.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::seeded_uniform(7, 13, 4.0, 10);
        let s = softmax_rows(&m);
        for r in 0..7 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(r).iter().all(|&v| v > 0.0 && v <= 1.0));
        }
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let mut shifted = m.clone();
        for v in shifted.as_mut_slice() {
            *v += 100.0;
        }
        let a = softmax_rows(&m);
        let b = softmax_rows(&shifted);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_monotone() {
        let m = Matrix::from_vec(1, 3, vec![0.0, 1.0, 2.0]);
        let s = softmax_rows(&m);
        assert!(s.get(0, 0) < s.get(0, 1));
        assert!(s.get(0, 1) < s.get(0, 2));
    }

    #[test]
    fn softmax_extreme_values_stable() {
        let m = Matrix::from_vec(1, 3, vec![1000.0, 0.0, -1000.0]);
        let s = softmax_rows(&m);
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        assert!((s.get(0, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let m = Matrix::seeded_uniform(5, 64, 3.0, 11);
        let n = layernorm_rows(&m, 1e-5);
        for r in 0..5 {
            let mean: f32 = n.row(r).iter().sum::<f32>() / 64.0;
            let var: f32 = n.row(r).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_constant_row_is_zero() {
        let m = Matrix::from_vec(1, 8, vec![5.0; 8]);
        let n = layernorm_rows(&m, 1e-5);
        assert!(n.as_slice().iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // Asymptotics.
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_monotone_on_positive() {
        let mut prev = gelu(0.0);
        for i in 1..100 {
            let v = gelu(i as f32 * 0.1);
            assert!(v >= prev);
            prev = v;
        }
    }
}
