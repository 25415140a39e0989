//! Row-wise kernels: the stable softmax of Eq. 1 and its fast `exp`.
//!
//! The softmax row loop is compiled twice — portable baseline and an
//! AVX2 `#[target_feature]` re-compilation of the same body — and
//! dispatched at runtime by `simd_dispatch!`. Both builds execute the
//! identical per-element IEEE operations in the same order, so results
//! are bit-identical across dispatch levels (the contract `src/simd.rs`
//! documents).

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

/// Numerically-stable softmax applied independently to each row — the
/// attention normalizer of the paper's Eq. (1).
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// [`softmax_rows`] in place — row-parallel and SIMD-dispatched; rows
/// are independent, so banding never changes results.
pub(crate) fn softmax_rows_inplace(m: &mut Matrix) {
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
crate::simd_dispatch!(softmax_band => softmax_band_impl(cols: usize, band: &mut [f32]));

/// In-place stable softmax over one score row.
#[inline]
pub(crate) fn softmax_row(row: &mut [f32]) {
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
}
