//! Row-major `f32` matrices with parallel blocked multiplication.

use crate::matmul::matmul_packed;
use crate::workspace::Workspace;

/// Transpose tile side: a `TILE x TILE` block of `f32` is 4 KiB — two
/// tiles (source + destination) sit comfortably in L1, so both the
/// strided reads and the strided writes stay within cached lines.
const TRANSPOSE_TILE: usize = 32;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap a buffer of length `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        assert!(rows > 0 && cols > 0);
        Matrix { rows, cols, data }
    }

    /// Build by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Deterministic pseudo-random matrix in `[-scale, scale]` from a
    /// seed — the grounding projection's "weights". A split-mix
    /// generator keeps this dependency-free and reproducible.
    pub fn seeded_uniform(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z = z ^ (z >> 31);
            // Map to [-1, 1).
            (z >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0
        };
        let data = (0..rows * cols).map(|_| next() * scale).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Blocked transpose: walks `TRANSPOSE_TILE`-square tiles so both the
    /// source reads and the destination writes stay within L1-resident
    /// lines (the naive row-major scan write-misses every element for
    /// matrices wider than a few cache lines).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        let (rows, cols) = (self.rows, self.cols);
        for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
            let r1 = (r0 + TRANSPOSE_TILE).min(rows);
            for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
                let c1 = (c0 + TRANSPOSE_TILE).min(cols);
                for r in r0..r1 {
                    for c in c0..c1 {
                        out.data[c * rows + r] = self.data[r * cols + c];
                    }
                }
            }
        }
        out
    }

    /// Matrix multiplication `self * rhs` through the panel-packed
    /// blocked kernel (see `src/matmul.rs`), using the calling
    /// thread's scratch pool for the packing buffer and output.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.product(&rhs.data, rhs.cols, false)
    }

    /// `self * rhs^T` without materializing the transpose (useful for
    /// `Q K^T` where both operands are row-major token matrices).
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.product(&rhs.data, rhs.rows, true)
    }

    /// `self` (`m x k`) times `rhs`, which holds `k x n` row-major — or
    /// `n x k` when `transposed`, for `self * rhsᵀ`.
    fn product(&self, rhs: &[f32], n: usize, transposed: bool) -> Matrix {
        let (m, k) = (self.rows, self.cols);
        Workspace::with(|ws| {
            let mut out = ws.matrix(m, n);
            matmul_packed(&self.data, m, k, rhs, n, transposed, out.as_mut_slice(), ws);
            out
        })
    }

    /// Scale every element, in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Matrix::seeded_uniform(13, 29, 1.0, 1);
        let b = Matrix::seeded_uniform(29, 17, 1.0, 2);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::seeded_uniform(8, 8, 1.0, 3);
        let i = Matrix::identity(8);
        assert_eq!(a.matmul(&i), a);
        let left = i.matmul(&a);
        for (x, y) in left.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_transposed_consistent() {
        let a = Matrix::seeded_uniform(7, 11, 1.0, 4);
        let b = Matrix::seeded_uniform(9, 11, 1.0, 5);
        let direct = a.matmul_transposed(&b);
        let via_t = a.matmul(&b.transpose());
        for (x, y) in direct.as_slice().iter().zip(via_t.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::seeded_uniform(5, 9, 2.0, 6);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(3, 2), a.get(2, 3));
    }

    #[test]
    fn blocked_transpose_non_square_shapes() {
        // Shapes straddling the tile size in one or both dimensions, plus
        // degenerate single-row/column cases.
        for &(r, c) in &[
            (1, 100),
            (100, 1),
            (31, 33),
            (32, 32),
            (33, 65),
            (70, 40),
            (129, 3),
        ] {
            let a = Matrix::seeded_uniform(r, c, 1.0, (r * 1000 + c) as u64);
            let t = a.transpose();
            assert_eq!((t.rows(), t.cols()), (c, r), "{r}x{c}");
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.get(j, i), a.get(i, j), "{r}x{c} at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn scale_multiplies_every_element() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 4.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[0.5, -1.0, 1.5, 2.0]);
    }

    #[test]
    fn seeded_uniform_deterministic_and_bounded() {
        let a = Matrix::seeded_uniform(10, 10, 0.3, 42);
        let b = Matrix::seeded_uniform(10, 10, 0.3, 42);
        assert_eq!(a, b);
        let c = Matrix::seeded_uniform(10, 10, 0.3, 43);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|v| v.abs() <= 0.3));
        // Non-degenerate: mean near zero, spread non-trivial.
        let mean: f32 = a.as_slice().iter().sum::<f32>() / 100.0;
        assert!(mean.abs() < 0.1);
    }

    #[test]
    fn matmul_associativity_small() {
        let a = Matrix::seeded_uniform(4, 5, 0.5, 7);
        let b = Matrix::seeded_uniform(5, 6, 0.5, 8);
        let c = Matrix::seeded_uniform(6, 3, 0.5, 9);
        let l = a.matmul(&b).matmul(&c);
        let r = a.matmul(&b.matmul(&c));
        for (x, y) in l.as_slice().iter().zip(r.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}
