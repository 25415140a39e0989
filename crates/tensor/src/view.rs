//! Zero-copy strided matrix views.
//!
//! A [`MatView`] is a `rows x cols` window whose rows are `stride`
//! elements apart in a flat buffer. Because only the *row* pitch is
//! strided, each row is still a contiguous `&[f32]` — so every row-wise
//! kernel (dot products, softmax, axpy accumulation) runs on views at
//! full speed. The motivating case is multi-head attention: head `h` of
//! a projected `n x dim` token matrix is exactly the column band
//! `[h*head_dim, (h+1)*head_dim)`, which [`Matrix::col_band`] exposes
//! without copying a single element (the old path rebuilt each head with
//! a per-element `from_fn`, then re-concatenated the outputs the same
//! way).

use crate::matrix::Matrix;

/// Immutable strided view over a row-major buffer.
#[derive(Debug, Clone, Copy)]
pub struct MatView<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatView<'a> {
    /// View over `data` where row `r` is `data[r*stride .. r*stride+cols]`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(cols > 0 && rows > 0 && stride >= cols, "bad view geometry");
        assert!(
            data.len() >= (rows - 1) * stride + cols,
            "buffer too short for view: {} < {}",
            data.len(),
            (rows - 1) * stride + cols
        );
        MatView { data, rows, cols, stride }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The rows as a plain chunk iterator when the view is contiguous
    /// (stride == cols), else `None` — lets hot sweeps zip rows without
    /// per-row offset arithmetic.
    #[inline]
    pub fn contiguous_rows(&self) -> Option<core::slice::ChunksExact<'a, f32>> {
        if self.stride == self.cols {
            Some(self.data[..self.rows * self.cols].chunks_exact(self.cols))
        } else {
            None
        }
    }

    /// One row as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.stride..r * self.stride + self.cols]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.stride + c]
    }

    /// Materialize into an owned matrix (row-wise memcpy).
    pub fn to_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(self.row(r));
        }
        out
    }
}

/// Mutable strided view over a row-major buffer.
#[derive(Debug)]
pub struct MatViewMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatViewMut<'a> {
    pub fn new(data: &'a mut [f32], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(cols > 0 && rows > 0 && stride >= cols, "bad view geometry");
        assert!(
            data.len() >= (rows - 1) * stride + cols,
            "buffer too short for view"
        );
        MatViewMut { data, rows, cols, stride }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows `r .. r + R` mutably at once, for kernels that produce `R`
    /// output rows per step.
    #[inline]
    pub fn rows_mut<const R: usize>(&mut self, r: usize) -> [&mut [f32]; R] {
        assert!(r + R <= self.rows, "rows {r}..{} outside the view", r + R);
        let (cols, gap) = (self.cols, self.stride - self.cols);
        let mut rest = &mut self.data[r * self.stride..];
        core::array::from_fn(|_| {
            let (row, tail) = core::mem::take(&mut rest).split_at_mut(cols);
            // The last row of a view need not be followed by a full stride.
            rest = tail.get_mut(gap..).unwrap_or_default();
            row
        })
    }

    /// One row as a contiguous mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.stride..r * self.stride + self.cols]
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.stride..r * self.stride + self.cols]
    }
}

impl Matrix {
    /// Zero-copy view of the whole matrix.
    pub fn view(&self) -> MatView<'_> {
        MatView::new(self.as_slice(), self.rows(), self.cols(), self.cols())
    }

    /// Zero-copy view of columns `c0..c0+width` (e.g. one attention head
    /// of a projected token matrix).
    pub fn col_band(&self, c0: usize, width: usize) -> MatView<'_> {
        assert!(c0 + width <= self.cols(), "column band out of range");
        let stride = self.cols();
        MatView::new(&self.as_slice()[c0..], self.rows(), width, stride)
    }

    /// Mutable zero-copy view of the whole matrix.
    pub fn view_mut(&mut self) -> MatViewMut<'_> {
        let (rows, cols) = (self.rows(), self.cols());
        MatViewMut::new(self.as_mut_slice(), rows, cols, cols)
    }

    /// Mutable zero-copy view of columns `c0..c0+width`.
    pub fn col_band_mut(&mut self, c0: usize, width: usize) -> MatViewMut<'_> {
        assert!(c0 + width <= self.cols(), "column band out of range");
        let (rows, stride) = (self.rows(), self.cols());
        MatViewMut::new(&mut self.as_mut_slice()[c0..], rows, width, stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_band_views_expected_cells() {
        let m = Matrix::from_fn(4, 6, |r, c| (r * 10 + c) as f32);
        let band = m.col_band(2, 3);
        assert_eq!((band.rows(), band.cols()), (4, 3));
        for r in 0..4 {
            for c in 0..3 {
                assert_eq!(band.get(r, c), m.get(r, 2 + c));
            }
            assert_eq!(band.row(r), &m.row(r)[2..5]);
        }
        assert_eq!(band.to_matrix().get(3, 2), m.get(3, 4));
    }

    #[test]
    fn col_band_mut_writes_through() {
        let mut m = Matrix::zeros(3, 5);
        {
            let mut band = m.col_band_mut(1, 2);
            for r in 0..3 {
                band.row_mut(r).fill(r as f32 + 1.0);
            }
        }
        for r in 0..3 {
            assert_eq!(m.get(r, 0), 0.0);
            assert_eq!(m.get(r, 1), r as f32 + 1.0);
            assert_eq!(m.get(r, 2), r as f32 + 1.0);
            assert_eq!(m.get(r, 3), 0.0);
        }
    }

    #[test]
    fn full_view_is_whole_matrix() {
        let m = Matrix::seeded_uniform(5, 7, 1.0, 1);
        let v = m.view();
        for r in 0..5 {
            assert_eq!(v.row(r), m.row(r));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_band_panics() {
        let m = Matrix::zeros(2, 4);
        let _ = m.col_band(2, 3);
    }

    #[test]
    fn rows_mut_hands_out_disjoint_rows_of_a_strided_band() {
        let mut m = Matrix::zeros(6, 5);
        {
            let mut band = m.col_band_mut(1, 3);
            for (i, row) in band.rows_mut::<4>(2).into_iter().enumerate() {
                assert_eq!(row.len(), 3);
                row.fill(i as f32 + 1.0);
            }
            // The band's last row: no full stride follows it.
            let [last] = band.rows_mut::<1>(5);
            last.fill(9.0);
        }
        for r in 0..6 {
            let want = match r {
                2..=4 => (r - 1) as f32,
                5 => 9.0,
                _ => 0.0,
            };
            assert_eq!(m.get(r, 0), 0.0, "outside band untouched");
            assert_eq!(m.get(r, 4), 0.0, "outside band untouched");
            for c in 1..4 {
                assert_eq!(m.get(r, c), want, "row {r} col {c}");
            }
        }
    }
}
