//! Packed binary masks with set algebra.
//!
//! Segmentation outputs, ground truth, and every metric computation flow
//! through [`BitMask`]: a word-packed bitset with image dimensions attached.
//! Packing matters — the evaluation dashboard compares tens of masks per
//! dataset, and word-at-a-time AND/OR/XOR plus `count_ones` keep the metric
//! kernels memory-bound rather than branch-bound.

use crate::error::{ImageError, Result};
use crate::geometry::{BoxRegion, Point};
use crate::image::Image;
use crate::pixel::Pixel;

/// A word with the low `n` bits set (`1 <= n <= 64`).
#[inline]
fn low_bits(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

/// Read `n` bits (`1 <= n <= 64`) starting at bit index `bit`.
#[inline]
fn load_bits(words: &[u64], bit: usize, n: usize) -> u64 {
    let (i, sh) = (bit / 64, bit % 64);
    let mut v = words[i] >> sh;
    if sh + n > 64 {
        v |= words[i + 1] << (64 - sh);
    }
    v & low_bits(n)
}

/// Overwrite `n` bits (`1 <= n <= 64`) starting at bit index `bit` with
/// the low `n` bits of `v`.
#[inline]
fn store_bits(words: &mut [u64], bit: usize, n: usize, v: u64) {
    let (i, sh) = (bit / 64, bit % 64);
    let keep = low_bits(n);
    let v = v & keep;
    words[i] = (words[i] & !(keep << sh)) | (v << sh);
    if sh + n > 64 {
        words[i + 1] = (words[i + 1] & !(keep >> (64 - sh))) | (v >> (64 - sh));
    }
}

/// Copy `n` bits from `src` at bit index `src_bit` over `dst` at
/// `dst_bit`, a word's worth at a time.
fn copy_bits(dst: &mut [u64], dst_bit: usize, src: &[u64], src_bit: usize, n: usize) {
    let mut done = 0;
    while done < n {
        let k = (n - done).min(64);
        store_bits(dst, dst_bit + done, k, load_bits(src, src_bit + done, k));
        done += k;
    }
}

/// A `width x height` binary mask packed into 64-bit words, row-major.
///
/// Bit `y * width + x` holds pixel `(x, y)`: rows are **not** padded to a
/// word boundary, so a row generally starts in the middle of a word.
/// Kernels that shift or combine whole rows work on a row-aligned copy
/// (the crate-internal `to_rows` / `from_rows`) instead of on `words`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    width: usize,
    height: usize,
    words: Vec<u64>,
}

impl BitMask {
    /// All-false mask.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mask dimensions must be non-zero");
        let bits = width * height;
        BitMask {
            width,
            height,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// All-true mask.
    pub fn full(width: usize, height: usize) -> Self {
        let mut m = Self::new(width, height);
        for w in &mut m.words {
            *w = u64::MAX;
        }
        m.clear_tail();
        m
    }

    /// Threshold an image: `true` where `pixel > thr` (canonical domain).
    pub fn from_threshold<T: Pixel>(img: &Image<T>, thr: f32) -> Self {
        Self::from_slice(img.width(), img.height(), img.as_slice(), |v| {
            v.to_norm() > thr
        })
    }

    /// Build from a predicate over coordinates (evaluated row-major).
    pub fn from_fn(width: usize, height: usize, f: impl Fn(usize, usize) -> bool) -> Self {
        let mut m = Self::new(width, height);
        let (mut x, mut y) = (0, 0);
        for word in &mut m.words {
            for bit in 0..64 {
                if y == height {
                    break;
                }
                *word |= (f(x, y) as u64) << bit;
                x += 1;
                if x == width {
                    (x, y) = (0, y + 1);
                }
            }
        }
        m
    }

    /// Build from one value per pixel (row-major) and a predicate on it:
    /// 64 predicate bits are gathered in a register and stored as one
    /// word, instead of a read-modify-write of the backing vector per
    /// pixel.
    pub(crate) fn from_slice<T>(
        width: usize,
        height: usize,
        data: &[T],
        pred: impl Fn(&T) -> bool,
    ) -> Self {
        let mut m = Self::new(width, height);
        assert_eq!(data.len(), m.len(), "one value per pixel");
        for (word, chunk) in m.words.iter_mut().zip(data.chunks(64)) {
            let mut acc = 0u64;
            for (bit, v) in chunk.iter().enumerate() {
                acc |= (pred(v) as u64) << bit;
            }
            *word = acc;
        }
        m
    }

    /// Mask that is true exactly inside `region` (clamped to the raster).
    pub fn from_box(width: usize, height: usize, region: BoxRegion) -> Self {
        let r = region.clamp_to(width, height);
        let mut m = Self::new(width, height);
        if !r.is_empty() {
            m.paste(&Self::full(r.width(), r.height()), r.x0, r.y0);
        }
        m
    }

    /// The packed 64-bit words, row-major (serialization — the checkpoint
    /// journal encodes masks word-for-word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a mask from its packed words (inverse of [`words`](Self::words)).
    ///
    /// `words.len()` must match the packed length for the dimensions; tail
    /// bits beyond `width * height` are cleared, so round-trips are exact
    /// even if the source was sloppy about them.
    pub fn from_words(width: usize, height: usize, words: Vec<u64>) -> Self {
        assert!(width > 0 && height > 0, "mask dimensions must be non-zero");
        assert_eq!(
            words.len(),
            (width * height).div_ceil(64),
            "word count must match dimensions"
        );
        let mut m = BitMask {
            width,
            height,
            words,
        };
        m.clear_tail();
        m
    }

    /// Words per row of the row-aligned form.
    #[inline]
    pub(crate) fn row_words(&self) -> usize {
        self.width.div_ceil(64)
    }

    /// Row-aligned copy: row `y` occupies words `y * row_words()..` with
    /// column `x` at bit `x % 64` of word `x / 64`; the unused high bits
    /// of each row's last word are zero.
    pub(crate) fn to_rows(&self) -> Vec<u64> {
        let rw = self.row_words();
        let mut rows = vec![0u64; rw * self.height];
        for y in 0..self.height {
            copy_bits(
                &mut rows,
                y * rw * 64,
                &self.words,
                y * self.width,
                self.width,
            );
        }
        rows
    }

    /// Inverse of [`to_rows`](Self::to_rows); the unused high bits of each
    /// row's last word are ignored.
    pub(crate) fn from_rows(width: usize, height: usize, rows: &[u64]) -> Self {
        let mut m = Self::new(width, height);
        let rw = m.row_words();
        assert_eq!(rows.len(), rw * height, "row-aligned length mismatch");
        for y in 0..height {
            copy_bits(&mut m.words, y * width, rows, y * rw * 64, width);
        }
        m
    }

    /// Overwrite the rectangle with top-left corner `(x0, y0)` with `src`;
    /// out-of-raster parts of `src` are discarded.
    pub fn paste(&mut self, src: &BitMask, x0: usize, y0: usize) {
        if x0 >= self.width {
            return;
        }
        let cols = src.width.min(self.width - x0);
        for sy in 0..src.height.min(self.height.saturating_sub(y0)) {
            let at = (y0 + sy) * self.width + x0;
            copy_bits(&mut self.words, at, &src.words, sy * src.width, cols);
        }
    }

    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of pixels (true + false).
    #[inline]
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Never true; zero-sized masks cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> bool {
        debug_assert!(x < self.width && y < self.height);
        let i = y * self.width + x;
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Bounds-safe accessor; out-of-range reads are `false`.
    #[inline]
    pub fn get_or_false(&self, x: isize, y: isize) -> bool {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            false
        } else {
            self.get(x as usize, y as usize)
        }
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: bool) {
        debug_assert!(x < self.width && y < self.height);
        self.set_index(y * self.width + x, v);
    }

    #[inline]
    fn set_index(&mut self, i: usize, v: bool) {
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if v {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }

    fn clear_tail(&mut self) {
        let bits = self.width * self.height;
        let rem = bits % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    fn check_dims(&self, other: &BitMask) -> Result<()> {
        if self.dims() != other.dims() {
            return Err(ImageError::DimensionMismatch {
                a: self.dims(),
                b: other.dims(),
            });
        }
        Ok(())
    }

    /// Number of true pixels.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of true pixels.
    pub fn coverage(&self) -> f64 {
        self.count() as f64 / self.len() as f64
    }

    /// True pixels in common with `other` (panics on shape mismatch).
    pub fn intersection_count(&self, other: &BitMask) -> usize {
        self.check_dims(other).expect("mask shape mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place union.
    pub fn or_with(&mut self, other: &BitMask) {
        self.check_dims(other).expect("mask shape mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn and_with(&mut self, other: &BitMask) {
        self.check_dims(other).expect("mask shape mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place set difference (`self & !other`).
    pub fn subtract(&mut self, other: &BitMask) {
        self.check_dims(other).expect("mask shape mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Complement.
    pub fn not(&self) -> BitMask {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.clear_tail();
        out
    }

    /// Union, by value.
    pub fn or(&self, other: &BitMask) -> BitMask {
        let mut out = self.clone();
        out.or_with(other);
        out
    }

    /// Intersection, by value.
    pub fn and(&self, other: &BitMask) -> BitMask {
        let mut out = self.clone();
        out.and_with(other);
        out
    }

    /// Tight bounding box of the true pixels, or `None` if the mask is
    /// all-false.
    pub fn bounding_box(&self) -> Option<BoxRegion> {
        let (mut x0, mut y0) = (usize::MAX, usize::MAX);
        let (mut x1, mut y1) = (0usize, 0usize);
        let mut any = false;
        for y in 0..self.height {
            for x in 0..self.width {
                if self.get(x, y) {
                    any = true;
                    x0 = x0.min(x);
                    y0 = y0.min(y);
                    x1 = x1.max(x + 1);
                    y1 = y1.max(y + 1);
                }
            }
        }
        any.then(|| BoxRegion::new(x0, y0, x1, y1))
    }

    /// Centroid of the true pixels, or `None` if all-false.
    pub fn centroid(&self) -> Option<(f64, f64)> {
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut n = 0usize;
        for y in 0..self.height {
            for x in 0..self.width {
                if self.get(x, y) {
                    sx += x as f64;
                    sy += y as f64;
                    n += 1;
                }
            }
        }
        (n > 0).then(|| (sx / n as f64, sy / n as f64))
    }

    /// Iterate the coordinates of true pixels, row-major.
    pub fn iter_true(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.height).flat_map(move |y| {
            (0..self.width)
                .filter(move |&x| self.get(x, y))
                .map(move |x| Point::new(x, y))
        })
    }

    /// Render to an 8-bit image (255 = true).
    pub fn to_image(&self) -> Image<u8> {
        Image::from_fn(self.width, self.height, |x, y| {
            if self.get(x, y) {
                255
            } else {
                0
            }
        })
    }

    /// IoU of two masks (1.0 when both are all-false, matching the metric
    /// convention of "perfect agreement on nothing").
    pub fn iou(&self, other: &BitMask) -> f64 {
        self.check_dims(other).expect("mask shape mismatch");
        let inter = self.intersection_count(other);
        let union = self.count() + other.count() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Boundary pixels: true pixels with at least one false 4-neighbour
    /// (image border counts as false outside).
    pub fn boundary(&self) -> BitMask {
        BitMask::from_fn(self.width, self.height, |x, y| {
            if !self.get(x, y) {
                return false;
            }
            let (xi, yi) = (x as isize, y as isize);
            !self.get_or_false(xi - 1, yi)
                || !self.get_or_false(xi + 1, yi)
                || !self.get_or_false(xi, yi - 1)
                || !self.get_or_false(xi, yi + 1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut m = BitMask::new(70, 3); // spans word boundary
        assert_eq!(m.count(), 0);
        m.set(0, 0, true);
        m.set(69, 2, true);
        m.set(63, 0, true);
        m.set(64, 0, true);
        assert_eq!(m.count(), 4);
        assert!(m.get(64, 0) && m.get(63, 0));
        m.set(64, 0, false);
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn full_and_not_respect_tail() {
        let m = BitMask::full(10, 7);
        assert_eq!(m.count(), 70);
        let n = m.not();
        assert_eq!(n.count(), 0);
        let e = BitMask::new(10, 7);
        assert_eq!(e.not().count(), 70);
    }

    #[test]
    fn algebra_identities() {
        let a = BitMask::from_fn(20, 20, |x, y| (x + y) % 3 == 0);
        let b = BitMask::from_fn(20, 20, |x, y| x % 2 == 0 && y > 4);
        // |A| + |B| = |A∪B| + |A∩B|
        assert_eq!(a.count() + b.count(), a.or(&b).count() + a.and(&b).count());
        // subtract
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.count(), a.count() - a.intersection_count(&b));
    }

    #[test]
    fn iou_extremes() {
        let a = BitMask::from_box(10, 10, BoxRegion::new(0, 0, 5, 10));
        assert_eq!(a.iou(&a), 1.0);
        let b = BitMask::from_box(10, 10, BoxRegion::new(5, 0, 10, 10));
        assert_eq!(a.iou(&b), 0.0);
        let e1 = BitMask::new(10, 10);
        let e2 = BitMask::new(10, 10);
        assert_eq!(e1.iou(&e2), 1.0);
    }

    #[test]
    fn bounding_box_and_centroid() {
        let m = BitMask::from_box(20, 20, BoxRegion::new(3, 5, 9, 11));
        assert_eq!(m.bounding_box(), Some(BoxRegion::new(3, 5, 9, 11)));
        let (cx, cy) = m.centroid().unwrap();
        assert!((cx - 5.5).abs() < 1e-9 && (cy - 7.5).abs() < 1e-9);
        assert_eq!(BitMask::new(4, 4).bounding_box(), None);
        assert_eq!(BitMask::new(4, 4).centroid(), None);
    }

    #[test]
    fn from_threshold_strict() {
        let img = Image::<u8>::from_fn(4, 1, |x, _| (x * 80) as u8);
        let m = BitMask::from_threshold(&img, 80.0 / 255.0);
        assert!(!m.get(0, 0) && !m.get(1, 0)); // equal is not greater
        assert!(m.get(2, 0) && m.get(3, 0));
    }

    #[test]
    fn boundary_of_solid_box() {
        let m = BitMask::from_box(12, 12, BoxRegion::new(2, 2, 8, 8));
        let b = m.boundary();
        // Perimeter of a 6x6 block = 6*4 - 4 = 20.
        assert_eq!(b.count(), 20);
        // Boundary is a subset of the mask.
        assert_eq!(b.intersection_count(&m), b.count());
    }

    #[test]
    fn iter_true_matches_count() {
        let m = BitMask::from_fn(33, 9, |x, y| (x * 7 + y) % 5 == 0);
        assert_eq!(m.iter_true().count(), m.count());
        for p in m.iter_true() {
            assert!(m.get(p.x, p.y));
        }
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = BitMask::new(4, 4);
        let b = BitMask::new(5, 4);
        let _ = a.iou(&b);
    }

    #[test]
    fn to_image_roundtrip() {
        let m = BitMask::from_fn(8, 8, |x, y| x == y);
        let img = m.to_image();
        let back = BitMask::from_threshold(&img, 0.5);
        assert_eq!(back, m);
    }
}
