//! Row-major 2-D rasters: [`Image<T>`] (single channel) and [`RgbImage`].

use crate::error::{ImageError, Result};
use crate::geometry::BoxRegion;
use crate::pixel::Pixel;
use zenesis_par::{par_map_range_min, SMALL_WORK_ELEMS};

/// `width * height * channels`, or [`ImageError::TooLarge`] when the
/// product overflows `usize` (a decoder's header can claim any size).
pub(crate) fn sample_count(width: usize, height: usize, channels: usize) -> Result<usize> {
    width
        .checked_mul(height)
        .and_then(|n| n.checked_mul(channels))
        .ok_or(ImageError::TooLarge { width, height })
}

/// A single-channel 2-D image with row-major storage.
///
/// `(x, y)` indexing puts `x` along the width (column) and `y` along the
/// height (row); `data[y * width + x]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Image<T: Pixel> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Pixel> Image<T> {
    /// Create an image filled with `value`.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Image {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Create a zero (black) image.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self::filled(width, height, T::ZERO)
    }

    /// Wrap an existing buffer; its length must equal `width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImageError::EmptyDimensions);
        }
        let expected = sample_count(width, height, 1)?;
        if data.len() != expected {
            return Err(ImageError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Image {
            width,
            height,
            data,
        })
    }

    /// Build an image by evaluating `f(x, y)` at every pixel (parallel).
    pub fn from_fn(width: usize, height: usize, f: impl Fn(usize, usize) -> T + Sync) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        let data = par_map_range_min(width * height, SMALL_WORK_ELEMS, |i| {
            f(i % width, i / width)
        });
        Image {
            width,
            height,
            data,
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

    /// `(width, height)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: zero-sized images cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Clamped accessor: coordinates outside the raster are clamped to the
    /// nearest edge (replicate border, the convention for all filters here).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> T {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// The backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Elementwise map to a new pixel type (parallel).
    pub fn map<U: Pixel>(&self, f: impl Fn(T) -> U + Sync) -> Image<U> {
        Image {
            width: self.width,
            height: self.height,
            data: par_map_range_min(self.data.len(), SMALL_WORK_ELEMS, |i| f(self.data[i])),
        }
    }

    /// Elementwise map with coordinates (parallel).
    pub fn map_indexed<U: Pixel>(&self, f: impl Fn(usize, usize, T) -> U + Sync) -> Image<U> {
        let w = self.width;
        Image {
            width: self.width,
            height: self.height,
            data: par_map_range_min(self.data.len(), SMALL_WORK_ELEMS, |i| {
                f(i % w, i / w, self.data[i])
            }),
        }
    }

    /// Convert to the canonical normalized `f32` domain.
    pub fn to_f32(&self) -> Image<f32> {
        self.map(|v| v.to_norm())
    }

    /// Convert from canonical `f32` into any pixel type (saturating).
    pub fn quantize<U: Pixel>(&self) -> Image<U> {
        self.map(|v| U::from_norm(v.to_norm()))
    }

    /// Crop to `region` (clamped to the raster). Errors if the clamped
    /// region is degenerate.
    pub fn crop(&self, region: BoxRegion) -> Result<Image<T>> {
        let r = region.clamp_to(self.width, self.height);
        if r.width() == 0 || r.height() == 0 {
            return Err(ImageError::OutOfBounds {
                what: "crop region",
            });
        }
        let mut data = Vec::with_capacity(r.width() * r.height());
        for y in r.y0..r.y1 {
            data.extend_from_slice(&self.row(y)[r.x0..r.x1]);
        }
        Image::from_vec(r.width(), r.height(), data)
    }

    /// Paste `src` with its top-left corner at `(x0, y0)`; out-of-raster
    /// parts of `src` are discarded.
    pub(crate) fn paste(&mut self, src: &Image<T>, x0: usize, y0: usize) {
        for sy in 0..src.height {
            let dy = y0 + sy;
            if dy >= self.height {
                break;
            }
            for sx in 0..src.width {
                let dx = x0 + sx;
                if dx >= self.width {
                    break;
                }
                self.set(dx, dy, src.get(sx, sy));
            }
        }
    }

    /// Nearest-neighbour resize: output pixel `i` samples source index
    /// `((i + 0.5) * old / new) as usize` along each axis.
    pub fn resize_nearest(&self, new_w: usize, new_h: usize) -> Image<T> {
        assert!(new_w > 0 && new_h > 0);
        let source = |new: usize, old: usize| {
            let scale = old as f64 / new as f64;
            (0..new).map(move |i| (((i as f64 + 0.5) * scale) as usize).min(old - 1))
        };
        // The column table is shared by every output row; each output row
        // is a gather from one source row.
        let cols: Vec<usize> = source(new_w, self.width).collect();
        let mut data = Vec::with_capacity(new_w * new_h);
        for oy in source(new_h, self.height) {
            let row = self.row(oy);
            data.extend(cols.iter().map(|&ox| row[ox]));
        }
        Image {
            width: new_w,
            height: new_h,
            data,
        }
    }

    /// Transpose rows and columns.
    pub fn transpose(&self) -> Image<T> {
        Image::from_fn(self.height, self.width, |x, y| self.get(y, x))
    }

    /// Minimum and maximum sample value.
    pub fn min_max(&self) -> (T, T) {
        let mut lo = self.data[0];
        let mut hi = self.data[0];
        for &v in &self.data {
            if v < lo {
                lo = v;
            }
            if hi < v {
                hi = v;
            }
        }
        (lo, hi)
    }

    /// Mean of the canonical (normalized) values.
    pub fn mean_norm(&self) -> f64 {
        let s: f64 = self.data.iter().map(|v| v.to_norm() as f64).sum();
        s / self.data.len() as f64
    }

    /// [`min_max`](Self::min_max) and [`mean_norm`](Self::mean_norm) in
    /// one pass over the samples: the same `<` comparisons and the same
    /// left-to-right `f64` sum, so all three values are bit-identical to
    /// the separate calls.
    pub fn min_max_mean(&self) -> (T, T, f64) {
        let mut lo = self.data[0];
        let mut hi = self.data[0];
        // Whatever zero `Sum for f64` starts from (its sign decides the
        // sign of an all-`-0.0` sum).
        let mut sum: f64 = std::iter::empty::<f64>().sum();
        for &v in &self.data {
            if v < lo {
                lo = v;
            }
            if hi < v {
                hi = v;
            }
            sum += v.to_norm() as f64;
        }
        (lo, hi, sum / self.data.len() as f64)
    }

    /// Population variance of the canonical values.
    pub fn variance_norm(&self) -> f64 {
        let m = self.mean_norm();
        let s: f64 = self
            .data
            .iter()
            .map(|v| {
                let d = v.to_norm() as f64 - m;
                d * d
            })
            .sum();
        s / self.data.len() as f64
    }
}

impl Image<f32> {
    /// Equal dimensions and equal bit patterns: the identity rule of the
    /// content-keyed caches. Unlike `==` it is reflexive on NaN pixels,
    /// and it tells `-0.0` from `+0.0`.
    pub fn same_bits(&self, other: &Image<f32>) -> bool {
        // XOR-fold each 64-pixel block (vectorizes), stop at the first
        // block that differs.
        self.dims() == other.dims()
            && self
                .data
                .chunks(64)
                .zip(other.data.chunks(64))
                .all(|(a, b)| {
                    a.iter()
                        .zip(b)
                        .fold(0, |acc, (x, y)| acc | (x.to_bits() ^ y.to_bits()))
                        == 0
                })
    }
}

/// An interleaved 8-bit RGB image (the "web-native" format foundation
/// models expect; scientific data is converted *to* this, never from).
#[derive(Debug, Clone, PartialEq)]
pub struct RgbImage {
    width: usize,
    height: usize,
    data: Vec<u8>, // r,g,b interleaved
}

impl RgbImage {
    /// Solid-colour image (test fixtures).
    #[cfg(test)]
    pub(crate) fn filled(width: usize, height: usize, rgb: [u8; 3]) -> Self {
        assert!(width > 0 && height > 0);
        let mut data = Vec::with_capacity(width * height * 3);
        for _ in 0..width * height {
            data.extend_from_slice(&rgb);
        }
        RgbImage {
            width,
            height,
            data,
        }
    }

    /// Wrap an interleaved buffer of length `width * height * 3`.
    pub(crate) fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImageError::EmptyDimensions);
        }
        let expected = sample_count(width, height, 3)?;
        if data.len() != expected {
            return Err(ImageError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(RgbImage {
            width,
            height,
            data,
        })
    }

    /// Replicate a grayscale image into three identical channels — the
    /// standard adaptation for feeding grayscale science data to RGB models.
    pub fn from_gray<T: Pixel>(img: &Image<T>) -> Self {
        let (w, h) = img.dims();
        let mut data = Vec::with_capacity(w * h * 3);
        for &v in img.as_slice() {
            let g = u8::from_norm(v.to_norm());
            data.extend_from_slice(&[g, g, g]);
        }
        RgbImage {
            width: w,
            height: h,
            data,
        }
    }

    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    #[inline]
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    #[inline]
    pub(crate) fn get(&self, x: usize, y: usize) -> [u8; 3] {
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    #[inline]
    pub(crate) fn set(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        let i = (y * self.width + x) * 3;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Luma (Rec. 601) grayscale conversion into any pixel type.
    pub fn to_gray<T: Pixel>(&self) -> Image<T> {
        Image::from_fn(self.width, self.height, |x, y| {
            let [r, g, b] = self.get(x, y);
            let luma = 0.299 * r as f32 + 0.587 * g as f32 + 0.114 * b as f32;
            T::from_norm(luma / 255.0)
        })
    }

    /// Interleaved bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Image<u8> {
        Image::from_fn(4, 3, |x, y| (y * 4 + x) as u8)
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Image::<u8>::from_vec(2, 2, vec![0; 3]).is_err());
        assert!(Image::<u8>::from_vec(0, 2, vec![]).is_err());
        assert!(Image::<u8>::from_vec(2, 2, vec![0; 4]).is_ok());
    }

    #[test]
    fn from_vec_rejects_an_overflowing_shape() {
        // 2^32 x 2^32 wraps to 0 samples in unchecked arithmetic, which
        // an empty buffer would then match.
        let side = 1usize << 32;
        assert!(matches!(
            Image::<u8>::from_vec(side, side, vec![]),
            Err(ImageError::TooLarge { .. })
        ));
        assert!(matches!(
            RgbImage::from_vec(side, 1 << 31, vec![]),
            Err(ImageError::TooLarge { .. })
        ));
    }

    #[test]
    fn indexing_row_major() {
        let img = ramp();
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(3, 0), 3);
        assert_eq!(img.get(0, 1), 4);
        assert_eq!(img.get(3, 2), 11);
        assert_eq!(img.row(1), &[4, 5, 6, 7]);
    }

    #[test]
    fn get_clamped_replicates_border() {
        let img = ramp();
        assert_eq!(img.get_clamped(-5, -5), img.get(0, 0));
        assert_eq!(img.get_clamped(100, 100), img.get(3, 2));
        assert_eq!(img.get_clamped(-1, 1), img.get(0, 1));
    }

    #[test]
    fn crop_and_paste_roundtrip() {
        let img = ramp();
        let r = BoxRegion::new(1, 0, 3, 2);
        let c = img.crop(r).unwrap();
        assert_eq!(c.dims(), (2, 2));
        assert_eq!(c.get(0, 0), img.get(1, 0));
        let mut dst = Image::<u8>::zeros(4, 3);
        dst.paste(&c, 1, 0);
        assert_eq!(dst.get(1, 0), img.get(1, 0));
        assert_eq!(dst.get(2, 1), img.get(2, 1));
        assert_eq!(dst.get(0, 0), 0);
    }

    #[test]
    fn crop_out_of_bounds_errors() {
        let img = ramp();
        assert!(img.crop(BoxRegion::new(10, 10, 20, 20)).is_err());
    }

    #[test]
    fn map_and_quantize() {
        let img = ramp();
        let f = img.to_f32();
        assert!((f.get(3, 2) - 11.0 / 255.0).abs() < 1e-6);
        let back: Image<u8> = f.quantize();
        assert_eq!(back, img);
    }

    #[test]
    fn transpose_involution() {
        let img = ramp();
        assert_eq!(img.transpose().transpose(), img);
        assert_eq!(img.transpose().get(1, 3), img.get(3, 1));
    }

    #[test]
    fn resize_nearest_identity_and_scale() {
        let img = ramp();
        assert_eq!(img.resize_nearest(4, 3), img);
        let up = img.resize_nearest(8, 6);
        assert_eq!(up.dims(), (8, 6));
        assert_eq!(up.get(0, 0), img.get(0, 0));
        assert_eq!(up.get(7, 5), img.get(3, 2));
    }

    #[test]
    fn min_max_and_stats() {
        let img = ramp();
        assert_eq!(img.min_max(), (0, 11));
        let m = img.mean_norm();
        assert!((m - (0..12).sum::<usize>() as f64 / 12.0 / 255.0).abs() < 1e-9);
        assert!(img.variance_norm() > 0.0);
        assert_eq!(img.min_max_mean(), (0, 11, m));
        let flat = Image::<u8>::filled(5, 5, 9);
        assert_eq!(flat.variance_norm(), 0.0);
    }

    #[test]
    fn rgb_gray_roundtrip() {
        let img = ramp();
        let rgb = RgbImage::from_gray(&img);
        assert_eq!(rgb.get(2, 1), [6, 6, 6]);
        let back: Image<u8> = rgb.to_gray();
        // Luma of (g,g,g) == g up to rounding.
        for (a, b) in back.as_slice().iter().zip(img.as_slice()) {
            assert!((*a as i32 - *b as i32).abs() <= 1);
        }
    }

    #[test]
    fn rgb_shape_validation() {
        assert!(RgbImage::from_vec(2, 2, vec![0; 12]).is_ok());
        assert!(RgbImage::from_vec(2, 2, vec![0; 11]).is_err());
    }

    #[test]
    fn same_bits_is_bit_pattern_equality() {
        // 131 pixels: two full 64-pixel blocks and a ragged one.
        let img = Image::<f32>::from_fn(131, 1, |x, _| x as f32 * 0.5);
        assert!(img.same_bits(&img.clone()));
        let mut nan = img.clone();
        nan.set(130, 0, f32::NAN);
        assert!(nan.same_bits(&nan.clone()), "NaN matches itself");
        assert!(!nan.same_bits(&img));
        let mut neg_zero = img.clone();
        neg_zero.set(0, 0, -0.0);
        assert!(!neg_zero.same_bits(&img), "-0.0 is not +0.0");
        let flat = Image::<f32>::zeros(4, 6);
        assert!(!flat.same_bits(&Image::zeros(6, 4)), "dims count");
    }
}
