//! The image "encoder": the representation the mask decoder reads.
//!
//! SAM encodes the image once (the expensive ViT-H pass) and decodes many
//! prompts against the cached embedding. We keep that contract: an
//! [`ImageEmbedding`] is computed once per image and shared by every
//! prompt decode and the automatic mode. Its content is a denoised
//! intensity field plus gradient and local-variance statistics.
//!
//! The denoised field and its gradient are the same two rasters
//! grounding's feature pyramid starts from when the two sigmas match, so
//! a slice run may build them once and assemble the embedding from its
//! parts: `smooth` = `gaussian_blur(img, encode_sigma)`, `grad` its
//! gradient magnitude, and `texture` from `texture`. The result is
//! bit-identical to [`ImageEmbedding::encode`].

use zenesis_image::filter::{gaussian_blur, gradient_magnitude, local_std};
use zenesis_image::Image;

/// The texture raster of an embedding of `img`: its local standard
/// deviation at radius 2, taken before any blur.
pub(crate) fn texture(img: &Image<f32>) -> Image<f32> {
    local_std(img, 2)
}

/// Cached per-image features for mask decoding.
#[derive(Debug, Clone)]
pub struct ImageEmbedding {
    /// Denoised intensity (decoder's growth domain).
    pub smooth: Image<f32>,
    /// Gradient magnitude of the smoothed field.
    pub grad: Image<f32>,
    /// Local standard deviation (texture) of the raw adapted image.
    pub texture: Image<f32>,
}

impl ImageEmbedding {
    /// Encode an adapted image with denoising scale `sigma`.
    pub fn encode(img: &Image<f32>, sigma: f32) -> Self {
        let smooth = gaussian_blur(img, sigma);
        let grad = gradient_magnitude(&smooth);
        ImageEmbedding {
            smooth,
            grad,
            texture: texture(img),
        }
    }

    pub fn dims(&self) -> (usize, usize) {
        self.smooth.dims()
    }

    /// Mean texture inside a mask; 0 for empty.
    pub(crate) fn mean_texture_in(&self, mask: &zenesis_image::BitMask) -> f64 {
        let mut s = 0.0;
        let mut n = 0usize;
        for p in mask.iter_true() {
            s += self.texture.get(p.x, p.y) as f64;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            s / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::BitMask;

    #[test]
    fn encode_shapes() {
        let img = Image::<f32>::from_fn(32, 24, |x, y| ((x + y) % 9) as f32 / 8.0);
        let e = ImageEmbedding::encode(&img, 1.5);
        assert_eq!(e.dims(), (32, 24));
        assert_eq!(e.grad.dims(), (32, 24));
        assert_eq!(e.texture.dims(), (32, 24));
    }

    #[test]
    fn smoothing_reduces_variance() {
        let img = Image::<f32>::from_fn(32, 32, |x, y| ((x * 31 + y * 17) % 7) as f32 / 6.0);
        let e = ImageEmbedding::encode(&img, 2.0);
        assert!(e.smooth.variance_norm() < img.variance_norm());
    }

    #[test]
    fn region_statistics() {
        let img = Image::<f32>::from_fn(32, 32, |x, _| if x < 16 { 0.2 } else { 0.8 });
        let e = ImageEmbedding::encode(&img, 1.0);
        let empty = BitMask::new(32, 32);
        assert_eq!(e.mean_texture_in(&empty), 0.0);
    }
}
