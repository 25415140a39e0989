//! Bilinear resampling to model-native resolutions.
//!
//! Foundation encoders run at fixed resolutions (SAM: 1024, our surrogate:
//! whatever the patch grid wants); instruments emit arbitrary sizes.
//! Bilinear keeps gradients smooth where nearest-neighbour would alias.

use zenesis_image::Image;

/// Bilinear resize with pixel-center alignment.
pub(crate) fn resize_bilinear(img: &Image<f32>, new_w: usize, new_h: usize) -> Image<f32> {
    assert!(new_w > 0 && new_h > 0);
    let (w, h) = img.dims();
    let sx = w as f32 / new_w as f32;
    let sy = h as f32 / new_h as f32;
    Image::from_fn(new_w, new_h, |x, y| {
        let fx = ((x as f32 + 0.5) * sx - 0.5).max(0.0);
        let fy = ((y as f32 + 0.5) * sy - 0.5).max(0.0);
        let x0 = fx.floor() as usize;
        let y0 = fy.floor() as usize;
        let x1 = (x0 + 1).min(w - 1);
        let y1 = (y0 + 1).min(h - 1);
        let ax = fx - x0 as f32;
        let ay = fy - y0 as f32;
        let top = img.get(x0, y0) * (1.0 - ax) + img.get(x1, y0) * ax;
        let bot = img.get(x0, y1) * (1.0 - ax) + img.get(x1, y1) * ax;
        top * (1.0 - ay) + bot * ay
    })
}

/// Resize so the longest side equals `target`, preserving aspect ratio
/// (SAM's preprocessing convention). Returns the resized image and the
/// scale factor applied.
pub(crate) fn resize_longest_side(img: &Image<f32>, target: usize) -> (Image<f32>, f32) {
    let (w, h) = img.dims();
    let longest = w.max(h);
    let scale = target as f32 / longest as f32;
    let new_w = ((w as f32 * scale).round() as usize).max(1);
    let new_h = ((h as f32 * scale).round() as usize).max(1);
    (resize_bilinear(img, new_w, new_h), scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_resize() {
        let img = Image::<f32>::from_fn(9, 7, |x, y| (x * 7 + y) as f32 / 70.0);
        let out = resize_bilinear(&img, 9, 7);
        for (a, b) in out.as_slice().iter().zip(img.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn upsample_interpolates_between_samples() {
        let img = Image::<f32>::from_vec(2, 1, vec![0.0, 1.0]).unwrap();
        let out = resize_bilinear(&img, 4, 1);
        // Middle pixels must be strictly between endpoints.
        assert!(out.get(1, 0) > 0.0 && out.get(1, 0) < 1.0);
        assert!(out.get(2, 0) > out.get(1, 0));
    }

    #[test]
    fn downsample_preserves_mean_approximately() {
        let img = Image::<f32>::from_fn(64, 64, |x, y| ((x + y) % 10) as f32 / 9.0);
        let out = resize_bilinear(&img, 16, 16);
        assert!((out.mean_norm() - img.mean_norm()).abs() < 0.05);
    }

    #[test]
    fn values_bounded_by_input_range() {
        let img = Image::<f32>::from_fn(11, 13, |x, y| ((x * 5 + y * 11) % 7) as f32 / 6.0);
        let out = resize_bilinear(&img, 23, 5);
        let (lo, hi) = img.min_max();
        for &v in out.as_slice() {
            assert!(v >= lo - 1e-6 && v <= hi + 1e-6);
        }
    }

    #[test]
    fn longest_side_aspect_preserved() {
        let img = Image::<f32>::zeros(100, 50);
        let (out, scale) = resize_longest_side(&img, 64);
        assert_eq!(out.dims(), (64, 32));
        assert!((scale - 0.64).abs() < 1e-6);
        let tall = Image::<f32>::zeros(10, 40);
        let (out2, _) = resize_longest_side(&tall, 80);
        assert_eq!(out2.dims(), (20, 80));
    }
}
