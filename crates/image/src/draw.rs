//! Rendering helpers for figures: box outlines, mask overlays, and
//! side-by-side panels (used to regenerate the paper's Fig. 3/5/6 imagery).

use crate::geometry::BoxRegion;
use crate::image::{Image, RgbImage};
use crate::mask::BitMask;
use crate::pixel::Pixel;

/// Draw a 1-pixel box outline in-place (clamped to the raster).
pub fn draw_box_outline(img: &mut RgbImage, region: BoxRegion, rgb: [u8; 3]) {
    let r = region.clamp_to(img.width(), img.height());
    if r.is_empty() {
        return;
    }
    for x in r.x0..r.x1 {
        img.set(x, r.y0, rgb);
        img.set(x, r.y1 - 1, rgb);
    }
    for y in r.y0..r.y1 {
        img.set(r.x0, y, rgb);
        img.set(r.x1 - 1, y, rgb);
    }
}

/// Alpha-blend `rgb` over the pixels where `mask` is set.
pub fn overlay_mask(img: &mut RgbImage, mask: &BitMask, rgb: [u8; 3], alpha: f32) {
    assert_eq!(
        (img.width(), img.height()),
        mask.dims(),
        "overlay shape mismatch"
    );
    let a = alpha.clamp(0.0, 1.0);
    for p in mask.iter_true() {
        let base = img.get(p.x, p.y);
        let mut out = [0u8; 3];
        for c in 0..3 {
            out[c] = (base[c] as f32 * (1.0 - a) + rgb[c] as f32 * a).round() as u8;
        }
        img.set(p.x, p.y, out);
    }
}

/// Compose images horizontally with a `gap`-pixel separator, for figure
/// panels. All images must share a height.
pub fn hstack_gray<T: Pixel>(images: &[&Image<T>], gap: usize, gap_value: T) -> Image<T> {
    assert!(!images.is_empty());
    let h = images[0].height();
    assert!(images.iter().all(|i| i.height() == h), "heights differ");
    let total_w: usize = images.iter().map(|i| i.width()).sum::<usize>() + gap * (images.len() - 1);
    let mut out = Image::filled(total_w, h, gap_value);
    let mut x0 = 0;
    for img in images {
        out.paste(img, x0, 0);
        x0 += img.width() + gap;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_outline_is_hollow() {
        let mut img = RgbImage::filled(10, 10, [0, 0, 0]);
        draw_box_outline(&mut img, BoxRegion::new(2, 2, 7, 7), [255, 0, 0]);
        assert_eq!(img.get(2, 2), [255, 0, 0]);
        assert_eq!(img.get(6, 2), [255, 0, 0]);
        assert_eq!(img.get(4, 4), [0, 0, 0]); // interior untouched
        assert_eq!(img.get(7, 7), [0, 0, 0]); // half-open: x1,y1 excluded
    }

    #[test]
    fn outline_clamped_to_image() {
        let mut img = RgbImage::filled(5, 5, [0, 0, 0]);
        draw_box_outline(&mut img, BoxRegion::new(3, 3, 20, 20), [0, 255, 0]);
        assert_eq!(img.get(4, 4), [0, 255, 0]);
        // No panic, off-image part silently dropped.
    }

    #[test]
    fn overlay_full_alpha_replaces() {
        let mut img = RgbImage::filled(4, 4, [10, 10, 10]);
        let m = BitMask::from_box(4, 4, BoxRegion::new(0, 0, 2, 2));
        overlay_mask(&mut img, &m, [200, 0, 0], 1.0);
        assert_eq!(img.get(0, 0), [200, 0, 0]);
        assert_eq!(img.get(3, 3), [10, 10, 10]);
    }

    #[test]
    fn overlay_half_alpha_blends() {
        let mut img = RgbImage::filled(2, 2, [0, 0, 0]);
        let m = BitMask::full(2, 2);
        overlay_mask(&mut img, &m, [100, 200, 50], 0.5);
        assert_eq!(img.get(0, 0), [50, 100, 25]);
    }

    #[test]
    fn hstack_dims_and_content() {
        let a = Image::<u8>::filled(3, 4, 1);
        let b = Image::<u8>::filled(2, 4, 2);
        let s = hstack_gray(&[&a, &b], 1, 9);
        assert_eq!(s.dims(), (6, 4));
        assert_eq!(s.get(0, 0), 1);
        assert_eq!(s.get(3, 0), 9); // gap
        assert_eq!(s.get(4, 0), 2);
    }
}
