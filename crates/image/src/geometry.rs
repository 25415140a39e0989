//! Prompt geometry: points and half-open axis-aligned boxes.
//!
//! These types are the contract between GroundingDINO detections, SAM
//! prompts, the human-in-the-loop rectifier, and the temporal box heuristic,
//! so their algebra (IoU, intersection, union, expansion, clamping) lives in
//! the image substrate that everything already depends on.

use serde::{Deserialize, Serialize};

/// A pixel coordinate (x along width, y along height).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Point {
    pub x: usize,
    pub y: usize,
}

impl Point {
    pub fn new(x: usize, y: usize) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: Point) -> f64 {
        let dx = self.x as f64 - other.x as f64;
        let dy = self.y as f64 - other.y as f64;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A half-open axis-aligned box: pixels with `x0 <= x < x1`, `y0 <= y < y1`.
///
/// Degenerate boxes (`x1 <= x0` or `y1 <= y0`) are allowed and have zero
/// area; every operation treats them consistently as empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BoxRegion {
    pub x0: usize,
    pub y0: usize,
    pub x1: usize,
    pub y1: usize,
}

impl BoxRegion {
    pub fn new(x0: usize, y0: usize, x1: usize, y1: usize) -> Self {
        BoxRegion { x0, y0, x1, y1 }
    }

    /// Box covering a full raster.
    pub fn full(width: usize, height: usize) -> Self {
        BoxRegion::new(0, 0, width, height)
    }

    /// Construct from center and size (clamped at zero).
    pub fn from_center(cx: f64, cy: f64, w: f64, h: f64) -> Self {
        let x0 = (cx - w / 2.0).max(0.0).round() as usize;
        let y0 = (cy - h / 2.0).max(0.0).round() as usize;
        let x1 = (cx + w / 2.0).max(0.0).round() as usize;
        let y1 = (cy + h / 2.0).max(0.0).round() as usize;
        BoxRegion { x0, y0, x1, y1 }
    }

    #[inline]
    pub fn width(&self) -> usize {
        self.x1.saturating_sub(self.x0)
    }

    #[inline]
    pub fn height(&self) -> usize {
        self.y1.saturating_sub(self.y0)
    }

    #[inline]
    pub fn area(&self) -> usize {
        self.width() * self.height()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.area() == 0
    }

    /// Geometric center.
    pub fn center(&self) -> (f64, f64) {
        (
            (self.x0 + self.x1) as f64 / 2.0,
            (self.y0 + self.y1) as f64 / 2.0,
        )
    }

    /// True if the pixel lies inside the (half-open) box.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x0 && p.x < self.x1 && p.y >= self.y0 && p.y < self.y1
    }

    /// True if `other` lies entirely inside `self` (empty boxes are
    /// contained in everything).
    pub fn contains_box(&self, other: &BoxRegion) -> bool {
        other.is_empty()
            || (other.x0 >= self.x0
                && other.x1 <= self.x1
                && other.y0 >= self.y0
                && other.y1 <= self.y1)
    }

    /// Intersection (possibly empty).
    pub fn intersect(&self, other: &BoxRegion) -> BoxRegion {
        let x0 = self.x0.max(other.x0);
        let y0 = self.y0.max(other.y0);
        let x1 = self.x1.min(other.x1);
        let y1 = self.y1.min(other.y1);
        if x1 <= x0 || y1 <= y0 {
            BoxRegion::new(0, 0, 0, 0)
        } else {
            BoxRegion::new(x0, y0, x1, y1)
        }
    }

    /// Intersection-over-union in `[0, 1]`; 0 when either box is empty.
    pub fn iou(&self, other: &BoxRegion) -> f64 {
        let inter = self.intersect(other).area();
        if inter == 0 {
            return 0.0;
        }
        let union = self.area() + other.area() - inter;
        inter as f64 / union as f64
    }

    /// Grow by `margin` pixels on every side (clamping at zero).
    pub fn expand(&self, margin: usize) -> BoxRegion {
        BoxRegion::new(
            self.x0.saturating_sub(margin),
            self.y0.saturating_sub(margin),
            self.x1 + margin,
            self.y1 + margin,
        )
    }

    /// Clamp into a `width x height` raster.
    pub fn clamp_to(&self, width: usize, height: usize) -> BoxRegion {
        let r = BoxRegion::new(
            self.x0.min(width),
            self.y0.min(height),
            self.x1.min(width),
            self.y1.min(height),
        );
        if r.x1 <= r.x0 || r.y1 <= r.y0 {
            BoxRegion::new(0, 0, 0, 0)
        } else {
            r
        }
    }

    /// Translate `self` (defined in a cropped subregion whose origin is
    /// `(dx, dy)` in the parent frame) back into parent coordinates.
    pub fn offset(&self, dx: usize, dy: usize) -> BoxRegion {
        BoxRegion::new(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)
    }

    /// Iterate all contained pixels, row-major.
    pub fn pixels(&self) -> impl Iterator<Item = Point> + '_ {
        let xs = self.x0..self.x1;
        (self.y0..self.y1).flat_map(move |y| xs.clone().map(move |x| Point::new(x, y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_empty() {
        assert_eq!(BoxRegion::new(1, 1, 4, 3).area(), 6);
        assert!(BoxRegion::new(4, 4, 4, 8).is_empty());
        assert!(BoxRegion::new(5, 5, 3, 8).is_empty());
    }

    #[test]
    fn contains_half_open() {
        let b = BoxRegion::new(1, 1, 3, 3);
        assert!(b.contains(Point::new(1, 1)));
        assert!(b.contains(Point::new(2, 2)));
        assert!(!b.contains(Point::new(3, 2)));
        assert!(!b.contains(Point::new(0, 1)));
    }

    #[test]
    fn intersect_cases() {
        let a = BoxRegion::new(0, 0, 4, 4);
        let b = BoxRegion::new(2, 2, 6, 6);
        assert_eq!(a.intersect(&b), BoxRegion::new(2, 2, 4, 4));
        let c = BoxRegion::new(10, 10, 12, 12);
        assert!(a.intersect(&c).is_empty());
        // Touching edges do not intersect (half-open).
        let d = BoxRegion::new(4, 0, 8, 4);
        assert!(a.intersect(&d).is_empty());
    }

    #[test]
    fn iou_identities() {
        let a = BoxRegion::new(0, 0, 4, 4);
        assert_eq!(a.iou(&a), 1.0);
        let b = BoxRegion::new(2, 0, 6, 4);
        let iou = a.iou(&b);
        assert!((iou - 8.0 / 24.0).abs() < 1e-12);
        assert_eq!(a.iou(&BoxRegion::new(0, 0, 0, 0)), 0.0);
    }

    #[test]
    fn expand_clamp_offset() {
        let b = BoxRegion::new(1, 1, 3, 3);
        assert_eq!(b.expand(2), BoxRegion::new(0, 0, 5, 5));
        assert_eq!(b.expand(2).clamp_to(4, 4), BoxRegion::new(0, 0, 4, 4));
        assert_eq!(b.offset(10, 20), BoxRegion::new(11, 21, 13, 23));
        assert!(BoxRegion::new(8, 8, 12, 12).clamp_to(5, 5).is_empty());
    }

    #[test]
    fn from_center_roundtrip() {
        let b = BoxRegion::from_center(10.0, 8.0, 4.0, 6.0);
        assert_eq!(b, BoxRegion::new(8, 5, 12, 11));
        let (cx, cy) = b.center();
        assert!((cx - 10.0).abs() < 1e-9 && (cy - 8.0).abs() < 1e-9);
    }

    #[test]
    fn pixels_enumerates_area() {
        let b = BoxRegion::new(2, 3, 5, 5);
        let pts: Vec<Point> = b.pixels().collect();
        assert_eq!(pts.len(), b.area());
        assert_eq!(pts[0], Point::new(2, 3));
        assert_eq!(*pts.last().unwrap(), Point::new(4, 4));
    }

    #[test]
    fn point_distance() {
        assert_eq!(Point::new(0, 0).distance(Point::new(3, 4)), 5.0);
    }
}
