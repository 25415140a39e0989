//! Binary morphology on [`BitMask`]: erosion, dilation, opening, closing,
//! and hole filling.
//!
//! SAM's mask decoder uses closing + hole filling to regularize grown
//! regions; the phantom generator uses dilation to thicken needle skeletons.

use crate::geometry::{BoxRegion, Point};
use crate::mask::BitMask;

/// Structuring element shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structuring {
    /// All pixels with Chebyshev distance <= r (a (2r+1)^2 square).
    Square(usize),
    /// All pixels with Euclidean distance <= r (a discrete disk).
    Disk(usize),
}

impl Structuring {
    fn radius(&self) -> usize {
        match *self {
            Structuring::Square(r) | Structuring::Disk(r) => r,
        }
    }

    /// The element is a stack of horizontal runs: at vertical offset
    /// `±dy` (`dy <= radius`) it covers `dx` in `-half_width..=half_width`.
    fn half_width(&self, dy: usize) -> usize {
        match *self {
            Structuring::Square(r) => r,
            Structuring::Disk(r) => (r * r - dy * dy).isqrt(),
        }
    }
}

/// `dst |= src` moved `s` columns toward higher x, over one row-aligned
/// row: bits carry between neighbouring words.
fn or_moved_up(dst: &mut [u64], src: &[u64], s: usize) {
    let (q, b) = (s / 64, s % 64);
    for i in q..src.len() {
        dst[i] |= src[i - q] << b;
        if b > 0 && i > q {
            dst[i] |= src[i - q - 1] >> (64 - b);
        }
    }
}

/// `dst |= src` moved `s` columns toward lower x.
fn or_moved_down(dst: &mut [u64], src: &[u64], s: usize) {
    let (q, b) = (s / 64, s % 64);
    for i in q..src.len() {
        dst[i - q] |= src[i] >> b;
        if b > 0 && i + 1 < src.len() {
            dst[i - q] |= src[i + 1] << (64 - b);
        }
    }
}

/// `row` becomes the OR of itself moved `0..=hw` columns one way (`hw <
/// width`), by doubling: a row that covers moves `0..=c` covers
/// `0..=c + s` after OR-ing in its copy moved `s <= c + 1` further.
fn spread_one_way(
    row: &mut [u64],
    hw: usize,
    scratch: &mut [u64],
    or_moved: fn(&mut [u64], &[u64], usize),
) {
    let mut covered = 0;
    while covered < hw {
        let s = (covered + 1).min(hw - covered);
        scratch.copy_from_slice(row);
        or_moved(row, scratch, s);
        covered += s;
    }
}

/// `dst` = `src` OR-ed with itself moved by every `dx` in `-hw..=hw`.
/// The two directions are spread separately: bits pushed past the row's
/// last column one way must not come back the other way. They are left
/// in the last word's unused high bits, which `from_rows` ignores.
fn hspread(dst: &mut [u64], src: &[u64], hw: usize, scratch: &mut [u64]) {
    let (up, scratch) = scratch.split_at_mut(src.len());
    up.copy_from_slice(src);
    spread_one_way(up, hw, scratch, or_moved_up);
    dst.copy_from_slice(src);
    spread_one_way(dst, hw, scratch, or_moved_down);
    for (d, u) in dst.iter_mut().zip(up.iter()) {
        *d |= u;
    }
}

/// Dilation: a pixel is set if any structuring-element neighbour is set.
///
/// Word-parallel: `out[y]` is the OR over `dy` of row `y + dy` spread
/// horizontally by the element's half-width at `dy`; rows outside the
/// raster contribute nothing. Offsets are clamped to the raster, so the
/// cost is bounded by the mask, not by the radius.
pub fn dilate(mask: &BitMask, se: Structuring) -> BitMask {
    let (w, h) = mask.dims();
    // Every offset that can land inside the raster from inside it has
    // `|dx| < w` and `|dy| < h`, so `dx^2 + dy^2 < (w + h)^2`: larger
    // radii behave exactly like this one, and `r * r` stays small.
    let se = match se {
        Structuring::Square(r) => Structuring::Square(r.min(w + h)),
        Structuring::Disk(r) => Structuring::Disk(r.min(w + h)),
    };
    // Per `dy` that can stay inside the raster, clamped likewise.
    let half_widths: Vec<usize> = (0..=se.radius().min(h - 1))
        .map(|dy| se.half_width(dy).min(w - 1))
        .collect();
    let rw = mask.row_words();
    let rows = mask.to_rows();
    let mut out = vec![0u64; rows.len()];
    let mut spread = vec![0u64; rw];
    let mut scratch = vec![0u64; 2 * rw];
    for (y, src) in rows.chunks(rw).enumerate() {
        if src.iter().all(|&word| word == 0) {
            continue;
        }
        // Half-widths only shrink as `dy` grows: re-spread from the
        // source row when they change (never, for a square).
        let mut spread_hw = None;
        for (dy, &hw) in half_widths.iter().enumerate() {
            if spread_hw != Some(hw) {
                hspread(&mut spread, src, hw, &mut scratch);
                spread_hw = Some(hw);
            }
            let targets = [y.checked_sub(dy), (dy > 0 && y + dy < h).then_some(y + dy)];
            for t in targets.into_iter().flatten() {
                for (o, s) in out[t * rw..][..rw].iter_mut().zip(&spread) {
                    *o |= s;
                }
            }
        }
    }
    BitMask::from_rows(w, h, &out)
}

/// Erosion: a pixel stays set only if all structuring-element neighbours
/// are set (outside the raster counts as unset).
///
/// By duality this is the complement of the dilated complement wherever
/// no offset leaves the raster (outside it, "unset" for erosion and
/// "contributes nothing" for dilation are not dual). Everywhere else,
/// within `radius` of the border, the pixel erodes away: both elements
/// reach `(±r, 0)` and `(0, ±r)`.
pub fn erode(mask: &BitMask, se: Structuring) -> BitMask {
    let (w, h) = mask.dims();
    let r = se.radius();
    if r >= w.min(h).div_ceil(2) {
        return BitMask::new(w, h);
    }
    let mut out = dilate(&mask.not(), se).not();
    out.and_with(&BitMask::from_box(w, h, BoxRegion::new(r, r, w - r, h - r)));
    out
}

/// Opening: erosion then dilation — removes specks smaller than the SE.
pub fn open(mask: &BitMask, se: Structuring) -> BitMask {
    dilate(&erode(mask, se), se)
}

/// Closing: dilation then erosion — bridges gaps smaller than the SE.
pub fn close(mask: &BitMask, se: Structuring) -> BitMask {
    erode(&dilate(mask, se), se)
}

/// Fill holes: background components not connected to the image border
/// become foreground.
pub fn fill_holes(mask: &BitMask) -> BitMask {
    let (w, h) = mask.dims();
    // Flood-fill the background from the border (4-connectivity).
    let mut outside = BitMask::new(w, h);
    let mut stack: Vec<Point> = Vec::new();
    let push = |stack: &mut Vec<Point>, outside: &mut BitMask, x: usize, y: usize| {
        if !mask.get(x, y) && !outside.get(x, y) {
            outside.set(x, y, true);
            stack.push(Point::new(x, y));
        }
    };
    for x in 0..w {
        push(&mut stack, &mut outside, x, 0);
        push(&mut stack, &mut outside, x, h - 1);
    }
    for y in 0..h {
        push(&mut stack, &mut outside, 0, y);
        push(&mut stack, &mut outside, w - 1, y);
    }
    while let Some(p) = stack.pop() {
        let neighbours = [
            (p.x.wrapping_sub(1), p.y),
            (p.x + 1, p.y),
            (p.x, p.y.wrapping_sub(1)),
            (p.x, p.y + 1),
        ];
        for (nx, ny) in neighbours {
            if nx < w && ny < h {
                push(&mut stack, &mut outside, nx, ny);
            }
        }
    }
    // Foreground = original mask OR background-not-reachable-from-border.
    outside.not()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dilate_grows_erode_shrinks() {
        let m = BitMask::from_box(20, 20, BoxRegion::new(8, 8, 12, 12));
        let d = dilate(&m, Structuring::Square(1));
        let e = erode(&m, Structuring::Square(1));
        assert!(d.count() > m.count());
        assert!(e.count() < m.count());
        // Erosion then dilation of a convex box is a subset of the original.
        assert_eq!(open(&m, Structuring::Square(1)).intersection_count(&m),
                   open(&m, Structuring::Square(1)).count());
    }

    #[test]
    fn dilate_erode_exact_counts_for_box() {
        let m = BitMask::from_box(20, 20, BoxRegion::new(8, 8, 12, 12));
        assert_eq!(dilate(&m, Structuring::Square(1)).count(), 36); // 6x6
        assert_eq!(erode(&m, Structuring::Square(1)).count(), 4); // 2x2
    }

    #[test]
    fn open_removes_specks() {
        let mut m = BitMask::from_box(20, 20, BoxRegion::new(4, 4, 14, 14));
        m.set(18, 18, true); // isolated speck
        let o = open(&m, Structuring::Square(1));
        assert!(!o.get(18, 18));
        assert!(o.get(8, 8));
    }

    #[test]
    fn close_bridges_small_gap() {
        let mut m = BitMask::new(20, 5);
        for x in 0..9 {
            m.set(x, 2, true);
        }
        for x in 10..20 {
            m.set(x, 2, true);
        }
        let c = close(&m, Structuring::Square(1));
        assert!(c.get(9, 2), "1-pixel gap should be closed");
    }

    #[test]
    fn fill_holes_fills_interior_only() {
        // Ring: a box with a hole in the middle.
        let solid = BitMask::from_box(20, 20, BoxRegion::new(4, 4, 16, 16));
        let hole = BitMask::from_box(20, 20, BoxRegion::new(8, 8, 12, 12));
        let mut ring = solid.clone();
        ring.subtract(&hole);
        let filled = fill_holes(&ring);
        assert_eq!(filled, solid);
        // Exterior untouched.
        assert!(!filled.get(0, 0));
    }

    #[test]
    fn fill_holes_noop_without_holes() {
        let m = BitMask::from_box(10, 10, BoxRegion::new(2, 2, 7, 7));
        assert_eq!(fill_holes(&m), m);
    }

    #[test]
    fn disk_smaller_than_square() {
        let m = BitMask::from_box(30, 30, BoxRegion::new(14, 14, 16, 16));
        let ds = dilate(&m, Structuring::Disk(3));
        let sq = dilate(&m, Structuring::Square(3));
        assert!(ds.count() < sq.count());
        assert_eq!(ds.intersection_count(&sq), ds.count()); // disk ⊆ square
    }

    #[test]
    fn duality_erode_dilate_on_complement() {
        let m = BitMask::from_fn(16, 16, |x, y| (x * 5 + y * 3) % 7 < 3);
        // erode(M) == not(dilate(not M)) away from border effects only;
        // with the "outside is unset" convention it holds exactly when the
        // complement's dilation is computed with "outside is set". We test
        // the weaker subset property instead.
        let e = erode(&m, Structuring::Square(1));
        assert_eq!(e.intersection_count(&m), e.count());
    }
}
