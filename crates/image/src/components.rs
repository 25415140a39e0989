//! Connected-component labelling (union-find) and per-component statistics.
//!
//! Components turn relevance heatmaps into candidate boxes (grounding), and
//! grown regions into clean masks (SAM decoder). The implementation is a
//! two-pass union-find over 4- or 8-connectivity.

use crate::geometry::BoxRegion;
use crate::mask::BitMask;

/// Pixel connectivity for labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connectivity {
    Four,
    Eight,
}

/// A labelled image: `0` is background, components are `1..=count`.
#[derive(Debug, Clone)]
pub struct Labels {
    width: usize,
    height: usize,
    labels: Vec<u32>,
    count: usize,
}

impl Labels {
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u32 {
        self.labels[y * self.width + x]
    }

    /// Number of components (labels run `1..=count`).
    pub fn count(&self) -> usize {
        self.count
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Extract one component as a mask. `label` in `1..=count`.
    pub fn component_mask(&self, label: u32) -> BitMask {
        self.mask_where(|l| l == label)
    }

    /// The pixels whose label satisfies `keep` (background is label 0), in
    /// one pass over the label image however many components are kept.
    pub fn mask_where(&self, keep: impl Fn(u32) -> bool) -> BitMask {
        BitMask::from_slice(self.width, self.height, &self.labels, |&l| keep(l))
    }

    /// Per-component statistics, indexed by `label - 1`.
    pub fn stats(&self) -> Vec<ComponentStats> {
        let mut stats: Vec<ComponentStats> = (0..self.count)
            .map(|_| ComponentStats {
                label: 0,
                area: 0,
                bbox: BoxRegion::new(usize::MAX, usize::MAX, 0, 0),
                centroid: (0.0, 0.0),
            })
            .collect();
        for y in 0..self.height {
            for x in 0..self.width {
                let l = self.get(x, y);
                if l == 0 {
                    continue;
                }
                let s = &mut stats[(l - 1) as usize];
                s.label = l;
                s.area += 1;
                s.bbox.x0 = s.bbox.x0.min(x);
                s.bbox.y0 = s.bbox.y0.min(y);
                s.bbox.x1 = s.bbox.x1.max(x + 1);
                s.bbox.y1 = s.bbox.y1.max(y + 1);
                s.centroid.0 += x as f64;
                s.centroid.1 += y as f64;
            }
        }
        for s in &mut stats {
            if s.area > 0 {
                s.centroid.0 /= s.area as f64;
                s.centroid.1 /= s.area as f64;
            }
        }
        stats
    }

    /// The label with the largest area, if any component exists.
    pub fn largest(&self) -> Option<ComponentStats> {
        self.stats().into_iter().max_by_key(|s| s.area)
    }
}

/// Area, bounding box, and centroid of one connected component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentStats {
    pub label: u32,
    pub area: usize,
    pub bbox: BoxRegion,
    pub centroid: (f64, f64),
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: vec![0] } // slot 0 unused (background)
    }

    fn make(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp; // path halving
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Label the connected components of `mask`.
pub fn label_components(mask: &BitMask, conn: Connectivity) -> Labels {
    let (w, h) = mask.dims();
    let mut labels = vec![0u32; w * h];
    let mut uf = UnionFind::new();
    for y in 0..h {
        for x in 0..w {
            if !mask.get(x, y) {
                continue;
            }
            // Previously-scanned neighbours.
            let mut neigh = [0u32; 4];
            let mut n = 0;
            if x > 0 && mask.get(x - 1, y) {
                neigh[n] = labels[y * w + x - 1];
                n += 1;
            }
            if y > 0 && mask.get(x, y - 1) {
                neigh[n] = labels[(y - 1) * w + x];
                n += 1;
            }
            if conn == Connectivity::Eight && y > 0 {
                if x > 0 && mask.get(x - 1, y - 1) {
                    neigh[n] = labels[(y - 1) * w + x - 1];
                    n += 1;
                }
                if x + 1 < w && mask.get(x + 1, y - 1) {
                    neigh[n] = labels[(y - 1) * w + x + 1];
                    n += 1;
                }
            }
            let label = if n == 0 {
                uf.make()
            } else {
                let mut m = neigh[0];
                for &l in &neigh[1..n] {
                    if l < m {
                        m = l;
                    }
                }
                for &l in &neigh[..n] {
                    uf.union(m, l);
                }
                m
            };
            labels[y * w + x] = label;
        }
    }
    // Second pass: compress to dense labels 1..=count.
    let mut remap = vec![0u32; uf.parent.len()];
    let mut count = 0u32;
    for l in labels.iter_mut() {
        if *l == 0 {
            continue;
        }
        let root = uf.find(*l);
        if remap[root as usize] == 0 {
            count += 1;
            remap[root as usize] = count;
        }
        *l = remap[root as usize];
    }
    Labels {
        width: w,
        height: h,
        labels,
        count: count as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_separate_blocks() {
        let mut m = BitMask::new(20, 10);
        for p in BoxRegion::new(1, 1, 4, 4).pixels() {
            m.set(p.x, p.y, true);
        }
        for p in BoxRegion::new(10, 5, 15, 9).pixels() {
            m.set(p.x, p.y, true);
        }
        let labels = label_components(&m, Connectivity::Four);
        assert_eq!(labels.count(), 2);
        let stats = labels.stats();
        let areas: Vec<usize> = stats.iter().map(|s| s.area).collect();
        assert!(areas.contains(&9) && areas.contains(&20));
    }

    #[test]
    fn diagonal_touching_depends_on_connectivity() {
        let mut m = BitMask::new(4, 4);
        m.set(0, 0, true);
        m.set(1, 1, true);
        assert_eq!(label_components(&m, Connectivity::Four).count(), 2);
        assert_eq!(label_components(&m, Connectivity::Eight).count(), 1);
    }

    #[test]
    fn u_shape_merges_via_union_find() {
        // A U requires merging provisional labels on the closing row.
        let mut m = BitMask::new(5, 4);
        for y in 0..3 {
            m.set(0, y, true);
            m.set(4, y, true);
        }
        for x in 0..5 {
            m.set(x, 3, true);
        }
        let labels = label_components(&m, Connectivity::Four);
        assert_eq!(labels.count(), 1);
        assert_eq!(labels.largest().unwrap().area, m.count());
    }

    #[test]
    fn empty_mask_no_components() {
        let m = BitMask::new(8, 8);
        let labels = label_components(&m, Connectivity::Eight);
        assert_eq!(labels.count(), 0);
        assert!(labels.largest().is_none());
    }

    #[test]
    fn stats_bbox_and_centroid() {
        let m = BitMask::from_box(12, 12, BoxRegion::new(2, 3, 6, 5));
        let labels = label_components(&m, Connectivity::Four);
        let s = labels.largest().unwrap();
        assert_eq!(s.area, 8);
        assert_eq!(s.bbox, BoxRegion::new(2, 3, 6, 5));
        assert!((s.centroid.0 - 3.5).abs() < 1e-9);
        assert!((s.centroid.1 - 3.5).abs() < 1e-9);
    }

    #[test]
    fn component_mask_partition() {
        let m = BitMask::from_fn(16, 16, |x, y| (x / 4 + y / 4) % 2 == 0);
        let labels = label_components(&m, Connectivity::Four);
        let mut union = BitMask::new(16, 16);
        let mut total = 0;
        for l in 1..=labels.count() as u32 {
            let cm = labels.component_mask(l);
            total += cm.count();
            union.or_with(&cm);
        }
        assert_eq!(total, m.count()); // disjoint
        assert_eq!(union, m); // complete
    }

    #[test]
    fn full_mask_single_component() {
        let m = BitMask::full(31, 17);
        let labels = label_components(&m, Connectivity::Four);
        assert_eq!(labels.count(), 1);
        assert_eq!(labels.largest().unwrap().area, 31 * 17);
    }
}
