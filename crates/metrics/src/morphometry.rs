//! Morphometry: the quantitative materials analysis a Zenesis user runs
//! *on* the segmentation masks — per-particle sizes, shapes and
//! orientations, and phase-level statistics in physical units.
//!
//! This is the downstream payload of the paper's use case: catalyst
//! loading and ionomer distribution studies need particle counts, size
//! distributions, specific perimeter (the 2-D analogue of the specific
//! surface area the dataset section quotes), and orientation statistics
//! (the crystalline needles are anisotropic).

use serde::{Deserialize, Serialize};
use zenesis_image::components::{label_components, Connectivity};
use zenesis_image::BitMask;

/// Physical pixel size (nm per pixel edge).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PixelSize {
    pub nm: f64,
}

impl Default for PixelSize {
    fn default() -> Self {
        PixelSize { nm: 1.0 }
    }
}

/// Shape statistics of one segmented particle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ParticleStats {
    /// Area in nm².
    pub(crate) area_nm2: f64,
    /// Perimeter (boundary pixel count scaled) in nm.
    pub(crate) perimeter_nm: f64,
    /// Equivalent circular diameter in nm.
    pub(crate) eq_diameter_nm: f64,
    /// Centroid in pixels.
    pub(crate) centroid: (f64, f64),
    /// Aspect ratio (major/minor axis from second moments, >= 1).
    pub(crate) aspect: f64,
    /// Major-axis orientation in radians, in `[-pi/2, pi/2)`.
    pub(crate) orientation: f64,
    /// Circularity `4*pi*area / perimeter^2` in `(0, 1]` for sane shapes.
    pub(crate) circularity: f64,
}

/// Phase-level summary over all particles in a mask.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseStats {
    pub n_particles: usize,
    /// Area fraction of the frame covered by the phase.
    pub area_fraction: f64,
    /// Total phase area in nm².
    pub(crate) total_area_nm2: f64,
    /// Mean equivalent diameter in nm.
    pub mean_eq_diameter_nm: f64,
    /// Specific perimeter: total boundary length / total area (1/nm) —
    /// the 2-D section analogue of specific surface area; needle phases
    /// score much higher than equiaxed ones.
    pub specific_perimeter_per_nm: f64,
    /// Mean particle aspect ratio.
    pub mean_aspect: f64,
    /// Orientation coherence of the particle population in [0, 1]:
    /// 1 = all major axes aligned (the crystalline-needle signature).
    pub orientation_coherence: f64,
}

/// Per-particle statistics of every 8-connected component in `mask`.
pub(crate) fn analyze_particles(mask: &BitMask, px: PixelSize) -> Vec<ParticleStats> {
    let labels = label_components(mask, Connectivity::Eight);
    let mut out = Vec::with_capacity(labels.count());
    for s in labels.stats() {
        let comp = labels.component_mask(s.label);
        let area_px = s.area as f64;
        let perimeter_px = comp.boundary().count() as f64;
        // Second central moments for orientation/aspect.
        let (cx, cy) = s.centroid;
        let mut mxx = 0.0f64;
        let mut myy = 0.0f64;
        let mut mxy = 0.0f64;
        for p in comp.iter_true() {
            let dx = p.x as f64 - cx;
            let dy = p.y as f64 - cy;
            mxx += dx * dx;
            myy += dy * dy;
            mxy += dx * dy;
        }
        mxx /= area_px;
        myy /= area_px;
        mxy /= area_px;
        // Eigenvalues of the 2x2 moment matrix.
        let tr = mxx + myy;
        let det = mxx * myy - mxy * mxy;
        let disc = (tr * tr / 4.0 - det).max(0.0).sqrt();
        let l1 = tr / 2.0 + disc; // major
        let l2 = (tr / 2.0 - disc).max(1e-12); // minor
        let aspect = (l1 / l2).sqrt().max(1.0);
        let orientation = 0.5 * (2.0 * mxy).atan2(mxx - myy);
        let area_nm2 = area_px * px.nm * px.nm;
        let perimeter_nm = perimeter_px * px.nm;
        let eq_diameter_nm = 2.0 * (area_nm2 / std::f64::consts::PI).sqrt();
        let circularity = if perimeter_nm > 0.0 {
            (4.0 * std::f64::consts::PI * area_nm2 / (perimeter_nm * perimeter_nm)).min(1.0)
        } else {
            1.0
        };
        out.push(ParticleStats {
            area_nm2,
            perimeter_nm,
            eq_diameter_nm,
            centroid: (cx, cy),
            aspect,
            orientation,
            circularity,
        });
    }
    out
}

/// Phase-level roll-up of `analyze_particles`.
pub fn analyze_phase(mask: &BitMask, px: PixelSize) -> PhaseStats {
    let particles = analyze_particles(mask, px);
    let n = particles.len();
    let total_area_nm2: f64 = particles.iter().map(|p| p.area_nm2).sum();
    let total_perimeter: f64 = particles.iter().map(|p| p.perimeter_nm).sum();
    let mean_eq = if n > 0 {
        particles.iter().map(|p| p.eq_diameter_nm).sum::<f64>() / n as f64
    } else {
        0.0
    };
    let mean_aspect = if n > 0 {
        particles.iter().map(|p| p.aspect).sum::<f64>() / n as f64
    } else {
        1.0
    };
    // Orientation coherence via the doubled-angle resultant vector
    // (orientations are axial: theta and theta+pi are the same axis).
    let coherence = if n > 0 {
        let (mut c, mut s) = (0.0f64, 0.0f64);
        for p in &particles {
            // Weight by area so specks don't dominate.
            c += p.area_nm2 * (2.0 * p.orientation).cos();
            s += p.area_nm2 * (2.0 * p.orientation).sin();
        }
        (c * c + s * s).sqrt() / total_area_nm2.max(1e-12)
    } else {
        0.0
    };
    PhaseStats {
        n_particles: n,
        area_fraction: mask.coverage(),
        total_area_nm2,
        mean_eq_diameter_nm: mean_eq,
        specific_perimeter_per_nm: if total_area_nm2 > 0.0 {
            total_perimeter / total_area_nm2
        } else {
            0.0
        },
        mean_aspect,
        orientation_coherence: coherence.min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::BoxRegion;

    #[test]
    fn single_square_statistics() {
        let m = BitMask::from_box(40, 40, BoxRegion::new(10, 10, 20, 20));
        let px = PixelSize { nm: 2.0 };
        let parts = analyze_particles(&m, px);
        assert_eq!(parts.len(), 1);
        let p = &parts[0];
        assert!((p.area_nm2 - 400.0).abs() < 1e-9); // 100 px * 4 nm²
        assert!((p.centroid.0 - 14.5).abs() < 1e-9);
        assert!((p.aspect - 1.0).abs() < 0.05, "square aspect {}", p.aspect);
        assert!(p.circularity > 0.6, "square circularity {}", p.circularity);
        // Equivalent diameter of 400 nm²: 2*sqrt(400/pi) ≈ 22.57.
        assert!((p.eq_diameter_nm - 22.567).abs() < 0.05);
    }

    #[test]
    fn elongated_bar_has_high_aspect_and_orientation() {
        // Horizontal bar 30x4.
        let m = BitMask::from_box(50, 50, BoxRegion::new(10, 20, 40, 24));
        let parts = analyze_particles(&m, PixelSize::default());
        assert_eq!(parts.len(), 1);
        let p = &parts[0];
        assert!(p.aspect > 5.0, "bar aspect {}", p.aspect);
        // Major axis is horizontal: orientation near 0.
        assert!(p.orientation.abs() < 0.05, "orientation {}", p.orientation);
        // Vertical bar: orientation near ±pi/2.
        let v = BitMask::from_box(50, 50, BoxRegion::new(20, 10, 24, 40));
        let pv = &analyze_particles(&v, PixelSize::default())[0];
        assert!(
            (pv.orientation.abs() - std::f64::consts::FRAC_PI_2).abs() < 0.05,
            "vertical orientation {}",
            pv.orientation
        );
    }

    #[test]
    fn multiple_particles_counted() {
        let mut m = BitMask::new(60, 60);
        for p in BoxRegion::new(5, 5, 15, 15).pixels() {
            m.set(p.x, p.y, true);
        }
        for p in BoxRegion::new(30, 30, 50, 40).pixels() {
            m.set(p.x, p.y, true);
        }
        let phase = analyze_phase(&m, PixelSize { nm: 5.0 });
        assert_eq!(phase.n_particles, 2);
        assert!((phase.area_fraction - 300.0 / 3600.0).abs() < 1e-9);
        assert!((phase.total_area_nm2 - 300.0 * 25.0).abs() < 1e-9);
    }

    #[test]
    fn needles_have_higher_specific_perimeter_than_blob() {
        // Same total area: one 40x10 blob vs four 40x2 + one 40x2 needles.
        let blob = BitMask::from_box(80, 80, BoxRegion::new(10, 10, 50, 20));
        let mut needles = BitMask::new(80, 80);
        for i in 0..5 {
            for p in BoxRegion::new(10, 30 + i * 6, 50, 32 + i * 6).pixels() {
                needles.set(p.x, p.y, true);
            }
        }
        assert_eq!(blob.count(), needles.count());
        let sb = analyze_phase(&blob, PixelSize::default());
        let sn = analyze_phase(&needles, PixelSize::default());
        assert!(
            sn.specific_perimeter_per_nm > sb.specific_perimeter_per_nm * 1.5,
            "needles {} vs blob {}",
            sn.specific_perimeter_per_nm,
            sb.specific_perimeter_per_nm
        );
    }

    #[test]
    fn aligned_needles_are_coherent_random_blobs_are_not() {
        // Three parallel horizontal needles: coherence near 1.
        let mut aligned = BitMask::new(60, 60);
        for i in 0..3 {
            for p in BoxRegion::new(5, 10 + i * 15, 55, 13 + i * 15).pixels() {
                aligned.set(p.x, p.y, true);
            }
        }
        let sa = analyze_phase(&aligned, PixelSize::default());
        assert!(
            sa.orientation_coherence > 0.9,
            "aligned {}",
            sa.orientation_coherence
        );
        // One horizontal plus one vertical: axial mean cancels.
        let mut crossed = BitMask::new(60, 60);
        for p in BoxRegion::new(5, 10, 55, 13).pixels() {
            crossed.set(p.x, p.y, true);
        }
        for p in BoxRegion::new(20, 20, 23, 58).pixels() {
            crossed.set(p.x, p.y, true);
        }
        let sc = analyze_phase(&crossed, PixelSize::default());
        assert!(
            sc.orientation_coherence < 0.4,
            "crossed {}",
            sc.orientation_coherence
        );
    }

    #[test]
    fn empty_mask_is_safe() {
        let m = BitMask::new(10, 10);
        assert!(analyze_particles(&m, PixelSize::default()).is_empty());
        let phase = analyze_phase(&m, PixelSize::default());
        assert_eq!(phase.n_particles, 0);
        assert_eq!(phase.area_fraction, 0.0);
        assert_eq!(phase.specific_perimeter_per_nm, 0.0);
    }
}
