//! Volumetric data: a z-stack of equally-sized slices with anisotropic
//! voxel metadata.
//!
//! FIB-SEM produces volumes whose z spacing (milling depth) differs from
//! the in-plane pixel pitch; the paper calls out anisotropic voxel sizes as
//! a core non-AI-readiness property, and Zenesis Mode B processes volumes
//! slice-by-slice with temporal (z) consistency heuristics.

use crate::error::{ImageError, Result};
use crate::image::Image;
use crate::pixel::Pixel;

/// Physical voxel dimensions in nanometres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoxelSize {
    pub x_nm: f64,
    pub y_nm: f64,
    pub z_nm: f64,
}

impl VoxelSize {
    /// Isotropic voxels.
    pub fn isotropic(nm: f64) -> Self {
        VoxelSize {
            x_nm: nm,
            y_nm: nm,
            z_nm: nm,
        }
    }

    /// Ratio of z spacing to in-plane pitch; 1.0 means isotropic.
    pub fn anisotropy(&self) -> f64 {
        self.z_nm / self.x_nm.max(self.y_nm)
    }
}

impl Default for VoxelSize {
    fn default() -> Self {
        VoxelSize::isotropic(1.0)
    }
}

/// A stack of `depth` slices, each `width x height`.
#[derive(Debug, Clone, PartialEq)]
pub struct Volume<T: Pixel> {
    slices: Vec<Image<T>>,
    voxel: VoxelSize,
}

impl<T: Pixel> Volume<T> {
    /// Build from slices; all must share dimensions and there must be at
    /// least one.
    pub fn from_slices(slices: Vec<Image<T>>, voxel: VoxelSize) -> Result<Self> {
        let first = slices.first().ok_or(ImageError::EmptyDimensions)?;
        let dims = first.dims();
        for s in &slices {
            if s.dims() != dims {
                return Err(ImageError::DimensionMismatch {
                    a: dims,
                    b: s.dims(),
                });
            }
        }
        Ok(Volume { slices, voxel })
    }

    /// All-zero volume.
    pub fn zeros(width: usize, height: usize, depth: usize, voxel: VoxelSize) -> Self {
        assert!(depth > 0, "volume depth must be non-zero");
        Volume {
            slices: (0..depth).map(|_| Image::zeros(width, height)).collect(),
            voxel,
        }
    }

    pub fn width(&self) -> usize {
        self.slices[0].width()
    }

    pub fn height(&self) -> usize {
        self.slices[0].height()
    }

    pub fn depth(&self) -> usize {
        self.slices.len()
    }

    pub fn voxel(&self) -> VoxelSize {
        self.voxel
    }

    pub fn slice(&self, z: usize) -> &Image<T> {
        &self.slices[z]
    }

    pub fn slices(&self) -> &[Image<T>] {
        &self.slices
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        self.slices[z].get(x, y)
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        self.slices[z].set(x, y, v);
    }

    /// Apply `f` to every slice in parallel, producing a new volume.
    pub fn map_slices<U: Pixel>(
        &self,
        f: impl Fn(usize, &Image<T>) -> Image<U> + Sync,
    ) -> Volume<U> {
        let slices = zenesis_par::par_map_range(self.depth(), |z| f(z, &self.slices[z]));
        Volume {
            slices,
            voxel: self.voxel,
        }
    }

    /// Orthogonal resample along z by nearest neighbour so voxels become
    /// isotropic in-plane vs depth (a standard readiness fix for
    /// anisotropic stacks). Returns `self` clone when already isotropic.
    pub fn resample_isotropic_z(&self) -> Volume<T> {
        let ratio = self.voxel.anisotropy();
        if (ratio - 1.0).abs() < 1e-9 {
            return self.clone();
        }
        let new_depth = ((self.depth() as f64) * ratio).round().max(1.0) as usize;
        let slices: Vec<Image<T>> = (0..new_depth)
            .map(|z| {
                let src = ((z as f64 + 0.5) / ratio) as usize;
                self.slices[src.min(self.depth() - 1)].clone()
            })
            .collect();
        Volume {
            slices,
            voxel: VoxelSize {
                x_nm: self.voxel.x_nm,
                y_nm: self.voxel.y_nm,
                z_nm: self.voxel.x_nm.max(self.voxel.y_nm),
            },
        }
    }

    /// Mean normalized intensity per slice — used to detect slice-to-slice
    /// contrast drift (defocus/charging) before adaptation.
    pub fn slice_means(&self) -> Vec<f64> {
        zenesis_par::par_map_range(self.depth(), |z| self.slices[z].mean_norm())
    }
}

impl<T: Pixel> Volume<T> {
    /// `(width, height, depth)`.
    pub fn dims3(&self) -> (usize, usize, usize) {
        (self.width(), self.height(), self.depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vol() -> Volume<u8> {
        let slices = (0..4)
            .map(|z| Image::from_fn(6, 5, move |x, y| (z * 40 + y * 6 + x) as u8))
            .collect();
        Volume::from_slices(slices, VoxelSize::isotropic(10.0)).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Volume::<u8>::from_slices(vec![], VoxelSize::default()).is_err());
        let bad = vec![Image::<u8>::zeros(3, 3), Image::<u8>::zeros(4, 3)];
        assert!(Volume::from_slices(bad, VoxelSize::default()).is_err());
    }

    #[test]
    fn indexing() {
        let v = vol();
        assert_eq!(v.dims3(), (6, 5, 4));
        assert_eq!(v.get(2, 1, 3), (3 * 40 + 6 + 2) as u8);
    }

    #[test]
    fn map_slices_parallel_order() {
        let v = vol();
        let doubled = v.map_slices(|_, s| s.map(|p| p.saturating_mul(2)));
        assert_eq!(doubled.get(1, 1, 1), v.get(1, 1, 1).saturating_mul(2));
        assert_eq!(doubled.depth(), v.depth());
    }

    #[test]
    fn anisotropy_and_resample() {
        let slices = (0..3).map(|_| Image::<u8>::zeros(4, 4)).collect();
        let v = Volume::from_slices(
            slices,
            VoxelSize {
                x_nm: 5.0,
                y_nm: 5.0,
                z_nm: 10.0,
            },
        )
        .unwrap();
        assert_eq!(v.voxel().anisotropy(), 2.0);
        let iso = v.resample_isotropic_z();
        assert_eq!(iso.depth(), 6);
        assert!((iso.voxel().anisotropy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resample_isotropic_noop() {
        let v = vol();
        let r = v.resample_isotropic_z();
        assert_eq!(r, v);
    }

    #[test]
    fn slice_means_monotone_for_ramp_stack() {
        let v = vol();
        let means = v.slice_means();
        assert_eq!(means.len(), 4);
        for i in 1..4 {
            assert!(means[i] > means[i - 1]);
        }
    }
}
