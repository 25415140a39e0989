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
    pub(crate) fn isotropic(nm: f64) -> Self {
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
        assert_eq!(v.slice(3).get(2, 1), (3 * 40 + 6 + 2) as u8);
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
    }
}
