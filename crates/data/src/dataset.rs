//! The benchmark dataset builder: 10 crystalline + 10 amorphous slices
//! (matching the paper's "20 full slices ... 10 slices each"), and
//! evolving volumes for the temporal experiments.

use zenesis_image::{BitMask, Image, Volume, VoxelSize};

use crate::noise::NoiseConfig;
use crate::phantom::{generate_slice, PhantomConfig, SampleKind};

/// One benchmark sample: raw slice + ground truth + identity.
#[derive(Debug, Clone)]
pub struct Sample {
    pub id: String,
    pub kind: SampleKind,
    pub raw: Image<u16>,
    pub truth: BitMask,
}

/// The full 20-slice benchmark set.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub samples: Vec<Sample>,
}

/// Build the 20-slice benchmark dataset (10 crystalline + 10 amorphous) at
/// `side x side` resolution. Each slice gets independent structure and a
/// drifting noise configuration (defocus and contrast vary slice-to-slice,
/// per the paper's "variability in contrast caused by defocus and sample
/// topography").
pub fn benchmark_dataset(side: usize, seed: u64) -> Dataset {
    let mut samples = Vec::with_capacity(20);
    for (kind, prefix) in [
        (SampleKind::Crystalline, "crystalline"),
        (SampleKind::Amorphous, "amorphous"),
    ] {
        for i in 0..10u64 {
            let drift = (i as f32 / 9.0 - 0.5) * 2.0; // -1..1
            let noise = NoiseConfig {
                defocus_sigma: 0.45 + 0.25 * drift.abs(),
                contrast: 1.0 - 0.12 * drift,
                brightness: 0.015 * drift,
                ..NoiseConfig::default()
            };
            let cfg = PhantomConfig::new(kind, seed ^ (i * 7919 + kind_offset(kind)))
                .with_size(side, side)
                .with_noise(noise);
            let g = generate_slice(&cfg);
            samples.push(Sample {
                id: format!("{prefix}_{i:02}"),
                kind,
                raw: g.raw,
                truth: g.truth,
            });
        }
    }
    Dataset { samples }
}

fn kind_offset(kind: SampleKind) -> u64 {
    match kind {
        SampleKind::Crystalline => 0x1000_0000,
        SampleKind::Amorphous => 0x2000_0000,
    }
}

/// A synthetic volume with per-slice ground truth, for Mode B and the
/// temporal-refinement experiments (Fig. 7).
#[derive(Debug, Clone)]
pub struct VolumeSample {
    pub volume: Volume<u16>,
    pub truths: Vec<BitMask>,
}

/// Generate an evolving volume of `depth` slices. `outliers` slices get a
/// strong defocus + contrast burst (acquisition glitches).
pub fn generate_volume(
    kind: SampleKind,
    side: usize,
    depth: usize,
    seed: u64,
    outliers: &[usize],
) -> VolumeSample {
    assert!(depth > 0);
    let slices_and_truths: Vec<(Image<u16>, BitMask)> = zenesis_par::par_map_range(depth, |z| {
        let zf = z as f32 / depth.max(2) as f32;
        let is_outlier = outliers.contains(&z);
        let noise = if is_outlier {
            // An acquisition glitch severe enough to defeat the grounding
            // model on that slice (the paper's "sudden changes in
            // appearance or GroundingDINO failures"): heavy defocus,
            // crushed contrast, and a noise burst.
            NoiseConfig {
                defocus_sigma: 2.6,
                contrast: 0.35,
                gaussian_sigma: 0.10,
                shot_strength: 0.10,
                ..NoiseConfig::default()
            }
        } else {
            NoiseConfig::default()
        };
        // Same structure seed for the whole volume: geometry evolves only
        // through z, like a real milled series.
        let cfg = PhantomConfig::new(kind, seed)
            .with_size(side, side)
            .with_noise(noise)
            .with_z(zf);
        let g = generate_slice(&cfg);
        (g.raw, g.truth)
    });
    let (slices, truths): (Vec<_>, Vec<_>) = slices_and_truths.into_iter().unzip();
    let volume = Volume::from_slices(
        slices,
        VoxelSize {
            x_nm: 5.0,
            y_nm: 5.0,
            z_nm: 15.0, // anisotropic, like real FIB milling
        },
    )
    .expect("non-empty volume");
    VolumeSample { volume, truths }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_composition() {
        let ds = benchmark_dataset(64, 42);
        assert_eq!(ds.samples.len(), 20);
        let of_kind = |k| ds.samples.iter().filter(|s| s.kind == k).count();
        assert_eq!(of_kind(SampleKind::Crystalline), 10);
        assert_eq!(of_kind(SampleKind::Amorphous), 10);
        // Unique ids.
        let mut ids: Vec<&str> = ds.samples.iter().map(|s| s.id.as_str()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 20);
    }

    #[test]
    fn dataset_deterministic() {
        let a = benchmark_dataset(32, 1);
        let b = benchmark_dataset(32, 1);
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.raw, y.raw);
            assert_eq!(x.truth, y.truth);
        }
        let c = benchmark_dataset(32, 2);
        assert_ne!(a.samples[0].raw, c.samples[0].raw);
    }

    #[test]
    fn slices_vary_within_group() {
        let ds = benchmark_dataset(48, 9);
        let crys: Vec<&Sample> = ds
            .samples
            .iter()
            .filter(|s| s.kind == SampleKind::Crystalline)
            .collect();
        assert_ne!(crys[0].raw, crys[1].raw);
        assert_ne!(crys[0].truth, crys[1].truth);
    }

    #[test]
    fn volume_shape_and_anisotropy() {
        let v = generate_volume(SampleKind::Crystalline, 48, 6, 5, &[]);
        assert_eq!(v.volume.dims3(), (48, 48, 6));
        assert_eq!(v.truths.len(), 6);
        assert!((v.volume.voxel().anisotropy() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn volume_slices_temporally_coherent() {
        let v = generate_volume(SampleKind::Amorphous, 64, 5, 8, &[]);
        for z in 1..5 {
            let iou = v.truths[z - 1].iou(&v.truths[z]);
            assert!(iou > 0.3, "slice {z} iou {iou}");
        }
    }

    #[test]
    fn outlier_slices_are_degraded() {
        // Same volume with and without the glitch: non-glitched slices are
        // identical, the glitched slice differs substantially.
        let glitched = generate_volume(SampleKind::Crystalline, 64, 5, 3, &[2]);
        let clean = generate_volume(SampleKind::Crystalline, 64, 5, 3, &[]);
        assert_eq!(glitched.volume.slice(1), clean.volume.slice(1));
        assert_eq!(glitched.volume.slice(3), clean.volume.slice(3));
        let diff: f64 = glitched
            .volume
            .slice(2)
            .as_slice()
            .iter()
            .zip(clean.volume.slice(2).as_slice())
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>()
            / (64.0 * 64.0);
        assert!(
            diff > 100.0,
            "glitch should alter counts, mean |d| = {diff}"
        );
    }
}
