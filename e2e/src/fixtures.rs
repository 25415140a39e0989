//! Seeded input files: raw 16-bit TIFF slices and multi-page stacks.
//!
//! Inputs are files because that is the paper's non-AI-ready ingest path,
//! and because `phantom_*` job inputs would spend half of every job inside
//! `zenesis-data`. The seed picks the phantom seeds and the outlier
//! slices; the server only ever sees the paths.

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zenesis_data::{generate_slice, generate_volume, PhantomConfig, SampleKind};

/// Dimensions of a fixture set.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Slice side in pixels.
    pub side: usize,
    /// Single-page slice files, half amorphous and half crystalline.
    pub pool: usize,
    /// Pages per stack (at least 8, so two outliers fit with history
    /// before each).
    pub depth: usize,
}

/// The benchmark's fixture set: 24 slices of 256² is a working set three
/// times SAM's 8-entry embedding LRU; 48-slice stacks keep a job near one
/// second so a run completes enough whole jobs.
pub const SHAPE: Shape = Shape {
    side: 256,
    pool: 24,
    depth: 48,
};

/// Which files a workload reads.
#[derive(Debug, Clone, Copy)]
pub struct Need {
    pub slices: bool,
    pub stacks: bool,
}

#[derive(Debug, Clone)]
pub struct SliceFixture {
    pub path: String,
    pub kind: SampleKind,
}

#[derive(Debug, Clone)]
pub struct StackFixture {
    pub path: String,
    pub kind: SampleKind,
}

#[derive(Debug, Clone, Default)]
pub struct Fixtures {
    pub slices: Vec<SliceFixture>,
    pub stacks: Vec<StackFixture>,
}

const KINDS: [SampleKind; 2] = [SampleKind::Amorphous, SampleKind::Crystalline];

fn kind_name(kind: SampleKind) -> &'static str {
    match kind {
        SampleKind::Amorphous => "amorphous",
        SampleKind::Crystalline => "crystalline",
    }
}

/// Write the fixture files a workload needs under `dir`. The same
/// `(seed, shape)` always writes byte-identical files.
pub fn generate(dir: &Path, seed: u64, shape: &Shape, need: Need) -> Result<Fixtures, String> {
    assert!(shape.depth >= 8, "a stack needs at least 8 slices");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // Every seed is drawn up front, in a fixed order, whatever `need` says:
    // a workload that reads only stacks gets the same stacks as one that
    // reads both.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1C5);
    let slice_seeds: Vec<u64> = (0..shape.pool)
        .map(|_| rng.gen_range(1..1u64 << 32))
        .collect();
    let stack_plans: Vec<(SampleKind, u64, [usize; 2])> = KINDS
        .iter()
        .map(|&kind| {
            let seed = rng.gen_range(1..1u64 << 32);
            // Two glitch slices, each with clean history before it, so
            // the Fig. 7 temporal refinement has something to correct.
            let a = rng.gen_range(shape.depth / 6..shape.depth / 2 - 1);
            let b = rng.gen_range(shape.depth / 2 + 1..shape.depth - 2);
            (kind, seed, [a, b])
        })
        .collect();

    let mut out = Fixtures::default();
    if need.slices {
        let generated = zenesis_par::par_map_range(shape.pool, |i| {
            let kind = KINDS[i % 2];
            let g = generate_slice(
                &PhantomConfig::new(kind, slice_seeds[i]).with_size(shape.side, shape.side),
            );
            (kind, g.raw)
        });
        for (i, (kind, raw)) in generated.into_iter().enumerate() {
            let path = dir.join(format!("slice-{i:02}-{}.tif", kind_name(kind)));
            zenesis_tiff::save_tiff_u16(&raw, &path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            out.slices.push(SliceFixture {
                path: path.to_string_lossy().into_owned(),
                kind,
            });
        }
    }
    if need.stacks {
        for (kind, seed, outliers) in stack_plans {
            let v = generate_volume(kind, shape.side, shape.depth, seed, &outliers);
            let path = dir.join(format!("stack-{}.tif", kind_name(kind)));
            zenesis_tiff::save_tiff_volume_u16(&v.volume, &path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            out.stacks.push(StackFixture {
                path: path.to_string_lossy().into_owned(),
                kind,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    const SMALL: Shape = Shape {
        side: 48,
        pool: 4,
        depth: 8,
    };
    const ALL: Need = Need {
        slices: true,
        stacks: true,
    };

    fn scratch(name: &str) -> PathBuf {
        let dir = crate::test_scratch(&format!("fixtures-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_is_byte_identical_and_another_seed_is_not() {
        let (a, b, c) = (scratch("a"), scratch("b"), scratch("c"));
        generate(&a, 7, &SMALL, ALL).unwrap();
        generate(&b, 7, &SMALL, ALL).unwrap();
        generate(&c, 8, &SMALL, ALL).unwrap();
        let (fa, fb, fc) = (contents(&a), contents(&b), contents(&c));
        assert_eq!(fa.len(), SMALL.pool + 2);
        assert_eq!(fa, fb, "same seed must write the same bytes");
        assert_eq!(
            fa.keys().collect::<Vec<_>>(),
            fc.keys().collect::<Vec<_>>(),
            "file names do not depend on the seed"
        );
        for (name, bytes) in &fa {
            assert_ne!(bytes, &fc[name], "{name} must change with the seed");
        }
        for d in [a, b, c] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn stacks_do_not_depend_on_whether_slices_were_asked_for() {
        let (a, b) = (scratch("both"), scratch("stacks"));
        generate(&a, 3, &SMALL, ALL).unwrap();
        let only = Need {
            slices: false,
            stacks: true,
        };
        let f = generate(&b, 3, &SMALL, only).unwrap();
        assert!(f.slices.is_empty());
        assert_eq!(f.stacks.len(), 2);
        let (fa, fb) = (contents(&a), contents(&b));
        for (name, bytes) in &fb {
            assert_eq!(bytes, &fa[name]);
        }
        let pages = zenesis_tiff::VolumeReader::open(&f.stacks[0].path).unwrap();
        assert_eq!(
            (pages.depth(), pages.width(), pages.bits()),
            (SMALL.depth, SMALL.side, 16)
        );
        for d in [a, b] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }
}
