//! Bench: the Fig. 7 temporal machinery — the heuristic box refinement's
//! cost (it must be negligible next to model inference) and the volume
//! pipeline with refinement on vs off.

#![allow(clippy::field_reassign_with_default)]

use criterion::{criterion_group, criterion_main, Criterion};
use zenesis_core::temporal::refine_boxes;
use zenesis_core::{TemporalConfig, Zenesis, ZenesisConfig};
use zenesis_data::{generate_volume, SampleKind};
use zenesis_image::BoxRegion;

fn bench_refine_boxes(c: &mut Criterion) {
    // A thousand-slice box sequence with periodic outliers.
    let raw: Vec<Option<BoxRegion>> = (0..1000)
        .map(|i| {
            if i % 37 == 0 {
                Some(BoxRegion::new(0, 0, 128, 128))
            } else {
                Some(BoxRegion::new(10, 12, 60 + i % 5, 70))
            }
        })
        .collect();
    c.bench_function("refine_boxes_1000_slices", |b| {
        b.iter(|| refine_boxes(&raw, &TemporalConfig::default()))
    });
}

fn bench_volume_variants(c: &mut Criterion) {
    let vol = generate_volume(SampleKind::Crystalline, 128, 6, 3, &[2, 4]);
    let mut group = c.benchmark_group("volume_variants");
    group.sample_size(10);
    group.bench_function("refinement_on", |b| {
        let z = Zenesis::new(ZenesisConfig::default());
        b.iter(|| z.segment_volume(&vol.volume, "needle-like crystalline catalyst"));
    });
    group.bench_function("refinement_off", |b| {
        let mut cfg = ZenesisConfig::default();
        cfg.temporal = TemporalConfig {
            window: 0,
            size_factor: f64::INFINITY,
            fill_missing: false,
        };
        let z = Zenesis::new(cfg);
        b.iter(|| z.segment_volume(&vol.volume, "needle-like crystalline catalyst"));
    });
    group.finish();
}

criterion_group!(benches, bench_refine_boxes, bench_volume_variants);
criterion_main!(benches);
