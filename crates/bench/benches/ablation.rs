//! Bench: cost of the design-choice ablations (DESIGN.md §4) — what each
//! pipeline component adds to per-slice latency. The *quality* side of the
//! ablation is reported by `repro -- ablation`; this bench reports the
//! speed side, so the two together give the cost/quality trade-off.

#![allow(clippy::field_reassign_with_default)]

use criterion::{criterion_group, criterion_main, Criterion};
use zenesis_adapt::AdaptPipeline;
use zenesis_core::{Zenesis, ZenesisConfig};
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};

fn bench_ablation(c: &mut Criterion) {
    let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 2025));
    let mut group = c.benchmark_group("ablation_variants");
    group.sample_size(10);
    let variants: Vec<(&str, ZenesisConfig)> = vec![
        ("full", ZenesisConfig::default()),
        ("no_adaptation", {
            let mut cfg = ZenesisConfig::default();
            cfg.adapt = AdaptPipeline::identity();
            cfg
        }),
        ("minimal_adaptation", {
            let mut cfg = ZenesisConfig::default();
            cfg.adapt = AdaptPipeline::minimal();
            cfg
        }),
        ("fast_preview", ZenesisConfig::fast_preview()),
        ("no_relevance_gate", {
            let mut cfg = ZenesisConfig::default();
            cfg.relevance_floor = None;
            cfg
        }),
    ];
    for (name, cfg) in variants {
        let z = Zenesis::new(cfg);
        group.bench_function(name, |b| {
            b.iter(|| z.segment_slice(&g.raw, "catalyst particles"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
