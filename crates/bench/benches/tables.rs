//! Bench: the Tables 1-3 pipeline (per-method single-slice segmentation
//! cost on the benchmark phantoms). This measures what the paper's
//! evaluation dashboard reports per sample: wall time for Otsu, SAM-only,
//! and Zenesis on one crystalline and one amorphous slice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zenesis_adapt::AdaptPipeline;
use zenesis_core::{Method, Zenesis, ZenesisConfig};
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};

fn bench_tables(c: &mut Criterion) {
    let z = Zenesis::new(ZenesisConfig::default());
    let mut group = c.benchmark_group("tables_methods");
    group.sample_size(10);
    for kind in [SampleKind::Crystalline, SampleKind::Amorphous] {
        let g = generate_slice(&PhantomConfig::new(kind, 2025));
        let (adapted, _) = z.adapt(&g.raw);
        let baseline_view = AdaptPipeline::minimal().run(&g.raw.to_f32()).0;
        let prompt = kind.default_prompt();
        for m in Method::all() {
            group.bench_with_input(BenchmarkId::new(m.name(), kind.label()), &m, |b, m| {
                b.iter(|| m.segment_views(&z, &baseline_view, &adapted, prompt));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
