//! Bench: the compute kernels under the pipeline — adaptation stages,
//! visual feature pyramid, the Eq. 1 attention and its matmul, and SAM
//! decode primitives. These are the hot loops the ICPP audience cares
//! about.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zenesis_adapt::equalize::clahe;
use zenesis_adapt::{AdaptPipeline, AdaptStage};
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_ground::{DinoConfig, FeatureGrid, GroundingDino};
use zenesis_image::filter::{local_std, median_filter, orientation_coherence};
use zenesis_image::morphology::{dilate, erode, Structuring};
use zenesis_image::{BitMask, Image};
use zenesis_nn::attention_weights;
use zenesis_sam::{ImageEmbedding, PromptSet, Sam, SamConfig};
use zenesis_tensor::Matrix;

fn test_image() -> Image<f32> {
    let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 7));
    g.raw.to_f32()
}

fn bench_adapt(c: &mut Criterion) {
    let img = test_image();
    let mut group = c.benchmark_group("adapt_stages");
    group.sample_size(20);
    let stages: Vec<(&str, AdaptStage)> = vec![
        ("percentile_stretch", AdaptStage::PercentileStretch { p_lo: 0.005, p_hi: 0.995 }),
        ("clahe", AdaptStage::Clahe { tiles: 4, clip_limit: 2.2 }),
        ("median", AdaptStage::Median { radius: 1 }),
        ("bilateral", AdaptStage::Bilateral { sigma_s: 1.5, sigma_r: 0.15 }),
        ("destripe", AdaptStage::Destripe { smooth_radius: 8 }),
    ];
    for (name, stage) in stages {
        group.bench_function(name, |b| b.iter(|| stage.apply(&img)));
    }
    group.bench_function("recommended_pipeline", |b| {
        let p = AdaptPipeline::recommended();
        b.iter(|| p.run(&img))
    });
    group.finish();
}

fn bench_transformer(c: &mut Criterion) {
    let mut group = c.benchmark_group("transformer");
    group.sample_size(20);
    // Eq. (1) at the pipeline's working sizes: 3 text tokens vs 256 patches.
    let q = Matrix::seeded_uniform(3, 32, 1.0, 1);
    let k = Matrix::seeded_uniform(256, 32, 1.0, 2);
    group.bench_function("attention_weights_3x256", |b| {
        b.iter(|| attention_weights(&q, &k))
    });
    // A 256-token `A·Aᵀ` product through the packed kernel.
    let x = Matrix::seeded_uniform(256, 64, 1.0, 4);
    group.bench_function("matmul_256x64", |b| b.iter(|| x.matmul_transposed(&x)));
    group.finish();
}

/// Size sweep over the blocked matmul — the scaling evidence behind
/// `docs/PERFORMANCE.md` and the `kernel-bench-smoke` CI gate.
fn bench_kernel_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_sweep");
    group.sample_size(15);
    for n in [64usize, 128, 256, 512] {
        let a = Matrix::seeded_uniform(n, n, 1.0, 21);
        let bt = Matrix::seeded_uniform(n, n, 1.0, 22);
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |b, _| {
            b.iter(|| a.matmul(&bt))
        });
        group.bench_with_input(BenchmarkId::new("matmul_transposed", n), &n, |b, _| {
            b.iter(|| a.matmul_transposed(&bt))
        });
    }
    group.finish();
}

fn bench_ground_and_sam(c: &mut Criterion) {
    let g = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 9));
    let adapted = AdaptPipeline::recommended().run(&g.raw.to_f32()).0;
    let mut group = c.benchmark_group("model_primitives");
    group.sample_size(20);
    group.bench_function("feature_grid_128", |b| {
        b.iter(|| FeatureGrid::compute(&adapted, 8))
    });
    let sam = Sam::new(SamConfig::default());
    group.bench_function("sam_encode_128", |b| b.iter(|| sam.encode(&adapted)));
    let emb = ImageEmbedding::encode(&adapted, 1.0);
    let bbox = g.truth.bounding_box().unwrap();
    group.bench_with_input(BenchmarkId::new("sam_decode_box", "truth_bbox"), &bbox, |b, &bb| {
        b.iter(|| sam.segment(&emb, &PromptSet::from_box(bb)))
    });
    group.bench_function("sam_auto_mode", |b| b.iter(|| sam.segment_auto(&emb)));
    group.finish();
}

/// The non-model glue of `segment_slice` at the served slice size (256²):
/// the relevance gate's upsample and dilation, the adaptation median and
/// CLAHE, the feature pyramid's windowed statistics, and one box decode.
fn bench_slice_path(c: &mut Criterion) {
    let g = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 9).with_size(256, 256));
    let adapted = AdaptPipeline::recommended().run(&g.raw.to_f32()).0;
    let grounding = GroundingDino::new(DinoConfig::default())
        .ground(&adapted, "needle-like crystalline catalyst");
    let support = BitMask::from_threshold(&grounding.relevance_full(256, 256), 0.60);
    let se = Structuring::Square(grounding.patch / 2);
    let emb = ImageEmbedding::encode(&adapted, 1.0);
    let bbox = g.truth.bounding_box().unwrap();
    let mut group = c.benchmark_group("slice_path");
    group.sample_size(20);
    group.bench_function("dilate_256_sq4", |b| b.iter(|| dilate(&support, se)));
    group.bench_function("erode_256_sq4", |b| b.iter(|| erode(&support, se)));
    group.bench_function("median_256_r1", |b| b.iter(|| median_filter(&adapted, 1)));
    group.bench_function("median_256_r2", |b| b.iter(|| median_filter(&adapted, 2)));
    group.bench_function("clahe_256", |b| b.iter(|| clahe(&adapted, 4, 2.2)));
    group.bench_function("coherence_256", |b| {
        b.iter(|| orientation_coherence(&adapted, 2.0))
    });
    group.bench_function("local_std_256", |b| b.iter(|| local_std(&adapted, 2)));
    group.bench_function("decode_box_256", |b| {
        b.iter(|| zenesis_sam::decoder::decode_box(&emb, bbox, 2, 6, true, true))
    });
    group.bench_function("relevance_full_256", |b| {
        b.iter(|| grounding.relevance_full(256, 256))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_slice_path,
    bench_adapt,
    bench_transformer,
    bench_kernel_sweep,
    bench_ground_and_sam
);
criterion_main!(benches);
