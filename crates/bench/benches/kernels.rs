//! Bench: the compute kernels under the pipeline — adaptation stages,
//! visual feature pyramid, transformer arithmetic (the Eq. 1 attention and
//! the ViT/Swin encoders), and SAM decode primitives. These are the hot
//! loops the ICPP audience cares about.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zenesis_adapt::{AdaptPipeline, AdaptStage};
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_ground::{DinoConfig, FeatureGrid, GroundingDino};
use zenesis_image::filter::median_filter;
use zenesis_image::morphology::{dilate, erode, Structuring};
use zenesis_image::{BitMask, Image};
use zenesis_nn::{attention, attention_weights, SwinStage, VitEncoder};
use zenesis_par::ThreadsGuard;
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
    let v = Matrix::seeded_uniform(256, 32, 1.0, 3);
    group.bench_function("attention_3x256", |b| b.iter(|| attention(&q, &k, &v)));
    // Larger self-attention (SAM-scale token counts).
    let x = Matrix::seeded_uniform(256, 64, 1.0, 4);
    group.bench_function("matmul_256x64", |b| b.iter(|| x.matmul_transposed(&x)));
    let img = Image::<f32>::from_fn(128, 128, |x, y| ((x * 7 + y * 13) % 97) as f32 / 96.0);
    let vit = VitEncoder::new(8, 64, 4, 2, 5);
    group.bench_function("vit_encode_128", |b| b.iter(|| vit.forward(&img)));
    let swin = SwinStage::new(4, 64, 4, 2, 6);
    let tokens = Matrix::seeded_uniform(256, 64, 1.0, 7);
    group.bench_function("swin_stage_16x16", |b| b.iter(|| swin.forward(&tokens, 16, 16)));
    group.finish();
}

/// Size sweep over the blocked matmul and the fused-vs-unfused attention
/// kernels — the scaling evidence behind `docs/PERFORMANCE.md` and the
/// `kernel-bench-smoke` CI gate.
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

    let mut group = c.benchmark_group("attention_fusion");
    group.sample_size(20);
    for (n_q, n_kv, d) in [
        (3usize, 256usize, 32usize), // grounding query vs patch tokens
        (64, 256, 32),
        (256, 256, 16), // one ViT head at 128px
        (128, 256, 32),
        (256, 256, 64),
    ] {
        let q = Matrix::seeded_uniform(n_q, d, 1.0, 31);
        let k = Matrix::seeded_uniform(n_kv, d, 1.0, 32);
        let v = Matrix::seeded_uniform(n_kv, d, 1.0, 33);
        let label = format!("{n_q}x{n_kv}x{d}");
        group.bench_with_input(BenchmarkId::new("fused", &label), &d, |b, _| {
            b.iter(|| attention(&q, &k, &v))
        });
        // Unfused reference: materialize the full softmax(QKᵀ/√d) score
        // matrix, then a second pass multiplies by V.
        group.bench_with_input(BenchmarkId::new("unfused", &label), &d, |b, _| {
            b.iter(|| attention_weights(&q, &k).matmul(&v))
        });
    }
    group.finish();
}

/// Thread-scaling sweep: the row-banded packed matmul and the query-banded
/// fused attention at 1/2/4 workers. The `ThreadsGuard` is held for the
/// whole measurement, so every iteration runs at the labelled count. The
/// outputs are bit-identical across the sweep (see
/// `crates/nn/tests/determinism.rs`) — only wall-clock may change.
fn bench_parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_par");
    group.sample_size(15);
    let a256 = Matrix::seeded_uniform(256, 256, 1.0, 51);
    let b256 = Matrix::seeded_uniform(256, 256, 1.0, 52);
    let a512 = Matrix::seeded_uniform(512, 512, 1.0, 53);
    let b512 = Matrix::seeded_uniform(512, 512, 1.0, 54);
    for t in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("matmul_256", t), &t, |bch, &t| {
            let _g = ThreadsGuard::new(t);
            bch.iter(|| a256.matmul(&b256))
        });
        group.bench_with_input(BenchmarkId::new("matmul_512", t), &t, |bch, &t| {
            let _g = ThreadsGuard::new(t);
            bch.iter(|| a512.matmul(&b512))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("attention_par");
    group.sample_size(20);
    // n_q = 24 stays on the query-banded fused kernel; 64 rows takes the
    // unfused materialized-scores route (parallel matmul + row softmax).
    let qf = Matrix::seeded_uniform(24, 64, 1.0, 61);
    let kf = Matrix::seeded_uniform(512, 64, 1.0, 62);
    let vf = Matrix::seeded_uniform(512, 64, 1.0, 63);
    let qu = Matrix::seeded_uniform(64, 64, 1.0, 64);
    let ku = Matrix::seeded_uniform(256, 64, 1.0, 65);
    let vu = Matrix::seeded_uniform(256, 64, 1.0, 66);
    for t in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("fused_24x512x64", t), &t, |bch, &t| {
            let _g = ThreadsGuard::new(t);
            bch.iter(|| attention(&qf, &kf, &vf))
        });
        group.bench_with_input(BenchmarkId::new("unfused_64x256x64", t), &t, |bch, &t| {
            let _g = ThreadsGuard::new(t);
            bch.iter(|| attention(&qu, &ku, &vu))
        });
    }
    group.finish();
}

fn bench_ground_and_sam(c: &mut Criterion) {
    let g = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 9));
    let adapted = AdaptPipeline::recommended().run(&g.raw.to_f32());
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
/// the relevance gate's upsample and dilation, the adaptation median, and
/// one box decode.
fn bench_slice_path(c: &mut Criterion) {
    let g = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 9).with_size(256, 256));
    let adapted = AdaptPipeline::recommended().run(&g.raw.to_f32());
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
    bench_parallel_scaling,
    bench_ground_and_sam
);
criterion_main!(benches);
