//! Bench: strong scaling of the parallel runtime and of Mode B batch
//! processing — the ICPP-facing claim that the inference pipeline
//! parallelises. Thread counts sweep through the `zenesis-par` global.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use zenesis_core::{Zenesis, ZenesisConfig};
use zenesis_data::{generate_volume, SampleKind};
use zenesis_par::ThreadsGuard;

fn bench_volume_scaling(c: &mut Criterion) {
    let vol = generate_volume(SampleKind::Amorphous, 128, 8, 11, &[]);
    let z = Zenesis::new(ZenesisConfig::default());
    let mut group = c.benchmark_group("mode_b_strong_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(vol.volume.depth() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &n| {
            let _g = ThreadsGuard::new(n);
            b.iter(|| z.segment_volume(&vol.volume, "catalyst particles"));
        });
    }
    group.finish();
}

fn bench_par_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_primitives");
    group.sample_size(20);
    let n = 1 << 20;
    for threads in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("par_map_square", threads),
            &threads,
            |b, &t| {
                let _g = ThreadsGuard::new(t);
                b.iter(|| {
                    zenesis_par::par_map_range(n, |i| {
                        let x = i as f64;
                        (x * x + 1.0).sqrt()
                    })
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("par_reduce_sum", threads),
            &threads,
            |b, &t| {
                let _g = ThreadsGuard::new(t);
                b.iter(|| {
                    zenesis_par::par_reduce_range(
                        n,
                        || 0.0f64,
                        |a, i| a + (i as f64).sqrt(),
                        |a, b| a + b,
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_volume_scaling, bench_par_primitives);
criterion_main!(benches);
