//! The prepare / prompt-tail split and the content-keyed slice cache a
//! resident `JobEngine` serves interactive jobs from: the split is
//! bit-identical to `segment_slice`, a cached answer equals a fresh
//! `run_job`, concurrent misses prepare once, the cache stays within its
//! capacity, and a file rewritten in place is never served stale.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use zenesis_core::job::{run_job, InputSpec, JobEngine, JobResult, JobSpec, PhantomKind};
use zenesis_core::slice_cache::{Lookup, SliceCache};
use zenesis_core::{Zenesis, ZenesisConfig};
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_image::Image;
use zenesis_par::CancelToken;

/// The prompts the served benchmark sends, per sample kind.
const PROMPTS: [&str; 6] = [
    "catalyst particles",
    "bright catalyst particles",
    "bright particles",
    "needle-like crystalline catalyst",
    "crystalline needles",
    "needle-like crystals",
];

fn bits(img: &Image<f32>) -> Vec<u32> {
    img.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn phantom(kind: SampleKind, seed: u64, side: usize) -> Image<u16> {
    generate_slice(&PhantomConfig::new(kind, seed).with_size(side, side)).raw
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("zenesis_slice_cache_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiff_job(path: &std::path::Path, prompt: &str) -> JobSpec {
    JobSpec::Interactive {
        input: InputSpec::TiffFile {
            path: path.to_string_lossy().into_owned(),
        },
        prompt: prompt.into(),
        config: None,
    }
}

/// Everything of a slice answer but its timing.
fn answer(r: JobResult) -> (Vec<zenesis_image::BoxRegion>, usize, u64) {
    match r {
        JobResult::Slice {
            detections,
            mask_pixels,
            coverage,
            ..
        } => (detections, mask_pixels, coverage.to_bits()),
        other => panic!("expected a slice result, got {other:?}"),
    }
}

fn served(engine: &JobEngine, spec: &JobSpec) -> (Vec<zenesis_image::BoxRegion>, usize, u64) {
    answer(engine.run_with_cancel(spec, &CancelToken::new()))
}

#[test]
fn segment_prepared_equals_segment_slice() {
    let z = Zenesis::new(ZenesisConfig::default());
    // 48² runs grounding and encode back to back, 128² under `join`.
    for (kind, seed, side) in [
        (SampleKind::Amorphous, 3, 128),
        (SampleKind::Crystalline, 4, 128),
        (SampleKind::Crystalline, 5, 48),
    ] {
        let raw = phantom(kind, seed, side);
        let prepared = z.prepare(&raw);
        assert_eq!(prepared.dims(), (side, side));
        for prompt in PROMPTS {
            let whole = z.segment_slice(&raw, prompt);
            let tail = z.segment_prepared(&prepared, prompt);
            let what = format!("{kind:?} {side}² {prompt:?}");
            assert_eq!(tail.detections, whole.detections, "{what}");
            assert_eq!(tail.masks, whole.masks, "{what}");
            assert_eq!(tail.combined, whole.combined, "{what}");
            assert_eq!(bits(&tail.relevance), bits(&whole.relevance), "{what}");
        }
    }
}

#[test]
fn interleaved_sessions_through_one_engine_equal_fresh_run_job() {
    let dir = scratch_dir("sessions");
    let slices: Vec<PathBuf> = [(SampleKind::Amorphous, 11), (SampleKind::Crystalline, 12)]
        .into_iter()
        .map(|(kind, seed)| {
            let path = dir.join(format!("{kind:?}-{seed}.tif"));
            zenesis_tiff::save_tiff_u16(&phantom(kind, seed, 96), &path).unwrap();
            path
        })
        .collect();
    let tiny = |seed| JobSpec::Interactive {
        input: InputSpec::PhantomSlice {
            kind: PhantomKind::Amorphous,
            seed,
            side: 16,
        },
        prompt: "particles".into(),
        config: None,
    };
    // Two sessions of three prompts, interleaved, then each slice again,
    // then tiny phantoms that push both out of the cache and back in.
    let mut specs = Vec::new();
    for step in 0..3 {
        for (s, path) in slices.iter().enumerate() {
            specs.push(tiff_job(path, PROMPTS[3 * s + step]));
        }
    }
    specs.extend([tiny(1), tiny(2), tiny(1)]);
    specs.extend(slices.iter().map(|p| tiff_job(p, PROMPTS[0])));
    specs.extend([tiny(3), tiny(1)]);

    let engine = JobEngine::new(3);
    for (i, spec) in specs.iter().enumerate() {
        assert_eq!(
            served(&engine, spec),
            answer(run_job(spec)),
            "job {i}: {spec:?}"
        );
        assert!(engine.slice_cache().len() <= 3);
    }
    // A spec with an explicit config bypasses the engine's pipeline and
    // its cache.
    let held = engine.slice_cache().len();
    let explicit = JobSpec::Interactive {
        input: InputSpec::PhantomSlice {
            kind: PhantomKind::Crystalline,
            seed: 9,
            side: 32,
        },
        prompt: "crystalline needles".into(),
        config: Some(ZenesisConfig::default()),
    };
    assert_eq!(served(&engine, &explicit), answer(run_job(&explicit)));
    assert_eq!(engine.slice_cache().len(), held);
    // The resident pipeline prepares with the plain encode: its own
    // embedding LRU never holds anything.
    assert_eq!(engine.zenesis().sam().embed_cache_len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_misses_on_one_slice_prepare_once() {
    let z = Zenesis::new(ZenesisConfig::default());
    let cache = SliceCache::new(3);
    let raw = phantom(SampleKind::Amorphous, 21, 64).to_f32();
    let prepares = AtomicUsize::new(0);
    let n = 8;
    let barrier = Barrier::new(n);
    let got: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let raw = raw.clone();
                let (cache, z, prepares, barrier) = (&cache, &z, &prepares, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    cache.get_or_prepare(raw, |raw| {
                        prepares.fetch_add(1, Ordering::SeqCst);
                        z.prepare(raw)
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(prepares.load(Ordering::SeqCst), 1);
    assert_eq!(cache.len(), 1);
    assert_eq!(got.iter().filter(|(_, l)| *l == Lookup::Miss).count(), 1);
    assert!(got.iter().all(|(p, _)| Arc::ptr_eq(p, &got[0].0)));
}

#[test]
fn a_panicking_prepare_leaves_the_slice_to_the_next_request() {
    let z = Zenesis::new(ZenesisConfig::default());
    let cache = SliceCache::new(2);
    let raw = phantom(SampleKind::Amorphous, 22, 16).to_f32();
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        cache.get_or_prepare(raw.clone(), |_| panic!("prepare failed"))
    }));
    assert!(crashed.is_err());
    let (_, lookup) = cache.get_or_prepare(raw.clone(), |raw| z.prepare(raw));
    assert_eq!(lookup, Lookup::Miss);
    let (_, lookup) = cache.get_or_prepare(raw, |_| unreachable!("already prepared"));
    assert_eq!(lookup, Lookup::Hit);
    assert_eq!(cache.len(), 1);
}

#[test]
fn entry_count_never_exceeds_capacity() {
    let z = Zenesis::new(ZenesisConfig::default());
    let cache = SliceCache::new(3);
    let img = |seed| phantom(SampleKind::Amorphous, seed, 16).to_f32();
    // A least-recently-used model, oldest first.
    let mut model: Vec<u64> = Vec::new();
    for seed in [0, 1, 2, 0, 3, 0, 4, 1, 2, 2, 5, 0, 6, 7, 8] {
        let expected = match model.iter().position(|&s| s == seed) {
            Some(at) => {
                model.remove(at);
                Lookup::Hit
            }
            None => {
                if model.len() == 3 {
                    model.remove(0);
                }
                Lookup::Miss
            }
        };
        model.push(seed);
        let (_, lookup) = cache.get_or_prepare(img(seed), |raw| z.prepare(raw));
        assert_eq!(lookup, expected, "seed {seed}");
        assert_eq!(cache.len(), model.len());
    }
    // Each entry holds its key and its prepared slice, nothing else.
    let entry = 16 * 16 * 4 + z.prepare(&img(0)).heap_bytes();
    assert_eq!(cache.resident_bytes(), 3 * entry);
}

#[test]
fn a_tiff_rewritten_in_place_gets_the_new_answer() {
    let dir = scratch_dir("rewrite");
    let path = dir.join("slice.tif");
    let engine = JobEngine::new(3);
    let spec = tiff_job(&path, "bright catalyst particles");
    let mut answers = Vec::new();
    for seed in [31, 32, 31] {
        zenesis_tiff::save_tiff_u16(&phantom(SampleKind::Amorphous, seed, 96), &path).unwrap();
        let got = served(&engine, &spec);
        assert_eq!(got, answer(run_job(&spec)), "seed {seed}");
        answers.push(got);
    }
    assert_ne!(
        answers[0], answers[1],
        "the two phantoms must answer differently"
    );
    assert_eq!(answers[0], answers[2]);
    std::fs::remove_dir_all(&dir).ok();
}
