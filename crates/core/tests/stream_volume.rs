//! The streaming Mode B contract: a TIFF stack pulled slice-by-slice
//! through [`Zenesis::segment_volume_streamed`] must produce masks
//! bit-identical to the same volume held in memory (the codec's
//! normalisation against `to_f32`), survive `io.tiff` fault injection
//! through the quarantine ladder, and resume bit-identically from a
//! torn checkpoint journal — the full chaos drill of
//! `docs/ROBUSTNESS.md`, now with the codec in the blast radius.
//!
//! Every test runs at 1, 2 and 4 threads: 4 oversubscribes a 2-vCPU host
//! and so forces slices to finish stage 1 out of order. Tests serialize
//! on one mutex: the fault plan and the thread count are process-global.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use zenesis_core::temporal::refine_boxes;
use zenesis_core::{panic_message, CheckpointSpec, SliceSource, Zenesis, ZenesisConfig};
use zenesis_data::{generate_volume, SampleKind};
use zenesis_fault::{FaultKind, FaultPlan};
use zenesis_par::{CancelToken, ThreadsGuard};
use zenesis_tiff::VolumeReader;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const PROMPT: &str = "needle-like crystalline catalyst";

/// The thread counts every test runs at.
const THREADS: [usize; 3] = [1, 2, 4];

fn pipeline() -> Zenesis {
    Zenesis::new(ZenesisConfig::default())
}

/// Write the phantom volume as a multi-page 16-bit TIFF and open a
/// streaming reader over it.
fn tiff_reader(v: &zenesis_data::VolumeSample, tag: &str) -> VolumeReader {
    let path =
        std::env::temp_dir().join(format!("zenesis-stream-{tag}-{}.tif", std::process::id()));
    zenesis_tiff::save_tiff_volume_u16(&v.volume, &path).unwrap();
    VolumeReader::open(&path).unwrap()
}

#[test]
fn streamed_tiff_matches_in_memory_bit_identically() {
    let _g = lock();
    let v = generate_volume(SampleKind::Crystalline, 64, 6, 7, &[]);
    let z = pipeline();
    let reference = z.segment_volume(&v.volume, PROMPT);
    let reader = tiff_reader(&v, "ident");
    assert_eq!(reader.depth(), 6);
    for threads in THREADS {
        let _t = ThreadsGuard::new(threads);
        let streamed = z
            .segment_volume_streamed(&reader, PROMPT, &CancelToken::new(), None)
            .expect("healthy streamed volume completes");
        assert_eq!(
            streamed.masks, reference.masks,
            "masks must be bit-identical ({threads} threads)"
        );
        assert_eq!(streamed.outcomes, reference.outcomes);
        assert_eq!(streamed.events.len(), reference.events.len());
        for (a, b) in streamed.events.iter().zip(&reference.events) {
            assert_eq!(
                a.corrected, b.corrected,
                "slice {} ({threads} threads)",
                a.slice
            );
        }
    }
}

#[test]
fn io_tiff_faults_quarantine_slices_not_the_volume() {
    let _g = lock();
    let v = generate_volume(SampleKind::Crystalline, 64, 8, 7, &[]);
    let z = pipeline();
    let reader = tiff_reader(&v, "chaos");
    let _armed = FaultPlan::new()
        .site("io.tiff", FaultKind::Error, 0.3, 41)
        .arm();
    for threads in THREADS {
        let _t = ThreadsGuard::new(threads);
        let r = z
            .segment_volume_streamed(&reader, PROMPT, &CancelToken::new(), None)
            .expect("io.tiff faults must not kill the volume");
        assert_eq!(r.masks.len(), 8, "every slice produces a mask");
        let failed = r.failed_slices();
        assert!(
            !failed.is_empty(),
            "seeded 30% read-fault rate must hit at least one of 8 slices"
        );
        assert!(
            failed.len() * 2 <= 8,
            "seed must keep failures under the abort floor"
        );
        for zi in &failed {
            assert_eq!(r.masks[*zi].count(), 0, "no pixels -> empty mask");
            match &r.outcomes[*zi] {
                zenesis_core::SliceOutcome::Failed { reason } => {
                    assert!(reason.contains("injected fault"), "{reason}");
                }
                other => panic!("slice {zi} ({threads} threads): expected Failed, got {other:?}"),
            }
        }
        // Slices the fault spared are segmented normally.
        assert!(r.masks.iter().any(|m| m.count() > 0));
    }
}

/// Stage 3 decodes with the prompt's polarity. With the relevance gate
/// off, a slice the temporal heuristic leaves alone and whose secondary
/// detections all pass its size screen must get exactly the mask
/// `segment_slice` gives it, dark prompt included.
#[test]
fn stage_three_decodes_a_dark_prompt_dark() {
    let _g = lock();
    const DARK: &str = "dark pores";
    let v = generate_volume(SampleKind::Amorphous, 64, 6, 7, &[]);
    let config = ZenesisConfig {
        relevance_floor: None,
        ..ZenesisConfig::default()
    };
    let single: Vec<_> = (0..6)
        .map(|i| Zenesis::new(config.clone()).segment_slice(v.volume.slice(i), DARK))
        .collect();
    let raw_boxes: Vec<_> = single
        .iter()
        .map(|r| r.detections.first().map(|d| d.bbox))
        .collect();
    let (_, events, window_dims) = refine_boxes(&raw_boxes, &config.temporal);
    let f = config.temporal.size_factor;
    let passes_screen = |i: usize| {
        single[i].detections.iter().skip(1).all(|d| {
            window_dims[i].is_none_or(|(mw, mh)| {
                let (w, h) = (d.bbox.width() as f64, d.bbox.height() as f64);
                w <= f * mw && h <= f * mh && w >= mw / f && h >= mh / f
            })
        })
    };
    let checked: Vec<usize> = (0..6)
        .filter(|&i| !events[i].corrected && passes_screen(i))
        .collect();
    assert!(checked.contains(&0), "slice 0 is never screened");
    for threads in THREADS {
        let _t = ThreadsGuard::new(threads);
        let volume = Zenesis::new(config.clone()).segment_volume(&v.volume, DARK);
        for &i in &checked {
            assert!(
                single[i].combined.count() > 0,
                "slice {i} finds dark structure"
            );
            assert_eq!(
                volume.masks[i], single[i].combined,
                "slice {i} ({threads} threads)"
            );
        }
    }
}

#[test]
fn fault_injected_tiff_volume_resumes_bit_identically() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("zenesis-stream-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let v = generate_volume(SampleKind::Crystalline, 64, 6, 7, &[]);
    let z = pipeline();
    let reader = tiff_reader(&v, "resume");
    let _armed = FaultPlan::new()
        .site("io.tiff", FaultKind::Error, 0.25, 13)
        .arm();

    // Reference: unbroken fault-injected streamed run, no checkpoint.
    let reference = z
        .segment_volume_streamed(&reader, PROMPT, &CancelToken::new(), None)
        .expect("reference run completes");

    for threads in THREADS {
        let _t = ThreadsGuard::new(threads);
        let _ = std::fs::remove_dir_all(&dir);
        // Checkpointed run under the same (deterministic) fault plan.
        let spec = CheckpointSpec::new(&dir);
        let first = z
            .segment_volume_streamed(&reader, PROMPT, &CancelToken::new(), Some(&spec))
            .expect("checkpointed run completes");
        assert_eq!(
            first.masks, reference.masks,
            "journaling must not change output"
        );

        // Simulate a kill -9 partway: keep the header plus three records,
        // tear the last kept line in half.
        let journal = dir.join(zenesis_core::checkpoint::JOURNAL_FILE);
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines.len() > 5,
            "expected a record per slice, got {}",
            lines.len()
        );
        let mut kept: Vec<String> = lines[..4].iter().map(|s| s.to_string()).collect();
        let torn = kept.pop().unwrap();
        let mut partial = kept.join("\n") + "\n";
        partial.push_str(&torn[..torn.len() / 2]);
        std::fs::write(&journal, partial).unwrap();

        // Resume replays the valid prefix and recomputes the rest — with
        // the fault plan still armed, injection decisions being pure
        // functions of (seed, site, slice) is what makes this land on the
        // reference masks exactly.
        let resumed = z
            .segment_volume_streamed(&reader, PROMPT, &CancelToken::new(), Some(&spec))
            .expect("resumed run completes");
        assert_eq!(
            resumed.masks, reference.masks,
            "resume must be bit-identical ({threads} threads)"
        );
        assert_eq!(resumed.outcomes, reference.outcomes);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_cancellation_reports_partial_progress() {
    let _g = lock();
    let v = generate_volume(SampleKind::Crystalline, 64, 4, 7, &[]);
    let z = pipeline();
    let reader = tiff_reader(&v, "cancel");
    let cancel = CancelToken::new();
    cancel.cancel();
    for threads in THREADS {
        let _t = ThreadsGuard::new(threads);
        match z.segment_volume_streamed(&reader, PROMPT, &cancel, None) {
            Err(zenesis_core::VolumeError::Cancelled(partial)) => {
                assert_eq!(partial.total, 4);
                assert!(partial.completed < partial.total);
            }
            other => panic!("expected Cancelled at {threads} threads, got {other:?}"),
        }
    }
}

/// A source whose read of one slice panics, past the read retry and
/// the quarantine ladder.
struct PanicsAt<'a> {
    inner: &'a dyn SliceSource,
    slice: usize,
}

impl SliceSource for PanicsAt<'_> {
    fn depth(&self) -> usize {
        self.inner.depth()
    }

    fn dims(&self) -> (usize, usize) {
        self.inner.dims()
    }

    fn read_slice(&self, z: usize) -> Result<zenesis_image::Image<f32>, String> {
        assert_ne!(z, self.slice, "unreadable slice {z}");
        self.inner.read_slice(z)
    }
}

/// A worker that unwinds halts the run: its peers stop claiming and stop
/// waiting for the slice it held, and the panic reaches the caller.
#[test]
fn a_panicking_read_unwinds_instead_of_hanging() {
    let _g = lock();
    let v = generate_volume(SampleKind::Crystalline, 64, 12, 7, &[]);
    let z = pipeline();
    let src = PanicsAt {
        inner: &v.volume,
        slice: 2,
    };
    for threads in THREADS {
        let _t = ThreadsGuard::new(threads);
        let run = catch_unwind(AssertUnwindSafe(|| {
            z.segment_volume_streamed(&src, PROMPT, &CancelToken::new(), None)
        }));
        let payload = run.expect_err("the reader's panic propagates");
        let message = panic_message(payload.as_ref());
        assert!(
            message.contains("unreadable slice 2"),
            "{threads} threads: {message}"
        );
    }
}
