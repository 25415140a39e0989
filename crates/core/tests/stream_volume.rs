//! The streaming Mode B contract: a TIFF stack pulled slice-by-slice
//! through [`Zenesis::segment_volume_streamed`] must produce masks
//! bit-identical to the same volume held in memory (the codec's
//! normalisation against `to_f32`), survive `io.tiff` fault injection
//! through the quarantine ladder, and resume bit-identically from a
//! torn checkpoint journal — the full chaos drill of
//! `docs/ROBUSTNESS.md`, now with the codec in the blast radius.
//!
//! Tests serialize on one mutex: the fault plan is process-global.

use std::sync::Mutex;

use zenesis_core::{CheckpointSpec, Zenesis, ZenesisConfig};
use zenesis_data::{generate_volume, SampleKind};
use zenesis_fault::{FaultKind, FaultPlan};
use zenesis_par::CancelToken;
use zenesis_tiff::VolumeReader;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const PROMPT: &str = "needle-like crystalline catalyst";

fn pipeline() -> Zenesis {
    Zenesis::new(ZenesisConfig::default())
}

/// Write the phantom volume as a multi-page 16-bit TIFF and open a
/// streaming reader over it.
fn tiff_reader(v: &zenesis_data::VolumeSample, tag: &str) -> VolumeReader {
    let path = std::env::temp_dir().join(format!(
        "zenesis-stream-{tag}-{}.tif",
        std::process::id()
    ));
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
    let streamed = z
        .segment_volume_streamed(&reader, PROMPT, &CancelToken::new(), None)
        .expect("healthy streamed volume completes");
    assert_eq!(streamed.masks, reference.masks, "masks must be bit-identical");
    assert_eq!(streamed.outcomes, reference.outcomes);
    assert_eq!(streamed.events.len(), reference.events.len());
    for (a, b) in streamed.events.iter().zip(&reference.events) {
        assert_eq!(a.corrected, b.corrected, "slice {}", a.slice);
    }
}

#[test]
fn streamed_volume_respects_memory_bank_config() {
    let _g = lock();
    let v = generate_volume(SampleKind::Crystalline, 64, 4, 11, &[]);
    let mut config = ZenesisConfig::default();
    config.use_memory = !config.use_memory;
    let z = Zenesis::new(config);
    let reference = z.segment_volume(&v.volume, PROMPT);
    let reader = tiff_reader(&v, "bank");
    let streamed = z
        .segment_volume_streamed(&reader, PROMPT, &CancelToken::new(), None)
        .expect("streamed volume completes");
    assert_eq!(streamed.masks, reference.masks);
    assert_eq!(streamed.outcomes, reference.outcomes);
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
    let r = z
        .segment_volume_streamed(&reader, PROMPT, &CancelToken::new(), None)
        .expect("io.tiff faults must not kill the volume");
    assert_eq!(r.masks.len(), 8, "every slice produces a mask");
    let failed = r.failed_slices();
    assert!(
        !failed.is_empty(),
        "seeded 30% read-fault rate must hit at least one of 8 slices"
    );
    assert!(failed.len() * 2 <= 8, "seed must keep failures under the abort floor");
    for zi in &failed {
        assert_eq!(r.masks[*zi].count(), 0, "no pixels -> empty mask");
        match &r.outcomes[*zi] {
            zenesis_core::SliceOutcome::Failed { reason } => {
                assert!(reason.contains("injected fault"), "{reason}");
            }
            other => panic!("slice {zi}: expected Failed, got {other:?}"),
        }
    }
    // Slices the fault spared are segmented normally.
    assert!(r.masks.iter().any(|m| m.count() > 0));
}

/// The memory bank re-reads every slice in stage 3, failed ones
/// included; the repeat read failure of a slice that is already
/// `Failed` must not also count it as degraded.
#[test]
fn memory_bank_does_not_degrade_failed_reads() {
    let _g = lock();
    let v = generate_volume(SampleKind::Crystalline, 64, 8, 7, &[]);
    let config = ZenesisConfig {
        use_memory: true,
        ..ZenesisConfig::default()
    };
    let z = Zenesis::new(config);
    let reader = tiff_reader(&v, "bank-chaos");
    let _armed = FaultPlan::new()
        .site("io.tiff", FaultKind::Error, 0.3, 41)
        .arm();
    let degraded = zenesis_obs::counter("slice.degraded");
    let before = degraded.get();
    let r = z
        .segment_volume_streamed(&reader, PROMPT, &CancelToken::new(), None)
        .expect("io.tiff faults must not kill the volume");
    assert!(!r.failed_slices().is_empty(), "seed must fail some reads");
    assert_eq!(
        (degraded.get() - before) as usize,
        r.degraded_slices().len(),
        "slice.degraded counts each degraded slice once, and no failed one"
    );
}

#[test]
fn fault_injected_tiff_volume_resumes_bit_identically() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!(
        "zenesis-stream-resume-{}",
        std::process::id()
    ));
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

    // Checkpointed run under the same (deterministic) fault plan.
    let spec = CheckpointSpec::new(&dir);
    let first = z
        .segment_volume_streamed(&reader, PROMPT, &CancelToken::new(), Some(&spec))
        .expect("checkpointed run completes");
    assert_eq!(first.masks, reference.masks, "journaling must not change output");

    // Simulate a kill -9 partway: keep the header plus three records,
    // tear the last kept line in half.
    let journal = dir.join(zenesis_core::checkpoint::JOURNAL_FILE);
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 5, "expected a record per slice, got {}", lines.len());
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
    assert_eq!(resumed.masks, reference.masks, "resume must be bit-identical");
    assert_eq!(resumed.outcomes, reference.outcomes);
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
    match z.segment_volume_streamed(&reader, PROMPT, &cancel, None) {
        Err(zenesis_core::VolumeError::Cancelled(partial)) => {
            assert_eq!(partial.total, 4);
            assert!(partial.completed < partial.total);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}
