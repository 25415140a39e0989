//! End-to-end tests of the fault-tolerant Mode B pipeline: seeded fault
//! injection, per-slice quarantine with Otsu fallback, the >50%-failure
//! abort, deadline/quarantine races, and crash-safe checkpoint/resume.
//!
//! Every test serializes on one mutex: the fault plan is process-global,
//! and tests that rely on *disarmed* sites must not overlap tests that
//! arm them.

use std::sync::Mutex;
use std::time::Duration;

use zenesis_core::{CheckpointSpec, SliceOutcome, VolumeError, Zenesis, ZenesisConfig};
use zenesis_data::{generate_volume, SampleKind};
use zenesis_fault::{FaultKind, FaultPlan};
use zenesis_image::{Volume, VoxelSize};
use zenesis_par::CancelToken;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const PROMPT: &str = "needle-like crystalline catalyst";

fn pipeline() -> Zenesis {
    Zenesis::new(ZenesisConfig::default())
}

fn volume(depth: usize) -> zenesis_data::VolumeSample {
    generate_volume(SampleKind::Crystalline, 64, depth, 7, &[])
}

#[test]
fn no_faults_means_all_slices_ok() {
    let _g = lock();
    let v = volume(4);
    let r = pipeline().segment_volume(&v.volume, PROMPT);
    assert_eq!(r.masks.len(), 4);
    assert_eq!(r.outcomes.len(), 4);
    assert!(r.outcomes.iter().all(|o| o.is_ok()), "{:?}", r.outcomes);
    assert!(r.degraded_slices().is_empty());
    assert!(r.failed_slices().is_empty());
}

#[test]
fn decode_panics_degrade_slices_but_the_volume_completes() {
    let _g = lock();
    let v = volume(8);
    let z = pipeline();
    let _armed = FaultPlan::new()
        .site("sam.decode", FaultKind::Panic, 0.5, 99)
        .arm();
    let r = z
        .segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), None)
        .expect("panics must not kill the volume");
    assert_eq!(r.masks.len(), 8, "every slice produces a mask");
    let degraded = r.degraded_slices();
    assert!(
        !degraded.is_empty(),
        "seeded 50% panic rate must hit at least one of 8 slices"
    );
    assert!(r.failed_slices().is_empty(), "otsu fallback rescues slices");
    for z in &degraded {
        assert!(
            r.masks[*z].count() > 0,
            "degraded slice {z} carries its fallback mask"
        );
    }
    // Quarantine reasons are preserved for reporting.
    for o in &r.outcomes {
        if let SliceOutcome::Degraded { reason } = o {
            assert!(
                reason.contains("injected fault") || reason.contains("decode failed"),
                "{reason}"
            );
        }
    }
}

#[test]
fn nan_poisoning_in_adaptation_is_caught_and_degraded() {
    let _g = lock();
    let v = volume(6);
    let z = pipeline();
    let _armed = FaultPlan::new()
        .site("adapt.denoise", FaultKind::Nan, 0.5, 12)
        .arm();
    let r = z
        .segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), None)
        .expect("NaN poisoning must not kill the volume");
    assert_eq!(r.masks.len(), 6);
    let degraded = r.degraded_slices();
    assert!(!degraded.is_empty(), "poisoned slices must be quarantined");
    for zi in &degraded {
        if let SliceOutcome::Degraded { reason } = &r.outcomes[*zi] {
            assert!(reason.contains("non-finite"), "{reason}");
        }
        // The fallback mask is finite, well-formed, and sized correctly.
        assert_eq!(r.masks[*zi].dims(), r.masks[0].dims());
    }
}

#[test]
fn grounding_errors_fall_back_to_otsu() {
    let _g = lock();
    let v = volume(4);
    let z = pipeline();
    let _armed = FaultPlan::new()
        .site("ground.dino", FaultKind::Error, 1.0, 3)
        .arm();
    let r = z
        .segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), None)
        .expect("grounding faults must not kill the volume");
    // Every slice degraded (prob 1.0), none failed: Otsu still segments
    // the phantom, and the volume reports exactly what happened.
    assert_eq!(r.degraded_slices().len(), 4);
    assert!(r.failed_slices().is_empty());
    assert!(r.masks.iter().all(|m| m.count() > 0), "otsu masks non-empty");
}

#[test]
fn mostly_failed_volume_aborts_instead_of_lying() {
    let _g = lock();
    // All-zero volume: the primary pipeline is forced down (grounding
    // error at prob 1.0) and the Otsu fallback is degenerate on constant
    // slices, so every slice fails -> the run must abort.
    let vol: Volume<f32> = Volume::zeros(32, 32, 4, VoxelSize::default());
    let z = pipeline();
    let _armed = FaultPlan::new()
        .site("ground.dino", FaultKind::Error, 1.0, 5)
        .arm();
    match z.segment_volume_streamed(&vol, PROMPT, &CancelToken::new(), None) {
        Err(VolumeError::TooManyFailures { failed, total }) => {
            assert_eq!((failed, total), (4, 4));
        }
        other => panic!("expected TooManyFailures, got {other:?}"),
    }
}

#[test]
fn deadline_expiry_during_quarantine_reports_cancelled() {
    let _g = lock();
    let v = volume(4);
    let z = pipeline();
    // slice.slow burns past the deadline before the pipeline even runs;
    // the forced panic then sends the slice into quarantine, which must
    // honor the expired deadline instead of burning time on fallbacks.
    let _armed = FaultPlan::new()
        .site("slice.slow", FaultKind::Slow(60), 1.0, 1)
        .site("sam.decode", FaultKind::Panic, 1.0, 1)
        .arm();
    let cancel = CancelToken::with_deadline(Duration::from_millis(5));
    match z.segment_volume_streamed(&v.volume, PROMPT, &cancel, None) {
        Err(VolumeError::Cancelled(partial)) => {
            assert!(partial.completed < partial.total);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn resume_from_a_truncated_journal_is_bit_identical() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!(
        "zenesis-resume-bitident-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let v = volume(6);
    let z = pipeline();

    // Reference: an unbroken, uncheckpointed run.
    let reference = z.segment_volume(&v.volume, PROMPT);

    // Checkpointed run writes the full journal.
    let spec = CheckpointSpec::new(&dir);
    let first = z
        .segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), Some(&spec))
        .expect("checkpointed run completes");
    assert_eq!(first.masks, reference.masks, "journaling must not change output");

    // Simulate a kill -9 partway: keep the header + the first three
    // records, tear the last kept line in half.
    let journal = dir.join(zenesis_core::checkpoint::JOURNAL_FILE);
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 5, "expected a record per slice, got {}", lines.len());
    let mut kept: Vec<String> = lines[..4].iter().map(|s| s.to_string()).collect();
    let torn = kept.pop().unwrap();
    let mut partial = kept.join("\n") + "\n";
    partial.push_str(&torn[..torn.len() / 2]); // no trailing newline: torn record
    std::fs::write(&journal, partial).unwrap();

    // Resumed run: replays the valid prefix, recomputes the rest, and
    // must land on exactly the reference masks.
    let resumed = z
        .segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), Some(&spec))
        .expect("resumed run completes");
    assert_eq!(resumed.masks, reference.masks, "resume must be bit-identical");
    assert_eq!(resumed.outcomes, reference.outcomes);
    assert_eq!(
        resumed.masks.iter().map(|m| m.count()).collect::<Vec<_>>(),
        reference.masks.iter().map(|m| m.count()).collect::<Vec<_>>(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_resume_discards_the_journal_and_still_matches() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!(
        "zenesis-resume-discard-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let v = volume(3);
    let z = pipeline();
    let spec = CheckpointSpec::new(&dir);
    let first = z
        .segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), Some(&spec))
        .expect("first run completes");
    let fresh = CheckpointSpec {
        dir: dir.clone(),
        resume: false,
    };
    let second = z
        .segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), Some(&fresh))
        .expect("fresh run completes");
    assert_eq!(first.masks, second.masks);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_for_a_different_prompt_is_ignored() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!(
        "zenesis-resume-foreign-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let v = volume(3);
    let z = pipeline();
    let spec = CheckpointSpec::new(&dir);
    z.segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), Some(&spec))
        .expect("first run completes");
    // Same directory, different prompt: the header fingerprint mismatch
    // must force a fresh run (and fresh results), not a bogus replay.
    let reference = z.segment_volume(&v.volume, "bright catalyst particles");
    let other = z
        .segment_volume_streamed(
            &v.volume,
            "bright catalyst particles",
            &CancelToken::new(),
            Some(&spec),
        )
        .expect("second run completes");
    assert_eq!(other.masks, reference.masks);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Child half of the real-SIGKILL test below: re-exec'd by the parent
/// (as `<test-bin> sigkill_child_writer --exact --ignored`), it runs a
/// checkpointed volume until the parent kills it mid-append. `#[ignore]`
/// keeps it out of normal suite runs; without the env var it is a no-op.
#[test]
#[ignore]
fn sigkill_child_writer() {
    let Some(dir) = std::env::var_os("ZENESIS_CKPT_CHILD_DIR") else {
        return;
    };
    let v = volume(24);
    let spec = CheckpointSpec::new(std::path::Path::new(&dir));
    let _ = pipeline().segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), Some(&spec));
}

#[test]
fn sigkill_mid_append_resumes_bit_identically() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("zenesis-sigkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let v = volume(24);
    let z = pipeline();
    let reference = z.segment_volume(&v.volume, PROMPT);

    // A *real* writer process, killed with an uncatchable SIGKILL while
    // it is appending records — not a simulated tear. The child is this
    // very test binary re-executed at its ignored companion test.
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["sigkill_child_writer", "--exact", "--ignored", "--nocapture"])
        .env("ZENESIS_CKPT_CHILD_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("re-exec test binary");
    let journal = dir.join(zenesis_core::checkpoint::JOURNAL_FILE);
    let t0 = std::time::Instant::now();
    loop {
        let lines = std::fs::read_to_string(&journal)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        // Header plus at least three slice records: mid-volume.
        if lines >= 4 || child.try_wait().unwrap().is_some() {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "child never reached the kill window"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().ok();
    child.wait().unwrap();

    // Whatever instant the signal landed at, guarantee the journal ends
    // in a torn in-progress append so recovery must truncate.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
        f.write_all(br#"{"z": 99, "crc": "#).unwrap();
    }

    let truncated_before = zenesis_obs::counter("checkpoint.truncated").get();
    let spec = CheckpointSpec::new(&dir);
    let resumed = z
        .segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), Some(&spec))
        .expect("resume after SIGKILL completes");
    assert_eq!(resumed.masks, reference.masks, "resume must be bit-identical");
    assert_eq!(resumed.outcomes, reference.outcomes);
    assert!(
        zenesis_obs::counter("checkpoint.truncated").get() > truncated_before,
        "the torn tail must be counted, not silently dropped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_checkpoint_writes_never_fail_the_run() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!(
        "zenesis-resume-iowrite-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let v = volume(4);
    let z = pipeline();
    let _armed = FaultPlan::new()
        .site("io.write", FaultKind::Error, 1.0, 4)
        .arm();
    let spec = CheckpointSpec::new(&dir);
    let r = z
        .segment_volume_streamed(&v.volume, PROMPT, &CancelToken::new(), Some(&spec))
        .expect("dropped journal writes are best-effort");
    assert_eq!(r.masks.len(), 4);
    assert!(r.outcomes.iter().all(|o| o.is_ok()));
    let _ = std::fs::remove_dir_all(&dir);
}
