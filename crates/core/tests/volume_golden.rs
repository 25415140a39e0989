//! Exact Mode B outputs, recorded from the in-memory volume executor
//! before it was folded into the streamed one (ISSUE 25): per-slice mask
//! pixel counts and outcome kinds on a seeded 64² crystalline volume.
//! The other volume suites check properties (bit-identity between two
//! runs, "some slice degraded"); this one pins the values themselves, so
//! a change to either executor that moves any slice shows up here.
//!
//! Outcome kinds are spelled one letter per slice: `o` ok, `d` degraded,
//! `f` failed. Tests serialize on one mutex: the fault plan is
//! process-global.

use std::sync::Mutex;

use zenesis_core::job::{run_job, InputSpec, JobResult, JobSpec, PhantomKind};
use zenesis_core::{SliceOutcome, VolumeResult, Zenesis, ZenesisConfig};
use zenesis_data::{generate_volume, SampleKind};
use zenesis_fault::{FaultKind, FaultPlan};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const PROMPT: &str = "needle-like crystalline catalyst";

fn kinds(outcomes: &[SliceOutcome]) -> String {
    outcomes
        .iter()
        .map(|o| match o {
            SliceOutcome::Ok => 'o',
            SliceOutcome::Degraded { .. } => 'd',
            SliceOutcome::Failed { .. } => 'f',
        })
        .collect()
}

fn check(r: &VolumeResult, pixels: &[usize], outcomes: &str, corrections: usize) {
    let got: Vec<usize> = r.masks.iter().map(|m| m.count()).collect();
    assert_eq!(got, pixels, "per-slice mask pixels");
    assert_eq!(kinds(&r.outcomes), outcomes, "outcome kinds");
    assert_eq!(r.corrections(), corrections, "temporal corrections");
}

fn run(config: ZenesisConfig, depth: usize, outliers: &[usize]) -> VolumeResult {
    let v = generate_volume(SampleKind::Crystalline, 64, depth, 7, outliers);
    Zenesis::new(config).segment_volume(&v.volume, PROMPT)
}

#[test]
fn golden_no_faults() {
    let _g = lock();
    let r = run(ZenesisConfig::default(), 6, &[3]);
    check(&r, &[1100, 1118, 1126, 1313, 1145, 1093], "oooooo", 0);
}

#[test]
fn golden_decode_panics() {
    let _g = lock();
    let _armed = FaultPlan::new()
        .site("sam.decode", FaultKind::Panic, 0.5, 99)
        .arm();
    let r = run(ZenesisConfig::default(), 8, &[]);
    check(&r, &[1100, 1123, 1534, 1111, 1565, 1156, 1642, 1637], "oodododd", 4);
}

#[test]
fn golden_nan_poisoned_adaptation() {
    let _g = lock();
    let _armed = FaultPlan::new()
        .site("adapt.denoise", FaultKind::Nan, 0.5, 12)
        .arm();
    let r = run(ZenesisConfig::default(), 6, &[]);
    check(&r, &[1641, 1118, 1126, 1070, 1145, 1093], "doodoo", 1);
}

#[test]
fn golden_memory_bank() {
    let _g = lock();
    let config = ZenesisConfig {
        use_memory: true,
        ..ZenesisConfig::default()
    };
    let r = run(config, 6, &[3]);
    check(&r, &[1100, 826, 848, 1719, 820, 819], "oooooo", 0);
}

/// Through the job contract, so the same spec exercises whichever
/// executor `run_job` routes phantom volumes to: a checkpointed run, a
/// journal torn after three records, then a resume.
#[test]
fn golden_resume_from_torn_journal() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("zenesis-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = JobSpec::Batch {
        input: InputSpec::PhantomVolume {
            kind: PhantomKind::Crystalline,
            seed: 7,
            depth: 6,
            side: 64,
            outlier_slices: vec![3],
        },
        prompt: PROMPT.into(),
        config: None,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        resume: true,
        masks_out: None,
    };
    let first = run_job(&spec);
    let journal = dir.join(zenesis_core::checkpoint::JOURNAL_FILE);
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut torn = lines[..3].join("\n") + "\n";
    torn.push_str(&lines[3][..lines[3].len() / 2]);
    std::fs::write(&journal, torn).unwrap();
    let resumed = run_job(&spec);
    let _ = std::fs::remove_dir_all(&dir);
    for r in [first, resumed] {
        match r {
            JobResult::Volume {
                depth,
                corrections,
                per_slice_pixels,
                degraded,
                failed,
            } => {
                assert_eq!(depth, 6);
                assert_eq!(per_slice_pixels, [1100, 1118, 1126, 1313, 1145, 1093]);
                assert_eq!((corrections, degraded, failed), (0, vec![], vec![]));
            }
            other => panic!("expected a volume, got {other:?}"),
        }
    }
}
