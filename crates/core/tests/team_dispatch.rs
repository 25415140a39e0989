//! A tiny job must not pay for parallelism it cannot use: at 16×16 every
//! per-pixel pass, and the `join` of grounding and SAM encode, is under
//! the grain threshold, so an interactive `run_job` wakes nobody. A 256²
//! slice fans out a fixed number of times, all on the foreground lane:
//! the background lane belongs to volume sweeps.
//!
//! The count is process-wide, so the tests take one lock.

use std::sync::Mutex;

use zenesis_core::job::{run_job, InputSpec, JobResult, JobSpec, PhantomKind};
use zenesis_core::{Zenesis, ZenesisConfig};
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_par::{team_dispatches, ThreadsGuard};

static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn tiny_interactive_job_never_dispatches() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _g = ThreadsGuard::new(2);
    let spec = JobSpec::Interactive {
        input: InputSpec::PhantomSlice {
            kind: PhantomKind::Amorphous,
            seed: 1,
            side: 16,
        },
        prompt: "particles".into(),
        config: None,
    };
    let before = team_dispatches();
    let result = run_job(&spec);
    let dispatches = team_dispatches() - before;
    assert!(matches!(result, JobResult::Slice { .. }), "{result:?}");
    assert_eq!(dispatches, 0, "a 16x16 job fanned out");
}

#[test]
fn an_interactive_256_slice_dispatches_17_times() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _g = ThreadsGuard::new(2);
    let slice = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 3).with_size(256, 256));
    let z = Zenesis::new(ZenesisConfig::default());
    let before = team_dispatches();
    let r = z.segment_slice(&slice.raw, "catalyst particles");
    let dispatches = team_dispatches() - before;
    assert!(!r.detections.is_empty());
    assert_eq!(dispatches, 17);
}
