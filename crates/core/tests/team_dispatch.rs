//! A tiny job must not pay for parallelism it cannot use: at 16×16 every
//! per-pixel pass, and the `join` of grounding and SAM encode, is under
//! the grain threshold, so an interactive `run_job` wakes nobody.
//!
//! The count is process-wide, so this file holds exactly one test.

use zenesis_core::job::{run_job, InputSpec, JobResult, JobSpec, PhantomKind};
use zenesis_par::{team_dispatches, ThreadsGuard};

#[test]
fn tiny_interactive_job_never_dispatches() {
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
