//! The `--worker` child entry point: one supervised job per process.
//!
//! `zenesis-serve --worker` never parses normal flags. It reads exactly
//! one job line from stdin, runs it, and reports on stdout with three
//! line-oriented message kinds the supervisor ([`crate::warden`])
//! understands:
//!
//! * `{"beat": <pulse>}` — emitted by a dedicated heartbeat thread
//!   every quarter heartbeat window, carrying the process-global
//!   progress pulse ([`zenesis_par::progress_pulse`]). A missing beat
//!   means the process is dead or dying; a beating process whose pulse
//!   is frozen is hung.
//! * `{"result": <JobResult>}` — the final structured result, exactly
//!   what an in-process run would have returned.
//! * `{"panic": "<message>"}` — the job panicked; the bare payload.
//!   The parent's attempt loop reports it as it does an in-process
//!   panic.
//!
//! The job line is one [`JobLine`]: the parent serializes it, the child
//! deserializes it.
//!
//! Panics are caught here, so a panicking job still ends in one
//! message line and a clean exit; only hard deaths — `abort`, the OOM
//! killer, an operator's SIGKILL — reach the supervisor as a crash. stderr is
//! inherited from the parent, so panic backtraces and fault-injection
//! notices land in the service log.

use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use zenesis_core::job::{run_job_with_cancel, JobResult, JobSpec};
use zenesis_core::panic_message;
use zenesis_par::CancelToken;

/// Floor on the beat interval so a tiny heartbeat window cannot turn
/// the beat thread into a busy loop.
const MIN_BEAT_INTERVAL_MS: u64 = 5;

/// One parsed line of worker stdout, as the supervisor sees it.
#[derive(Debug)]
pub(crate) enum WorkerMsg {
    /// Heartbeat carrying the child's progress pulse.
    Beat(u64),
    /// The job finished; this is its result.
    Result(JobResult),
    /// The job panicked; this is the panic payload, stringified.
    Panic(String),
    /// Anything else (stray prints, partial lines): ignored, but kept
    /// distinct so the reader can keep scanning instead of bailing.
    Noise,
}

/// Parse one line of worker stdout. Never errors: unrecognized lines
/// are [`WorkerMsg::Noise`] — a worker that interleaves diagnostics on
/// stdout degrades to fewer beats, not a declared crash.
pub(crate) fn parse_worker_line(line: &str) -> WorkerMsg {
    let Ok(WorkerLine {
        beat,
        result,
        panic,
    }) = serde_json::from_str(line)
    else {
        return WorkerMsg::Noise;
    };
    match (beat, panic, result) {
        (Some(pulse), _, _) => WorkerMsg::Beat(pulse),
        (_, Some(message), _) => WorkerMsg::Panic(message),
        (_, _, Some(result)) => WorkerMsg::Result(result),
        _ => WorkerMsg::Noise,
    }
}

/// One line of worker stdout with exactly one field set: the child
/// serializes it, the supervisor parses it.
#[derive(Default, Serialize, Deserialize)]
struct WorkerLine {
    #[serde(skip_serializing_if = "Option::is_none")]
    beat: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    result: Option<JobResult>,
    #[serde(skip_serializing_if = "Option::is_none")]
    panic: Option<String>,
}

/// The hand-over the supervisor writes to the child's stdin, one line.
#[derive(Serialize, Deserialize)]
struct JobLine {
    spec: JobSpec,
    /// The *remaining* budget at hand-over: queue wait was already spent
    /// in the parent. Absent for a job without a deadline.
    #[serde(skip_serializing_if = "Option::is_none")]
    deadline_ms: Option<u64>,
    /// The raw trace id, so child spans join the parent's trace.
    trace: u64,
    heartbeat_ms: u64,
}

/// Serialize the hand-over line the supervisor writes to the child's
/// stdin (newline included).
pub(crate) fn job_line(
    spec: &JobSpec,
    deadline_ms: Option<u64>,
    trace: u64,
    heartbeat_ms: u64,
) -> String {
    let job = JobLine {
        spec: spec.clone(),
        deadline_ms,
        trace,
        heartbeat_ms,
    };
    let mut line = serde_json::to_string(&job).expect("job lines serialize");
    line.push('\n');
    line
}

/// Write one message line to stdout, flushed, under the stdout lock so
/// the beat thread and the result write never interleave bytes.
fn emit_line(line: &WorkerLine) -> io::Result<()> {
    let text = serde_json::to_string(line).expect("worker lines serialize");
    let mut out = io::stdout().lock();
    writeln!(out, "{text}")?;
    out.flush()
}

/// Run as a supervised worker child. Returns the process exit code:
/// `0` after delivering a result or a panic report (even an `error`
/// result — that is a *successful* hand-over), `2` for a malformed hand-over, `1` when the
/// result could not be written (supervisor gone).
pub fn worker_main() -> i32 {
    let mut line = String::new();
    if io::stdin().lock().read_line(&mut line).is_err() || line.trim().is_empty() {
        eprintln!("worker: expected one job line on stdin");
        return 2;
    }
    let job: JobLine = match serde_json::from_str(line.trim()) {
        Ok(job) => job,
        Err(e) => {
            eprintln!("worker: malformed job line: {e}");
            return 2;
        }
    };
    let _trace_scope = zenesis_obs::trace_guard(zenesis_obs::TraceId::from_u64(job.trace));
    let cancel = match job.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    cancel.set_trace(job.trace);

    // The heartbeat thread is deliberately independent of the compute
    // threads: it keeps beating while a slice hangs, which is exactly
    // how the supervisor tells "hung" (beats flow, pulse frozen) from
    // "dead" (no beats at all). It beats once immediately so the
    // supervisor sees life — and can close its crash-recovery window —
    // before the first slice completes. It waits parked rather than
    // asleep, so the result hand-over below wakes it at once instead of
    // waiting out the rest of a beat interval (7.5 s at the default
    // heartbeat).
    let done = Arc::new(AtomicBool::new(false));
    let beat_done = Arc::clone(&done);
    let interval = Duration::from_millis((job.heartbeat_ms / 4).max(MIN_BEAT_INTERVAL_MS));
    let beater = std::thread::Builder::new()
        .name("worker-beat".into())
        .spawn(move || {
            while !beat_done.load(Ordering::Relaxed) {
                let beat = WorkerLine {
                    beat: Some(zenesis_par::progress_pulse()),
                    ..WorkerLine::default()
                };
                if emit_line(&beat).is_err() {
                    return; // supervisor gone; nobody left to reassure
                }
                std::thread::park_timeout(interval);
            }
        })
        .expect("spawn worker beat thread");

    let report = match catch_unwind(AssertUnwindSafe(|| run_job_with_cancel(&job.spec, &cancel))) {
        Ok(result) => WorkerLine {
            result: Some(result),
            ..WorkerLine::default()
        },
        Err(payload) => WorkerLine {
            panic: Some(panic_message(payload.as_ref())),
            ..WorkerLine::default()
        },
    };
    done.store(true, Ordering::Relaxed);
    beater.thread().unpark();
    let _ = beater.join();
    if emit_line(&report).is_err() {
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn batch_spec() -> JobSpec {
        let raw = r#"{"mode": "batch",
            "input": {"source": "phantom_volume", "kind": "amorphous", "seed": 3, "depth": 4},
            "prompt": "bright particles",
            "checkpoint_dir": "/tmp/ckpt", "resume": false}"#;
        serde_json::from_str(raw).expect("spec parses")
    }

    #[test]
    fn job_line_round_trips_through_the_hand_over_protocol() {
        let spec = batch_spec();
        let line = job_line(&spec, Some(1500), 0xfeed, 250);
        assert!(line.ends_with('\n'));
        let v: Value = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(v.get("deadline_ms").and_then(|x| x.as_u64()), Some(1500));
        assert_eq!(v.get("trace").and_then(|x| x.as_u64()), Some(0xfeed));
        assert_eq!(v.get("heartbeat_ms").and_then(|x| x.as_u64()), Some(250));
        let parsed: JobSpec = serde_json::from_value(v.get("spec").unwrap()).unwrap();
        assert_eq!(parsed, spec);
        // Without a deadline the field is absent, not null.
        let line = job_line(&spec, None, 1, 250);
        let v: Value = serde_json::from_str(line.trim()).unwrap();
        assert!(v.get("deadline_ms").is_none());
    }

    #[test]
    fn worker_lines_parse_into_beats_results_and_noise() {
        assert!(matches!(
            parse_worker_line("{\"beat\":41}"),
            WorkerMsg::Beat(41)
        ));
        let result = parse_worker_line(r#"{"result": {"kind": "error", "message": "nope"}}"#);
        match result {
            WorkerMsg::Result(JobResult::Error { message }) => assert_eq!(message, "nope"),
            other => panic!("unexpected parse {other:?}"),
        }
        let panic_line = format!(
            "{{\"panic\":{}}}",
            Value::String("index \"7\" out of range".into())
        );
        match parse_worker_line(&panic_line) {
            WorkerMsg::Panic(message) => assert_eq!(message, "index \"7\" out of range"),
            other => panic!("unexpected parse {other:?}"),
        }
        for noise in [
            "",
            "plain diagnostic",
            "{\"beat\": \"x\"}",
            "{\"result\": 3}",
            "{\"panic\": 3}",
            "{",
        ] {
            assert!(
                matches!(parse_worker_line(noise), WorkerMsg::Noise),
                "{noise:?} should be noise"
            );
        }
    }
}

/// The exact bytes of the hand-over line, with and without a deadline.
/// Parent and child may come from different builds during an upgrade;
/// a change here is a protocol change, never a re-pin.
#[cfg(test)]
mod wire_pins {
    use super::job_line;
    use zenesis_core::job::JobSpec;

    #[test]
    fn job_lines_serialize_to_pinned_bytes() {
        let spec: JobSpec = serde_json::from_str(
            r#"{"mode": "batch",
                "input": {"source": "phantom_volume", "kind": "amorphous", "seed": 3, "depth": 4},
                "prompt": "bright \"particles\"",
                "checkpoint_dir": "/tmp/ckpt", "resume": false}"#,
        )
        .expect("spec parses");
        let lines = [
            job_line(&spec, Some(1500), 0xfeed, 250),
            job_line(&spec, None, 1, 1_000),
        ]
        .concat();
        assert_eq!(lines, PINNED_JOB_LINES);
    }

    const PINNED_JOB_LINES: &str = r#"{"spec":{"mode":"batch","input":{"source":"phantom_volume","kind":"amorphous","seed":3,"depth":4,"side":128,"outlier_slices":[]},"prompt":"bright \"particles\"","config":null,"checkpoint_dir":"/tmp/ckpt","resume":false,"masks_out":null},"deadline_ms":1500,"trace":65261,"heartbeat_ms":250}
{"spec":{"mode":"batch","input":{"source":"phantom_volume","kind":"amorphous","seed":3,"depth":4,"side":128,"outlier_slices":[]},"prompt":"bright \"particles\"","config":null,"checkpoint_dir":"/tmp/ckpt","resume":false,"masks_out":null},"trace":1,"heartbeat_ms":1000}
"#;
}
