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
//! The job line is an object with `spec` (a [`JobSpec`]), optional
//! `deadline_ms` (the *remaining* budget at hand-over — queue wait was
//! already spent in the parent), `trace` (the raw trace id, so child
//! spans join the parent's trace), and `heartbeat_ms`.
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

use serde_json::Value;
use zenesis_core::job::{run_job_with_cancel, JobResult, JobSpec};
use zenesis_core::panic_message;
use zenesis_par::CancelToken;

/// Floor on the beat interval so a tiny heartbeat window cannot turn
/// the beat thread into a busy loop.
const MIN_BEAT_INTERVAL_MS: u64 = 5;

/// One parsed line of worker stdout, as the supervisor sees it.
#[derive(Debug)]
pub enum WorkerMsg {
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
pub fn parse_worker_line(line: &str) -> WorkerMsg {
    let Ok(v) = serde_json::from_str::<Value>(line) else {
        return WorkerMsg::Noise;
    };
    if let Some(pulse) = v.get("beat").and_then(|x| x.as_u64()) {
        return WorkerMsg::Beat(pulse);
    }
    if let Some(message) = v.get("panic").and_then(|x| x.as_str()) {
        return WorkerMsg::Panic(message.to_string());
    }
    if let Some(result) = v.get("result") {
        if let Ok(result) = serde_json::from_value::<JobResult>(result) {
            return WorkerMsg::Result(result);
        }
    }
    WorkerMsg::Noise
}

/// Serialize the hand-over line the supervisor writes to the child's
/// stdin (newline included).
pub fn job_line(
    spec: &JobSpec,
    deadline_ms: Option<u64>,
    trace: u64,
    heartbeat_ms: u64,
) -> String {
    let spec_json = serde_json::to_string(spec).expect("job specs serialize");
    let spec_value: Value = serde_json::from_str(&spec_json).expect("job specs round-trip");
    let mut m = serde_json::Map::new();
    m.insert("spec", spec_value);
    if let Some(ms) = deadline_ms {
        m.insert("deadline_ms", Value::Number(serde_json::Number::U(ms)));
    }
    m.insert("trace", Value::Number(serde_json::Number::U(trace)));
    m.insert(
        "heartbeat_ms",
        Value::Number(serde_json::Number::U(heartbeat_ms)),
    );
    let mut line = Value::Object(m).to_string();
    line.push('\n');
    line
}

/// Write one message line to stdout, flushed, under the stdout lock so
/// the beat thread and the result write never interleave bytes.
fn emit_line(line: &str) -> io::Result<()> {
    let mut out = io::stdout().lock();
    writeln!(out, "{line}")?;
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
    let v: Value = match serde_json::from_str(line.trim()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("worker: malformed job line: {e}");
            return 2;
        }
    };
    let Some(spec_value) = v.get("spec") else {
        eprintln!("worker: job line has no spec");
        return 2;
    };
    let spec: JobSpec = match serde_json::from_value(spec_value) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("worker: invalid job spec: {e}");
            return 2;
        }
    };
    let trace_raw = v.get("trace").and_then(|x| x.as_u64()).unwrap_or(0);
    let heartbeat_ms = v
        .get("heartbeat_ms")
        .and_then(|x| x.as_u64())
        .unwrap_or(1_000);
    let _trace_scope = zenesis_obs::trace_guard(zenesis_obs::TraceId::from_u64(trace_raw));
    let cancel = match v.get("deadline_ms").and_then(|x| x.as_u64()) {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    cancel.set_trace(trace_raw);

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
    let interval = Duration::from_millis((heartbeat_ms / 4).max(MIN_BEAT_INTERVAL_MS));
    let beater = std::thread::Builder::new()
        .name("worker-beat".into())
        .spawn(move || {
            while !beat_done.load(Ordering::Relaxed) {
                let pulse = zenesis_par::progress_pulse();
                if emit_line(&format!("{{\"beat\":{pulse}}}")).is_err() {
                    return; // supervisor gone; nobody left to reassure
                }
                std::thread::park_timeout(interval);
            }
        })
        .expect("spawn worker beat thread");

    let report = match catch_unwind(AssertUnwindSafe(|| run_job_with_cancel(&spec, &cancel))) {
        Ok(result) => {
            let result_json = serde_json::to_string(&result).expect("job results serialize");
            format!("{{\"result\":{result_json}}}")
        }
        Err(payload) => {
            let message = Value::String(panic_message(payload.as_ref()));
            format!("{{\"panic\":{message}}}")
        }
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
        assert!(matches!(parse_worker_line("{\"beat\":41}"), WorkerMsg::Beat(41)));
        let result = parse_worker_line(
            r#"{"result": {"kind": "error", "message": "nope"}}"#,
        );
        match result {
            WorkerMsg::Result(JobResult::Error { message }) => assert_eq!(message, "nope"),
            other => panic!("unexpected parse {other:?}"),
        }
        let panic_line = format!("{{\"panic\":{}}}", Value::String("index \"7\" out of range".into()));
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
