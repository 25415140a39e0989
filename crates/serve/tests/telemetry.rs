//! End-to-end tests of the serving telemetry plane: trace-context
//! propagation (ingress → queue → worker → pipeline spans/events →
//! response echo) and the crash flight recorder.
//!
//! These live in their own integration binary so the process-global
//! event buffer and span store are not shared with the failure-model
//! suite in `serve.rs`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use zenesis_core::job::{JobResult, JobSpec};
use zenesis_serve::{JobRunner, Response, ServeConfig, Server};

fn spec_line(prompt: &str) -> String {
    format!(
        r#"{{"mode": "interactive",
            "input": {{"source": "phantom_slice", "kind": "amorphous", "seed": 1, "side": 16}},
            "prompt": "{prompt}"}}"#
    )
    .replace('\n', " ")
}

fn envelope(id: u64, trace_id: Option<&str>, prompt: &str) -> String {
    match trace_id {
        Some(t) => format!(
            r#"{{"id": {id}, "trace_id": "{t}", "spec": {}}}"#,
            spec_line(prompt)
        ),
        None => format!(r#"{{"id": {id}, "spec": {}}}"#, spec_line(prompt)),
    }
}

fn ok_result() -> JobResult {
    JobResult::Volume {
        depth: 1,
        corrections: 0,
        per_slice_pixels: vec![1],
        degraded: vec![],
        failed: vec![],
    }
}

fn prompt_of(spec: &JobSpec) -> String {
    match spec {
        JobSpec::Interactive { prompt, .. } | JobSpec::Batch { prompt, .. } => prompt.clone(),
        JobSpec::Evaluate { .. } => String::new(),
    }
}

fn recv_within(rx: &Receiver<Response>, timeout: Duration) -> Response {
    let t0 = Instant::now();
    loop {
        if let Some(resp) = rx.try_recv() {
            return resp;
        }
        assert!(t0.elapsed() < timeout, "no response within {timeout:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn config(workers: usize, queue_cap: usize, flight_dir: Option<String>) -> ServeConfig {
    ServeConfig {
        workers,
        queue_cap,
        tenant_cap: 0,
        default_deadline_ms: None,
        max_retries: 0,
        retry_base_ms: 1,
        flight_dir,
        process_workers: false,
        heartbeat_ms: 1000,
        worker_exe: None,
    }
}

#[test]
fn responses_echo_supplied_trace_and_mint_otherwise() {
    let runner: JobRunner = Arc::new(|_, _| ok_result());
    let server = Server::start_with_runner(config(2, 8, None), runner);
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&envelope(1, Some("c0ffee"), "a"), 1, &tx);
    server.submit_line(&envelope(2, None, "b"), 2, &tx);
    // Parse errors answer immediately and still carry a minted trace.
    server.submit_line("{broken", 3, &tx);
    server.shutdown();

    let mut echoed = None;
    let mut minted = Vec::new();
    for _ in 0..3 {
        let resp = recv_within(&rx, Duration::from_secs(10));
        let hex = resp.trace.to_hex();
        assert_eq!(hex.len(), 16, "trace ids echo as 16 hex digits: {hex}");
        // The wire line carries the same id.
        assert!(
            resp.to_json_line()
                .contains(&format!(r#""trace_id":"{hex}""#)),
            "{}",
            resp.to_json_line()
        );
        if resp.id == 1 {
            echoed = Some(hex);
        } else {
            minted.push(hex);
        }
    }
    assert_eq!(echoed.as_deref(), Some("0000000000c0ffee"));
    for hex in &minted {
        assert_ne!(hex, "0000000000000000", "minted ids are never zero");
        assert_ne!(Some(hex.as_str()), echoed.as_deref());
    }
}

#[test]
fn concurrent_jobs_keep_their_own_trace_on_spans_and_events() {
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    // Each job emits one uniquely-named event and one span while other
    // jobs run on sibling workers; every record must carry its own
    // job's trace, never a neighbor's.
    let runner: JobRunner = Arc::new(|spec: &JobSpec, _| {
        let prompt = prompt_of(spec);
        let _span = zenesis_obs::span("tele.work");
        zenesis_obs::events::emit(zenesis_obs::events::Event::Info {
            message: format!("tele-work:{prompt}"),
        });
        std::thread::sleep(Duration::from_millis(5));
        ok_result()
    });
    let server = Server::start_with_runner(config(4, 32, None), runner);
    let (tx, rx) = unbounded::<Response>();
    let n = 12u64;
    for i in 0..n {
        let trace = format!("{:x}", 0x7a0000 + i);
        server.submit_line(&envelope(i, Some(&trace), &format!("tele-{i}")), i, &tx);
    }
    server.shutdown();
    for _ in 0..n {
        let resp = recv_within(&rx, Duration::from_secs(30));
        assert_eq!(resp.status(), "ok");
        assert_eq!(resp.trace.to_hex(), format!("{:016x}", 0x7a0000 + resp.id));
    }

    // Events: the record for job i carries exactly trace 0x7a0000+i.
    let events = zenesis_obs::events::events_jsonl();
    let mut seen = 0;
    for line in events.lines() {
        let Some(pos) = line.find("tele-work:tele-") else {
            continue;
        };
        let digits: String = line[pos + "tele-work:tele-".len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        let i: u64 = digits.parse().unwrap();
        let expect = format!(r#""trace":"{:016x}""#, 0x7a0000 + i);
        assert!(line.contains(&expect), "event lost its trace: {line}");
        seen += 1;
    }
    assert_eq!(seen, n, "every job's event is in the stream");

    // Spans: the 12 `tele.work` spans carry 12 distinct expected traces.
    let mut span_traces: Vec<u64> = zenesis_obs::snapshot()
        .into_iter()
        .filter(|s| s.name == "tele.work")
        .map(|s| s.trace.expect("served spans are traced").as_u64())
        .collect();
    span_traces.sort_unstable();
    span_traces.dedup();
    let expected: Vec<u64> = (0..n).map(|i| 0x7a0000 + i).collect();
    assert_eq!(span_traces, expected);
}

/// Cross-crate pin of the abandonment trigger: the flight recorder
/// classifies a rendered `VolumeError::TooManyFailures` (flattened into
/// a `JobResult::Error` at the job boundary) via
/// `VolumeError::message_is_too_many_failures`, so this test fails if
/// the core error text and the serve-side classifier ever drift apart.
#[test]
fn abandoned_volume_dumps_a_too_many_failures_flight_recording() {
    let dir = std::env::temp_dir().join(format!(
        "zenesis-flight-abandon-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let runner: JobRunner = Arc::new(|_, _| JobResult::Error {
        message: zenesis_core::temporal::VolumeError::TooManyFailures {
            failed: 3,
            total: 4,
        }
        .to_string(),
    });
    let server = Server::start_with_runner(
        config(1, 4, Some(dir.to_string_lossy().into_owned())),
        runner,
    );
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&envelope(1, Some("abad"), "abandon"), 1, &tx);
    server.shutdown();
    let resp = recv_within(&rx, Duration::from_secs(10));
    assert_eq!(resp.status(), "error");

    let flight = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("flight-") && name.ends_with("-000000000000abad.json")
        })
        .expect("flight file written on volume abandonment");
    let text = std::fs::read_to_string(flight.path()).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).expect("flight dump parses");
    assert_eq!(
        v.get("reason").and_then(|x| x.as_str()),
        Some("too_many_failures")
    );
    assert_eq!(
        v.get("trace_id").and_then(|x| x.as_str()),
        Some("000000000000abad")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_dumps_a_parseable_flight_recording() {
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    let dir = std::env::temp_dir().join(format!("zenesis-flight-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let runner: JobRunner = Arc::new(|_, _| {
        zenesis_obs::events::emit(zenesis_obs::events::Event::Warn {
            message: "flight-pre-crash".into(),
        });
        panic!("synthetic flight crash");
    });
    let server = Server::start_with_runner(
        config(1, 4, Some(dir.to_string_lossy().into_owned())),
        runner,
    );
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&envelope(1, Some("f00d"), "crash"), 1, &tx);
    server.shutdown();
    let resp = recv_within(&rx, Duration::from_secs(10));
    assert_eq!(resp.status(), "error");

    // The dump is written before the response is sent, so it is visible
    // by now: flight-<unix-secs>-000000000000f00d.json.
    let flight = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("flight-") && name.ends_with("-000000000000f00d.json")
        })
        .expect("flight file written on panic");
    let text = std::fs::read_to_string(flight.path()).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).expect("flight dump parses");
    assert_eq!(v.get("version").and_then(|x| x.as_u64()), Some(1));
    assert_eq!(v.get("reason").and_then(|x| x.as_str()), Some("panic"));
    assert_eq!(
        v.get("trace_id").and_then(|x| x.as_str()),
        Some("000000000000f00d")
    );
    let entries = v.get("entries").and_then(|x| x.as_array()).unwrap();
    assert!(
        entries
            .iter()
            .any(|e| e.to_string().contains("flight-pre-crash")),
        "the job's last events are in the ring: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
