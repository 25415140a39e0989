//! End-to-end tests of the serving layer's failure model: deadlines,
//! load shedding, panic isolation, retry, and graceful drain.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use zenesis_core::job::{JobResult, JobSpec};
use zenesis_serve::{JobRunner, Response, ServeConfig, Server};

/// A valid interactive spec line whose prompt the injected runners use
/// as the behavior selector.
fn spec_line(prompt: &str) -> String {
    format!(
        r#"{{"mode": "interactive",
            "input": {{"source": "phantom_slice", "kind": "amorphous", "seed": 1, "side": 16}},
            "prompt": "{prompt}"}}"#
    )
    .replace('\n', " ")
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

fn prompt_of(spec: &JobSpec) -> &str {
    match spec {
        JobSpec::Interactive { prompt, .. } | JobSpec::Batch { prompt, .. } => prompt,
        JobSpec::Evaluate { .. } => "",
    }
}

/// `recv` with a test-failure timeout (the vendored channel is
/// timeout-free; polling keeps a broken server from hanging the suite).
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

fn config(workers: usize, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_cap,
        tenant_cap: 0,
        default_deadline_ms: None,
        max_retries: 2,
        retry_base_ms: 1,
        flight_dir: None,
        process_workers: false,
        heartbeat_ms: 1000,
        worker_exe: None,
    }
}

#[test]
fn panicking_job_is_isolated_and_workers_survive() {
    let runner: JobRunner = Arc::new(|spec, _cancel| {
        if prompt_of(spec) == "boom" {
            panic!("synthetic job panic");
        }
        ok_result()
    });
    let server = Server::start_with_runner(config(2, 32), runner);
    let (tx, rx) = unbounded::<Response>();
    // Interleave panicking and healthy jobs; every healthy job must
    // still complete — the pool survives each panic.
    for i in 0..12u64 {
        let prompt = if i % 3 == 0 { "boom" } else { "fine" };
        server.submit_line(&spec_line(prompt), i + 1, &tx);
    }
    server.shutdown();
    let mut ok = 0;
    let mut panicked = 0;
    for _ in 0..12 {
        let resp = rx.recv().expect("every job answers");
        match resp.status() {
            "ok" => ok += 1,
            "error" => {
                match &resp.result {
                    JobResult::Error { message } => {
                        assert!(message.contains("job panicked"), "{message}");
                        assert!(message.contains("synthetic job panic"), "{message}");
                    }
                    other => panic!("unexpected {other:?}"),
                }
                panicked += 1;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!(ok, 8);
    assert_eq!(panicked, 4);
}

#[test]
fn full_queue_sheds_busy_responses() {
    let gate = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU32::new(0));
    let runner: JobRunner = {
        let gate = Arc::clone(&gate);
        let started = Arc::clone(&started);
        Arc::new(move |_spec, _cancel| {
            started.fetch_add(1, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            ok_result()
        })
    };
    let server = Server::start_with_runner(config(1, 2), runner);
    let (tx, rx) = unbounded::<Response>();
    // First job occupies the single worker…
    server.submit_line(&spec_line("blockhead"), 1, &tx);
    let t0 = Instant::now();
    while started.load(Ordering::SeqCst) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "worker never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // …the next two fill the bounded queue…
    server.submit_line(&spec_line("queued-a"), 2, &tx);
    server.submit_line(&spec_line("queued-b"), 3, &tx);
    // …and further submissions are shed immediately as `busy`.
    server.submit_line(&spec_line("shed-a"), 4, &tx);
    server.submit_line(&spec_line("shed-b"), 5, &tx);
    for _ in 0..2 {
        let resp = recv_within(&rx, Duration::from_secs(5));
        assert_eq!(resp.status(), "busy");
        assert!(resp.id == 4 || resp.id == 5, "shed ids answer first");
        assert_eq!(resp.attempts, 0, "shed jobs never reach a worker");
        match &resp.result {
            JobResult::Busy { capacity, message } => {
                assert_eq!(*capacity, 2);
                assert!(message.contains("queue full"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    gate.store(true, Ordering::SeqCst);
    server.shutdown();
    let mut ok_ids: Vec<u64> = (0..3)
        .map(|_| {
            let resp = rx.recv().expect("accepted jobs drain");
            assert_eq!(resp.status(), "ok");
            resp.id
        })
        .collect();
    ok_ids.sort_unstable();
    assert_eq!(ok_ids, vec![1, 2, 3]);
}

#[test]
fn shutdown_drains_every_accepted_job() {
    let runner: JobRunner = Arc::new(|_spec, _cancel| {
        std::thread::sleep(Duration::from_millis(5));
        ok_result()
    });
    let server = Server::start_with_runner(config(2, 16), runner);
    let (tx, rx) = unbounded::<Response>();
    for i in 0..10u64 {
        server.submit_line(&spec_line("drain"), i + 1, &tx);
    }
    // Shutdown closes admissions but runs everything already accepted.
    server.shutdown();
    drop(tx);
    let answered: Vec<Response> = std::iter::from_fn(|| rx.try_recv()).collect();
    assert_eq!(answered.len(), 10);
    assert!(answered.iter().all(|r| r.status() == "ok"));
}

#[test]
fn deadline_counts_queue_wait_and_returns_timeout() {
    // Cooperative mid-run expiry: the runner polls its token between
    // simulated slices and reports partial progress.
    let runner: JobRunner = Arc::new(|_spec, cancel| {
        let total = 1000;
        for completed in 0..total {
            if cancel.is_cancelled() {
                return JobResult::Timeout {
                    message: "job deadline exceeded".into(),
                    completed,
                    total,
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        ok_result()
    });
    let server = Server::start_with_runner(config(1, 4), runner);
    let (tx, rx) = unbounded::<Response>();
    let line = format!(
        r#"{{"id": 77, "deadline_ms": 30, "spec": {}}}"#,
        spec_line("slow")
    );
    server.submit_line(&line, 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(30));
    server.shutdown();
    assert_eq!(resp.id, 77);
    assert_eq!(resp.status(), "timeout");
    match &resp.result {
        JobResult::Timeout {
            completed, total, ..
        } => {
            assert_eq!(*total, 1000);
            assert!(*completed < 1000, "the deadline fired mid-run");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn expired_deadline_times_out_through_the_real_pipeline() {
    // No injected runner: a real batch job whose deadline is already
    // gone when the worker picks it up returns `timeout`, not a hang.
    let server = Server::start(config(1, 4));
    let (tx, rx) = unbounded::<Response>();
    let line = r#"{"id": 5, "deadline_ms": 0, "spec": {"mode": "batch",
        "input": {"source": "phantom_volume", "kind": "amorphous", "seed": 2,
                  "depth": 8, "side": 64},
        "prompt": "catalyst particles"}}"#
        .replace('\n', " ");
    server.submit_line(&line, 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(60));
    server.shutdown();
    assert_eq!(resp.status(), "timeout");
}

#[test]
fn transient_errors_retry_then_succeed() {
    let calls = Arc::new(AtomicU32::new(0));
    let runner: JobRunner = {
        let calls = Arc::clone(&calls);
        Arc::new(move |_spec, _cancel| {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                JobResult::Error {
                    message: "cannot open \"/data/upload.tif\": racing with upload".into(),
                }
            } else {
                ok_result()
            }
        })
    };
    let server = Server::start_with_runner(config(1, 4), runner);
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&spec_line("flaky"), 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(10));
    server.shutdown();
    assert_eq!(resp.status(), "ok");
    assert_eq!(resp.attempts, 3, "two transient failures, then success");
    assert_eq!(calls.load(Ordering::SeqCst), 3);
}

#[test]
fn deterministic_errors_are_not_retried() {
    let calls = Arc::new(AtomicU32::new(0));
    let runner: JobRunner = {
        let calls = Arc::clone(&calls);
        Arc::new(move |_spec, _cancel| {
            calls.fetch_add(1, Ordering::SeqCst);
            JobResult::Error {
                message: "invalid job spec: prompt must be non-empty".into(),
            }
        })
    };
    let server = Server::start_with_runner(config(1, 4), runner);
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&spec_line("doomed"), 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(10));
    server.shutdown();
    assert_eq!(resp.status(), "error");
    assert_eq!(resp.attempts, 1);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "deterministic errors run once"
    );
}

#[test]
fn parse_errors_answer_without_touching_the_queue() {
    let runner: JobRunner = Arc::new(|_spec, _cancel| ok_result());
    let server = Server::start_with_runner(config(1, 4), runner);
    let (tx, rx) = unbounded::<Response>();
    server.submit_line("{not json", 3, &tx);
    let resp = recv_within(&rx, Duration::from_secs(5));
    assert_eq!(resp.id, 3);
    assert_eq!(resp.status(), "error");
    assert_eq!(resp.attempts, 0);
    assert_eq!(server.queue_depth(), 0);
    server.shutdown();
}

#[test]
fn closed_queue_refuses_with_shutting_down_message() {
    let runner: JobRunner = Arc::new(|_spec, _cancel| ok_result());
    let server = Server::start_with_runner(config(1, 4), runner);
    server.shutdown();
    // After shutdown the queue is closed: the wire status stays `busy`
    // (old clients keep working) but the message says the instance is
    // draining — resubmitting here is futile, unlike a full queue.
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&spec_line("late"), 42, &tx);
    let resp = recv_within(&rx, Duration::from_secs(5));
    assert_eq!(resp.id, 42);
    assert_eq!(resp.status(), "busy");
    assert_eq!(resp.attempts, 0);
    match &resp.result {
        JobResult::Busy { message, .. } => {
            assert!(message.contains("shutting down"), "{message}");
            assert!(!message.contains("queue full"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn tenant_quota_refuses_the_hog_and_admits_the_rest() {
    let gate = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU32::new(0));
    let runner: JobRunner = {
        let gate = Arc::clone(&gate);
        let started = Arc::clone(&started);
        Arc::new(move |_spec, _cancel| {
            started.fetch_add(1, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            ok_result()
        })
    };
    let mut cfg = config(1, 8);
    cfg.tenant_cap = 1;
    let server = Server::start_with_runner(cfg, runner);
    let (tx, rx) = unbounded::<Response>();
    let enveloped = |id: u64, tenant: &str| {
        format!(
            r#"{{"id": {id}, "tenant": "{tenant}", "spec": {}}}"#,
            spec_line("quota")
        )
    };
    // lab-a's first job occupies the worker (still counted as
    // outstanding)…
    server.submit_line(&enveloped(1, "lab-a"), 1, &tx);
    let t0 = Instant::now();
    while started.load(Ordering::SeqCst) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "worker never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // …so its second is refused over quota, while another tenant and an
    // untenanted client are admitted into the plentiful queue.
    server.submit_line(&enveloped(2, "lab-a"), 2, &tx);
    server.submit_line(&enveloped(3, "lab-b"), 3, &tx);
    server.submit_line(&spec_line("anon"), 4, &tx);
    let refused = recv_within(&rx, Duration::from_secs(5));
    assert_eq!(refused.id, 2);
    assert_eq!(refused.status(), "busy");
    match &refused.result {
        JobResult::Busy { message, .. } => {
            assert!(message.contains("tenant"), "{message}");
            assert!(message.contains("lab-a"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(server.admission().outstanding("lab-a"), 1);
    assert_eq!(server.admission().outstanding("lab-b"), 1);
    gate.store(true, Ordering::SeqCst);
    server.shutdown();
    let mut ok_ids: Vec<u64> = (0..3)
        .map(|_| {
            let r = rx.recv().expect("admitted jobs answer");
            assert_eq!(r.status(), "ok");
            r.id
        })
        .collect();
    ok_ids.sort_unstable();
    assert_eq!(ok_ids, vec![1, 3, 4]);
    // Every admitted job released its slot on completion.
    assert_eq!(server.admission().active_tenants(), 0);
}

#[test]
fn interactive_lane_overtakes_queued_batch_jobs() {
    let gate = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU32::new(0));
    let runner: JobRunner = {
        let gate = Arc::clone(&gate);
        let started = Arc::clone(&started);
        Arc::new(move |_spec, _cancel| {
            if started.fetch_add(1, Ordering::SeqCst) == 0 {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            ok_result()
        })
    };
    let server = Server::start_with_runner(config(1, 8), runner);
    let (tx, rx) = unbounded::<Response>();
    let lane_line = |id: u64, lane: &str| {
        format!(
            r#"{{"id": {id}, "lane": "{lane}", "spec": {}}}"#,
            spec_line("lanes")
        )
    };
    // A blocker pins the single worker while the queue builds up…
    server.submit_line(&lane_line(1, "batch"), 1, &tx);
    let t0 = Instant::now();
    while started.load(Ordering::SeqCst) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "worker never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // …two batch jobs queue first, then an interactive one.
    server.submit_line(&lane_line(2, "batch"), 2, &tx);
    server.submit_line(&lane_line(3, "batch"), 3, &tx);
    server.submit_line(&lane_line(4, "interactive"), 4, &tx);
    gate.store(true, Ordering::SeqCst);
    server.shutdown();
    let order: Vec<u64> = (0..4)
        .map(|_| {
            let r = rx.recv().expect("every job answers");
            assert_eq!(r.status(), "ok");
            r.id
        })
        .collect();
    // The interactive job (submitted last) runs right after the
    // blocker, ahead of both earlier batch jobs.
    assert_eq!(order, vec![1, 4, 2, 3]);
}

#[test]
fn real_pipeline_messages_drive_retry_via_core_classifier() {
    // Cross-crate pin: no injected message strings — the real pipeline
    // renders its own "cannot open …" error for a missing file, and the
    // serving layer must recognize it through the classifier exported
    // by zenesis-core. A rewording in core that bypassed the classifier
    // (or a classifier drift) breaks this test.
    let mut cfg = config(1, 4);
    cfg.max_retries = 2;
    cfg.retry_base_ms = 0;
    let server = Server::start(cfg);
    let (tx, rx) = unbounded::<Response>();
    let line = r#"{"mode": "interactive",
        "input": {"source": "tiff_file", "path": "/nonexistent/zenesis-retry-pin.tif"},
        "prompt": "particles"}"#
        .replace('\n', " ");
    server.submit_line(&line, 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(30));
    server.shutdown();
    assert_eq!(resp.status(), "error");
    assert_eq!(
        resp.attempts, 3,
        "a missing input file is transient: retried to the limit"
    );
    match &resp.result {
        JobResult::Error { message } => {
            assert!(
                zenesis_core::job::message_is_transient_input(message),
                "{message}"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn huge_retry_counts_do_not_overflow_backoff() {
    // Regression: backoff was `retry_base_ms << (attempts - 1)`, which
    // panics in debug builds once attempts exceeds 64. With 80 retries
    // and a zero base the old code overflowed; the capped form finishes.
    let calls = Arc::new(AtomicU32::new(0));
    let runner: JobRunner = {
        let calls = Arc::clone(&calls);
        Arc::new(move |_spec, _cancel| {
            calls.fetch_add(1, Ordering::SeqCst);
            JobResult::Error {
                message: "cannot open \"/gone.tif\": still uploading".into(),
            }
        })
    };
    let mut cfg = config(1, 4);
    cfg.max_retries = 80;
    cfg.retry_base_ms = 0; // zero backoff keeps the test instant
    let server = Server::start_with_runner(cfg, runner);
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&spec_line("hammered"), 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(30));
    server.shutdown();
    assert_eq!(resp.status(), "error");
    assert_eq!(resp.attempts, 81, "initial attempt plus 80 retries");
    assert_eq!(calls.load(Ordering::SeqCst), 81);
}

#[test]
fn queue_and_shed_emit_job_events() {
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    let gate = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU32::new(0));
    let runner: JobRunner = {
        let gate = Arc::clone(&gate);
        let started = Arc::clone(&started);
        Arc::new(move |_spec, _cancel| {
            started.fetch_add(1, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            ok_result()
        })
    };
    let server = Server::start_with_runner(config(1, 1), runner);
    let (tx, rx) = unbounded::<Response>();
    // Envelope ids in a range no other test uses, so concurrent tests in
    // this binary (events are process-global) cannot collide.
    let enveloped = |id: u64| format!(r#"{{"id": {id}, "spec": {}}}"#, spec_line("evt"));
    server.submit_line(&enveloped(9001), 1, &tx);
    let t0 = Instant::now();
    while started.load(Ordering::SeqCst) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "worker never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    server.submit_line(&enveloped(9002), 2, &tx); // fills the 1-slot queue
    server.submit_line(&enveloped(9003), 3, &tx); // shed
    gate.store(true, Ordering::SeqCst);
    server.shutdown();
    let mut statuses: Vec<(u64, String)> = (0..3)
        .map(|_| {
            let r = rx.recv().expect("reply");
            (r.id, r.status().to_string())
        })
        .collect();
    statuses.sort();
    assert_eq!(
        statuses,
        vec![
            (9001, "ok".to_string()),
            (9002, "ok".to_string()),
            (9003, "busy".to_string())
        ]
    );
    use zenesis_obs::events::Event;
    let snap = zenesis_obs::events::events_snapshot();
    assert!(snap
        .iter()
        .any(|r| matches!(r.event, Event::JobQueued { id: 9001, .. })));
    assert!(snap.iter().any(|r| matches!(
        r.event,
        Event::JobRejected {
            id: 9003,
            capacity: 1
        }
    )));
}

#[test]
fn concurrent_batch_jobs_on_one_checkpoint_dir_refuse_double_resume() {
    let dir = std::env::temp_dir().join(format!("zenesis-serve-lease-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gate = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU32::new(0));
    let runner: JobRunner = {
        let gate = Arc::clone(&gate);
        let started = Arc::clone(&started);
        Arc::new(move |_spec, _cancel| {
            if started.fetch_add(1, Ordering::SeqCst) == 0 {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            ok_result()
        })
    };
    // In-process workers: the lease must hold without process isolation.
    let server = Server::start_with_runner(config(2, 8), runner);
    // Opens the gate on every exit, so a failing assertion below cannot
    // leave the server's drop waiting on the blocked first job.
    struct OpenOnDrop(Arc<AtomicBool>);
    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let _open = OpenOnDrop(Arc::clone(&gate));
    let (tx, rx) = unbounded::<Response>();
    let batch = |id: u64| {
        format!(
            r#"{{"id": {id}, "spec": {{"mode": "batch",
                "input": {{"source": "phantom_volume", "kind": "crystalline",
                           "seed": 2, "depth": 4, "side": 16}},
                "prompt": "needles", "checkpoint_dir": "{}"}}}}"#,
            dir.display()
        )
        .replace('\n', " ")
    };
    // The first job holds the directory's lease while it is blocked…
    server.submit_line(&batch(1), 1, &tx);
    let t0 = Instant::now();
    while started.load(Ordering::SeqCst) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "worker never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // …so the second, on the other worker, is refused without running.
    server.submit_line(&batch(2), 2, &tx);
    let refused = recv_within(&rx, Duration::from_secs(10));
    assert_eq!(refused.id, 2);
    assert_eq!(refused.status(), "error");
    assert_eq!(refused.attempts, 0, "a refused job never runs");
    match &refused.result {
        JobResult::Error { message } => {
            assert!(message.contains("refusing to double-resume"), "{message}")
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(started.load(Ordering::SeqCst), 1);
    gate.store(true, Ordering::SeqCst);
    let first = recv_within(&rx, Duration::from_secs(10));
    assert_eq!((first.id, first.status()), (1, "ok"));
    // Both have finished, so the lease is free for a third job.
    server.submit_line(&batch(3), 3, &tx);
    let third = recv_within(&rx, Duration::from_secs(10));
    assert_eq!((third.id, third.status()), (3, "ok"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `pgm_file` job whose header claims 2^32 x 2^32 pixels must come back
/// as an `error` response from pipe-mode `zenesis-serve`, and the valid
/// job on the next line must still be answered: exactly two responses.
/// (An unchecked `width * height` once decoded that header as an empty
/// image and a later allocation of its true size aborted the server.)
#[test]
fn hostile_pgm_header_answers_error_and_the_next_job_still_runs() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("zenesis_hostile_pgm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.pgm");
    std::fs::write(&path, b"P5\n4294967296 4294967296\n255\n").unwrap();
    let hostile = format!(
        r#"{{"mode": "interactive", "input": {{"source": "pgm_file", "path": {:?}}}, "prompt": "bright particles"}}"#,
        path.to_str().unwrap()
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_zenesis-serve"))
        .args(["--workers", "1", "--retry-base-ms", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn zenesis-serve");
    let mut stdin = child.stdin.take().expect("stdin is piped");
    writeln!(stdin, "{hostile}").unwrap();
    writeln!(stdin, "{}", spec_line("bright particles")).unwrap();
    drop(stdin);
    let out = child
        .wait_with_output()
        .expect("zenesis-serve runs to the end");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);

    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut responses: Vec<serde_json::Value> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).expect("each response is JSON"))
        .collect();
    assert_eq!(responses.len(), 2, "{stdout}");
    responses.sort_by_key(|v| v["id"].as_u64());
    assert_eq!(responses[0]["status"].as_str(), Some("error"), "{stdout}");
    let message = responses[0]["result"]["message"].as_str().unwrap_or("");
    assert!(message.contains("too many samples"), "{message}");
    assert_eq!(responses[1]["status"].as_str(), Some("ok"), "{stdout}");
}
