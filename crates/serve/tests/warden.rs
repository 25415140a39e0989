//! End-to-end supervision tests: a real [`Server`] whose warden spawns
//! the actual `zenesis-serve` binary as worker children, with
//! deterministic fault injection (`ZENESIS_FAULT`, inherited by the
//! children) killing or hanging them mid-volume.
//!
//! Serialized behind one lock: the tests mutate the process
//! environment and assert on global observability counters.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use zenesis_core::job::JobResult;
use zenesis_serve::{Response, ServeConfig, Server};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn config(heartbeat_ms: u64) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_cap: 8,
        tenant_cap: 0,
        default_deadline_ms: None,
        max_retries: 0,
        retry_base_ms: 1,
        flight_dir: None,
        process_workers: true,
        heartbeat_ms,
        // The test binary is not the serve binary: point the warden at
        // the real thing Cargo built for this test run.
        worker_exe: Some(env!("CARGO_BIN_EXE_zenesis-serve").into()),
    }
}

/// A directory under the system temp dir, removed on drop: also when the
/// test holding it fails.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// A fresh, empty checkpoint directory under the system temp dir.
fn checkpoint_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("zenesis-warden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

fn batch_line(id: u64, dir: &Path, depth: usize) -> String {
    format!(
        r#"{{"id": {id}, "spec": {{"mode": "batch", "input": {{"source": "phantom_volume", "kind": "amorphous", "seed": 3, "depth": {depth}, "side": 32}}, "prompt": "bright particles", "checkpoint_dir": "{}", "resume": false}}}}"#,
        dir.display()
    )
}

fn recv_within(rx: &Receiver<Response>, timeout: Duration) -> Response {
    let t0 = Instant::now();
    loop {
        if let Some(resp) = rx.try_recv() {
            return resp;
        }
        assert!(t0.elapsed() < timeout, "no response within {timeout:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The volume payload, serialized — the bit-identity comparator.
fn volume_payload(resp: &Response) -> String {
    assert_eq!(resp.status(), "ok", "{:?}", resp.result);
    serde_json::to_string(&resp.result).unwrap()
}

fn counter(name: &'static str) -> u64 {
    zenesis_obs::counter(name).get()
}

/// Run one checkpointed batch job to completion on a fresh server and
/// return its response.
fn run_batch(heartbeat_ms: u64, dir: &Path, depth: usize) -> Response {
    let server = Server::start(config(heartbeat_ms));
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&batch_line(1, dir, depth), 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(120));
    assert_eq!(server.warden_recovering(), Some(0), "gauge must settle");
    resp
}

#[test]
fn process_worker_answers_without_waiting_out_a_beat_interval() {
    let _guard = lock();
    std::env::remove_var("ZENESIS_FAULT");
    // A 30 s heartbeat puts the child's beat interval at 7.5 s; the
    // result must not wait for the beat thread's next wake-up.
    let t0 = Instant::now();
    let resp = run_batch(30_000, &checkpoint_dir("handover"), 2);
    let took = t0.elapsed();
    assert_eq!(resp.status(), "ok", "{:?}", resp.result);
    assert!(took < Duration::from_secs(4), "answered after {took:?}");
}

#[test]
fn killed_workers_recover_bit_identically_from_the_journal() {
    let _guard = lock();
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    std::env::remove_var("ZENESIS_FAULT");
    let clean = run_batch(500, &checkpoint_dir("clean"), 6);
    assert_eq!(clean.attempts, 1);
    let reference = volume_payload(&clean);

    // Every slice SIGABRTs its worker right after the slice is
    // journaled: each worker generation checkpoints some progress and
    // dies; the warden restarts and resumes it until the batch lands.
    let spawns_before = counter("warden.spawn");
    let crashes_before = counter("warden.crash");
    let resumes_before = counter("warden.resume");
    std::env::set_var("ZENESIS_FAULT", "worker.kill:kill:1.0:7");
    let crashed = run_batch(500, &checkpoint_dir("kill"), 6);
    std::env::remove_var("ZENESIS_FAULT");

    assert_eq!(
        volume_payload(&crashed),
        reference,
        "recovered volume must be bit-identical to the uninterrupted run"
    );
    assert!(crashed.attempts > 1, "expected restarts, got one attempt");
    assert!(counter("warden.crash") > crashes_before);
    assert!(counter("warden.resume") > resumes_before);
    assert!(counter("warden.spawn") >= spawns_before + 2);
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Off);
}

#[test]
fn hung_workers_are_detected_by_the_frozen_pulse_and_restarted() {
    let _guard = lock();
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    std::env::remove_var("ZENESIS_FAULT");
    let clean = run_batch(150, &checkpoint_dir("hang-clean"), 2);
    let reference = volume_payload(&clean);

    // The compute threads park forever after journaling a slice while
    // the heartbeat thread keeps beating: only the stall detector (the
    // pulse frozen across windows) can catch this.
    let events_before = zenesis_obs::events::events_snapshot().len();
    std::env::set_var("ZENESIS_FAULT", "worker.hang:hang:1.0:7");
    let hung = run_batch(150, &checkpoint_dir("hang"), 2);
    std::env::remove_var("ZENESIS_FAULT");

    assert_eq!(volume_payload(&hung), reference);
    assert!(hung.attempts > 1);
    let stalled = zenesis_obs::events::events_snapshot()[events_before..]
        .iter()
        .any(|record| {
            matches!(
                &record.event,
                zenesis_obs::events::Event::WardenCrash { reason, .. } if reason == "stall"
            )
        });
    assert!(
        stalled,
        "expected a warden.crash event with reason \"stall\""
    );
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Off);
}

#[test]
fn poison_specs_trip_the_breaker_and_flip_readyz_while_recovering() {
    let _guard = lock();
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    // This kill site fires *before* the slice is computed, so no
    // worker generation ever grows the journal: the definition of a
    // poison job.
    std::env::set_var("ZENESIS_FAULT", "worker.kill.pre:kill:1.0:7");
    let poisons_before = counter("warden.poison");
    let server = Arc::new(Server::start(config(500)));
    let addr = zenesis_serve::start_metrics_http("127.0.0.1:0", Arc::clone(&server), None).unwrap();

    // Poll /readyz concurrently: between a crash and its successor's
    // first heartbeat the service must report the recovery as a
    // readiness reason (and come back up afterwards).
    let polling = Arc::new(AtomicBool::new(true));
    let poller = {
        let polling = Arc::clone(&polling);
        std::thread::spawn(move || {
            let mut saw_recovering = false;
            while polling.load(Ordering::Relaxed) {
                let (status, body) = http_get(addr, "/readyz");
                if status.contains("503") && body.contains("worker crash recovery") {
                    saw_recovering = true;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            saw_recovering
        })
    };

    let dir = checkpoint_dir("poison");
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&batch_line(1, &dir, 4), 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(120));
    polling.store(false, Ordering::Relaxed);
    std::env::remove_var("ZENESIS_FAULT");

    assert_eq!(resp.status(), "error", "{:?}", resp.result);
    match &resp.result {
        JobResult::Error { message } => {
            assert!(message.contains("quarantined"), "{message}");
        }
        other => panic!("unexpected result {other:?}"),
    }
    assert_eq!(counter("warden.poison"), poisons_before + 1);
    assert!(poller.join().unwrap(), "/readyz never reported recovery");

    // The breaker holds: resubmitting the same spec is refused
    // immediately (attempts 0) without spawning another doomed worker.
    let spawns_after = counter("warden.spawn");
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&batch_line(2, &dir, 4), 2, &tx);
    let refused = recv_within(&rx, Duration::from_secs(30));
    assert_eq!(refused.status(), "error");
    assert_eq!(refused.attempts, 0, "quarantine must answer before a spawn");
    assert_eq!(counter("warden.spawn"), spawns_after);
    let (status, _) = http_get(addr, "/readyz");
    assert!(status.contains("200"), "{status}");
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Off);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    (head.lines().next().unwrap().to_string(), body.to_string())
}

#[test]
fn unspawnable_worker_answers_one_structured_error() {
    let _guard = lock();
    // Not transient, so `max_retries` must not turn a missing worker
    // binary into a spawn loop.
    let mut cfg = config(500);
    cfg.max_retries = 2;
    cfg.worker_exe = Some("/nonexistent/zenesis-worker-binary".into());
    let server = Server::start(cfg);
    let (tx, rx) = unbounded::<Response>();
    let dir = checkpoint_dir("nospawn");
    server.submit_line(&batch_line(1, &dir, 2), 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(30));
    assert_eq!(resp.attempts, 1);
    match &resp.result {
        JobResult::Error { message } => {
            assert!(message.contains("cannot spawn worker process"), "{message}");
        }
        other => panic!("unexpected result {other:?}"),
    }
    assert_eq!(server.warden_recovering(), Some(0));
}

#[test]
fn process_workers_retry_transient_input_like_in_process_ones() {
    let _guard = lock();
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    std::env::remove_var("ZENESIS_FAULT");
    let mut cfg = config(500);
    cfg.max_retries = 2;
    cfg.retry_base_ms = 1;
    let server = Server::start(cfg);
    let retries_before = counter("serve.job.retry");
    // A stack still being uploaded: every child fails to read it.
    let line = r#"{"id": 1, "spec": {"mode": "batch",
        "input": {"source": "tiff_volume_file", "path": "/nonexistent/zenesis-uploading.tif"},
        "prompt": "bright particles"}}"#
        .replace('\n', " ");
    let (tx, rx) = unbounded::<Response>();
    server.submit_line(&line, 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(60));
    match &resp.result {
        JobResult::Error { message } => {
            assert!(message.starts_with("cannot read tiff volume"), "{message}");
        }
        other => panic!("unexpected result {other:?}"),
    }
    assert_eq!(resp.attempts, 3, "the first run plus max_retries retries");
    assert_eq!(counter("serve.job.retry"), retries_before + 2);
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Off);
}

/// What a panicking batch job left behind on the service side.
struct PanicReport {
    resp: Response,
    panic_events: Vec<zenesis_obs::events::EventRecord>,
    panic_ticks: u64,
    flight_reasons: Vec<String>,
}

/// Run one batch job whose every slice panics right after it is
/// journaled (`worker.kill` armed with kind `panic`, by the caller) on
/// a fresh server with a flight directory.
fn run_panicking_batch(process_workers: bool, tag: &str) -> PanicReport {
    let flight_dir = checkpoint_dir(&format!("{tag}-flight"));
    let mut cfg = config(500);
    cfg.process_workers = process_workers;
    cfg.max_retries = 2;
    cfg.flight_dir = Some(flight_dir.display().to_string());
    let server = Server::start(cfg);
    let events_before = zenesis_obs::events::events_snapshot()
        .last()
        .map_or(0, |r| r.seq);
    let panics_before = counter("serve.job.panic");
    let (tx, rx) = unbounded::<Response>();
    let dir = checkpoint_dir(tag);
    server.submit_line(&batch_line(1, &dir, 4), 1, &tx);
    let resp = recv_within(&rx, Duration::from_secs(120));
    server.shutdown();
    let panic_events = zenesis_obs::events::events_snapshot()
        .into_iter()
        .filter(|r| r.seq > events_before)
        .filter(|r| matches!(r.event, zenesis_obs::events::Event::JobPanic { .. }))
        .collect();
    let flight_reasons = std::fs::read_dir(&*flight_dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("flight-") && name.ends_with(".json")
        })
        .map(|path| {
            let v: serde_json::Value =
                serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
            v.get("reason")
                .and_then(|x| x.as_str())
                .unwrap_or("")
                .to_string()
        })
        .collect();
    PanicReport {
        resp,
        panic_events,
        panic_ticks: counter("serve.job.panic") - panics_before,
        flight_reasons,
    }
}

#[test]
fn panics_report_the_same_in_both_isolation_models() {
    let _guard = lock();
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    std::env::remove_var("ZENESIS_FAULT");
    let in_process = {
        let _armed = zenesis_fault::FaultPlan::new()
            .site("worker.kill", zenesis_fault::FaultKind::Panic, 1.0, 7)
            .arm();
        run_panicking_batch(false, "panic-inproc")
    };
    // The child inherits the plan through its environment.
    std::env::set_var("ZENESIS_FAULT", "worker.kill:panic:1.0:7");
    let in_child = run_panicking_batch(true, "panic-child");
    std::env::remove_var("ZENESIS_FAULT");
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Off);

    for (model, report) in [("in-process", &in_process), ("process worker", &in_child)] {
        let resp = &report.resp;
        match &resp.result {
            JobResult::Error { message } => {
                assert!(message.starts_with("job panicked:"), "{model}: {message}");
            }
            other => panic!("{model}: unexpected result {other:?}"),
        }
        assert_eq!(resp.attempts, 1, "{model}: panics are never retried");
        assert_eq!(report.panic_events.len(), 1, "{model}: one job.panic event");
        assert_eq!(
            report.panic_events[0].trace,
            Some(resp.trace),
            "{model}: job.panic carries the job's trace"
        );
        assert_eq!(report.panic_ticks, 1, "{model}: serve.job.panic + 1");
        assert_eq!(
            report.flight_reasons,
            ["panic"],
            "{model}: one panic flight recording"
        );
    }
}
