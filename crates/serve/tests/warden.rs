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

/// A fresh, empty checkpoint directory under the system temp dir.
fn checkpoint_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zenesis-warden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
    assert!(stalled, "expected a warden.crash event with reason \"stall\"");
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
    let addr =
        zenesis_serve::start_metrics_http("127.0.0.1:0", Arc::clone(&server), None).unwrap();

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
