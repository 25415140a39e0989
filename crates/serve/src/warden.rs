//! zenesis-warden: supervision for process-isolated volume workers.
//!
//! The in-process worker pool survives panics (`catch_unwind`), but a
//! hard death — `abort`, a segfault, the OOM killer, an operator's
//! `kill -9` — unwinds nothing: it would take the whole service down
//! and lose every in-flight batch. With `--process-workers`, batch
//! volume jobs run in child worker processes instead (the serve binary
//! re-executed with the hidden `--worker` argument, the job handed over
//! on a pipe — see [`crate::worker`] for the line protocol). This
//! module runs one child generation per attempt and reports how it
//! ended; the attempt loop in [`crate::server`] owns retry, panic
//! reporting, restart backoff and the deadline for both models.
//!
//! * **Heartbeats** — the child beats every quarter window with its
//!   progress pulse. No message for one whole window ⇒ dead
//!   (`reason: "heartbeat"`). Beats flowing but the pulse frozen for
//!   `STALL_WINDOWS` windows ⇒ hung (`reason: "stall"`); a hung child
//!   is killed, because a stuck slice never finishes on its own. EOF
//!   on the pipe ⇒ the process died and is reaped for its exit status
//!   (`reason: "exit ..."`).
//! * **Outcomes** — a generation ends with the child's `{"result": …}`,
//!   its `{"panic": …}`, or death without either (`Outcome`). A failed
//!   spawn and the deadline-backstop kill finish with an `error` and a
//!   `timeout`.
//! * **Resume from the checkpoint journal** — a crashed generation is
//!   respawned with `resume: true` forced on, so the CRC journal
//!   replays and the recovered volume is bit-identical to an
//!   uninterrupted run. The serving worker holds a fingerprint-bound
//!   [`Lease`](zenesis_core::checkpoint::Lease) on the checkpoint
//!   directory across restarts, so two jobs can never double-resume one
//!   journal. Journal growth is the progress signal: a worker dying its
//!   way through a crashy stretch still advances, so the restart backoff
//!   doubles only per consecutive crash that grew nothing.
//! * **Poison circuit breaker** — a spec whose workers crash
//!   [`POISON_THRESHOLD`] consecutive times *without journal growth* is
//!   quarantined by fingerprint: the job returns a structured `error`,
//!   and later submissions of the same spec are refused immediately
//!   instead of crash-looping fresh workers.
//!
//! Everything is observable: `warden.{spawn,crash,resume,poison}`
//! counters and events (`warden.restart` is the attempt loop's), the
//! `warden.recovery.lat` histogram (crash detected → successor's first
//! sign of life), and the `serve.warden.recovering` gauge that `/readyz`
//! folds into its readiness reasons. `busy`/`ok` wire semantics are
//! untouched — a supervised job answers exactly like an in-process one,
//! only later.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use zenesis_core::checkpoint::journal_len;
use zenesis_core::job::{JobResult, JobSpec};
use zenesis_obs::events::{self, Event};
use zenesis_par::CancelToken;

use crate::worker::{job_line, parse_worker_line, WorkerMsg};

/// Consecutive worker crashes without journal growth before the spec's
/// fingerprint is quarantined. Crashes *with* progress never trip the
/// breaker: a job inching through a crashy stretch still completes.
pub const POISON_THRESHOLD: u32 = 3;

/// Heartbeat windows the progress pulse may stay frozen before a
/// beating worker is declared hung. Startup (model build, volume
/// decode) runs before the first pulse tick, so the grace must cover it
/// — size `heartbeat_ms` so this many windows exceed the worst-case
/// gap between slices.
const STALL_WINDOWS: u32 = 4;

/// How one attempt at a job ended, in either isolation model.
pub(crate) enum Outcome {
    /// The job returned a result (any status).
    Finished(JobResult),
    /// The job panicked; this is the panic payload, stringified.
    Panicked(String),
    /// A worker child died (or was killed as dead or hung) without a
    /// result.
    Crashed { pid: u32, reason: String },
}

/// Only batch volume jobs get a process of their own: they are the
/// long-running, checkpointable work worth a fork, and the checkpoint
/// journal is what makes their crash recovery exact. Interactive and
/// evaluate jobs stay in-process.
pub fn eligible(spec: &JobSpec) -> bool {
    matches!(spec, JobSpec::Batch { .. })
}

/// FNV-1a over the spec's canonical JSON: the identity that binds
/// checkpoint leases and keys the poison registry. Serde emits struct
/// fields in declaration order, so equal specs always fingerprint
/// equally.
pub fn spec_fingerprint(spec: &JobSpec) -> u64 {
    let json = serde_json::to_string(spec).expect("job specs serialize");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in json.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub(crate) fn checkpoint_dir(spec: &JobSpec) -> Option<PathBuf> {
    match spec {
        JobSpec::Batch { checkpoint_dir, .. } => checkpoint_dir.as_deref().map(PathBuf::from),
        _ => None,
    }
}

/// Force `resume: true` for a respawn: whatever the original request
/// said, the successor must replay the journal its predecessor left,
/// not truncate it.
pub(crate) fn force_resume(spec: &mut JobSpec) {
    if let JobSpec::Batch { resume, .. } = spec {
        *resume = true;
    }
}

/// The process-worker supervisor. One per [`crate::Server`], shared by
/// all worker threads; each supervised job occupies the worker thread
/// that popped it, so concurrency stays bounded by `--workers`.
pub struct Warden {
    exe: PathBuf,
    heartbeat_ms: u64,
    recovering: AtomicUsize,
    poisoned: Mutex<HashSet<u64>>,
}

impl Warden {
    /// Build a supervisor spawning `worker_exe` (default: the current
    /// executable) with a `heartbeat_ms` supervision window.
    pub fn new(heartbeat_ms: u64, worker_exe: Option<&str>) -> std::io::Result<Warden> {
        let exe = match worker_exe {
            Some(path) => PathBuf::from(path),
            None => std::env::current_exe()?,
        };
        Ok(Warden {
            exe,
            heartbeat_ms: heartbeat_ms.max(20),
            recovering: AtomicUsize::new(0),
            poisoned: Mutex::new(HashSet::new()),
        })
    }

    /// Supervised jobs currently between a worker crash and the
    /// successor's first sign of life.
    pub fn recovering(&self) -> usize {
        self.recovering.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn test_set_recovering(&self, n: usize) {
        self.recovering.store(n, Ordering::Relaxed);
    }

    /// Start supervising one job. `Err` holds its refusal when the
    /// poison breaker has quarantined the spec, before any spawn.
    pub(crate) fn watch(&self, spec: &JobSpec) -> Result<Watch<'_>, JobResult> {
        let fingerprint = spec_fingerprint(spec);
        if self.poisoned.lock().contains(&fingerprint) {
            return Err(JobResult::Error {
                message: format!(
                    "job quarantined: spec {fingerprint:016x} previously crashed \
                     {POISON_THRESHOLD} consecutive workers without progress"
                ),
            });
        }
        Ok(Watch {
            warden: self,
            fingerprint,
            ckpt: checkpoint_dir(spec),
            journal_before: 0,
            no_progress_crashes: 0,
            crashed_at: None,
            in_gauge: false,
        })
    }
}

/// One supervised job's crash state across its worker generations:
/// the journal size a generation started from, the consecutive
/// no-progress crash count, and whether the job is in crash recovery.
/// Dropping it takes the job out of the `recovering` gauge, whichever
/// way the job ended.
pub(crate) struct Watch<'w> {
    warden: &'w Warden,
    fingerprint: u64,
    ckpt: Option<PathBuf>,
    journal_before: u64,
    no_progress_crashes: u32,
    /// When the last crash was detected (for `warden.recovery.lat`);
    /// cleared by the successor's first sign of life.
    crashed_at: Option<Instant>,
    in_gauge: bool,
}

impl Watch<'_> {
    fn journal_bytes(&self) -> u64 {
        self.ckpt.as_deref().map(journal_len).unwrap_or(0)
    }

    /// Spawn and supervise one worker generation to its outcome.
    pub(crate) fn run(
        &mut self,
        id: u64,
        spec: &JobSpec,
        cancel: &CancelToken,
        attempt: u32,
    ) -> Outcome {
        self.journal_before = self.journal_bytes();
        let warden = self.warden;
        let mut child = match Command::new(&warden.exe)
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
        {
            Ok(child) => child,
            Err(e) => {
                return Outcome::Finished(JobResult::Error {
                    message: format!("cannot spawn worker process {}: {e}", warden.exe.display()),
                })
            }
        };
        let pid = child.id();
        if zenesis_obs::enabled() {
            zenesis_obs::counter("warden.spawn").inc();
            events::emit(Event::WardenSpawn { id, pid, attempt });
        }
        // Hand the job over and close the pipe; the worker reads
        // exactly one line. Queue wait already ran down the deadline in
        // the parent, so the child gets only the remaining budget. A
        // write failure means the child is already dead — supervision
        // below will see EOF and classify it.
        let trace = zenesis_obs::current_trace().map(|t| t.as_u64()).unwrap_or(0);
        let line = job_line(
            spec,
            cancel.remaining().map(|d| d.as_millis() as u64),
            trace,
            warden.heartbeat_ms,
        );
        if let Some(mut stdin) = child.stdin.take() {
            let _ = stdin.write_all(line.as_bytes());
        }
        let stdout = child.stdout.take().expect("piped worker stdout");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("warden-reader".into())
            .spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if tx.send(parse_worker_line(&line)).is_err() {
                        break;
                    }
                }
                // Dropping `tx` turns EOF into a disconnect the
                // supervision loop can see.
            })
            .expect("spawn warden reader thread");
        let window = Duration::from_millis(warden.heartbeat_ms);
        let mut last_pulse: Option<u64> = None;
        let mut pulse_changed = Instant::now();
        let mut cancelled_at: Option<Instant> = None;
        let outcome = loop {
            // Deadline backstop: the child owns its deadline and
            // normally reports its own `timeout`; if it cannot manage
            // even that within one window of expiry, kill it.
            if cancel.is_cancelled() {
                let at = *cancelled_at.get_or_insert_with(Instant::now);
                if at.elapsed() >= window {
                    kill_and_reap(&mut child);
                    break Outcome::Finished(JobResult::Timeout {
                        message: "job deadline exceeded; worker process killed".into(),
                        completed: 0,
                        total: 0,
                    });
                }
            }
            match rx.recv_timeout(window) {
                Ok(WorkerMsg::Result(result)) => {
                    let _ = child.wait();
                    self.note_alive(id);
                    break Outcome::Finished(result);
                }
                Ok(WorkerMsg::Panic(message)) => {
                    let _ = child.wait();
                    self.note_alive(id);
                    break Outcome::Panicked(message);
                }
                Ok(WorkerMsg::Beat(pulse)) => {
                    self.note_alive(id);
                    if last_pulse != Some(pulse) {
                        last_pulse = Some(pulse);
                        pulse_changed = Instant::now();
                    } else if pulse_changed.elapsed() >= window * STALL_WINDOWS {
                        // Beating but frozen: the heartbeat thread is
                        // alive while the compute threads are stuck.
                        kill_and_reap(&mut child);
                        break Outcome::Crashed {
                            pid,
                            reason: "stall".into(),
                        };
                    }
                }
                Ok(WorkerMsg::Noise) => {}
                Err(RecvTimeoutError::Timeout) => {
                    // Not even a beat: the process is dead or dying
                    // (and might linger as a zombie without the kill).
                    kill_and_reap(&mut child);
                    break Outcome::Crashed {
                        pid,
                        reason: "heartbeat".into(),
                    };
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // EOF without a result: the process died. Reap it
                    // for the status the crash event reports.
                    let reason = match child.wait() {
                        Ok(status) => format!("exit {status}"),
                        Err(_) => "exit unknown".into(),
                    };
                    break Outcome::Crashed { pid, reason };
                }
            }
        };
        let _ = reader.join();
        outcome
    }

    /// Book a generation's crash: count and report it, put the job in
    /// crash recovery, and update the no-progress streak (journal growth
    /// since the generation started resets it). `Ok` holds the streak —
    /// the restart backoff's exponent; `Err` holds the job's quarantine
    /// error once the streak reaches [`POISON_THRESHOLD`].
    pub(crate) fn crashed(&mut self, id: u64, pid: u32, reason: String) -> Result<u32, JobResult> {
        if zenesis_obs::enabled() {
            zenesis_obs::counter("warden.crash").inc();
            events::emit(Event::WardenCrash {
                id,
                pid,
                reason: reason.clone(),
            });
        }
        self.crashed_at = Some(Instant::now());
        if !self.in_gauge {
            self.in_gauge = true;
            let n = self.warden.recovering.fetch_add(1, Ordering::Relaxed) + 1;
            zenesis_obs::gauge("serve.warden.recovering").set(n as i64);
        }
        if self.journal_bytes() > self.journal_before {
            self.no_progress_crashes = 0;
        } else {
            self.no_progress_crashes += 1;
        }
        let crashes = self.no_progress_crashes;
        if crashes < POISON_THRESHOLD {
            return Ok(crashes);
        }
        let fingerprint = self.fingerprint;
        self.warden.poisoned.lock().insert(fingerprint);
        if zenesis_obs::enabled() {
            zenesis_obs::counter("warden.poison").inc();
            events::emit(Event::WardenPoison {
                id,
                fingerprint: format!("{fingerprint:016x}"),
                crashes,
            });
        }
        Err(JobResult::Error {
            message: format!(
                "job quarantined: {crashes} consecutive worker crashes without progress \
                 (last: {reason}); spec {fingerprint:016x} will be refused until restart"
            ),
        })
    }

    /// First sign of life from a worker generation: if the job was in
    /// crash recovery, the recovery is over — record its latency and
    /// the resumed journal size, and take the job out of the gauge.
    fn note_alive(&mut self, id: u64) {
        if let Some(crashed_at) = self.crashed_at.take() {
            if zenesis_obs::enabled() {
                zenesis_obs::counter("warden.resume").inc();
                zenesis_obs::record_ms(
                    "warden.recovery.lat",
                    crashed_at.elapsed().as_secs_f64() * 1e3,
                );
                events::emit(Event::WardenResume {
                    id,
                    journal_bytes: self.journal_bytes(),
                });
            }
            self.leave_gauge();
        }
    }

    fn leave_gauge(&mut self) {
        if self.in_gauge {
            self.in_gauge = false;
            let n = self.warden.recovering.fetch_sub(1, Ordering::Relaxed) - 1;
            zenesis_obs::gauge("serve.warden.recovering").set(n as i64);
        }
    }
}

impl Drop for Watch<'_> {
    fn drop(&mut self) {
        self.leave_gauge();
    }
}

/// SIGKILL the child and reap it — `Child::kill` is a no-op if it
/// already exited, and the `wait` prevents a zombie either way.
fn kill_and_reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_spec(raw: &str) -> JobSpec {
        serde_json::from_str(raw).expect("spec parses")
    }

    const SPEC: &str = r#"{"mode": "batch",
        "input": {"source": "phantom_volume", "kind": "amorphous", "seed": 3, "depth": 4},
        "prompt": "bright particles"}"#;

    #[test]
    fn fingerprints_are_stable_and_distinguish_specs() {
        let a = batch_spec(SPEC);
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&a.clone()));
        let b = batch_spec(&SPEC.replace("bright particles", "dark pores"));
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
    }

    #[test]
    fn only_batch_jobs_are_eligible_for_process_isolation() {
        assert!(eligible(&batch_spec(SPEC)));
        let interactive = batch_spec(
            r#"{"mode": "interactive",
                "input": {"source": "phantom_slice", "kind": "amorphous", "seed": 3},
                "prompt": "bright particles"}"#,
        );
        assert!(!eligible(&interactive));
    }

    #[test]
    fn respawned_specs_always_resume() {
        let mut spec = batch_spec(
            r#"{"mode": "batch",
                "input": {"source": "phantom_volume", "kind": "amorphous", "seed": 3, "depth": 4},
                "prompt": "bright particles", "checkpoint_dir": "/tmp/x", "resume": false}"#,
        );
        force_resume(&mut spec);
        match spec {
            JobSpec::Batch { resume, .. } => assert!(resume),
            other => panic!("unexpected spec {other:?}"),
        }
    }
}
