//! The worker pool: admission, deadlines, panic isolation, retry.
//!
//! [`Server`] owns a [`BoundedQueue`] of accepted jobs and a fixed set of
//! worker threads. The failure model is explicit:
//!
//! * **Load shed** — a full queue turns the submission into an immediate
//!   `busy` response ([`JobResult::Busy`]); the job never occupies memory
//!   or a worker. `job.rejected` is emitted and `serve.job.busy` counted.
//! * **Tenant quota** — a tenant with too many outstanding jobs is
//!   refused the same way (`busy` on the wire, its own message and
//!   `serve.tenant.busy` counter) before touching the queue
//!   ([`crate::admission`]).
//! * **Shutdown refusal** — submissions during a graceful drain get a
//!   `busy` response whose message says the service is shutting down
//!   (`serve.job.closed` counter): unlike a full queue, resubmitting to
//!   *this* instance is futile, and clients balancing across replicas
//!   should pick another one.
//! * **Deadline** — each job runs under a [`CancelToken`] whose deadline
//!   starts at *submission*. The pipeline polls the token at per-slice /
//!   per-sample checkpoints, so an expired job returns a `timeout` result
//!   with partial progress instead of hanging a worker.
//! * **One attempt loop** — in-process, an attempt is the runner under
//!   `catch_unwind`; with `--process-workers`, a batch job's attempt is
//!   one worker child ([`crate::warden`]). The policies below are
//!   written once, for both.
//! * **Panic isolation** — a panic becomes a structured `error` response
//!   (`job.panic` event, `serve.job.panic` counter, a `panic` flight
//!   recording), is never retried, and the worker keeps serving.
//! * **Retry** — results classified as transient input failures (via
//!   [`zenesis_core::job::message_is_transient_input`], the classifier
//!   that lives beside the error construction site) are retried with
//!   exponential backoff, capped at `MAX_RETRY_BACKOFF_MS`, never past
//!   the deadline and at most `max_retries` times.
//! * **Crash restart** — a child that dies without a result is respawned
//!   with `resume: true` after a capped backoff, until the warden's
//!   poison breaker quarantines the spec.
//! * **Graceful shutdown** — [`Server::shutdown`] closes the queue:
//!   accepted jobs still run to completion and get responses; only new
//!   submissions are refused.
//!
//! Queue-depth gauges (`serve.queue_depth`, `serve.lane.*.depth`) are
//! set exclusively from the depths returned by queue push/pop
//! transitions — never from a separate racy `len()` read.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use std::sync::Mutex;

use crate::lock;
use zenesis_core::checkpoint::{Lease, LeaseError};
use zenesis_core::job::{message_is_transient_input, JobEngine, JobResult, JobSpec};
use zenesis_core::panic_message;
use zenesis_obs::events::{self, Event};
use zenesis_obs::TraceId;
use zenesis_par::CancelToken;

use crate::admission::Admission;
use crate::proto::{parse_request, Response};
use crate::queue::{BoundedQueue, Lane, PushError, QueueDepths};
use crate::warden::{self, Outcome, Warden};

/// Hard ceiling on one retry backoff sleep. Beyond ~10 s the input is
/// not "racing with an upload" anymore and the deadline budget is
/// better spent failing fast.
pub(crate) const MAX_RETRY_BACKOFF_MS: u64 = 10_000;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed as `busy`.
    pub queue_cap: usize,
    /// Max outstanding (queued + running) jobs per tenant; 0 disables
    /// per-tenant quotas. Requests without a `tenant` field are exempt.
    pub tenant_cap: usize,
    /// Deadline applied to jobs whose envelope sets none (`None` =
    /// unlimited).
    pub default_deadline_ms: Option<u64>,
    /// Maximum retries for transient input failures, in both isolation
    /// models (a process-worker retry is a fresh child).
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt up to
    /// `MAX_RETRY_BACKOFF_MS`.
    pub retry_base_ms: u64,
    /// Directory for crash flight recordings. `Some` dumps the newest
    /// recorded spans and events ([`zenesis_obs::flight`]) as
    /// `flight-<unix-secs>-<trace>.json` whenever a job panics, abandons
    /// a volume (`TooManyFailures`), or ran with injected faults. The
    /// dump reads the obs stores, so it holds records only when
    /// recording is on (`zenesis-serve --flight-dir` turns on `spans`).
    pub flight_dir: Option<String>,
    /// Run batch volume jobs in supervised child worker processes
    /// (`crate::warden`) instead of on the worker thread itself, so a
    /// hard worker death (SIGKILL, OOM, abort) costs one worker
    /// generation instead of the service. Retries, panics and the
    /// deadline behave as in-process. Interactive and evaluate jobs
    /// always run in-process.
    pub process_workers: bool,
    /// Supervision heartbeat window in milliseconds: a process worker
    /// that sends no message for this long is declared dead, and one
    /// whose progress pulse freezes for several windows is declared
    /// stalled (see `crate::warden`).
    pub heartbeat_ms: u64,
    /// Executable spawned as the worker child (with the hidden
    /// `--worker` argument). `None` uses the current executable — right
    /// for the `zenesis-serve` binary, wrong for test harnesses, which
    /// pass the built binary path explicitly.
    pub worker_exe: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            queue_cap: 64,
            tenant_cap: 0,
            default_deadline_ms: None,
            max_retries: 2,
            retry_base_ms: 25,
            flight_dir: None,
            process_workers: false,
            heartbeat_ms: 30_000,
            worker_exe: None,
        }
    }
}

/// The job execution function. Production uses a resident
/// [`JobEngine`]; tests inject runners that panic or fail
/// transiently to exercise the isolation and retry paths.
pub type JobRunner = Arc<dyn Fn(&JobSpec, &CancelToken) -> JobResult + Send + Sync>;

/// Where a job's response goes: the pipe writer, a test channel, or the
/// mux's per-connection write path. Cheap to clone; each admitted
/// submission calls it exactly once.
#[derive(Clone)]
pub struct ResponseSink(Arc<dyn Fn(Response) + Send + Sync>);

impl ResponseSink {
    /// Wrap an arbitrary delivery function.
    pub(crate) fn new(deliver: impl Fn(Response) + Send + Sync + 'static) -> ResponseSink {
        ResponseSink(Arc::new(deliver))
    }

    /// Deliver into a crossbeam channel (pipe mode, tests, benches).
    /// A hung-up receiver drops the response silently — the submitter
    /// went away and there is nobody left to tell.
    pub(crate) fn from_channel(tx: &Sender<Response>) -> ResponseSink {
        let tx = tx.clone();
        ResponseSink::new(move |resp| {
            let _ = tx.send(resp);
        })
    }

    /// Deliver one response.
    pub(crate) fn send(&self, resp: Response) {
        (self.0)(resp)
    }
}

struct QueuedJob {
    id: u64,
    trace: TraceId,
    tenant: Option<String>,
    spec: JobSpec,
    deadline: Option<Instant>,
    submitted: Instant,
    reply: ResponseSink,
}

/// Connection stats a mux front end registers so `/readyz` can report
/// connection-cap saturation (see [`crate::mux`]).
pub(crate) struct MuxStats {
    /// Open multiplexed connections.
    pub(crate) connections: AtomicUsize,
    /// Accept cap; further connections are refused at accept time.
    pub(crate) max_connections: usize,
}

/// The running service.
pub struct Server {
    queue: BoundedQueue<QueuedJob>,
    admission: Arc<Admission>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    mux_stats: Mutex<Option<Arc<MuxStats>>>,
    warden: Option<Arc<Warden>>,
    config: ServeConfig,
}

impl Server {
    /// Start workers running the real job pipeline: one resident
    /// [`JobEngine`] shared by every worker. Its slice cache holds
    /// `workers + 1` prepared slices: one per concurrently running job,
    /// plus one so that a session's slice survives another worker
    /// starting on a new one.
    pub fn start(config: ServeConfig) -> Server {
        let engine = Arc::new(JobEngine::new(config.workers.max(1) + 1));
        Server::start_with_runner(
            config,
            Arc::new(move |spec: &JobSpec, cancel: &CancelToken| {
                engine.run_with_cancel(spec, cancel)
            }),
        )
    }

    /// Start workers with an injected runner (test hook: panics, fake
    /// transient failures, instrumented latencies).
    pub fn start_with_runner(config: ServeConfig, runner: JobRunner) -> Server {
        let queue = BoundedQueue::new(config.queue_cap);
        let admission = Arc::new(Admission::new(config.tenant_cap));
        let warden = config.process_workers.then(|| {
            Arc::new(
                Warden::new(config.heartbeat_ms, config.worker_exe.as_deref())
                    .expect("resolve worker executable"),
            )
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let queue = queue.clone();
                let runner = Arc::clone(&runner);
                let cfg = config.clone();
                let admission = Arc::clone(&admission);
                let warden = warden.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&queue, &runner, &cfg, &admission, warden.as_deref())
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            queue,
            admission,
            workers: Mutex::new(workers),
            mux_stats: Mutex::new(None),
            warden,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Admission capacity of the bounded queue.
    pub(crate) fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// The per-tenant admission controller.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Register the mux front end's connection stats so readiness
    /// probes can report accept-cap saturation.
    pub(crate) fn attach_mux_stats(&self, stats: Arc<MuxStats>) {
        *lock(&self.mux_stats) = Some(stats);
    }

    /// `(open, cap)` of the attached mux front end, if one is running.
    pub fn mux_connections(&self) -> Option<(usize, usize)> {
        lock(&self.mux_stats)
            .as_ref()
            .map(|s| (s.connections.load(Ordering::Relaxed), s.max_connections))
    }

    /// Supervised jobs currently in crash recovery (a process worker
    /// died and its successor has not yet resumed). `None` when process
    /// workers are disabled. `/readyz` reports a degraded reason while
    /// this is non-zero.
    pub fn warden_recovering(&self) -> Option<usize> {
        self.warden.as_ref().map(|w| w.recovering())
    }

    /// The process-worker supervisor, when `--process-workers` is on.
    pub fn warden(&self) -> Option<&Arc<Warden>> {
        self.warden.as_ref()
    }

    /// Worker threads still running. Anything below the configured
    /// count means a worker died outside the panic isolation (a bug);
    /// the `/readyz` endpoint reports not-ready at zero.
    pub(crate) fn workers_alive(&self) -> usize {
        lock(&self.workers)
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// Submit one raw request line, replying into a channel. Equivalent
    /// to `Server::submit` with `ResponseSink::from_channel`.
    pub fn submit_line(&self, line: &str, fallback_id: u64, reply: &Sender<Response>) {
        self.submit(line, fallback_id, &ResponseSink::from_channel(reply));
    }

    /// Submit one raw request line. Exactly one [`Response`] will be
    /// delivered through `reply` for it — immediately for parse errors,
    /// quota refusals, and load sheds; from a worker otherwise. Blank
    /// lines are the caller's to skip.
    pub(crate) fn submit(&self, line: &str, fallback_id: u64, reply: &ResponseSink) {
        let req = match parse_request(line, fallback_id) {
            Ok(req) => req,
            Err(message) => {
                reply.send(Response {
                    id: fallback_id,
                    trace: TraceId::mint(),
                    attempts: 0,
                    queue_ms: 0.0,
                    run_ms: 0.0,
                    retry_after_ms: None,
                    result: JobResult::Error { message },
                });
                return;
            }
        };
        // Ingress is where the trace context is fixed for the job's
        // whole life: adopt the caller's id or mint one, then tag even
        // the admission-path events with it.
        let trace = req.trace.unwrap_or_else(TraceId::mint);
        let _trace_scope = zenesis_obs::trace_guard(Some(trace));
        let lane = req.effective_lane();
        // Tenant quota check precedes the queue: a hog's requests are
        // refused before they can occupy shared queue slots.
        if let Err(quota) = self.admission.admit(req.tenant.as_deref()) {
            if zenesis_obs::enabled() {
                events::emit(Event::TenantRejected {
                    id: req.id,
                    tenant: quota.tenant.clone(),
                    limit: quota.limit,
                });
                zenesis_obs::counter("serve.tenant.busy").inc();
            }
            reply.send(Response {
                id: req.id,
                trace,
                attempts: 0,
                queue_ms: 0.0,
                run_ms: 0.0,
                retry_after_ms: Some(retry_after_hint_ms(
                    self.config.retry_base_ms,
                    self.queue.len(),
                )),
                result: JobResult::Busy {
                    message: format!(
                        "tenant {:?} quota exceeded ({} outstanding jobs); resubmit later",
                        quota.tenant, quota.limit
                    ),
                    capacity: quota.limit,
                },
            });
            return;
        }
        let now = Instant::now();
        let deadline = req
            .deadline_ms
            .or(self.config.default_deadline_ms)
            .map(|ms| now + Duration::from_millis(ms));
        let job = QueuedJob {
            id: req.id,
            trace,
            tenant: req.tenant,
            spec: req.spec,
            deadline,
            submitted: now,
            reply: reply.clone(),
        };
        match self.queue.try_push(job, lane) {
            Ok(depths) => {
                if zenesis_obs::enabled() {
                    events::emit(Event::JobQueued {
                        id: req.id,
                        depth: depths.total(),
                    });
                    zenesis_obs::counter(match lane {
                        Lane::Interactive => "serve.lane.interactive.queued",
                        Lane::Batch => "serve.lane.batch.queued",
                    })
                    .inc();
                    set_depth_gauges(depths);
                }
            }
            Err(PushError::Full(job)) => {
                self.admission.release(job.tenant.as_deref());
                let capacity = self.queue.capacity();
                if zenesis_obs::enabled() {
                    events::emit(Event::JobRejected {
                        id: job.id,
                        capacity,
                    });
                    zenesis_obs::counter("serve.job.busy").inc();
                }
                job.reply.send(Response {
                    id: job.id,
                    trace,
                    attempts: 0,
                    queue_ms: 0.0,
                    run_ms: 0.0,
                    // The queue is full, so "jobs ahead" is its whole
                    // capacity.
                    retry_after_ms: Some(retry_after_hint_ms(self.config.retry_base_ms, capacity)),
                    result: JobResult::Busy {
                        message: format!("queue full ({capacity} jobs); resubmit later"),
                        capacity,
                    },
                });
            }
            Err(PushError::Closed(job)) => {
                // A shutdown refusal keeps `status: "busy"` on the wire
                // for compatibility, but says so: resubmitting to this
                // instance is futile — it is draining, not overloaded.
                self.admission.release(job.tenant.as_deref());
                let capacity = self.queue.capacity();
                if zenesis_obs::enabled() {
                    events::emit(Event::JobClosed { id: job.id });
                    zenesis_obs::counter("serve.job.closed").inc();
                }
                job.reply.send(Response {
                    id: job.id,
                    trace,
                    attempts: 0,
                    queue_ms: 0.0,
                    run_ms: 0.0,
                    // No hint: retrying against a draining instance is
                    // futile, however long the client waits.
                    retry_after_ms: None,
                    result: JobResult::Busy {
                        message: "service shutting down; submit to another instance".to_string(),
                        capacity,
                    },
                });
            }
        }
    }

    /// Graceful shutdown: stop admissions, let workers drain every
    /// accepted job (each still gets its response), then join them.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Publish queue-depth gauges from one push/pop transition's depths.
fn set_depth_gauges(depths: QueueDepths) {
    zenesis_obs::gauge("serve.queue_depth").set(depths.total() as i64);
    zenesis_obs::gauge("serve.lane.interactive.depth").set(depths.interactive as i64);
    zenesis_obs::gauge("serve.lane.batch.depth").set(depths.batch as i64);
}

/// Capped exponential backoff: `base_ms · 2^step`, clamped to `cap_ms`.
/// Saturating, so no `step` can overflow the shift (a shift of 64 or
/// more panics in debug builds and wraps in release). Retry `n` waits
/// `backoff_ms(retry_base_ms, n - 1, MAX_RETRY_BACKOFF_MS)`; a restart
/// after `k` consecutive no-progress crashes waits
/// `backoff_ms(50, k, 2_000)`.
fn backoff_ms(base_ms: u64, step: u32, cap_ms: u64) -> u64 {
    base_ms
        .saturating_mul(1u64.checked_shl(step).unwrap_or(u64::MAX))
        .min(cap_ms)
}

/// `retry_after_ms` hint for `busy` and `timeout` responses: scale the
/// configured retry base by the jobs ahead of a resubmission (queue
/// depth at response time), clamped to the same ceiling the server's
/// own retry backoff honors. A deep queue pushes the hint out; an idle
/// server invites a near-immediate retry. Purely advisory — the server
/// never rejects an early resubmission on its account.
fn retry_after_hint_ms(base_ms: u64, depth: usize) -> u64 {
    base_ms
        .max(1)
        .saturating_mul(depth as u64 + 1)
        .min(MAX_RETRY_BACKOFF_MS)
}

fn worker_loop(
    queue: &BoundedQueue<QueuedJob>,
    runner: &JobRunner,
    cfg: &ServeConfig,
    admission: &Admission,
    warden: Option<&Warden>,
) {
    while let Some((job, depths)) = queue.pop() {
        // Re-install the job's trace on this worker thread: every span
        // and event below (including the retry/panic bookkeeping here)
        // carries the id minted or adopted at ingress. The token carries
        // it too, so the pipeline can re-install it on threads the
        // worker hands work to.
        let _trace_scope = zenesis_obs::trace_guard(Some(job.trace));
        let obs = zenesis_obs::enabled();
        if obs {
            // The depths returned by this pop — not a racy re-read.
            set_depth_gauges(depths);
        }
        let queue_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
        if obs {
            zenesis_obs::record_ms("serve.queue_wait.lat", queue_ms);
        }
        let cancel = match job.deadline {
            Some(at) => CancelToken::with_deadline_at(at),
            None => CancelToken::new(),
        };
        cancel.set_trace(job.trace.as_u64());
        // Flight trigger 3 is "faults fired during this job": snapshot
        // the injection counter so the delta is per-job. Only paid when
        // a flight directory is configured.
        let faults_before = cfg
            .flight_dir
            .is_some()
            .then(|| zenesis_obs::counter("fault.injected").get());
        let run_started = Instant::now();
        // A batch job that checkpoints holds its directory's lease for
        // the whole job — every retry and every process-worker restart —
        // so no other job, here or in another process, resumes the same
        // journal meanwhile.
        let lease = lease_checkpoint(&job.spec);
        let (result, attempts, panicked) = match &lease {
            Err(refused) => (refused.clone(), 0, false),
            Ok(_) => run_attempts(job.id, &job.spec, runner, cfg, &cancel, warden),
        };
        // Released before the response goes out, so a client that
        // resubmits on seeing it finds the directory free.
        drop(lease);
        let run_ms = run_started.elapsed().as_secs_f64() * 1e3;
        if obs {
            zenesis_obs::record_ms("serve.job.lat", run_ms);
            match &result {
                JobResult::Timeout { .. } => {
                    events::emit(Event::JobTimeout {
                        id: job.id,
                        dur_ms: queue_ms + run_ms,
                    });
                    zenesis_obs::counter("serve.job.timeout").inc();
                }
                JobResult::Error { .. } => {
                    zenesis_obs::counter("serve.job.error").inc();
                }
                _ => {
                    zenesis_obs::counter("serve.job.ok").inc();
                }
            }
        }
        if let Some(dir) = cfg.flight_dir.as_deref() {
            let faults_fired = zenesis_obs::counter("fault.injected")
                .get()
                .saturating_sub(faults_before.unwrap_or(0));
            // `panicked` is final, not transient: a panic ends the
            // attempt loop immediately (panics are never retried), so it
            // can only be true when `result` is the panic error.
            let reason = if panicked {
                Some("panic")
            } else if matches!(
                &result,
                JobResult::Error { message }
                    if zenesis_core::temporal::VolumeError::message_is_too_many_failures(message)
            ) {
                Some("too_many_failures")
            } else if faults_fired > 0 {
                Some("fault_injected")
            } else {
                None
            };
            if let Some(reason) = reason {
                dump_flight(dir, reason, job.trace);
            }
        }
        // The tenant's slot is held until its response is on the way:
        // outstanding = queued + running, so a tenant cannot use a slow
        // job to overlap more work than its quota.
        admission.release(job.tenant.as_deref());
        // Timeouts carry a retry hint sized to the backlog at response
        // time: the client's resubmission lands behind whatever is
        // queued right now.
        let retry_after_ms = matches!(&result, JobResult::Timeout { .. })
            .then(|| retry_after_hint_ms(cfg.retry_base_ms, queue.len()));
        job.reply.send(Response {
            id: job.id,
            trace: job.trace,
            attempts,
            queue_ms,
            run_ms,
            retry_after_ms,
            result,
        });
    }
}

/// The one attempt loop, for both isolation models. Returns the job's
/// result, the attempts made (the first run, plus every retry and
/// every crash restart; 0 when the poison breaker refused the spec),
/// and whether the job panicked (the flight recorder's `panic`
/// trigger).
fn run_attempts(
    id: u64,
    spec: &JobSpec,
    runner: &JobRunner,
    cfg: &ServeConfig,
    cancel: &CancelToken,
    warden: Option<&Warden>,
) -> (JobResult, u32, bool) {
    let obs = zenesis_obs::enabled();
    // Batch volume jobs run in the warden's worker children when
    // process isolation is on; everything else runs on this thread.
    let mut watch = match warden
        .filter(|_| warden::eligible(spec))
        .map(|w| w.watch(spec))
    {
        Some(Err(quarantined)) => return (quarantined, 0, false),
        Some(Ok(watch)) => Some(watch),
        None => None,
    };
    // Set by the first crash: the successor must replay the journal.
    // The only clone of the spec a job can cost.
    let mut resumed: Option<JobSpec> = None;
    let mut attempts = 0u32;
    let mut retries = 0u32;
    loop {
        attempts += 1;
        let attempt_spec = resumed.as_ref().unwrap_or(spec);
        let outcome = match watch.as_mut() {
            Some(watch) => watch.run(id, attempt_spec, cancel, attempts),
            None => match catch_unwind(AssertUnwindSafe(|| runner(attempt_spec, cancel))) {
                Ok(result) => Outcome::Finished(result),
                Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
            },
        };
        let (delay_ms, waiting_for) = match outcome {
            Outcome::Finished(result) => {
                let transient = matches!(&result,
                    JobResult::Error { message } if message_is_transient_input(message));
                if !transient || retries >= cfg.max_retries || cancel.is_cancelled() {
                    return (result, attempts, false);
                }
                let delay_ms = backoff_ms(cfg.retry_base_ms, retries, MAX_RETRY_BACKOFF_MS);
                retries += 1;
                if obs {
                    events::emit(Event::JobRetry {
                        id,
                        attempt: retries,
                        delay_ms,
                    });
                    zenesis_obs::counter("serve.job.retry").inc();
                }
                (delay_ms, "retry backoff")
            }
            Outcome::Panicked(payload) => {
                let message = format!("job panicked: {payload}");
                if obs {
                    events::emit(Event::JobPanic {
                        id,
                        message: payload,
                    });
                    zenesis_obs::counter("serve.job.panic").inc();
                }
                return (JobResult::Error { message }, attempts, true);
            }
            Outcome::Crashed { pid, reason } => {
                let watch = watch.as_mut().expect("only worker children crash");
                let no_progress_crashes = match watch.crashed(id, pid, reason) {
                    Ok(n) => n,
                    Err(quarantined) => return (quarantined, attempts, false),
                };
                // 50 ms, doubled per consecutive crash that grew no
                // journal, at most 2 s.
                let delay_ms = backoff_ms(50, no_progress_crashes, 2_000);
                if obs {
                    zenesis_obs::counter("warden.restart").inc();
                    events::emit(Event::WardenRestart {
                        id,
                        attempt: attempts + 1,
                        delay_ms,
                    });
                }
                resumed.get_or_insert_with(|| {
                    let mut spec = spec.clone();
                    warden::force_resume(&mut spec);
                    spec
                });
                (delay_ms, "worker crash recovery")
            }
        };
        let left = cancel.remaining().unwrap_or(Duration::MAX);
        std::thread::sleep(Duration::from_millis(delay_ms).min(left));
        if cancel.is_cancelled() {
            let message = format!("job deadline exceeded during {waiting_for}");
            return (
                JobResult::Timeout {
                    message,
                    completed: 0,
                    total: 0,
                },
                attempts,
                false,
            );
        }
    }
}

/// Lease the checkpoint directory of a batch job that names one: `Ok(None)`
/// for jobs that do not checkpoint, `Err` holding the job's refusal when
/// another job in this process, or another live process, holds it.
fn lease_checkpoint(spec: &JobSpec) -> Result<Option<Lease>, JobResult> {
    let Some(dir) = warden::checkpoint_dir(spec) else {
        return Ok(None);
    };
    Lease::acquire(&dir, warden::spec_fingerprint(spec))
        .map(Some)
        .map_err(|e| JobResult::Error {
            message: match e {
                LeaseError::Held { pid } => format!(
                    "checkpoint dir is leased by live process {pid}; refusing to double-resume"
                ),
                LeaseError::Io(e) => format!("cannot lease checkpoint dir: {e}"),
            },
        })
}

/// Write the newest spans and events ([`zenesis_obs::flight`]) to
/// `<dir>/flight-<unix-secs>-<trace>.json` (atomically: temp file +
/// rename). Failures are reported to stderr but
/// never disturb the job's response — the flight recorder is best-effort
/// forensics, not part of the serving contract.
fn dump_flight(dir: &str, reason: &str, trace: TraceId) {
    let json = zenesis_obs::flight::dump_json(reason, Some(trace));
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let path = std::path::Path::new(dir).join(format!("flight-{ts}-{}.json", trace.to_hex()));
    match zenesis_obs::output::write_atomic(&path, json) {
        Ok(()) => {
            zenesis_obs::counter("serve.flight.dump").inc();
            eprintln!("flight recording written to {}", path.display());
        }
        Err(e) => eprintln!("failed to write flight recording {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Retries and restarts share one backoff. No step overflows it: a
    /// plain `base << step` panics in debug builds (wraps in release)
    /// once the step reaches 64.
    #[test]
    fn backoff_doubles_per_step_caps_and_never_overflows() {
        const RETRY_CAP: u64 = MAX_RETRY_BACKOFF_MS;
        // Retry n waits base·2^(n−1), clamped at 10 s.
        assert_eq!(backoff_ms(25, 0, RETRY_CAP), 25);
        assert_eq!(backoff_ms(25, 1, RETRY_CAP), 50);
        assert_eq!(backoff_ms(25, 2, RETRY_CAP), 100);
        assert_eq!(backoff_ms(25, 9, RETRY_CAP), RETRY_CAP);
        // A restart after k no-progress crashes waits 50·2^k, at most 2 s.
        assert_eq!(backoff_ms(50, 0, 2_000), 50);
        assert_eq!(backoff_ms(50, 1, 2_000), 100);
        assert_eq!(backoff_ms(50, 2, 2_000), 200);
        assert_eq!(backoff_ms(50, 5, 2_000), 1_600);
        assert_eq!(backoff_ms(50, 6, 2_000), 2_000);
        for step in [10, 63, 64, 65, 100, u32::MAX] {
            assert_eq!(backoff_ms(50, step, 2_000), 2_000);
            assert_eq!(backoff_ms(25, step, RETRY_CAP), RETRY_CAP);
            assert_eq!(backoff_ms(0, step, RETRY_CAP), 0);
        }
        // A huge base saturates instead of wrapping.
        assert_eq!(backoff_ms(u64::MAX, 32, RETRY_CAP), RETRY_CAP);
    }

    #[test]
    fn retry_hint_scales_with_depth_and_clamps() {
        // Idle server: the hint is one base interval.
        assert_eq!(retry_after_hint_ms(25, 0), 25);
        // Each queued job ahead pushes the hint out by one base.
        assert_eq!(retry_after_hint_ms(25, 3), 100);
        // A zero base still yields a non-zero, meaningful hint.
        assert_eq!(retry_after_hint_ms(0, 4), 5);
        // Deep backlogs clamp to the retry-backoff ceiling.
        assert_eq!(retry_after_hint_ms(25, 100_000), MAX_RETRY_BACKOFF_MS);
        assert_eq!(retry_after_hint_ms(u64::MAX, 7), MAX_RETRY_BACKOFF_MS);
    }
}
