//! The four served workloads: what each sends, and what is measured.
//!
//! Each workload is a traffic mix that puts a different part of the system
//! on the blocking path (README.md says why each exists). The seed picks
//! phantom seeds, session order and prompt order; the server receives
//! nothing but the generated requests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zenesis_core::job::{InputSpec, JobSpec, PhantomKind};
use zenesis_data::SampleKind;

use crate::fixtures::{self, Fixtures, Need};
use crate::loadgen::{drive, process_cpu_seconds, Conn, Drive, Pace, Record};
use crate::server::Server;
use crate::stats::{median, percentile, sorted, tail};
use crate::verify::{self, JobPaths};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InteractiveOpen,
    BatchStream,
    MixedTenants,
    ControlPlane,
}

pub const ALL: [Workload; 4] = [
    Workload::InteractiveOpen,
    Workload::BatchStream,
    Workload::MixedTenants,
    Workload::ControlPlane,
];

/// Prompts a session cycles through, per sample kind.
const PROMPTS: [[&str; 3]; 2] = [
    [
        "catalyst particles",
        "bright catalyst particles",
        "bright particles",
    ],
    [
        "needle-like crystalline catalyst",
        "crystalline needles",
        "needle-like crystals",
    ],
];
const PROMPTS_PER_SLICE: usize = 3;

/// `control_plane` jobs: distinct seeds of a 16x16 phantom.
const TINY_SEEDS: usize = 16;
pub const TINY_SIDE: usize = 16;

/// Open-loop rates, requests per second.
const RATE_BASE: f64 = 20.0;
const RATE_STEP: f64 = 30.0;
const RATE_UI: f64 = 10.0;
/// Requests each `control_plane` connection keeps in flight.
const CONTROL_IN_FLIGHT: usize = 8;
/// Connections every workload opens, each driven by its own thread.
const CONNECTIONS: usize = 2;

fn prompts(kind: SampleKind) -> &'static [&'static str; 3] {
    match kind {
        SampleKind::Amorphous => &PROMPTS[0],
        SampleKind::Crystalline => &PROMPTS[1],
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::InteractiveOpen => "interactive_open",
            Workload::BatchStream => "batch_stream",
            Workload::MixedTenants => "mixed_tenants",
            Workload::ControlPlane => "control_plane",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn need(self) -> Need {
        match self {
            Workload::InteractiveOpen => Need {
                slices: true,
                stacks: false,
            },
            Workload::BatchStream => Need {
                slices: false,
                stacks: true,
            },
            Workload::MixedTenants => Need {
                slices: true,
                stacks: true,
            },
            Workload::ControlPlane => Need {
                slices: false,
                stacks: false,
            },
        }
    }
}

/// The distinct jobs of a workload. A request's `key` indexes `specs`; the
/// reference answer of `specs[key]` is what the response must equal.
pub struct Catalog {
    pub specs: Vec<JobSpec>,
    json: Vec<String>,
    /// Key of the first batch job (one per stack).
    first_stack_key: usize,
}

impl Catalog {
    pub fn new(workload: Workload, fx: &Fixtures) -> Catalog {
        let mut specs = Vec::new();
        for s in &fx.slices {
            for prompt in prompts(s.kind) {
                specs.push(JobSpec::Interactive {
                    input: InputSpec::TiffFile {
                        path: s.path.clone(),
                    },
                    prompt: prompt.to_string(),
                    config: None,
                });
            }
        }
        let first_stack_key = specs.len();
        for s in &fx.stacks {
            specs.push(batch_spec(&s.path, prompts(s.kind)[0], None));
        }
        if workload == Workload::ControlPlane {
            for seed in 0..TINY_SEEDS {
                specs.push(JobSpec::Interactive {
                    input: InputSpec::PhantomSlice {
                        kind: PhantomKind::Amorphous,
                        seed: seed as u64 + 1,
                        side: TINY_SIDE,
                    },
                    prompt: "particles".into(),
                    config: None,
                });
            }
        }
        let json = specs
            .iter()
            .map(|s| serde_json::to_string(s).expect("job specs serialize"))
            .collect();
        Catalog {
            specs,
            json,
            first_stack_key,
        }
    }
}

fn batch_spec(stack: &str, prompt: &str, paths: Option<&JobPaths>) -> JobSpec {
    JobSpec::Batch {
        input: InputSpec::TiffVolumeFile {
            path: stack.to_string(),
        },
        prompt: prompt.to_string(),
        config: None,
        checkpoint_dir: paths.map(|p| p.checkpoint_dir.to_string_lossy().into_owned()),
        // A reused directory would replay the journal and do no work; each
        // job gets a fresh one, so `resume` never finds anything.
        resume: true,
        masks_out: paths.map(|p| p.masks_out.to_string_lossy().into_owned()),
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Mode A re-prompting: sessions of three consecutive prompts on one
/// slice, slices in seeded shuffled order, prompt order shuffled per
/// session. Two of every three requests share their slice (and so the
/// adapt and SAM-encode work) with their predecessor.
struct Sessions {
    rng: StdRng,
    order: Vec<usize>,
    at: usize,
    prompt_order: [usize; PROMPTS_PER_SLICE],
    step: usize,
}

impl Sessions {
    fn new(slices: usize, seed: u64) -> Sessions {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..slices).collect();
        shuffle(&mut order, &mut rng);
        Sessions {
            rng,
            order,
            at: 0,
            prompt_order: [0, 1, 2],
            step: PROMPTS_PER_SLICE,
        }
    }

    fn next_key(&mut self) -> usize {
        if self.step == PROMPTS_PER_SLICE {
            self.step = 0;
            shuffle(&mut self.prompt_order, &mut self.rng);
            if self.at == self.order.len() {
                self.at = 0;
                shuffle(&mut self.order, &mut self.rng);
            }
            self.at += 1;
        }
        let key = self.order[self.at - 1] * PROMPTS_PER_SLICE + self.prompt_order[self.step];
        self.step += 1;
        key
    }
}

/// One request per call, every one on a different slice than the last
/// eight and with one prompt: no work shared between requests, the bypass
/// case for any cross-request cache.
struct DistinctSlices {
    order: Vec<usize>,
    at: usize,
}

impl DistinctSlices {
    fn new(slices: usize, seed: u64) -> DistinctSlices {
        let mut order: Vec<usize> = (0..slices).collect();
        shuffle(&mut order, &mut StdRng::seed_from_u64(seed));
        DistinctSlices { order, at: 0 }
    }

    fn next_key(&mut self) -> usize {
        let key = self.order[self.at % self.order.len()] * PROMPTS_PER_SLICE;
        self.at += 1;
        key
    }
}

/// Back-to-back batch jobs alternating the stacks, each with a fresh
/// checkpoint directory and mask file under `dir`.
struct BatchJobs<'a> {
    fx: &'a Fixtures,
    first_key: usize,
    dir: PathBuf,
    tag: &'a str,
    issued: Vec<JobPaths>,
}

impl<'a> BatchJobs<'a> {
    fn new(fx: &'a Fixtures, catalog: &Catalog, dir: &Path, tag: &'a str) -> BatchJobs<'a> {
        BatchJobs {
            fx,
            first_key: catalog.first_stack_key,
            dir: dir.to_path_buf(),
            tag,
            issued: Vec::new(),
        }
    }

    fn next(&mut self) -> (usize, String) {
        let n = self.issued.len();
        let which = n % self.fx.stacks.len();
        let stack = &self.fx.stacks[which];
        let paths = JobPaths {
            checkpoint_dir: self.dir.join(format!("{}-{n}-ckpt", self.tag)),
            masks_out: self.dir.join(format!("{}-{n}-masks.tif", self.tag)),
        };
        let spec = batch_spec(&stack.path, prompts(stack.kind)[0], Some(&paths));
        self.issued.push(paths);
        (
            self.first_key + which,
            serde_json::to_string(&spec).expect("job specs serialize"),
        )
    }
}

/// Where a run keeps its files, and what it was started with.
pub struct Ctx {
    pub seed: u64,
    /// This run's own directory; removed when the run ends.
    pub run_dir: PathBuf,
    /// Where server logs and traces are kept.
    pub out_dir: PathBuf,
    pub server_bin: PathBuf,
}

/// A workload whose fixtures exist, whose server is up and warm, and whose
/// connections are open.
pub struct Ready {
    pub workload: Workload,
    pub fx: Fixtures,
    pub catalog: Catalog,
    pub server: Server,
    pub conns: Vec<Conn>,
    pub setup: SetupTimes,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Everything before the first timed request, s.
    pub total_s: f64,
    pub fixture_gen_s: f64,
    pub spawn_ready_ms: f64,
}

/// Generate the fixtures, start the server, wait until it answers, open
/// the connections and send the workload's warm-up traffic.
///
/// The warm-up is a fixed number of the workload's own requests rather
/// than a fixed time, so that set-up time moves when the server's cold
/// path does.
pub fn set_up(workload: Workload, ctx: &Ctx) -> Result<Ready, String> {
    // At most one load-generator thread and connection per core: with
    // fewer cores the generator would be measuring itself.
    let nproc = zenesis_par::available_parallelism();
    if CONNECTIONS > nproc {
        return Err(format!(
            "the load generator needs {CONNECTIONS} cores, this host has {nproc}"
        ));
    }
    let started = Instant::now();
    let fx = fixtures::generate(
        &ctx.run_dir.join("fixtures"),
        ctx.seed,
        &fixtures::SHAPE,
        workload.need(),
    )?;
    let fixture_gen_s = started.elapsed().as_secs_f64();
    let catalog = Catalog::new(workload, &fx);
    let log = ctx.out_dir.join(format!("server-{}.log", workload.name()));
    let server = Server::spawn(&ctx.server_bin, &[], &log)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(server.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot connect to the server: {e}"))?;
    warm_up(workload, &fx, &catalog, &mut conns, &ctx.run_dir)?;
    let setup = SetupTimes {
        total_s: started.elapsed().as_secs_f64(),
        fixture_gen_s,
        spawn_ready_ms: server.spawn_ready_ms,
    };
    Ok(Ready {
        workload,
        fx,
        catalog,
        server,
        conns,
        setup,
    })
}

/// The workload's two connections.
fn pair(conns: &mut [Conn]) -> (&mut Conn, &mut Conn) {
    let (a, b) = conns.split_at_mut(1);
    (&mut a[0], &mut b[0])
}

fn far() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

fn closed(in_flight: usize, deadline: Instant, limit: usize) -> Drive<'static> {
    Drive {
        pace: Pace::Closed { in_flight },
        deadline,
        stop: None,
        whole_jobs: false,
        limit,
        tenant: None,
    }
}

fn all_answered(records: &[Record], what: &str) -> Result<(), String> {
    match records
        .iter()
        .find(|r| r.reply.as_ref().is_none_or(|p| p.status != "ok"))
    {
        None => Ok(()),
        Some(r) => Err(format!(
            "{what}: a request was answered {:?}",
            r.reply.as_ref().map(|p| p.status.as_str())
        )),
    }
}

fn warm_up(
    workload: Workload,
    fx: &Fixtures,
    catalog: &Catalog,
    conns: &mut [Conn],
    run_dir: &Path,
) -> Result<(), String> {
    let (a, b) = pair(conns);
    // Every warm-up answer is awaited before `drive` returns, so the timed
    // stretches can number their requests from 0 again.
    match workload {
        Workload::InteractiveOpen => {
            // Every pool slice once: the page cache holds all 24 files.
            let mut key = 0;
            let records = drive(a, &closed(1, far(), fx.slices.len()), &mut 0, &mut || {
                key += PROMPTS_PER_SLICE;
                (
                    key - PROMPTS_PER_SLICE,
                    catalog.json[key - PROMPTS_PER_SLICE].clone(),
                )
            })?;
            all_answered(&records, "warm-up")
        }
        Workload::BatchStream | Workload::MixedTenants => {
            let mut jobs = BatchJobs::new(fx, catalog, run_dir, "warm");
            let mut key = 0;
            let result = std::thread::scope(|s| {
                let sweep = s.spawn(|| drive(a, &closed(1, far(), 1), &mut 0, &mut || jobs.next()));
                let ui = if workload == Workload::MixedTenants {
                    drive(
                        b,
                        &closed(1, far(), fx.slices.len() / 2),
                        &mut 0,
                        &mut || {
                            key += PROMPTS_PER_SLICE;
                            (0, catalog.json[key - PROMPTS_PER_SLICE].clone())
                        },
                    )?
                } else {
                    Vec::new()
                };
                let mut records = sweep.join().expect("warm-up thread panicked")?;
                records.extend(ui);
                all_answered(&records, "warm-up")
            });
            jobs.issued.iter().for_each(verify::remove_job_files);
            result
        }
        Workload::ControlPlane => {
            let tiny = |conn: &mut Conn| {
                let mut n = 0;
                drive(
                    conn,
                    &closed(CONTROL_IN_FLIGHT, far(), 128),
                    &mut 0,
                    &mut || {
                        n += 1;
                        (0, catalog.json[n % TINY_SEEDS].clone())
                    },
                )
            };
            std::thread::scope(|s| {
                let other = s.spawn(|| tiny(b));
                let mut records = tiny(a)?;
                records.extend(other.join().expect("warm-up thread panicked")?);
                all_answered(&records, "warm-up")
            })
        }
    }
}

/// One set of requests measured together.
pub struct Group {
    pub label: &'static str,
    pub records: Vec<Record>,
    /// Batch jobs only: where each record's job wrote, in record order.
    pub jobs: Vec<JobPaths>,
}

/// What the timed part of a run produced.
pub struct Measured {
    pub groups: Vec<Group>,
    /// Load-generator CPU seconds per second of wall time.
    pub cpu_share: f64,
    pub server_peak_rss_mb: f64,
}

impl Measured {
    pub fn group(&self, label: &str) -> &Group {
        self.groups
            .iter()
            .find(|g| g.label == label)
            .expect("the workload produced this group")
    }
}

/// Send the workload's timed traffic for `seconds`.
pub fn run(ready: &mut Ready, ctx: &Ctx, seconds: f64) -> Result<Measured, String> {
    let cpu0 = process_cpu_seconds();
    let wall0 = Instant::now();
    let groups = match ready.workload {
        Workload::InteractiveOpen => run_interactive_open(ready, ctx, seconds),
        Workload::BatchStream => run_batch_stream(ready, ctx, seconds),
        Workload::MixedTenants => run_mixed_tenants(ready, ctx, seconds),
        Workload::ControlPlane => run_control_plane(ready, seconds),
    }?;
    let cpu_share = (process_cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    Ok(Measured {
        groups,
        cpu_share,
        // Read while the server is still up: the figure dies with it.
        server_peak_rss_mb: ready.server.peak_rss_mb(),
    })
}

fn after(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

fn group(label: &'static str, records: Vec<Record>) -> Group {
    Group {
        label,
        records,
        jobs: Vec::new(),
    }
}

/// Half of the run open loop at 20 req/s (ten seconds of it give the 200
/// samples a p95 needs), a quarter at 30 req/s, both on one connection;
/// then a quarter closed loop on two connections, one in flight each.
fn run_interactive_open(ready: &mut Ready, ctx: &Ctx, seconds: f64) -> Result<Vec<Group>, String> {
    let json = &ready.catalog.json;
    let slices = ready.fx.slices.len();
    let (a, b) = pair(&mut ready.conns);
    let mut sessions_a = Sessions::new(slices, ctx.seed ^ 0xA);
    let mut sessions_b = Sessions::new(slices, ctx.seed ^ 0xB);
    let mut source_a = || {
        let key = sessions_a.next_key();
        (key, json[key].clone())
    };
    let mut ids = 0u64;
    let open = |per_s: f64, window: f64| Drive {
        pace: Pace::Open { per_s },
        deadline: after(window),
        stop: None,
        whole_jobs: false,
        limit: usize::MAX,
        tenant: None,
    };
    let w_closed = seconds * 0.25;
    let r20 = drive(a, &open(RATE_BASE, seconds * 0.5), &mut ids, &mut source_a)?;
    let r30 = drive(a, &open(RATE_STEP, seconds * 0.25), &mut ids, &mut source_a)?;
    let barrier = Barrier::new(2);
    let mut both = std::thread::scope(|s| {
        let other = s.spawn(|| {
            barrier.wait();
            drive(
                b,
                &closed(1, after(w_closed), usize::MAX),
                &mut 0,
                &mut || {
                    let key = sessions_b.next_key();
                    (key, json[key].clone())
                },
            )
        });
        barrier.wait();
        let mut records = drive(
            a,
            &closed(1, after(w_closed), usize::MAX),
            &mut ids,
            &mut source_a,
        )?;
        records.extend(other.join().expect("load-generator thread panicked")?);
        Ok::<_, String>(records)
    })?;
    both.sort_by_key(|r| r.sent);
    Ok(vec![
        group("r20", r20),
        group("r30", r30),
        group("closed", both),
    ])
}

fn sweep<'a>(
    conn: &mut Conn,
    jobs: &mut BatchJobs<'a>,
    seconds: f64,
    tenant: Option<&'a str>,
) -> Result<Vec<Record>, String> {
    let cfg = Drive {
        pace: Pace::Closed { in_flight: 1 },
        deadline: after(seconds),
        stop: None,
        whole_jobs: true,
        limit: usize::MAX,
        tenant,
    };
    drive(conn, &cfg, &mut 0, &mut || jobs.next())
}

/// First send to last answer, s.
fn span_s(records: &[Record]) -> f64 {
    match (records.first(), records.iter().filter_map(|r| r.done).max()) {
        (Some(first), Some(last)) => last.duration_since(first.sent).as_secs_f64(),
        _ => 0.0,
    }
}

/// One connection, closed loop: back-to-back batch jobs.
fn run_batch_stream(ready: &mut Ready, ctx: &Ctx, seconds: f64) -> Result<Vec<Group>, String> {
    let mut jobs = BatchJobs::new(&ready.fx, &ready.catalog, &ctx.run_dir, "job");
    let records = sweep(&mut ready.conns[0], &mut jobs, seconds, None)?;
    Ok(vec![Group {
        jobs: jobs.issued,
        ..group("jobs", records)
    }])
}

/// Tenant `ui` sends interactive requests open loop at 10 req/s, each on a
/// different slice, while tenant `sweep` runs `batch_stream`'s loop. `ui`
/// stops with `sweep`, so every `ui` sample was taken under contention.
fn run_mixed_tenants(ready: &mut Ready, ctx: &Ctx, seconds: f64) -> Result<Vec<Group>, String> {
    let json = &ready.catalog.json;
    let mut distinct = DistinctSlices::new(ready.fx.slices.len(), ctx.seed ^ 0xC);
    let mut jobs = BatchJobs::new(&ready.fx, &ready.catalog, &ctx.run_dir, "sweep");
    let (a, b) = pair(&mut ready.conns);
    let sweep_done = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let (ui, swept) = std::thread::scope(|s| {
        let sweeper = s.spawn(|| {
            barrier.wait();
            let records = sweep(b, &mut jobs, seconds, Some("sweep"));
            sweep_done.store(true, Ordering::SeqCst);
            records
        });
        barrier.wait();
        let cfg = Drive {
            pace: Pace::Open { per_s: RATE_UI },
            deadline: after(seconds),
            stop: Some(&sweep_done),
            whole_jobs: false,
            limit: usize::MAX,
            tenant: Some("ui"),
        };
        let ui = drive(a, &cfg, &mut 0, &mut || {
            let key = distinct.next_key();
            (key, json[key].clone())
        });
        let swept = sweeper.join().expect("load-generator thread panicked")?;
        Ok::<_, String>((ui?, swept))
    })?;
    Ok(vec![
        group("ui", ui),
        Group {
            jobs: jobs.issued,
            ..group("sweep", swept)
        },
    ])
}

/// Two connections, eight 16x16 phantom jobs in flight on each.
fn run_control_plane(ready: &mut Ready, seconds: f64) -> Result<Vec<Group>, String> {
    let json = &ready.catalog.json;
    let first = ready.catalog.specs.len() - TINY_SEEDS;
    let (a, b) = pair(&mut ready.conns);
    let barrier = Barrier::new(2);
    let tiny = |conn: &mut Conn, offset: usize| {
        let mut n = offset;
        barrier.wait();
        drive(
            conn,
            &closed(CONTROL_IN_FLIGHT, after(seconds), usize::MAX),
            &mut 0,
            &mut || {
                n += 1;
                let key = first + n % TINY_SEEDS;
                (key, json[key].clone())
            },
        )
    };
    let mut records = std::thread::scope(|s| {
        let other = s.spawn(|| tiny(b, TINY_SEEDS / 2));
        let mut records = tiny(a, 0)?;
        records.extend(other.join().expect("load-generator thread panicked")?);
        Ok::<_, String>(records)
    })?;
    records.sort_by_key(|r| r.sent);
    Ok(vec![group("closed", records)])
}

/// Verify every answer of a finished run against the in-process
/// reference. Returns `(attempted, failed)`; the first few reasons go to
/// stderr.
pub fn verify_answers(ready: &Ready, measured: &Measured) -> (usize, usize) {
    let expected = verify::reference_answers(&ready.catalog.specs);
    let mut reasons = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for g in &measured.groups {
        attempted += g.records.len();
        failed += verify::count_failures(&g.records, &expected, &mut reasons);
        for (record, paths) in g.records.iter().zip(&g.jobs) {
            // A job already counted as failed is not counted twice.
            let answered_ok = record.reply.as_ref().is_some_and(|r| r.status == "ok");
            match verify::check_batch_artifacts(record, paths) {
                Err(why) if answered_ok => {
                    reasons.push(format!("batch job: {why}"));
                    failed += 1;
                }
                _ => {}
            }
        }
        // A job issued but cut off by an error has files and no record.
        g.jobs
            .iter()
            .skip(g.records.len())
            .for_each(verify::remove_job_files);
    }
    for why in reasons.iter().take(5) {
        eprintln!("[e2e] failed operation: {why}");
    }
    (attempted, failed)
}

/// Latency, wire, queue-wait and run-time samples of answered requests.
struct Samples {
    latency: Vec<f64>,
    wire: Vec<f64>,
    queue: Vec<f64>,
    run: Vec<f64>,
}

impl Samples {
    fn of(records: &[Record]) -> Samples {
        let mut s = Samples {
            latency: Vec::new(),
            wire: Vec::new(),
            queue: Vec::new(),
            run: Vec::new(),
        };
        for r in records {
            if let (Some(latency), Some(reply)) = (r.latency_ms(), &r.reply) {
                s.latency.push(latency);
                // What the client waited beyond the server's own account
                // of the job: mux read, parse, admission, serialize,
                // write, loopback, and generator lateness.
                s.wire.push(latency - reply.queue_ms - reply.run_ms);
                s.queue.push(reply.queue_ms);
                s.run.push(reply.run_ms);
            }
        }
        s
    }
}

/// Answered requests per second, from the group's first send to its last
/// answer.
fn completions_per_s(g: &Group) -> f64 {
    g.records.iter().filter(|r| r.done.is_some()).count() as f64 / span_s(&g.records)
}

/// Slices per second of whole batch jobs.
fn slices_per_s(g: &Group, depth: usize) -> f64 {
    depth as f64 * completions_per_s(g)
}

/// A send more than `LATE_LIMIT_MS` after it was due is late. A generator
/// that is late on more than `LATE_SHARE_LIMIT` of its sends, or uses more
/// than `CPU_SHARE_LIMIT` of a core, makes the run's numbers its own and
/// not the server's. (The latest single send is reported too, but on two
/// cores that two busy workers also want, one send in a hundred waits a
/// scheduler slice or two; latency is timed from the due time, so that
/// wait is charged to the request, not hidden.)
pub const LATE_LIMIT_MS: f64 = 5.0;
pub const LATE_SHARE_LIMIT: f64 = 0.05;
pub const CPU_SHARE_LIMIT: f64 = 0.5;

/// The end-to-end metrics of a run, and the per-layer metrics that the
/// client clock and the responses' `queue_ms`/`run_ms` give.
pub struct Summary {
    pub end_to_end: Vec<(&'static str, f64)>,
    pub served_layers: Vec<(&'static str, f64)>,
    /// The percentile `p95_ms` stands for on this sample (95 when the
    /// sample supports it).
    pub tail_pct: f64,
    pub primary_samples: usize,
    pub valid: bool,
}

pub fn summarize(ready: &Ready, m: &Measured, setup_s: f64) -> Summary {
    let depth = fixtures::SHAPE.depth;
    // The requests whose latency the workload is about, the same requests
    // at the raised rate where there is such a step, and the two rates.
    let (primary, step, req_per_s, slices) = match ready.workload {
        Workload::InteractiveOpen => {
            let c = completions_per_s(m.group("closed"));
            (m.group("r20"), m.group("r30"), c, c)
        }
        Workload::BatchStream => {
            let g = m.group("jobs");
            let s = slices_per_s(g, depth);
            (g, g, s / depth as f64, s)
        }
        Workload::MixedTenants => {
            let (ui, sw) = (m.group("ui"), m.group("sweep"));
            let s = slices_per_s(sw, depth);
            (ui, ui, completions_per_s(ui) + s / depth as f64, s)
        }
        Workload::ControlPlane => {
            let g = m.group("closed");
            let c = completions_per_s(g);
            (g, g, c, c)
        }
    };
    let p = Samples::of(&primary.records);
    let s = Samples::of(&step.records);
    let (tail_pct, p95) = tail(&p.latency, 95.0);
    let end_to_end = vec![
        ("setup_s", setup_s),
        ("p50_ms", median(&p.latency)),
        ("p95_ms", p95),
        ("peak_req_per_s", req_per_s),
        ("slices_per_s", slices),
        ("server_peak_rss_mb", m.server_peak_rss_mb),
    ];

    let all = || m.groups.iter().flat_map(|g| &g.records);
    let status = |name: &str| {
        all()
            .filter(|r| r.reply.as_ref().is_some_and(|p| p.status == name))
            .count() as f64
    };
    let late_max = all().map(Record::late_ms).fold(0.0, f64::max);
    let late_share =
        all().filter(|r| r.late_ms() > LATE_LIMIT_MS).count() as f64 / all().count().max(1) as f64;
    let valid = late_share <= LATE_SHARE_LIMIT && m.cpu_share <= CPU_SHARE_LIMIT;
    let served_layers = vec![
        ("serve.wire_p50_ms", median(&p.wire)),
        ("serve.wire_p95_ms", tail(&p.wire, 95.0).1),
        ("serve.p50_ms_r30", median(&s.latency)),
        ("serve.wire_p50_ms_r30", median(&s.wire)),
        ("serve.queue_wait_p50_ms", median(&p.queue)),
        ("serve.queue_wait_p95_ms", tail(&p.queue, 95.0).1),
        ("serve.run_p50_ms", median(&p.run)),
        ("serve.run_p95_ms", tail(&p.run, 95.0).1),
        ("serve.p99_ms", percentile(&sorted(&p.latency), 99.0)),
        ("serve.busy", status("busy")),
        ("serve.error", status("error")),
        ("serve.timeout", status("timeout")),
        ("loadgen.sent", all().count() as f64),
        ("loadgen.ok", status("ok")),
        ("loadgen.late_max_ms", late_max),
        ("loadgen.late_share", late_share),
        ("loadgen.cpu_share", m.cpu_share),
        ("loadgen.valid", if valid { 1.0 } else { 0.0 }),
    ];
    Summary {
        end_to_end,
        served_layers,
        tail_pct,
        primary_samples: p.latency.len(),
        valid,
    }
}

/// What the traced run replays in-process for a workload.
pub struct ReplayPlan {
    /// Interactive jobs to replay stage by stage (empty for
    /// `batch_stream`, which replays pages sampled from its stacks).
    pub slice_specs: Vec<JobSpec>,
    /// `(path, prompt)` of each stack the workload reads.
    pub stacks: Vec<(String, String)>,
    /// One of the workload's own request lines.
    pub line: String,
}

pub fn replay_plan(workload: Workload, fx: &Fixtures, catalog: &Catalog) -> ReplayPlan {
    let slice_specs = match workload {
        // Every slice once, the three prompts in rotation.
        Workload::InteractiveOpen => (0..fx.slices.len())
            .map(|i| catalog.specs[i * PROMPTS_PER_SLICE + i % PROMPTS_PER_SLICE].clone())
            .collect(),
        // Every slice once with the one prompt `ui` uses.
        Workload::MixedTenants => (0..fx.slices.len())
            .map(|i| catalog.specs[i * PROMPTS_PER_SLICE].clone())
            .collect(),
        Workload::BatchStream => Vec::new(),
        Workload::ControlPlane => catalog.specs.clone(),
    };
    let stacks = fx
        .stacks
        .iter()
        .map(|s| (s.path.clone(), prompts(s.kind)[0].to_string()))
        .collect();
    let first = if workload == Workload::BatchStream {
        catalog.first_stack_key
    } else {
        0
    };
    ReplayPlan {
        slice_specs,
        stacks,
        line: format!(r#"{{"id":1,"tenant":"ui","spec":{}}}"#, catalog.json[first]),
    }
}

/// `run_ms` of `count` batch jobs sent one after another to the server at
/// `addr` (a second server, started with other flags).
pub fn batch_run_ms(
    ready: &Ready,
    addr: std::net::SocketAddr,
    dir: &Path,
    count: usize,
) -> Result<Vec<f64>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("cannot connect to the server: {e}"))?;
    let mut jobs = BatchJobs::new(&ready.fx, &ready.catalog, dir, "isolated");
    let records = drive(&mut conn, &closed(1, far(), count), &mut 0, &mut || {
        jobs.next()
    });
    jobs.issued.iter().for_each(verify::remove_job_files);
    let records = records?;
    all_answered(&records, "process-worker jobs")?;
    Ok(records
        .iter()
        .filter_map(|r| r.reply.as_ref())
        .map(|r| r.run_ms)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_re_prompt_one_slice_three_times_then_move_on() {
        let mut s = Sessions::new(24, 9);
        let keys: Vec<usize> = (0..24 * 3 * 2).map(|_| s.next_key()).collect();
        for session in keys.chunks(3) {
            let slice = session[0] / 3;
            assert!(
                session.iter().all(|k| k / 3 == slice),
                "one slice per session"
            );
            let mut prompts: Vec<usize> = session.iter().map(|k| k % 3).collect();
            prompts.sort();
            assert_eq!(prompts, [0, 1, 2], "each prompt once per session");
        }
        // One pass over the pool touches every slice once.
        let mut first_pass: Vec<usize> = keys[..72].chunks(3).map(|c| c[0] / 3).collect();
        first_pass.sort();
        assert_eq!(first_pass, (0..24).collect::<Vec<_>>());
        // Same seed, same order; another seed, another order.
        let mut again = Sessions::new(24, 9);
        assert!(keys.iter().all(|&k| k == again.next_key()));
        let mut other = Sessions::new(24, 10);
        assert!(keys.iter().any(|&k| k != other.next_key()));
    }

    #[test]
    fn distinct_slices_never_repeat_within_the_embedding_cache_size() {
        let mut d = DistinctSlices::new(24, 5);
        let keys: Vec<usize> = (0..100).map(|_| d.next_key()).collect();
        for w in keys.windows(9) {
            assert!(
                !w[..8].contains(&w[8]),
                "a slice came back within 8 requests"
            );
        }
        assert!(keys.iter().all(|k| k % 3 == 0), "one prompt per slice");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
