//! `e2e` — the socket-to-mask benchmark (see README.md).
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is its JSON result
//! e2e [--seed N] [--seconds S]                           all four workloads, untraced then traced; writes report.json
//! e2e fixtures --seed N [--out DIR]                      write the 24 slices and 2 stacks
//! e2e manifest                                           print BENCHMARK.json
//! ```

mod fixtures;
mod loadgen;
mod metrics;
mod server;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{Layers, END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::{Ctx, Ready, Workload};

/// Times a run sets up; `setup_s` is their median. Set-up is short next to
/// the run and one slow start would otherwise move it.
const SETUPS_PER_RUN: usize = 3;

/// A directory under the build tree for a test's files.
#[cfg(test)]
fn test_scratch(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("a test has an executable");
    let dir = exe
        .parent()
        .expect("it sits in a directory")
        .join("e2e-test-scratch");
    std::fs::create_dir_all(&dir).expect("the build tree is writable");
    dir.join(format!("{}-{name}", std::process::id()))
}

/// Where the benchmark keeps its files: `e2e/` under the build tree.
fn out_dir() -> Result<PathBuf, String> {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = base.join("e2e");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // The server is handed these paths; it may run in another directory.
    dir.canonicalize()
        .map_err(|e| format!("cannot resolve {}: {e}", dir.display()))
}

/// This run's own directory, removed when the run ends however it ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create(out: &Path, workload: Workload, seed: u64) -> Result<RunDir, String> {
        let dir = out.join(format!(
            "run-{}-{seed}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one run reports.
struct RunResult {
    attempted: usize,
    failed: usize,
    /// `(name, value)` in catalogue order.
    metrics: Vec<(&'static str, f64)>,
    /// Lengths of the run's parts, s, for the report.
    phases: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// The contract's result line.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    metrics::unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self, workload: Workload, to_stderr: bool) {
        let mut text = format!(
            "{}: sent {} ok {} failed {} failed_share {}\n",
            workload.name(),
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, value) in &self.metrics {
            text.push_str(&format!(
                "  {name:<36} {value:>14.4} {}\n",
                metrics::unit_of(name)
            ));
        }
        if to_stderr {
            eprint!("{text}");
        } else {
            print!("{text}");
        }
    }
}

fn set_up_repeatedly(workload: Workload, ctx: &Ctx) -> Result<(Ready, f64), String> {
    let mut times = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS_PER_RUN {
        // The previous server is stopped before the next set-up starts.
        drop(ready.take());
        let r = workloads::set_up(workload, ctx)?;
        times.push(r.setup.total_s);
        ready = Some(r);
    }
    Ok((ready.expect("at least one set-up"), stats::median(&times)))
}

/// One untraced run: the end-to-end metrics.
fn run_untraced(workload: Workload, ctx: &Ctx, seconds: f64) -> Result<RunResult, String> {
    let t0 = std::time::Instant::now();
    let (mut ready, setup_s) = set_up_repeatedly(workload, ctx)?;
    let t1 = std::time::Instant::now();
    let measured = workloads::run(&mut ready, ctx, seconds)?;
    let t2 = std::time::Instant::now();
    let summary = workloads::summarize(&ready, &measured, setup_s);
    ready.conns.clear();
    let (attempted, failed) = workloads::verify_answers(&ready, &measured);
    if !summary.valid {
        eprintln!(
            "[e2e] INVALID RUN: over {} of sends were more than {} ms late, or the load generator used over {} of a core",
            workloads::LATE_SHARE_LIMIT,
            workloads::LATE_LIMIT_MS,
            workloads::CPU_SHARE_LIMIT
        );
    }
    eprintln!(
        "[e2e] {}: p95_ms is percentile {:.2} of {} samples",
        workload.name(),
        summary.tail_pct,
        summary.primary_samples
    );
    for (name, value) in &summary.served_layers {
        eprintln!("[e2e]   {name:<28} {value:.4} {}", metrics::unit_of(name));
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics: summary.end_to_end,
        phases: vec![
            ("setup_x3_s", (t1 - t0).as_secs_f64()),
            ("timed_s", (t2 - t1).as_secs_f64()),
            ("verify_s", t2.elapsed().as_secs_f64()),
        ],
    })
}

/// One traced run: a shorter stretch of the served traffic for the layers
/// the client clock sees, then the in-process replay for the rest.
fn run_traced(workload: Workload, ctx: &Ctx, seconds: f64) -> Result<RunResult, String> {
    let t0 = std::time::Instant::now();
    let mut layers = Layers::new();
    let mut ready = workloads::set_up(workload, ctx)?;
    let measured = workloads::run(&mut ready, ctx, (seconds * 0.4).max(2.0))?;
    let summary = workloads::summarize(&ready, &measured, ready.setup.total_s);
    for (name, value) in &summary.served_layers {
        layers.set(name, *value);
    }
    if workload == Workload::BatchStream {
        let overhead = process_worker_overhead_ms(&ready, ctx, layers.get("serve.run_p50_ms"))?;
        layers.set("serve.process_worker_overhead_ms", overhead);
    }
    let (attempted, failed) = workloads::verify_answers(&ready, &measured);
    // The server stops here: the replay wants both cores to itself, as the
    // server had them.
    let Ready {
        fx, catalog, setup, ..
    } = ready;
    layers.set(
        "loadgen.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );
    layers.set("serve.spawn_ready_ms", setup.spawn_ready_ms);
    layers.set("data.fixture_gen_s", setup.fixture_gen_s);
    let t1 = std::time::Instant::now();

    let tracer = trace::Tracer::new();
    let plan = workloads::replay_plan(workload, &fx, &catalog);
    trace::serve_layers(&plan.line, &mut layers)?;
    let mut slice_jobs = plan
        .slice_specs
        .iter()
        .map(trace::SliceJob::of_spec)
        .collect::<Result<Vec<_>, _>>()?;
    if !plan.stacks.is_empty() {
        let sampled = trace::volume_layers(&tracer, &plan.stacks, &ctx.run_dir, &mut layers)?;
        if slice_jobs.is_empty() {
            slice_jobs = sampled;
        }
    }
    trace::slice_layers(&tracer, &slice_jobs, &plan.slice_specs, &mut layers)?;
    if workload == Workload::ControlPlane {
        trace::tiny_job_layer(&plan.slice_specs, &mut layers);
    }
    let side = if workload == Workload::ControlPlane {
        workloads::TINY_SIDE
    } else {
        fixtures::SHAPE.side
    };
    layers.set("data.generate_slice_ms", trace::generate_slice_ms(side));

    // What the client waited that neither the wire, the queue nor the
    // in-process cost of the same job explains.
    let in_process = match workload {
        Workload::BatchStream => layers.get("core.run_job_volume_ms"),
        _ => tracer.median_ms("request"),
    };
    let p50 = summary
        .end_to_end
        .iter()
        .find(|(name, _)| *name == "p50_ms")
        .map_or(0.0, |(_, v)| *v);
    layers.set(
        "trace.e2e_residual_pct",
        (p50 - layers.get("serve.wire_p50_ms")
            - layers.get("serve.queue_wait_p50_ms")
            - in_process)
            / p50
            * 100.0,
    );
    let path = ctx.out_dir.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&path, tracer.to_json(workload.name(), ctx.seed))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[e2e] spans written to {}", path.display());
    Ok(RunResult {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|l| (l.name, layers.get(l.name)))
            .collect(),
        phases: vec![
            ("served_s", (t1 - t0).as_secs_f64()),
            ("replay_s", t1.elapsed().as_secs_f64()),
        ],
    })
}

/// What running a batch job in a supervised child process costs: the
/// median `run_ms` of three jobs on a second server started with
/// `--process-workers`, minus the in-process server's. (Three, not more:
/// each takes several seconds at the default heartbeat window, and the
/// figure barely varies.)
fn process_worker_overhead_ms(
    ready: &Ready,
    ctx: &Ctx,
    in_process_run_ms: f64,
) -> Result<f64, String> {
    let log = ctx.out_dir.join("server-process-workers.log");
    let server = server::Server::spawn(&ctx.server_bin, &["--process-workers"], &log)?;
    let run_ms = workloads::batch_run_ms(ready, server.addr, &ctx.run_dir, 3)?;
    drop(server);
    Ok(stats::median(&run_ms) - in_process_run_ms)
}

fn contract_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let out = out_dir()?;
    let run_dir = RunDir::create(&out, workload, seed)?;
    let ctx = Ctx {
        seed,
        run_dir: run_dir.0.clone(),
        out_dir: out,
        server_bin: server::locate_server_bin()?,
    };
    let result = if traced {
        run_traced(workload, &ctx, seconds)
    } else {
        run_untraced(workload, &ctx, seconds)
    }?;
    let left = server::children_of(std::process::id());
    if !left.is_empty() {
        return Err(format!("child processes {left:?} outlived the run"));
    }
    Ok(result)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run everything: the four workloads untraced, then traced. Prints every
/// metric by name and writes `report.json` with the host, the settings and
/// the numbers.
fn run_all(seed: u64, seconds: f64) -> Result<bool, String> {
    let out = out_dir()?;
    let quote = |s: &str| serde_json::to_string(&s).expect("strings serialize");
    let mut report = format!(
        "{{\n\"nproc\": {},\n\"cpu_model\": {},\n\"rustc\": {},\n\"git_commit\": {},\n\"seed\": {seed},\n\"run_seconds\": {seconds},\n\"server_flags\": [{}],\n",
        zenesis_par::available_parallelism(),
        quote(&cpu_model()),
        quote(&first_line_of("rustc", &["--version"])),
        quote(&first_line_of("git", &["rev-parse", "HEAD"])),
        server::SERVER_FLAGS.map(quote).join(", "),
    );
    report.push_str("\"bounds\": {");
    report.push_str(
        &END_TO_END
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.bound))
            .collect::<Vec<_>>()
            .join(", "),
    );
    report.push_str("},\n\"workloads\": {\n");
    let mut all_correct = true;
    for (i, workload) in workloads::ALL.into_iter().enumerate() {
        let mut parts = Vec::new();
        for traced in [false, true] {
            let r = contract_run(workload, seed, seconds, traced)?;
            r.print(workload, false);
            all_correct &= r.failed == 0;
            let phases: Vec<String> = r
                .phases
                .iter()
                .map(|(n, v)| format!("\"{n}\": {v:.3}"))
                .collect();
            parts.push(format!(
                "\"{}\": {{\"phases_s\": {{{}}}, \"result\": {}}}",
                if traced { "traced" } else { "untraced" },
                phases.join(", "),
                r.to_json()
            ));
        }
        let sep = if i + 1 < workloads::ALL.len() {
            ","
        } else {
            ""
        };
        report.push_str(&format!(
            "\"{}\": {{{}}}{sep}\n",
            workload.name(),
            parts.join(", ")
        ));
    }
    report.push_str("}\n}\n");
    let path = out.join("report.json");
    std::fs::write(&path, report).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("report written to {}", path.display());
    Ok(all_correct)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("{name} got {raw:?}")),
    }
}

fn real_main(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        Some("fixtures") => {
            let seed: u64 = parse(args, "--seed", 1)?;
            let dir = match flag(args, "--out") {
                Some(dir) => PathBuf::from(dir),
                None => out_dir()?.join("fixtures").join(seed.to_string()),
            };
            let need = fixtures::Need {
                slices: true,
                stacks: true,
            };
            let fx = fixtures::generate(&dir, seed, &fixtures::SHAPE, need)?;
            println!(
                "{} slices and {} stacks written to {}",
                fx.slices.len(),
                fx.stacks.len(),
                dir.display()
            );
            Ok(true)
        }
        _ => {
            let seed: u64 = parse(args, "--seed", 1)?;
            let seconds: f64 = parse(args, "--seconds", RUN_SECONDS as f64)?;
            if !(1.0..=60.0).contains(&seconds) {
                return Err(format!("--seconds must be between 1 and 60, got {seconds}"));
            }
            let Some(name) = flag(args, "--workload") else {
                return run_all(seed, seconds);
            };
            let workload =
                Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            let traced = match flag(args, "--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace got {other:?}")),
            };
            let result = contract_run(workload, seed, seconds, traced)?;
            result.print(workload, true);
            println!("{}", result.to_json());
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("[e2e] some answers were wrong");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("[e2e] {e}");
            ExitCode::from(2)
        }
    }
}
