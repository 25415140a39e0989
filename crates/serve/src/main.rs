//! `zenesis-serve` — the JSONL job service binary.
//!
//! Pipe mode (default): reads one request per stdin line, writes one
//! response per line to stdout, drains and exits at EOF.
//!
//! ```text
//! zenesis-serve [--workers N] [--queue-cap N] [--tenant-cap N]
//!               [--deadline-ms MS] [--max-retries N] [--retry-base-ms MS]
//!               [--process-workers] [--heartbeat-ms MS]
//!               [--tcp ADDR] [--max-conns N]
//!               [--events-out F] [--ledger-out F]
//!               [--label NAME] [--metrics-addr ADDR]
//!               [--stats-interval SECS] [--flight-dir DIR]
//!               < jobs.jsonl > results.jsonl
//! ```
//!
//! TCP mode (`--tcp 127.0.0.1:7878`): every connection speaks the same
//! line protocol; responses go back on the submitting connection,
//! possibly out of request order (correlate by `id`). All connections
//! are served by one readiness-driven reactor thread (`zenesis_serve::mux`)
//! — connection count is bounded by `--max-conns`, not by threads.
//! Observability sinks are written at exit, exactly like `zenesis-cli`.
//!
//! The telemetry plane (`docs/OBSERVABILITY.md`): `--metrics-addr`
//! starts the HTTP sidecar (`/metrics`, `/healthz`, `/readyz`),
//! `--stats-interval` prints a one-line self-report to stderr every N
//! seconds, and `--flight-dir` names where the crash flight recorder
//! dumps the newest spans and events when a job fails. Each of
//! these implies `ZENESIS_OBS=spans` when the variable is unset.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

use zenesis_serve::{ServeConfig, Server};

/// Pull the value following a `--flag` out of `args` (both removed).
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.remove(i);
    if i < args.len() {
        Some(args.remove(i))
    } else {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Option<T> {
    raw.map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("{flag} expects a number, got {s:?}");
            std::process::exit(2);
        })
    })
}

struct ObsSinks {
    events_out: Option<String>,
    ledger_out: Option<String>,
    label: String,
    started: Instant,
}

impl ObsSinks {
    fn write(&self) {
        if let Some(path) = &self.events_out {
            let dropped = zenesis_obs::events::dropped_events();
            if dropped > 0 {
                eprintln!("event buffer overflowed; {dropped} oldest events dropped");
            }
            match zenesis_obs::output::write_atomic(path, zenesis_obs::events::events_jsonl()) {
                Ok(()) => eprintln!("event stream written to {path}"),
                Err(e) => eprintln!("failed to write events {path}: {e}"),
            }
        }
        if let Some(path) = &self.ledger_out {
            let ledger = zenesis_ledger::Ledger::capture(
                &self.label,
                &zenesis_ledger::fingerprint(&self.label),
                0,
                0,
                self.started.elapsed().as_secs_f64(),
                Vec::new(),
            );
            match zenesis_obs::output::write_atomic(path, ledger.to_json()) {
                Ok(()) => eprintln!("run ledger written to {path}"),
                Err(e) => eprintln!("failed to write ledger {path}: {e}"),
            }
        }
    }
}

/// Remove a bare `--flag` from `args`, reporting whether it was there.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden child entry: the warden re-executes this binary with
    // `--worker` first to run one supervised job handed over on stdin
    // (see zenesis_serve::worker). Dispatched before any flag parsing —
    // a worker child must never bind listeners or read normal flags.
    if args.first().map(String::as_str) == Some("--worker") {
        std::process::exit(zenesis_serve::worker_main());
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "zenesis-serve: JSONL job service (stdin/stdout pipe, or --tcp ADDR)\n\
             \n\
             flags:\n\
             \x20 --workers N        worker threads (default: cores, capped at 8)\n\
             \x20 --queue-cap N      bounded queue capacity (default 64)\n\
             \x20 --tenant-cap N     max outstanding jobs per tenant (default 0 = unlimited)\n\
             \x20 --deadline-ms MS   default per-job deadline (default: none)\n\
             \x20 --max-retries N    transient-input retries (default 2)\n\
             \x20 --retry-base-ms MS first backoff, doubles per attempt (default 25)\n\
             \x20 --process-workers  run batch volume jobs in supervised child processes\n\
             \x20 --heartbeat-ms MS  process-worker supervision window (default 30000)\n\
             \x20 --tcp ADDR         serve a TCP listener instead of stdin/stdout\n\
             \x20 --max-conns N      TCP connection cap for the mux (default 1024)\n\
             \x20 --events-out F     write the job.* event stream as JSONL at exit\n\
             \x20 --ledger-out F     write a run ledger (latencies + counters) at exit\n\
             \x20 --label NAME       ledger label (default \"serve\")\n\
             \x20 --metrics-addr A   HTTP sidecar serving /metrics /healthz /readyz\n\
             \x20 --stats-interval S one-line self-report to stderr every S seconds\n\
             \x20 --flight-dir DIR   dump the crash flight recorder to DIR on job failure"
        );
        return;
    }

    let sinks = ObsSinks {
        events_out: take_flag_value(&mut args, "--events-out"),
        ledger_out: take_flag_value(&mut args, "--ledger-out"),
        label: take_flag_value(&mut args, "--label").unwrap_or_else(|| "serve".into()),
        started: Instant::now(),
    };
    let metrics_addr = take_flag_value(&mut args, "--metrics-addr");
    let stats_interval: Option<u64> = parse_num(
        "--stats-interval",
        take_flag_value(&mut args, "--stats-interval"),
    );
    let flight_dir = take_flag_value(&mut args, "--flight-dir");
    // Any telemetry consumer needs at least span-level recording; honor
    // an explicit ZENESIS_OBS but default it up when one is requested.
    if (sinks.events_out.is_some()
        || sinks.ledger_out.is_some()
        || metrics_addr.is_some()
        || stats_interval.is_some()
        || flight_dir.is_some())
        && std::env::var_os("ZENESIS_OBS").is_none()
    {
        zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    }

    let mut config = ServeConfig::default();
    if let Some(n) = parse_num("--workers", take_flag_value(&mut args, "--workers")) {
        config.workers = n;
    }
    if let Some(n) = parse_num("--queue-cap", take_flag_value(&mut args, "--queue-cap")) {
        config.queue_cap = n;
    }
    if let Some(n) = parse_num("--tenant-cap", take_flag_value(&mut args, "--tenant-cap")) {
        config.tenant_cap = n;
    }
    config.default_deadline_ms =
        parse_num("--deadline-ms", take_flag_value(&mut args, "--deadline-ms"));
    if let Some(n) = parse_num("--max-retries", take_flag_value(&mut args, "--max-retries")) {
        config.max_retries = n;
    }
    if let Some(n) = parse_num(
        "--retry-base-ms",
        take_flag_value(&mut args, "--retry-base-ms"),
    ) {
        config.retry_base_ms = n;
    }
    config.flight_dir = flight_dir;
    config.process_workers = take_flag(&mut args, "--process-workers");
    if let Some(n) = parse_num(
        "--heartbeat-ms",
        take_flag_value(&mut args, "--heartbeat-ms"),
    ) {
        config.heartbeat_ms = n;
    }
    let tcp = take_flag_value(&mut args, "--tcp");
    let max_conns: Option<usize> =
        parse_num("--max-conns", take_flag_value(&mut args, "--max-conns"));
    if let Some(stray) = args.first() {
        eprintln!("unknown argument {stray:?} (see --help)");
        std::process::exit(2);
    }

    let server = Arc::new(Server::start(config));
    if let Some(addr) = &metrics_addr {
        let probe_dir = server.config().flight_dir.clone();
        match zenesis_serve::start_metrics_http(addr, Arc::clone(&server), probe_dir) {
            Ok(bound) => {
                eprintln!("telemetry sidecar on http://{bound} (/metrics /healthz /readyz)")
            }
            Err(e) => {
                eprintln!("cannot bind metrics listener {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(secs) = stats_interval {
        start_stats_reporter(Arc::clone(&server), secs.max(1));
    }
    match tcp {
        Some(addr) => serve_tcp(server, &addr, max_conns),
        None => serve_pipe(&server),
    }
    sinks.write();
}

/// Print a one-line self-report to stderr every `secs` seconds:
/// queue depth, response counts by status, and the p99s of queue wait
/// and job execution. Runs on a detached thread — it dies with the
/// process and never blocks serving.
fn start_stats_reporter(server: Arc<Server>, secs: u64) {
    std::thread::Builder::new()
        .name("serve-stats".into())
        .spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            let qdepth = server.queue_depth();
            let ok = zenesis_obs::counter("serve.job.ok").get();
            let err = zenesis_obs::counter("serve.job.error").get();
            let busy = zenesis_obs::counter("serve.job.busy").get();
            let timeout = zenesis_obs::counter("serve.job.timeout").get();
            let panic = zenesis_obs::counter("serve.job.panic").get();
            // Histograms store microseconds (see zenesis_obs::record_ms).
            let wait_p99_ms = zenesis_obs::histogram("serve.queue_wait.lat").stats().p99 / 1e3;
            let run_p99_ms = zenesis_obs::histogram("serve.job.lat").stats().p99 / 1e3;
            eprintln!(
                "[serve-stats] qdepth={qdepth} ok={ok} error={err} busy={busy} \
                 timeout={timeout} panic={panic} \
                 queue_p99_ms={wait_p99_ms:.2} run_p99_ms={run_p99_ms:.2}"
            );
        })
        .expect("spawn stats reporter");
}

/// Pipe mode: stdin lines in, stdout lines out. A writer thread owns
/// stdout so slow jobs never block submission, and EOF triggers a
/// graceful drain (every accepted job still answers).
fn serve_pipe(server: &Server) {
    let (tx, rx) = crossbeam::channel::unbounded::<zenesis_serve::Response>();
    let writer = std::thread::spawn(move || {
        let stdout = std::io::stdout();
        while let Ok(resp) = rx.recv() {
            let mut out = stdout.lock();
            if writeln!(out, "{}", resp.to_json_line())
                .and_then(|_| out.flush())
                .is_err()
            {
                break; // downstream closed; keep draining silently
            }
        }
    });
    let stdin = std::io::stdin();
    let mut line_no = 0u64;
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stdin read error: {e}");
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        line_no += 1;
        server.submit_line(&line, line_no, &tx);
    }
    server.shutdown(); // drain: every queued job still responds
    drop(tx); // writer exits once the last response is flushed
    let _ = writer.join();
}

/// TCP mode: every connection is served by the readiness-driven mux —
/// one reactor thread multiplexing all sockets into the shared worker
/// pool and bounded queue (see `zenesis_serve::mux`).
#[cfg(unix)]
fn serve_tcp(server: Arc<Server>, addr: &str, max_conns: Option<usize>) {
    let mut mux_config = zenesis_serve::MuxConfig::default();
    if let Some(n) = max_conns {
        mux_config.max_conns = n.max(1);
    }
    let mux = match zenesis_serve::Mux::spawn(server, addr, mux_config.clone()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "zenesis-serve listening on {} (mux, max {} connections)",
        mux.local_addr(),
        mux_config.max_conns
    );
    mux.join();
}

#[cfg(not(unix))]
fn serve_tcp(_server: Arc<Server>, _addr: &str, _max_conns: Option<usize>) {
    eprintln!("--tcp requires a unix platform (the mux uses poll(2)); use pipe mode");
    std::process::exit(2);
}
