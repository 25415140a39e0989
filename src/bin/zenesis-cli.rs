//! `zenesis-cli` — the no-code platform as a command-line tool.
//!
//! Reads a JSON job spec (file argument or stdin) and prints the JSON
//! result; this is the same contract the paper's web UI speaks, so any
//! front end — or a shell script — can drive the full platform:
//!
//! ```text
//! # run a job from a file
//! cargo run --release --bin zenesis-cli -- job.json
//!
//! # run a job from stdin
//! echo '{"mode":"interactive",
//!        "input":{"source":"phantom_slice","kind":"amorphous","seed":7},
//!        "prompt":"catalyst particles"}' | cargo run --release --bin zenesis-cli
//!
//! # segment your own microscope data
//! cargo run --release --bin zenesis-cli -- --tiff slice.tif --prompt "bright particles"
//!
//! # segment a whole TIFF stack (streamed slice-by-slice), masks out as TIFF
//! cargo run --release --bin zenesis-cli -- \
//!     --tiff-volume stack.tif --prompt "bright particles" --masks-out masks.tif
//!
//! # print example job specs
//! cargo run --release --bin zenesis-cli -- --examples
//!
//! # snapshot the telemetry of a running zenesis-serve instance
//! cargo run --release --bin zenesis-cli -- obs-dump --metrics-addr 127.0.0.1:9100
//!
//! # write a span/metric trace alongside the job result
//! cargo run --release --bin zenesis-cli -- job.json --trace-out trace.json
//!
//! # Perfetto-loadable trace, structured event log, and a run ledger
//! cargo run --release --bin zenesis-cli -- job.json \
//!     --trace-out trace.json --trace-format chrome \
//!     --events-out events.jsonl --ledger-out BENCH_cli.json --label cli
//! ```
//!
//! Observability outputs (see `docs/OBSERVABILITY.md`); each implies
//! `ZENESIS_OBS=spans` unless the environment sets a level explicitly:
//! - `--trace-out <path>` records the span/metric trace as JSON;
//!   `--trace-format chrome` switches to Chrome `trace_event` format
//!   (loadable in Perfetto / `chrome://tracing`).
//! - `--events-out <path>` writes the typed event stream (`job.start`,
//!   `slice.done`, `temporal.replace`, ...) as JSONL.
//! - `--ledger-out <path>` writes a schema-v1 run ledger comparable with
//!   `zenesis-obs-diff`; `--label <name>` names the run inside it.
//!
//! `--deadline-ms <ms>` bounds the job's wall clock: batch and evaluate
//! jobs poll the deadline cooperatively (per slice / per sample) and
//! return a `timeout` result carrying partial-progress counts instead of
//! running past it. For serving many jobs under deadlines concurrently,
//! see `zenesis-serve` (`docs/SERVING.md`).
//!
//! `--checkpoint-dir <dir>` makes batch (Mode B) jobs crash-safe: every
//! finished slice is journaled, and re-running the same job with the same
//! directory resumes where the previous run died, producing identical
//! final results. `--no-resume` discards an existing journal instead.
//! See `docs/ROBUSTNESS.md`.
//!
//! `--tiff-volume <path>` is the batch analogue of `--tiff`: the
//! multi-page grayscale TIFF/BigTIFF stack at `path` is streamed
//! slice-by-slice through Mode B (O(one slice) memory; see
//! `docs/DATA.md`), and `--masks-out <path>` writes the resulting
//! per-slice masks as a multi-page 8-bit TIFF. `--masks-out` also
//! overlays onto a batch job spec given as JSON.

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use zenesis::core::job::{
    run_job_json_with_cancel, run_job_with_cancel, InputSpec, JobSpec, PhantomKind,
};
use zenesis::par::CancelToken;

fn examples() -> Vec<(&'static str, JobSpec)> {
    vec![
        (
            "Mode A: interactive single slice",
            JobSpec::Interactive {
                input: InputSpec::PhantomSlice {
                    kind: PhantomKind::Crystalline,
                    seed: 42,
                    side: 128,
                },
                prompt: "needle-like crystalline catalyst".into(),
                config: None,
            },
        ),
        (
            "Mode A: your own TIFF",
            JobSpec::Interactive {
                input: InputSpec::TiffFile {
                    path: "slice.tif".into(),
                },
                prompt: "bright particles".into(),
                config: None,
            },
        ),
        (
            "Mode B: batch volume",
            JobSpec::Batch {
                input: InputSpec::PhantomVolume {
                    kind: PhantomKind::Amorphous,
                    seed: 7,
                    depth: 8,
                    side: 128,
                    outlier_slices: vec![3],
                },
                prompt: "catalyst particles".into(),
                config: None,
                checkpoint_dir: None,
                resume: true,
                masks_out: None,
            },
        ),
        (
            "Mode B: your own TIFF stack, streamed, masks out as TIFF",
            JobSpec::Batch {
                input: InputSpec::TiffVolumeFile {
                    path: "stack.tif".into(),
                },
                prompt: "bright particles".into(),
                config: None,
                checkpoint_dir: None,
                resume: true,
                masks_out: Some("masks.tif".into()),
            },
        ),
        (
            "Mode C: benchmark evaluation",
            JobSpec::Evaluate {
                input: InputSpec::Benchmark {
                    seed: 2025,
                    side: 128,
                },
                methods: vec![],
                config: None,
            },
        ),
    ]
}

/// The observability sinks requested on the command line; all written
/// after the job result has already gone to stdout, so failures report
/// without aborting.
struct ObsSinks {
    trace_out: Option<String>,
    trace_format: String,
    events_out: Option<String>,
    ledger_out: Option<String>,
    label: String,
    started: Instant,
}

impl ObsSinks {
    /// Write every requested sink. `job_text` fingerprints the ledger:
    /// the job spec JSON *is* the configuration of a CLI run. All sinks
    /// go through an atomic write-temp-then-rename, so a crash mid-write
    /// never leaves a truncated trace/events/ledger file behind.
    fn write(&self, job_text: &str) {
        if let Some(path) = &self.trace_out {
            let json = if self.trace_format == "chrome" {
                zenesis::obs::export::chrome_trace_string(false)
            } else {
                zenesis::obs::export::trace_json_string(true)
            };
            match zenesis::obs::output::write_atomic(path, json.as_bytes()) {
                Ok(()) => eprintln!("{} trace written to {path}", self.trace_format),
                Err(e) => eprintln!("failed to write trace {path}: {e}"),
            }
        }
        if let Some(path) = &self.events_out {
            let dropped = zenesis::obs::events::dropped_events();
            if dropped > 0 {
                eprintln!("event buffer overflowed; {dropped} oldest events dropped");
            }
            let jsonl = zenesis::obs::events::events_jsonl();
            match zenesis::obs::output::write_atomic(path, jsonl.as_bytes()) {
                Ok(()) => eprintln!("event stream written to {path}"),
                Err(e) => eprintln!("failed to write events {path}: {e}"),
            }
        }
        if let Some(path) = &self.ledger_out {
            let ledger = zenesis::ledger::Ledger::capture(
                &self.label,
                &zenesis::ledger::fingerprint(job_text),
                0,
                0,
                self.started.elapsed().as_secs_f64(),
                Vec::new(),
            );
            match zenesis::obs::output::write_atomic(path, ledger.to_json().as_bytes()) {
                Ok(()) => eprintln!("run ledger written to {path}"),
                Err(e) => eprintln!("failed to write ledger {path}: {e}"),
            }
        }
    }
}

/// Pull the value following a `--flag` out of `args` (both removed) so it
/// never masquerades as the job file.
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

/// Write `text` to stdout through one lock. A reader that closed the
/// pipe early (`zenesis-cli job.json | head -5`) ends the output quietly
/// and the run goes on to its sinks; any other write error exits 1.
fn out(text: &str) {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("cannot write the result to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Print a job result as pretty JSON on its own line.
fn print_result(result: &zenesis::core::job::JobResult) {
    let text = serde_json::to_string_pretty(result).expect("results serialize");
    out(&format!("{text}\n"));
}

/// `obs-dump`: print a Prometheus-format telemetry snapshot to stdout.
///
/// With `--metrics-addr HOST:PORT` it scrapes the `/metrics` endpoint of
/// a running `zenesis-serve` telemetry sidecar (a hand-rolled HTTP GET —
/// same zero-dependency budget as the sidecar itself); without it, the
/// current process's own registry is rendered, which is how smoke tests
/// check the exposition without standing up a server.
fn obs_dump(metrics_addr: Option<String>) -> ! {
    let Some(addr) = metrics_addr else {
        out(&zenesis::obs::prometheus_text());
        std::process::exit(0);
    };
    let body = (|| -> std::io::Result<String> {
        let mut stream = std::net::TcpStream::connect(&addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        std::io::Write::write_all(
            &mut stream,
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )?;
        let mut text = String::new();
        stream.read_to_string(&mut text)?;
        let (head, body) = text.split_once("\r\n\r\n").ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
        })?;
        let status = head.lines().next().unwrap_or("");
        if !status.contains("200") {
            return Err(std::io::Error::other(format!("scrape failed: {status}")));
        }
        Ok(body.to_string())
    })();
    match body {
        Ok(text) => {
            out(&text);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("obs-dump: cannot scrape {addr}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "obs-dump") {
        args.remove(0);
        let metrics_addr = take_flag_value(&mut args, "--metrics-addr");
        if let Some(stray) = args.first() {
            eprintln!("obs-dump: unknown argument {stray:?} (only --metrics-addr HOST:PORT)");
            std::process::exit(2);
        }
        obs_dump(metrics_addr);
    }
    let sinks = ObsSinks {
        trace_out: take_flag_value(&mut args, "--trace-out"),
        trace_format: take_flag_value(&mut args, "--trace-format").unwrap_or_else(|| "json".into()),
        events_out: take_flag_value(&mut args, "--events-out"),
        ledger_out: take_flag_value(&mut args, "--ledger-out"),
        label: take_flag_value(&mut args, "--label").unwrap_or_else(|| "cli".into()),
        started: Instant::now(),
    };
    // --deadline-ms: run the job under a deadline token; batch/evaluate
    // jobs stop at their next per-slice / per-sample checkpoint and
    // report a structured `timeout` result with partial progress.
    let cancel = match take_flag_value(&mut args, "--deadline-ms") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            Err(_) => {
                eprintln!("--deadline-ms expects a number of milliseconds, got {raw:?}");
                std::process::exit(2);
            }
        },
        None => CancelToken::new(),
    };
    // --checkpoint-dir / --no-resume: overlay crash-safe checkpointing
    // onto the batch job spec (flags win over spec fields).
    let checkpoint_dir = take_flag_value(&mut args, "--checkpoint-dir");
    let no_resume = if let Some(i) = args.iter().position(|a| a == "--no-resume") {
        args.remove(i);
        true
    } else {
        false
    };
    // --masks-out: where batch jobs write their per-slice masks as a
    // multi-page 8-bit TIFF (overlays onto JSON specs like the
    // checkpoint flags do).
    let masks_out = take_flag_value(&mut args, "--masks-out");
    if !matches!(sinks.trace_format.as_str(), "json" | "chrome") {
        eprintln!(
            "unknown --trace-format {:?} (expected json|chrome)",
            sinks.trace_format
        );
        std::process::exit(2);
    }
    let wants_obs =
        sinks.trace_out.is_some() || sinks.events_out.is_some() || sinks.ledger_out.is_some();
    if wants_obs && std::env::var_os("ZENESIS_OBS").is_none() {
        zenesis::obs::set_level(zenesis::obs::ObsLevel::Spans);
    }
    // --examples: print sample job specs and exit.
    if args.iter().any(|a| a == "--examples") {
        for (label, spec) in examples() {
            eprintln!("# {label}");
            out(&format!(
                "{}\n\n",
                serde_json::to_string_pretty(&spec).expect("specs serialize")
            ));
        }
        return;
    }
    // --tiff <path> --prompt <text>: convenience shortcut.
    if let Some(pos) = args.iter().position(|a| a == "--tiff") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--tiff requires a path");
            std::process::exit(2);
        };
        let prompt = args
            .iter()
            .position(|a| a == "--prompt")
            .and_then(|p| args.get(p + 1))
            .cloned()
            .unwrap_or_else(|| "bright particles".into());
        let spec = JobSpec::Interactive {
            input: InputSpec::TiffFile { path: path.clone() },
            prompt,
            config: None,
        };
        print_result(&run_job_with_cancel(&spec, &cancel));
        sinks.write(&serde_json::to_string(&spec).expect("specs serialize"));
        return;
    }
    // --tiff-volume <path> --prompt <text>: the batch analogue — stream a
    // whole multi-page stack through Mode B.
    if let Some(pos) = args.iter().position(|a| a == "--tiff-volume") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--tiff-volume requires a path");
            std::process::exit(2);
        };
        let prompt = args
            .iter()
            .position(|a| a == "--prompt")
            .and_then(|p| args.get(p + 1))
            .cloned()
            .unwrap_or_else(|| "bright particles".into());
        let spec = JobSpec::Batch {
            input: InputSpec::TiffVolumeFile { path: path.clone() },
            prompt,
            config: None,
            checkpoint_dir,
            resume: !no_resume,
            masks_out,
        };
        print_result(&run_job_with_cancel(&spec, &cancel));
        sinks.write(&serde_json::to_string(&spec).expect("specs serialize"));
        return;
    }
    // Default: a JSON job from file argument or stdin.
    let json = match args.first() {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path:?}: {e}");
                std::process::exit(2);
            }
        },
        None => {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() || buf.trim().is_empty() {
                eprintln!("usage: zenesis-cli [job.json | --tiff <path> --prompt <text> | --examples]");
                eprintln!("       (or pipe a JSON job spec on stdin)");
                std::process::exit(2);
            }
            buf
        }
    };
    // The checkpoint flags need a parsed spec to overlay; without them
    // the raw JSON goes straight through (unknown-field errors included).
    if checkpoint_dir.is_some() || no_resume || masks_out.is_some() {
        match serde_json::from_str::<JobSpec>(&json) {
            Ok(mut spec) => {
                if let JobSpec::Batch {
                    checkpoint_dir: cd,
                    resume,
                    masks_out: mo,
                    ..
                } = &mut spec
                {
                    if checkpoint_dir.is_some() {
                        *cd = checkpoint_dir;
                    }
                    if no_resume {
                        *resume = false;
                    }
                    if masks_out.is_some() {
                        *mo = masks_out;
                    }
                } else {
                    eprintln!(
                        "--checkpoint-dir/--no-resume/--masks-out apply to batch jobs only"
                    );
                    std::process::exit(2);
                }
                print_result(&run_job_with_cancel(&spec, &cancel));
            }
            Err(e) => print_result(&zenesis::core::job::JobResult::Error {
                message: format!("invalid job spec: {e}"),
            }),
        }
    } else {
        out(&format!("{}\n", run_job_json_with_cancel(&json, &cancel)));
    }
    sinks.write(&json);
}
