//! `zenesis-obs-diff` — compare two run ledgers and gate on regressions.
//!
//! ```text
//! zenesis-obs-diff BENCH_base.json BENCH_head.json \
//!     [--max-p50-regress 20%] [--max-p99-regress 20%] \
//!     [--max-quality-drop 0.02] [--min-count N] [--report-only]
//! ```
//!
//! Prints the delta table to stdout. Exit status: `0` when clean (or
//! `--report-only`), `1` when a latency/quality regression trips the
//! gate, `2` on usage or I/O errors.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use zenesis_ledger::{diff, parse_pct, DiffThresholds, Ledger};

const USAGE: &str = "usage: zenesis-obs-diff BASE.json HEAD.json \
[--max-p50-regress PCT] [--max-p99-regress PCT] [--max-quality-drop F] \
[--min-count N] [--report-only]";

fn fail(msg: &str) -> ExitCode {
    eprintln!("zenesis-obs-diff: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut paths: Vec<String> = Vec::new();
    let mut th = DiffThresholds::default();
    let mut report_only = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--report-only" => report_only = true,
            "--max-p50-regress" | "--max-p99-regress" | "--max-quality-drop" | "--min-count" => {
                let Some(v) = args.next() else {
                    return fail(&format!("{a} needs a value"));
                };
                match a.as_str() {
                    "--max-p50-regress" => match parse_pct(&v) {
                        Ok(f) => th.max_p50_regress = f,
                        Err(e) => return fail(&e),
                    },
                    "--max-p99-regress" => match parse_pct(&v) {
                        Ok(f) => th.max_p99_regress = f,
                        Err(e) => return fail(&e),
                    },
                    "--max-quality-drop" => match v.parse::<f64>() {
                        Ok(f) if f >= 0.0 => th.max_quality_drop = f,
                        _ => return fail(&format!("bad quality drop {v:?}")),
                    },
                    "--min-count" => match v.parse::<u64>() {
                        Ok(n) => th.min_count = n,
                        Err(_) => return fail(&format!("bad count {v:?}")),
                    },
                    _ => unreachable!(),
                }
            }
            other if other.starts_with('-') => return fail(&format!("unknown flag {other}")),
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() != 2 {
        return fail("expected exactly two ledger paths");
    }

    let mut ledgers = Vec::new();
    for p in &paths {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {p}: {e}")),
        };
        match Ledger::from_json(&text) {
            Ok(l) => ledgers.push(l),
            Err(e) => return fail(&format!("{p}: {e}")),
        }
    }

    let d = diff(&ledgers[0], &ledgers[1], &th);
    print!("{}", d.render());
    if d.ok() {
        ExitCode::SUCCESS
    } else if report_only {
        println!("(--report-only: regression reported, exit suppressed)");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
