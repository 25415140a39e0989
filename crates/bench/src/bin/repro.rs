//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p zenesis-bench --bin repro -- all
//! cargo run --release -p zenesis-bench --bin repro -- table1 table2 table3
//! cargo run --release -p zenesis-bench --bin repro -- fig3 fig5 fig6 fig7 fig8
//! cargo run --release -p zenesis-bench --bin repro -- ablation scaling
//! cargo run --release -p zenesis-bench --bin repro -- tables --trace-out trace.json
//! cargo run --release -p zenesis-bench --bin repro -- tables \
//!     --label head --ledger-out BENCH_head.json --events-out events.jsonl
//! ```
//!
//! Figure image outputs land in `out/`. Observability is on by default
//! (spans level) so the run ends with a per-stage latency table; set
//! `ZENESIS_OBS=off` to measure without it, or `full` for thread-pool
//! profiling.
//!
//! Observability outputs (see `docs/OBSERVABILITY.md`):
//! - `--trace-out <path>` writes the span/metric trace as JSON;
//!   `--trace-format chrome` switches it to Chrome `trace_event` format
//!   (loadable in Perfetto / `chrome://tracing`).
//! - `--ledger-out <path>` writes a schema-v1 run ledger (per-stage
//!   latency, per-method quality, counters) for `zenesis-obs-diff`;
//!   `--label <name>` names the run inside the ledger.
//! - `--events-out <path>` writes the structured event stream as JSONL.
//! - `--quiet` suppresses the `[repro]` narration on stderr (the same
//!   lines still land in the event stream as `info` records).
//!
//! The `volume` experiment runs a Mode B batch job end to end and prints
//! its JSON result; `--checkpoint-dir <dir>` makes it crash-safe and
//! resumable (`--no-resume` discards an existing journal), and
//! `ZENESIS_FAULT=<site:kind:prob:seed>` injects faults for chaos drills
//! (see `docs/ROBUSTNESS.md`). Its input is selected by
//! `--volume-input phantom` (default) or `--volume-input tiff:<path>`
//! (a multi-page grayscale stack streamed slice-by-slice; see
//! `docs/DATA.md`), and `--masks-out <path>` writes the per-slice masks
//! as a multi-page 8-bit TIFF. The `gen-volume` experiment writes the
//! canonical phantom volume as a 16-bit TIFF stack (`--volume-out`,
//! default `out/volume.tif`) so the two input paths can be compared
//! bit-for-bit.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use zenesis_bench::*;
use zenesis_core::config::ZenesisConfig;
use zenesis_core::job::{run_job, InputSpec, JobSpec, PhantomKind};

/// Narration facade: every progress line goes to the structured event
/// stream (captured by `--events-out`), and to stderr unless `--quiet`.
struct Narrator {
    quiet: bool,
}

impl Narrator {
    fn say(&self, msg: impl AsRef<str>) {
        let msg = msg.as_ref();
        zenesis_obs::events::info(msg);
        if !self.quiet {
            eprintln!("[repro] {msg}");
        }
    }

    fn warn(&self, msg: impl AsRef<str>) {
        let msg = msg.as_ref();
        zenesis_obs::events::warn(msg);
        if !self.quiet {
            eprintln!("[repro] warning: {msg}");
        }
    }
}

/// Pull the value following a `--flag` out of `args` (both removed).
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.remove(i);
    if i < args.len() {
        Some(args.remove(i))
    } else {
        eprintln!("[repro] {flag} requires a value");
        std::process::exit(2);
    }
}

/// Where the `volume` experiment's slices come from: the built-in phantom
/// generator or a TIFF stack on disk. One enum, one CLI flag — not a code
/// path fork.
enum VolumeSource {
    /// The canonical 12-slice crystalline phantom (seed `SEED`, side
    /// `SIDE`, outlier at z=5) — exactly what `gen-volume` writes.
    Phantom,
    /// A multi-page grayscale TIFF/BigTIFF stack, streamed slice-by-slice.
    Tiff(String),
}

impl VolumeSource {
    fn parse(spec: Option<String>) -> Self {
        match spec.as_deref() {
            None | Some("phantom") => VolumeSource::Phantom,
            Some(s) => match s.strip_prefix("tiff:") {
                Some(path) if !path.is_empty() => VolumeSource::Tiff(path.to_string()),
                _ => {
                    eprintln!(
                        "[repro] unknown --volume-input {s:?} (expected phantom|tiff:<path>)"
                    );
                    std::process::exit(2);
                }
            },
        }
    }

    fn input_spec(&self) -> InputSpec {
        match self {
            VolumeSource::Phantom => InputSpec::PhantomVolume {
                kind: PhantomKind::Crystalline,
                seed: SEED,
                depth: 12,
                side: SIDE,
                outlier_slices: vec![5],
            },
            VolumeSource::Tiff(path) => InputSpec::TiffVolumeFile { path: path.clone() },
        }
    }

    fn describe(&self) -> String {
        match self {
            VolumeSource::Phantom => "phantom generator".into(),
            VolumeSource::Tiff(path) => format!("tiff stack {path:?} (streamed)"),
        }
    }
}

fn main() {
    // Default to span recording so repro prints stage latencies; an
    // explicit ZENESIS_OBS (including "off") always wins.
    if std::env::var_os("ZENESIS_OBS").is_none() {
        zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
    }
    let wall_start = Instant::now();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = take_flag_value(&mut args, "--trace-out").map(PathBuf::from);
    let trace_format = take_flag_value(&mut args, "--trace-format").unwrap_or_else(|| "json".into());
    if !matches!(trace_format.as_str(), "json" | "chrome") {
        eprintln!("[repro] unknown --trace-format {trace_format:?} (expected json|chrome)");
        std::process::exit(2);
    }
    let ledger_out = take_flag_value(&mut args, "--ledger-out").map(PathBuf::from);
    let events_out = take_flag_value(&mut args, "--events-out").map(PathBuf::from);
    let label = take_flag_value(&mut args, "--label").unwrap_or_else(|| "run".into());
    let checkpoint_dir = take_flag_value(&mut args, "--checkpoint-dir");
    let volume_source = VolumeSource::parse(take_flag_value(&mut args, "--volume-input"));
    let masks_out = take_flag_value(&mut args, "--masks-out");
    let volume_out =
        take_flag_value(&mut args, "--volume-out").unwrap_or_else(|| "out/volume.tif".into());
    let resume = if let Some(i) = args.iter().position(|a| a == "--no-resume") {
        args.remove(i);
        false
    } else {
        true
    };
    let quiet = if let Some(i) = args.iter().position(|a| a == "--quiet") {
        args.remove(i);
        true
    } else {
        false
    };
    let n = Narrator { quiet };

    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "tables", "fig3", "fig5", "fig6", "fig7", "fig8", "ablation", "scaling", "job",
            "volume", "analysis", "modalities", "finetune", "interaction",
        ]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let outdir = PathBuf::from("out");

    // Tables 1-3 share one evaluation run; fig8 renders the same data.
    let needs_tables = wanted.iter().any(|w| {
        ["tables", "table1", "table2", "table3", "fig8"].contains(w)
    });
    let eval = needs_tables.then(|| {
        n.say("running Tables 1-3 evaluation (20 slices x 3 methods)...");
        run_tables(SIDE, SEED)
    });

    for w in &wanted {
        match *w {
            "tables" | "table1" | "table2" | "table3" => {}
            "fig3" => {
                n.say("fig3: qualitative comparison panels...");
                let rows = fig3(&outdir.join("fig3")).expect("fig3 outputs");
                println!("== Fig. 3: qualitative comparison (IoU vs ground truth) ==");
                println!("{:<10} {:>12} {:>12}", "Method", "Crystalline", "Amorphous");
                for (m, c, a) in rows {
                    println!("{m:<10} {c:>12.3} {a:>12.3}");
                }
                println!("(panels written to out/fig3/)\n");
            }
            "fig5" => {
                n.say("fig5: Further Segment...");
                let (parent, child, frac) = fig5();
                println!("== Fig. 5: Further Segment (hierarchical) ==");
                println!("parent segment pixels: {parent}");
                println!("child  segment pixels: {child}");
                println!("child-inside-parent fraction: {frac:.3}\n");
            }
            "fig6" => {
                n.say("fig6: Rectify Segmentation...");
                let (before, after) = fig6();
                println!("== Fig. 6: Rectify Segmentation (random boxes + nearest pick) ==");
                println!("IoU with crippled grounding : {before:.3}");
                println!("IoU after one rectification : {after:.3}\n");
            }
            "fig7" => {
                n.say("fig7: temporal box refinement (12-slice volume)...");
                println!("== Fig. 7: heuristic temporal box refinement ==");
                println!(
                    "{:<18} {:>12} {:>10} {:>14}",
                    "Variant", "Corrections", "Mean IoU", "Outlier IoU"
                );
                for v in fig7(12) {
                    println!(
                        "{:<18} {:>12} {:>10.3} {:>14.3}",
                        v.name, v.corrections, v.mean_iou, v.outlier_iou
                    );
                }
                println!();
            }
            "fig8" => {
                if let Some(e) = &eval {
                    println!("{}", fig8(e));
                }
            }
            "ablation" => {
                n.say("ablation grid (5 variants x 20 slices)...");
                println!("== Ablation: Zenesis variants (mean IoU) ==");
                println!("{:<20} {:>12} {:>12}", "Variant", "Crystalline", "Amorphous");
                for (name, c, a) in ablation(SIDE, SEED) {
                    println!("{name:<20} {c:>12.3} {a:>12.3}");
                }
                println!();
            }
            "scaling" => {
                n.say("strong scaling of Mode C...");
                println!("== Strong scaling: Mode C wall time ==");
                println!("{:>8} {:>10} {:>9}", "Threads", "Seconds", "Speedup");
                let rows = scaling(SIDE, SEED, &[1, 2, 4, 8]);
                let base = rows.first().map(|r| r.1).unwrap_or(1.0);
                for (t, secs) in rows {
                    println!("{t:>8} {secs:>10.3} {:>8.2}x", base / secs);
                }
                println!();
            }
            "analysis" => {
                n.say("morphometry of the Zenesis segmentations...");
                println!("== Extension: phase morphometry (from Zenesis masks, 5 nm/px) ==");
                println!(
                    "{:<12} {:>10} {:>10} {:>12} {:>14} {:>8} {:>11}",
                    "Phase", "Particles", "Area frac", "Mean eq-d", "Spec. perim", "Aspect", "Orient-coh"
                );
                for (label, st) in morphometry() {
                    println!(
                        "{:<12} {:>10} {:>10.3} {:>10.1} nm {:>11.4}/nm {:>8.2} {:>11.2}",
                        label,
                        st.n_particles,
                        st.area_fraction,
                        st.mean_eq_diameter_nm,
                        st.specific_perimeter_per_nm,
                        st.mean_aspect,
                        st.orientation_coherence
                    );
                }
                println!("(needle phase: higher specific perimeter + orientation coherence,
 as in the paper's catalyst characterization)\n");
            }
            "modalities" => {
                n.say("cross-modality zero-shot (future work 1)...");
                println!("== Extension: cross-modality zero-shot (3 frames each) ==");
                println!("{:<6} {:>8} {:>8}", "Mod", "IoU", "Recall");
                for (label, iou, recall) in modalities() {
                    println!("{label:<6} {iou:>8.3} {recall:>8.3}");
                }
                println!();
            }
            "finetune" => {
                n.say("fine-tuning transfer (future work 3)...");
                println!("== Extension: lexicon learning transfer (held-out box recall) ==");
                println!("{:>10} {:>12}", "Exemplars", "Box recall");
                for (k, recall) in finetune_transfer(4) {
                    println!("{k:>10} {recall:>12.3}");
                }
                println!();
            }
            "interaction" => {
                n.say("interaction efficiency (Fig. 6 quantified)...");
                println!("== Extension: interaction efficiency (crippled grounding) ==");
                println!("{:>8} {:>8}", "Clicks", "IoU");
                for (k, iou) in interaction_efficiency(5) {
                    println!("{k:>8} {iou:>8.3}");
                }
                println!();
            }
            "job" => {
                n.say("no-code JSON job round trip...");
                let spec = example_job();
                println!("== No-code job contract ==");
                println!("request : {}", serde_json::to_string(&spec).unwrap());
                let result = run_job(&spec);
                println!("response: {}\n", serde_json::to_string(&result).unwrap());
            }
            "volume" => {
                n.say(format!(
                    "Mode B batch volume from {} (fault-tolerant, checkpointable)...",
                    volume_source.describe()
                ));
                let spec = JobSpec::Batch {
                    input: volume_source.input_spec(),
                    prompt: "needle-like crystalline catalyst".into(),
                    config: None,
                    checkpoint_dir: checkpoint_dir.clone(),
                    resume,
                    masks_out: masks_out.clone(),
                };
                println!("== Mode B: batch volume ==");
                let result = run_job(&spec);
                println!("{}\n", serde_json::to_string_pretty(&result).unwrap());
            }
            "gen-volume" => {
                n.say(format!(
                    "writing canonical phantom volume as 16-bit TIFF stack to {volume_out}..."
                ));
                let v = zenesis_data::generate_volume(
                    zenesis_data::SampleKind::Crystalline,
                    SIDE,
                    12,
                    SEED,
                    &[5],
                );
                let path = PathBuf::from(&volume_out);
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent).ok();
                }
                match zenesis_tiff::save_tiff_volume_u16(&v.volume, &path) {
                    Ok(()) => println!("== gen-volume: 12x{SIDE}x{SIDE} u16 stack -> {volume_out} ==\n"),
                    Err(e) => {
                        n.warn(format!("failed to write {volume_out}: {e}"));
                        std::process::exit(1);
                    }
                }
            }
            other => n.warn(format!("unknown experiment {other:?} (skipped)")),
        }
    }

    if let Some(e) = &eval {
        println!("{}", tables_report(e));
        std::fs::create_dir_all(&outdir).ok();
        std::fs::write(outdir.join("tables.csv"), eval_csv(e)).ok();
        n.say("per-sample CSV written to out/tables.csv");
    }

    if zenesis_obs::enabled() {
        println!("== Per-stage latency (p50/p90/p99 from the observability layer) ==");
        println!(
            "{}",
            zenesis_metrics::dashboard::render_latency_table(&zenesis_obs::latency_rows())
        );
    }
    if let Some(path) = &ledger_out {
        // The fingerprint covers the pipeline configuration every
        // experiment above ran with; two ledgers with equal fingerprints
        // are like-for-like comparable in `zenesis-obs-diff`.
        let cfg = serde_json::to_string(&ZenesisConfig::default()).expect("config serializes");
        let ledger = zenesis_ledger::Ledger::capture(
            &label,
            &zenesis_ledger::fingerprint(&cfg),
            SEED,
            SIDE,
            wall_start.elapsed().as_secs_f64(),
            eval.as_ref().map(zenesis_ledger::quality_from_eval).unwrap_or_default(),
        );
        match zenesis_obs::output::write_atomic(path, ledger.to_json()) {
            Ok(()) => n.say(format!("run ledger written to {}", path.display())),
            Err(e) => n.warn(format!("failed to write ledger {}: {e}", path.display())),
        }
    }
    if let Some(path) = &trace_out {
        let json = if trace_format == "chrome" {
            zenesis_obs::export::chrome_trace_string(false)
        } else {
            zenesis_obs::export::trace_json_string(true)
        };
        match zenesis_obs::output::write_atomic(path, json) {
            Ok(()) => n.say(format!("{trace_format} trace written to {}", path.display())),
            Err(e) => n.warn(format!("failed to write trace {}: {e}", path.display())),
        }
    }
    if let Some(path) = &events_out {
        let dropped = zenesis_obs::events::dropped_events();
        if dropped > 0 {
            n.warn(format!("event buffer overflowed; {dropped} oldest events dropped"));
        }
        // Written last so the drop warning itself makes it into the file.
        match zenesis_obs::output::write_atomic(path, zenesis_obs::events::events_jsonl()) {
            Ok(()) => n.say(format!("event stream written to {}", path.display())),
            Err(e) => n.warn(format!("failed to write events {}: {e}", path.display())),
        }
    }
}
