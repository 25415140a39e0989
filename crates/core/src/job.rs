//! The no-code JSON job contract.
//!
//! The paper's platform is a web application: the browser submits a
//! structured request, the backend runs it and returns structured results.
//! [`JobSpec`] / [`JobResult`] are that contract. Inputs reference the
//! built-in phantom generator (this reproduction's "instrument") so a job
//! is fully self-contained and reproducible from its JSON alone.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use zenesis_data::{benchmark_dataset, generate_volume, PhantomConfig, SampleKind};
use zenesis_image::{BoxRegion, Image};
use zenesis_metrics::dashboard;
use zenesis_par::CancelToken;

use crate::config::ZenesisConfig;
use crate::method::Method;
use crate::modes;
use crate::pipeline::Zenesis;
use crate::slice_cache::SliceCache;
use crate::stream::SliceSource;
use crate::temporal::{VolumeError, VolumeResult};

/// Largest accepted slice side for generated inputs. Oversized specs are
/// rejected up front with a structured error instead of attempting a
/// multi-gigabyte allocation deep in the pipeline.
pub(crate) const MAX_SIDE: usize = 4096;

/// Largest accepted generated-volume depth.
pub(crate) const MAX_DEPTH: usize = 2048;

/// Input data specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "source", rename_all = "snake_case")]
pub enum InputSpec {
    /// One synthetic slice.
    PhantomSlice {
        kind: PhantomKind,
        seed: u64,
        #[serde(default = "default_side")]
        side: usize,
    },
    /// A synthetic volume.
    PhantomVolume {
        kind: PhantomKind,
        seed: u64,
        depth: usize,
        #[serde(default = "default_side")]
        side: usize,
        #[serde(default)]
        outlier_slices: Vec<usize>,
    },
    /// The full 20-slice benchmark dataset.
    Benchmark {
        seed: u64,
        #[serde(default = "default_side")]
        side: usize,
    },
    /// A grayscale TIFF file on disk (8/16/32-bit, classic or BigTIFF,
    /// strips or tiles; the first page of a multi-page file).
    TiffFile { path: String },
    /// A binary PGM (P5) file on disk, 8- or 16-bit.
    PgmFile { path: String },
    /// A multi-page grayscale TIFF stack on disk, streamed through Mode
    /// B slice-by-slice (the stack never has to fit in memory).
    TiffVolumeFile { path: String },
    /// An RGB PPM (P6) file on disk; converted to luma grayscale (the
    /// paper's platform accepts RGB scientific images natively).
    PpmFile { path: String },
}

fn check_side(side: usize) -> Result<(), String> {
    if side == 0 {
        return Err("side must be nonzero".into());
    }
    if side > MAX_SIDE {
        return Err(format!("side {side} exceeds the maximum of {MAX_SIDE}"));
    }
    Ok(())
}

impl InputSpec {
    /// Structural validation of generated inputs: zero or absurd
    /// dimensions are rejected here with a readable message instead of
    /// panicking in `Matrix::zeros` (or exhausting memory) downstream.
    /// File-backed inputs validate at load time, where the real I/O
    /// error is available.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match self {
            InputSpec::PhantomSlice { side, .. } => check_side(*side),
            InputSpec::PhantomVolume {
                depth,
                side,
                outlier_slices,
                ..
            } => {
                check_side(*side)?;
                if *depth == 0 {
                    return Err("volume depth must be nonzero".into());
                }
                if *depth > MAX_DEPTH {
                    return Err(format!(
                        "volume depth {depth} exceeds the maximum of {MAX_DEPTH}"
                    ));
                }
                if let Some(bad) = outlier_slices.iter().find(|&&z| z >= *depth) {
                    return Err(format!(
                        "outlier slice index {bad} out of range for depth {depth}"
                    ));
                }
                Ok(())
            }
            InputSpec::Benchmark { side, .. } => check_side(*side),
            InputSpec::TiffFile { .. }
            | InputSpec::PgmFile { .. }
            | InputSpec::TiffVolumeFile { .. }
            | InputSpec::PpmFile { .. } => Ok(()),
        }
    }

    /// Load a file-backed input as a normalized image; phantom inputs
    /// return `None` (they are generated in the mode handlers).
    fn load_file(&self) -> Option<Result<zenesis_image::Image<f32>, String>> {
        match self {
            InputSpec::TiffFile { path } => Some(
                zenesis_tiff::load_tiff(path)
                    .map(|page| page.to_f32())
                    .map_err(|e| format!("cannot read tiff {path:?}: {e}")),
            ),
            InputSpec::PpmFile { path } => Some(
                std::fs::File::open(path)
                    .map_err(|e| format!("cannot open {path:?}: {e}"))
                    .and_then(|mut f| {
                        zenesis_image::io::pgm::read_ppm(&mut f)
                            .map_err(|e| format!("cannot read ppm {path:?}: {e}"))
                    })
                    .map(|rgb| rgb.to_gray::<f32>()),
            ),
            InputSpec::PgmFile { path } => Some(
                std::fs::File::open(path)
                    .map_err(|e| format!("cannot open {path:?}: {e}"))
                    .and_then(|mut f| {
                        zenesis_image::io::pgm::read_pgm(&mut f)
                            .map_err(|e| format!("cannot read pgm {path:?}: {e}"))
                    })
                    .map(|pgm| match pgm {
                        zenesis_image::io::pgm::Pgm::U8(img) => img.to_f32(),
                        zenesis_image::io::pgm::Pgm::U16(img) => img.to_f32(),
                    }),
            ),
            _ => None,
        }
    }
}

/// True when `message` is a **transient input failure** — a file
/// open/read error rendered by the loaders above (and the streaming
/// volume path), which in the paper's web deployment can race with an
/// in-flight upload or a slow filesystem and deserve a retry.
/// Everything else a job can report (bad specs, mode mismatches,
/// panics) is deterministic and must not be retried.
///
/// This classifier lives here, beside the `format!` sites that render
/// these messages (`load_file`, the TIFF volume open path), and is
/// pinned to them by `transient_input_classifier_matches_loaders`
/// below plus a cross-crate retry test in `zenesis-serve` — so
/// rewording an error message cannot silently disable the serving
/// layer's retry path, the way an ad-hoc substring match in the serve
/// crate could (and once did, for the flight recorder).
pub fn message_is_transient_input(message: &str) -> bool {
    message.starts_with("cannot open ") || message.starts_with("cannot read ")
}

fn default_side() -> usize {
    128
}

fn default_resume() -> bool {
    true
}

/// Serializable mirror of [`SampleKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum PhantomKind {
    Crystalline,
    Amorphous,
}

impl From<PhantomKind> for SampleKind {
    fn from(k: PhantomKind) -> Self {
        match k {
            PhantomKind::Crystalline => SampleKind::Crystalline,
            PhantomKind::Amorphous => SampleKind::Amorphous,
        }
    }
}

/// A complete job request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "mode", rename_all = "snake_case")]
pub enum JobSpec {
    /// Mode A: segment a single slice with a text prompt.
    Interactive {
        input: InputSpec,
        prompt: String,
        #[serde(default)]
        config: Option<ZenesisConfig>,
    },
    /// Mode B: batch-process a volume.
    Batch {
        input: InputSpec,
        prompt: String,
        #[serde(default)]
        config: Option<ZenesisConfig>,
        /// Directory for the crash-safe per-slice journal; `None` runs
        /// without checkpointing.
        #[serde(default)]
        checkpoint_dir: Option<String>,
        /// Replay a compatible journal found in `checkpoint_dir`
        /// (default) or discard it and start over.
        #[serde(default = "default_resume")]
        resume: bool,
        /// Write the per-slice segmentation masks as a multi-page 8-bit
        /// TIFF at this path (atomic tmp + rename); `None` keeps the
        /// masks in-process only.
        #[serde(default)]
        masks_out: Option<String>,
    },
    /// Mode C: evaluate methods over the benchmark.
    Evaluate {
        input: InputSpec,
        #[serde(default)]
        methods: Vec<Method>,
        #[serde(default)]
        config: Option<ZenesisConfig>,
    },
}

impl JobSpec {
    /// Validate the spec without running it. [`run_job`] calls this
    /// first, so malformed specs (zero/oversized dimensions, empty
    /// prompts, adaptation parameters out of their operators' domains or
    /// beyond `MAX_SIDE`) become structured [`JobResult::Error`]s
    /// instead of panics or aborts deep in the pipeline; serving layers
    /// can also call it to reject bad requests before they occupy a
    /// worker.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match self {
            JobSpec::Interactive { input, prompt, .. } | JobSpec::Batch { input, prompt, .. } => {
                input.validate()?;
                if prompt.trim().is_empty() {
                    return Err("prompt must be non-empty".into());
                }
            }
            JobSpec::Evaluate { input, .. } => input.validate()?,
        }
        let (JobSpec::Interactive { config, .. }
        | JobSpec::Batch { config, .. }
        | JobSpec::Evaluate { config, .. }) = self;
        config
            .as_ref()
            .map_or(Ok(()), |c| c.adapt.validate(MAX_SIDE))
    }
}

/// A job's structured result.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum JobResult {
    Slice {
        detections: Vec<BoxRegion>,
        mask_pixels: usize,
        coverage: f64,
        total_ms: f64,
    },
    Volume {
        depth: usize,
        corrections: usize,
        per_slice_pixels: Vec<usize>,
        /// Slices served by a fallback (Otsu baseline or stage-1 mask).
        #[serde(default)]
        degraded: Vec<usize>,
        /// Slices that produced nothing (empty mask).
        #[serde(default)]
        failed: Vec<usize>,
    },
    Evaluation {
        /// Rendered dashboard (Fig. 8 as text).
        dashboard: String,
        /// Machine-readable CSV of per-sample rows.
        csv: String,
    },
    Error {
        message: String,
    },
    /// The serving queue was full; the job was shed without running
    /// (resubmit later — the spec itself may be perfectly valid).
    Busy {
        message: String,
        /// Queue capacity that was exhausted.
        capacity: usize,
    },
    /// The job hit its deadline (or was cancelled) and stopped at a
    /// cooperative checkpoint with partial progress.
    Timeout {
        message: String,
        /// Work units finished before cancellation (slices for batch
        /// jobs, samples for evaluation jobs).
        completed: usize,
        /// Work units the full job would have run.
        total: usize,
    },
}

impl JobResult {
    /// True for results that represent successfully completed work.
    pub(crate) fn is_ok(&self) -> bool {
        matches!(
            self,
            JobResult::Slice { .. } | JobResult::Volume { .. } | JobResult::Evaluation { .. }
        )
    }
}

/// Execute a job. Stateless: every job builds the pipeline it runs.
pub fn run_job(spec: &JobSpec) -> JobResult {
    run_job_with_cancel(spec, &CancelToken::new())
}

/// Execute a job under a cancellation token. Deadline-carrying tokens
/// turn long batch/evaluate jobs into [`JobResult::Timeout`] results at
/// the next per-slice / per-sample checkpoint; the job never hangs past
/// a cooperative poll interval. Stateless, like [`run_job`].
pub fn run_job_with_cancel(spec: &JobSpec, cancel: &CancelToken) -> JobResult {
    run_traced(None, spec, cancel)
}

/// Runs jobs against state that outlives them: one resident pipeline for
/// the default config and a [`SliceCache`] of prepared slices.
///
/// An interactive job without a `config` is served by the resident
/// pipeline: its slice is prepared once ([`Zenesis::prepare`]) and every
/// later prompt on the same pixels runs only the prompt tail
/// ([`Zenesis::segment_prepared`]). Results are bit-identical to a fresh
/// [`run_job`]; only `total_ms` differs, covering the cache lookup and
/// the prompt tail on a hit. Jobs with an explicit config, and batch and
/// evaluate jobs, build their own pipeline per job.
pub struct JobEngine {
    zenesis: Zenesis,
    slices: SliceCache,
}

impl JobEngine {
    /// An engine whose slice cache holds `cache_capacity` prepared slices.
    pub fn new(cache_capacity: usize) -> JobEngine {
        JobEngine {
            zenesis: Zenesis::new(ZenesisConfig::default()),
            slices: SliceCache::new(cache_capacity),
        }
    }

    /// The resident default-config pipeline.
    pub fn zenesis(&self) -> &Zenesis {
        &self.zenesis
    }

    /// The cache of prepared slices.
    pub fn slice_cache(&self) -> &SliceCache {
        &self.slices
    }

    /// Execute a job under a cancellation token (see
    /// [`run_job_with_cancel`]).
    pub fn run_with_cancel(&self, spec: &JobSpec, cancel: &CancelToken) -> JobResult {
        run_traced(Some(self), spec, cancel)
    }
}

/// Run a job inside its `job.run` span, tagged with the token's trace id,
/// between `JobStart` and `JobEnd` events.
fn run_traced(engine: Option<&JobEngine>, spec: &JobSpec, cancel: &CancelToken) -> JobResult {
    // If the token carries a trace id (the serving layer attaches one
    // per request) and this thread has none installed yet, install it
    // for the duration of the job so every span and event below — on
    // this thread and, via `zenesis-par` propagation, on the team's
    // helpers — is tagged with the job's trace.
    let _trace = zenesis_obs::trace_guard(match zenesis_obs::current_trace() {
        Some(_) => None,
        None => cancel.trace_id().and_then(zenesis_obs::TraceId::from_u64),
    });
    let _root = zenesis_obs::span("job.run");
    let mode = match spec {
        JobSpec::Interactive { .. } => "interactive",
        JobSpec::Batch { .. } => "batch",
        JobSpec::Evaluate { .. } => "evaluate",
    };
    // The clock exists only when recording: job timing is observability
    // payload, not part of the result, so `off` must cost nothing.
    let started = zenesis_obs::enabled().then(std::time::Instant::now);
    zenesis_obs::events::emit(zenesis_obs::events::Event::JobStart { mode: mode.into() });
    let result = run_job_inner(engine, spec, cancel);
    if let Some(t0) = started {
        zenesis_obs::events::emit(zenesis_obs::events::Event::JobEnd {
            mode: mode.into(),
            ok: result.is_ok(),
            dur_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
    }
    result
}

/// Mode A on one loaded slice: prepare it, through `cache` when given,
/// then run the prompt tail. `total_ms` is the time spent obtaining the
/// prepared slice (preparing it, waiting for a concurrent job that is,
/// or finding it cached) plus the tail.
fn interactive(
    zenesis: &Zenesis,
    cache: Option<&SliceCache>,
    raw: Image<f32>,
    prompt: &str,
) -> JobResult {
    let started = std::time::Instant::now();
    let prepared = match cache {
        Some(cache) => cache.get_or_prepare(raw, |raw| zenesis.prepare(raw)).0,
        None => Arc::new(zenesis.prepare(&raw)),
    };
    let prepare_ms = started.elapsed().as_secs_f64() * 1e3;
    let s = zenesis.segment_prepared(&prepared, prompt);
    JobResult::Slice {
        detections: s.detections.iter().map(|d| d.bbox).collect(),
        mask_pixels: s.combined.count(),
        coverage: s.combined.coverage(),
        total_ms: prepare_ms + s.trace.total_ms,
    }
}

/// Map a completed volume run onto the job contract, writing the masks
/// as a multi-page TIFF first when the job asked for them — a mask file
/// that failed to land is a failed job, not a silent omission.
fn finish_volume(r: &VolumeResult, masks_out: Option<&String>) -> JobResult {
    if let Some(path) = masks_out {
        if let Err(e) = zenesis_tiff::save_mask_volume_tiff(&r.masks, path) {
            return JobResult::Error {
                message: format!("cannot write masks to {path:?}: {e}"),
            };
        }
    }
    JobResult::Volume {
        depth: r.masks.len(),
        corrections: r.corrections(),
        per_slice_pixels: r.masks.iter().map(|m| m.count()).collect(),
        degraded: r.degraded_slices(),
        failed: r.failed_slices(),
    }
}

/// Map a fault-tolerant volume run's failure onto the job contract:
/// cancellation is `Timeout`, abort conditions are structured errors.
fn volume_error_result(e: VolumeError, cancel: &CancelToken) -> JobResult {
    match e {
        VolumeError::Cancelled(partial) => JobResult::Timeout {
            message: cancel_message(cancel),
            completed: partial.completed,
            total: partial.total,
        },
        e => JobResult::Error {
            message: e.to_string(),
        },
    }
}

/// Human-readable reason for a cancelled job.
fn cancel_message(cancel: &CancelToken) -> String {
    if cancel.deadline_exceeded() {
        "job deadline exceeded".into()
    } else {
        "job cancelled".into()
    }
}

fn run_job_inner(engine: Option<&JobEngine>, spec: &JobSpec, cancel: &CancelToken) -> JobResult {
    if let Err(message) = spec.validate() {
        return JobResult::Error {
            message: format!("invalid job spec: {message}"),
        };
    }
    if cancel.is_cancelled() {
        return JobResult::Timeout {
            message: cancel_message(cancel),
            completed: 0,
            total: 0,
        };
    }
    match spec {
        JobSpec::Interactive {
            input,
            prompt,
            config,
        } => {
            let raw = match input {
                InputSpec::PhantomSlice { kind, seed, side } => zenesis_data::generate_slice(
                    &PhantomConfig::new((*kind).into(), *seed).with_size(*side, *side),
                )
                .raw
                .to_f32(),
                file @ (InputSpec::TiffFile { .. }
                | InputSpec::PgmFile { .. }
                | InputSpec::PpmFile { .. }) => {
                    match file.load_file().expect("file-backed input") {
                        Ok(img) => img,
                        Err(message) => return JobResult::Error { message },
                    }
                }
                _ => {
                    return JobResult::Error {
                        message: "interactive mode takes a single slice".into(),
                    }
                }
            };
            match (engine, config) {
                (Some(engine), None) => {
                    interactive(&engine.zenesis, Some(&engine.slices), raw, prompt)
                }
                (_, config) => interactive(
                    &Zenesis::new(config.clone().unwrap_or_default()),
                    None,
                    raw,
                    prompt,
                ),
            }
        }
        JobSpec::Batch {
            input,
            prompt,
            config,
            checkpoint_dir,
            resume,
            masks_out,
        } => {
            let z = Zenesis::new(config.clone().unwrap_or_default());
            let ckpt = checkpoint_dir
                .as_ref()
                .map(|d| crate::checkpoint::CheckpointSpec {
                    dir: d.into(),
                    resume: *resume,
                });
            let src: Box<dyn SliceSource> = match input {
                InputSpec::PhantomVolume {
                    kind,
                    seed,
                    depth,
                    side,
                    outlier_slices,
                } => Box::new(
                    generate_volume((*kind).into(), *side, *depth, *seed, outlier_slices).volume,
                ),
                InputSpec::TiffVolumeFile { path } => {
                    // The reader scans only the page directory here;
                    // pixel payloads are pulled slice-by-slice by the
                    // executor, so the stack never has to fit in RAM.
                    let reader = match zenesis_tiff::VolumeReader::open(path) {
                        Ok(r) => r,
                        Err(e) => {
                            return JobResult::Error {
                                message: format!("cannot read tiff volume {path:?}: {e}"),
                            }
                        }
                    };
                    let (w, h, depth) = (reader.width(), reader.height(), reader.depth());
                    if w > MAX_SIDE || h > MAX_SIDE {
                        return JobResult::Error {
                            message: format!(
                                "tiff volume slice {w}x{h} exceeds the maximum side of {MAX_SIDE}"
                            ),
                        };
                    }
                    if depth > MAX_DEPTH {
                        return JobResult::Error {
                            message: format!(
                                "tiff volume depth {depth} exceeds the maximum of {MAX_DEPTH}"
                            ),
                        };
                    }
                    Box::new(reader)
                }
                _ => {
                    return JobResult::Error {
                        message: "batch mode takes a volume".into(),
                    }
                }
            };
            match z.segment_volume_streamed(&*src, prompt, cancel, ckpt.as_ref()) {
                Ok(r) => finish_volume(&r, masks_out.as_ref()),
                Err(e) => volume_error_result(e, cancel),
            }
        }
        JobSpec::Evaluate {
            input,
            methods,
            config,
        } => {
            let z = Zenesis::new(config.clone().unwrap_or_default());
            match input {
                InputSpec::Benchmark { seed, side } => {
                    let ds = benchmark_dataset(*side, *seed);
                    let ms = if methods.is_empty() {
                        Method::all().to_vec()
                    } else {
                        methods.clone()
                    };
                    match modes::evaluate_cancellable(&z, &ds, &ms, cancel) {
                        Ok(eval) => JobResult::Evaluation {
                            dashboard: dashboard::render_summary_table(&eval.summarize()),
                            csv: dashboard::to_csv(&eval),
                        },
                        Err(partial) => JobResult::Timeout {
                            message: cancel_message(cancel),
                            completed: partial.completed,
                            total: partial.total,
                        },
                    }
                }
                _ => JobResult::Error {
                    message: "evaluate mode takes the benchmark input".into(),
                },
            }
        }
    }
}

/// Execute a job given as a JSON string — the exact no-code entry point.
pub fn run_job_json(json: &str) -> String {
    run_job_json_with_cancel(json, &CancelToken::new())
}

/// [`run_job_json`] under a cancellation token (deadline-aware entry
/// point for CLIs and serving layers).
pub fn run_job_json_with_cancel(json: &str, cancel: &CancelToken) -> String {
    let result = match serde_json::from_str::<JobSpec>(json) {
        Ok(spec) => run_job_with_cancel(&spec, cancel),
        Err(e) => JobResult::Error {
            message: format!("invalid job spec: {e}"),
        },
    };
    serde_json::to_string_pretty(&result).expect("results serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_adapt::AdaptPipeline;

    #[test]
    fn interactive_job_roundtrip() {
        let json = r#"{
            "mode": "interactive",
            "input": {"source": "phantom_slice", "kind": "amorphous", "seed": 11},
            "prompt": "bright catalyst particles"
        }"#;
        let out = run_job_json(json);
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["kind"], "slice");
        assert!(v["mask_pixels"].as_u64().unwrap() > 0);
        assert!(!v["detections"].as_array().unwrap().is_empty());
    }

    #[test]
    fn batch_job_runs_volume() {
        let spec = JobSpec::Batch {
            input: InputSpec::PhantomVolume {
                kind: PhantomKind::Crystalline,
                seed: 5,
                depth: 4,
                side: 64,
                outlier_slices: vec![2],
            },
            prompt: "needle-like crystalline catalyst".into(),
            config: None,
            checkpoint_dir: None,
            resume: true,
            masks_out: None,
        };
        match run_job(&spec) {
            JobResult::Volume {
                depth,
                per_slice_pixels,
                ..
            } => {
                assert_eq!(depth, 4);
                assert_eq!(per_slice_pixels.len(), 4);
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn bad_json_is_reported_not_panicked() {
        let out = run_job_json("{not json");
        assert!(out.contains("invalid job spec"));
    }

    /// A config key that names no setting — a retired one, or a
    /// misspelling, at the top level or inside a section — fails the job
    /// instead of being silently dropped.
    #[test]
    fn unknown_config_keys_are_rejected() {
        let config = serde_json::to_string(&ZenesisConfig::default()).unwrap();
        // Each key goes in right after its anchor: a section's opening
        // brace, or the tag of the default pipeline's median stage.
        for (anchor, key) in [
            ("", "use_memory"),
            ("", "relevance_flor"),
            ("\"dino\":{", "backbone_depth"),
            ("\"dino\":{", "box_treshold"),
            ("\"sam\":{", "min_aera"),
            ("\"temporal\":{", "windw"),
            ("\"adapt\":{", "stage"),
            ("\"op\":\"median\",", "radiuss"),
        ] {
            let config = if anchor.is_empty() {
                format!("{},\"{key}\":true}}", &config[..config.len() - 1])
            } else {
                assert!(config.contains(anchor), "{anchor}");
                config.replacen(anchor, &format!("{anchor}\"{key}\":true,"), 1)
            };
            let json = format!(
                r#"{{"mode":"interactive","prompt":"particles",
                    "input":{{"source":"phantom_slice","kind":"amorphous","seed":1}},
                    "config":{config}}}"#
            );
            let v: serde_json::Value = serde_json::from_str(&run_job_json(&json)).unwrap();
            assert_eq!(v["kind"], "error", "{key}");
            let message = v["message"].as_str().unwrap();
            let prefix = format!("invalid job spec: unknown field `{key}`");
            assert!(message.starts_with(&prefix), "{message}");
        }
    }

    #[test]
    fn mode_input_mismatch_is_an_error() {
        let spec = JobSpec::Interactive {
            input: InputSpec::Benchmark { seed: 1, side: 64 },
            prompt: "x".into(),
            config: None,
        };
        match run_job(&spec) {
            JobResult::Error { message } => assert!(message.contains("single slice")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tiff_file_job_roundtrip() {
        // Write a phantom slice as TIFF, then run an interactive job on it.
        let dir = std::env::temp_dir().join("zenesis_job_tiff");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slice.tif");
        let g = zenesis_data::generate_slice(&PhantomConfig::new(
            zenesis_data::SampleKind::Amorphous,
            11,
        ));
        zenesis_tiff::save_tiff_u16(&g.raw, &path).unwrap();
        let spec = JobSpec::Interactive {
            input: InputSpec::TiffFile {
                path: path.to_string_lossy().into_owned(),
            },
            prompt: "catalyst particles".into(),
            config: None,
        };
        match run_job(&spec) {
            JobResult::Slice { mask_pixels, .. } => assert!(mask_pixels > 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tiff_volume_batch_job() {
        let dir = std::env::temp_dir().join("zenesis_job_tiffvol");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vol.tif");
        let v = generate_volume(SampleKind::Amorphous, 64, 3, 5, &[]);
        zenesis_tiff::save_tiff_volume_u16(&v.volume, &path).unwrap();
        let spec = JobSpec::Batch {
            input: InputSpec::TiffVolumeFile {
                path: path.to_string_lossy().into_owned(),
            },
            prompt: "catalyst particles".into(),
            config: None,
            checkpoint_dir: None,
            resume: true,
            masks_out: None,
        };
        match run_job(&spec) {
            JobResult::Volume {
                depth,
                per_slice_pixels,
                ..
            } => {
                assert_eq!(depth, 3);
                assert_eq!(per_slice_pixels.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_structured_error() {
        let spec = JobSpec::Interactive {
            input: InputSpec::TiffFile {
                path: "/nonexistent/nowhere.tif".into(),
            },
            prompt: "x".into(),
            config: None,
        };
        match run_job(&spec) {
            JobResult::Error { message } => assert!(message.contains("cannot read tiff")),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Pins `message_is_transient_input` to the real messages the input
    /// loaders render: every file open/read failure must classify as
    /// transient, and deterministic failures (validation, panics) must
    /// not. Rewording a loader error without updating the classifier
    /// fails here.
    #[test]
    fn transient_input_classifier_matches_loaders() {
        let run = |input: InputSpec| {
            let spec = JobSpec::Interactive {
                input,
                prompt: "x".into(),
                config: None,
            };
            match run_job(&spec) {
                JobResult::Error { message } => message,
                other => panic!("expected error, got {other:?}"),
            }
        };
        for input in [
            InputSpec::TiffFile {
                path: "/nonexistent/zenesis-missing.tif".into(),
            },
            InputSpec::PgmFile {
                path: "/nonexistent/zenesis-missing.pgm".into(),
            },
            InputSpec::PpmFile {
                path: "/nonexistent/zenesis-missing.ppm".into(),
            },
        ] {
            let message = run(input);
            assert!(
                message_is_transient_input(&message),
                "loader error must classify transient: {message}"
            );
        }
        // The streaming volume open path renders through the same prefix.
        let spec = JobSpec::Batch {
            input: InputSpec::TiffVolumeFile {
                path: "/nonexistent/zenesis-missing-stack.tif".into(),
            },
            prompt: "x".into(),
            config: None,
            checkpoint_dir: None,
            resume: true,
            masks_out: None,
        };
        match run_job(&spec) {
            JobResult::Error { message } => assert!(
                message_is_transient_input(&message),
                "volume open error must classify transient: {message}"
            ),
            other => panic!("expected error, got {other:?}"),
        }
        // Deterministic failures never classify as transient.
        let spec = JobSpec::Interactive {
            input: InputSpec::PhantomSlice {
                kind: PhantomKind::Amorphous,
                seed: 1,
                side: 0,
            },
            prompt: "particles".into(),
            config: None,
        };
        match run_job(&spec) {
            JobResult::Error { message } => {
                assert!(!message_is_transient_input(&message), "{message}")
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert!(!message_is_transient_input("job panicked: cannot open"));
    }

    #[test]
    fn zero_depth_volume_is_structured_error() {
        // Regression: depth 0 used to panic in `Matrix::zeros` deep in
        // the pipeline instead of returning a JobResult::Error.
        let spec = JobSpec::Batch {
            input: InputSpec::PhantomVolume {
                kind: PhantomKind::Amorphous,
                seed: 1,
                depth: 0,
                side: 64,
                outlier_slices: vec![],
            },
            prompt: "catalyst particles".into(),
            config: None,
            checkpoint_dir: None,
            resume: true,
            masks_out: None,
        };
        match run_job(&spec) {
            JobResult::Error { message } => assert!(message.contains("depth"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_side_slice_is_structured_error() {
        let spec = JobSpec::Interactive {
            input: InputSpec::PhantomSlice {
                kind: PhantomKind::Amorphous,
                seed: 1,
                side: 0,
            },
            prompt: "particles".into(),
            config: None,
        };
        match run_job(&spec) {
            JobResult::Error { message } => assert!(message.contains("side"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_and_empty_prompt_rejected() {
        let oversized = JobSpec::Interactive {
            input: InputSpec::PhantomSlice {
                kind: PhantomKind::Amorphous,
                seed: 1,
                side: MAX_SIDE + 1,
            },
            prompt: "particles".into(),
            config: None,
        };
        assert!(oversized.validate().is_err());
        let empty_prompt = JobSpec::Interactive {
            input: InputSpec::PhantomSlice {
                kind: PhantomKind::Amorphous,
                seed: 1,
                side: 64,
            },
            prompt: "   ".into(),
            config: None,
        };
        match run_job(&empty_prompt) {
            JobResult::Error { message } => assert!(message.contains("prompt"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        let bad_outlier = InputSpec::PhantomVolume {
            kind: PhantomKind::Amorphous,
            seed: 1,
            depth: 4,
            side: 64,
            outlier_slices: vec![7],
        };
        assert!(bad_outlier.validate().is_err());
    }

    /// Run each `stage` (its no-code JSON) in an explicit config under
    /// every mode and assert each comes back as an `invalid job spec`
    /// error naming stage `name`. The input file does not exist, so a job
    /// that got past validation would fail loading it instead: nothing ran.
    fn assert_rejected(name: &str, stages: &[&str]) {
        for (stage, mode) in stages
            .iter()
            .flat_map(|s| ["interactive", "batch", "evaluate"].map(|m| (s, m)))
        {
            let json = format!(
                r#"{{"mode":"{mode}","prompt":"particles",
                    "input":{{"source":"tiff_file","path":"/nonexistent/slice.tif"}}}}"#
            );
            let mut spec: JobSpec = serde_json::from_str(&json).unwrap();
            let (JobSpec::Interactive { config, .. }
            | JobSpec::Batch { config, .. }
            | JobSpec::Evaluate { config, .. }) = &mut spec;
            *config = Some(ZenesisConfig {
                adapt: AdaptPipeline::identity().then(serde_json::from_str(stage).unwrap()),
                ..ZenesisConfig::default()
            });
            let prefix = format!("invalid job spec: adapt stage 0 ({name}): ");
            match run_job(&spec) {
                JobResult::Error { message } => assert!(message.starts_with(&prefix), "{message}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// One test per stage that validation can reject.
    macro_rules! rejects {
        ($($test:ident: $name:literal => [$($stage:literal),+ $(,)?];)+) => {$(
            #[test]
            fn $test() {
                assert_rejected($name, &[$($stage),+]);
            }
        )+};
    }

    rejects! {
        hostile_resize_is_rejected: "resize" => [
            r#"{"op":"resize","width":60000,"height":60000}"#,
            r#"{"op":"resize","width":0,"height":64}"#,
        ];
        hostile_resize_longest_is_rejected: "resize_longest" => [
            r#"{"op":"resize_longest","target":60000}"#,
        ];
        hostile_median_is_rejected: "median" => [r#"{"op":"median","radius":60000}"#];
        hostile_nlm_lite_is_rejected: "nlm_lite" => [
            r#"{"op":"nlm_lite","search":60000,"strength":0.1}"#,
            r#"{"op":"nlm_lite","search":2,"strength":0.0}"#,
        ];
        hostile_destripe_is_rejected: "destripe" => [r#"{"op":"destripe","smooth_radius":60000}"#];
        hostile_gaussian_is_rejected: "gaussian" => [
            r#"{"op":"gaussian","sigma":1e9}"#,
            r#"{"op":"gaussian","sigma":-1.0}"#,
        ];
        hostile_highpass_is_rejected: "highpass" => [r#"{"op":"highpass","sigma":1e9}"#];
        hostile_bilateral_is_rejected: "bilateral" => [
            r#"{"op":"bilateral","sigma_s":1e9,"sigma_r":0.1}"#,
            r#"{"op":"bilateral","sigma_s":2.0,"sigma_r":0.0}"#,
        ];
        hostile_percentile_stretch_is_rejected: "percentile_stretch" => [
            r#"{"op":"percentile_stretch","p_lo":0.9,"p_hi":0.1}"#,
        ];
        hostile_gamma_is_rejected: "gamma" => [r#"{"op":"gamma","gamma":0.0}"#];
        hostile_clahe_is_rejected: "clahe" => [
            r#"{"op":"clahe","tiles":0,"clip_limit":2.0}"#,
            r#"{"op":"clahe","tiles":60000,"clip_limit":2.0}"#,
            r#"{"op":"clahe","tiles":4,"clip_limit":0.5}"#,
        ];
    }

    #[test]
    fn expired_deadline_returns_timeout_result() {
        let spec = JobSpec::Batch {
            input: InputSpec::PhantomVolume {
                kind: PhantomKind::Amorphous,
                seed: 3,
                depth: 4,
                side: 64,
                outlier_slices: vec![],
            },
            prompt: "catalyst particles".into(),
            config: None,
            checkpoint_dir: None,
            resume: true,
            masks_out: None,
        };
        let cancel = CancelToken::with_deadline(std::time::Duration::ZERO);
        match run_job_with_cancel(&spec, &cancel) {
            JobResult::Timeout { message, .. } => {
                assert!(message.contains("deadline"), "{message}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mid_run_cancel_returns_partial_progress() {
        // Cancel after the token has been polled at least once: run a
        // volume whose first slices complete, then the token trips.
        let spec = JobSpec::Evaluate {
            input: InputSpec::Benchmark { seed: 5, side: 64 },
            methods: vec![Method::Otsu],
            config: None,
        };
        let cancel = CancelToken::new();
        cancel.cancel();
        match run_job_with_cancel(&spec, &cancel) {
            JobResult::Timeout {
                completed, total, ..
            } => {
                assert!(completed <= total);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = JobSpec::Evaluate {
            input: InputSpec::Benchmark { seed: 42, side: 96 },
            methods: vec![Method::Otsu, Method::Zenesis],
            config: Some(ZenesisConfig::fast_preview()),
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
