//! The traced run: each workload's inputs replayed in-process, with a span
//! around every call into a crate's public functions.
//!
//! Spans live in the benchmark, not in the program: the served binary runs
//! with tracing off and is measured by the untraced run; this replay says
//! where that time goes. A span is `(name, start, end, parent, request)`;
//! they are kept in memory and written to `trace-<workload>.json` when the
//! run ends. A layer's self time is its span minus what its children cover.
//!
//! The replay's staged copy of the slice pipeline is built only from public
//! functions and must produce the mask `Zenesis::segment_slice` produces,
//! bit for bit, on every input, or the traced run fails: spans around a
//! wrong replica would be worthless.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zenesis_core::checkpoint::{Header, Journal};
use zenesis_core::job::{run_job, JobResult, JobSpec};
use zenesis_core::temporal::refine_boxes;
use zenesis_core::{SliceOutcome, Zenesis, ZenesisConfig};
use zenesis_data::{generate_slice, PhantomConfig};
use zenesis_ground::{Detection, FeatureGrid};
use zenesis_image::morphology::{dilate, Structuring};
use zenesis_image::{BitMask, BoxRegion, Image};
use zenesis_par::{CancelToken, ThreadsGuard};
use zenesis_sam::{Polarity, PromptSet};
use zenesis_serve::{BoundedQueue, JobRunner, Lane, Mux, MuxConfig, Response, ServeConfig};
use zenesis_tensor::Matrix;

use crate::metrics::Layers;
use crate::stats::median;

/// A request id for spans that belong to no request (standalone probes).
const NO_REQUEST: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span recorder, shared by the threads of a `par::join`.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
    }

    /// Run `f` inside a span. `f` gets the span's id, to name as the
    /// parent of the spans it opens.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name: name.to_string(),
                start_us: 0.0,
                end_us: 0.0,
                parent,
                request,
            });
            spans.len() - 1
        };
        let start = self.t0.elapsed();
        let out = f(id);
        let end = self.t0.elapsed();
        let mut spans = self.spans();
        spans[id].start_us = start.as_secs_f64() * 1e6;
        spans[id].end_us = end.as_secs_f64() * 1e6;
        out
    }

    /// [`time_ms`] with every call recorded as a span that belongs to no
    /// request.
    pub fn time_calls<R>(
        &self,
        name: &str,
        min_calls: usize,
        budget: Duration,
        mut f: impl FnMut() -> R,
    ) -> f64 {
        time_ms(min_calls, budget, || {
            self.span(name, None, NO_REQUEST, |_| f())
        })
    }

    /// Durations of every span called `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name))
    }

    /// Per request, the summed duration of its spans called `name`, ms.
    fn per_request_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut sums = BTreeMap::new();
        for s in self
            .spans()
            .iter()
            .filter(|s| s.name == name && s.request != NO_REQUEST)
        {
            *sums.entry(s.request).or_insert(0.0) += s.ms();
        }
        sums
    }

    /// Per span name: how many, their total time, and their total self
    /// time (duration minus the part of it child spans cover), ms.
    pub fn self_times(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let spans = self.spans();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(&mut children) {
            // Children of a `par::join` overlap: count covered time once.
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut upto) = (0.0, s.start_us);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(upto), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            let e = out.entry(s.name.clone()).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.ms() - covered / 1e3;
        }
        out
    }

    /// The trace file: every span, and the per-name waterfall.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"us\",\"waterfall\":[\n"
        );
        let rows = self.self_times();
        for (i, (name, (count, total, own))) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            s.push_str(&format!(
                "{{\"name\":\"{name}\",\"count\":{count},\"total_ms\":{total:.4},\"self_ms\":{own:.4},\"median_ms\":{:.4}}}{sep}\n",
                self.median_ms(name)
            ));
        }
        s.push_str("],\"spans\":[\n");
        let spans = self.spans();
        for (i, sp) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let request = if sp.request == NO_REQUEST {
                "null".to_string()
            } else {
                sp.request.to_string()
            };
            s.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:.1},\"end\":{:.1},\"parent\":{parent},\"request\":{request}}}{sep}\n",
                sp.name, sp.start_us, sp.end_us
            ));
        }
        s.push_str("]}\n");
        s
    }
}

/// Median time of `f`, ms: at least `min_calls` calls, more while `budget`
/// lasts (up to ten times as many).
fn time_ms<R>(min_calls: usize, budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(min_calls);
    while samples.len() < min_calls
        || (started.elapsed() < budget && samples.len() < min_calls * 10)
    {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

/// Median time of one call of a microsecond-scale `f`, us: each sample
/// times a batch of calls, so the clock read is not what is measured.
fn time_us<R>(batch: usize, mut f: impl FnMut() -> R) -> f64 {
    time_ms(30, Duration::from_millis(100), || {
        for _ in 0..batch {
            black_box(f());
        }
    }) * 1e3
        / batch as f64
}

/// One slice job to replay: where its pixels come from, and its prompt.
pub struct SliceJob {
    pub source: SliceSourceRef,
    pub prompt: String,
}

pub enum SliceSourceRef {
    /// A single-page TIFF, loaded the way `run_job` loads a `tiff_file`.
    File(String),
    /// Already in memory: a page of a stack, or a generated phantom.
    Pixels(Image<f32>),
}

impl SliceJob {
    /// The pixels and prompt of an interactive job spec.
    pub fn of_spec(spec: &JobSpec) -> Result<SliceJob, String> {
        use zenesis_core::job::InputSpec;
        match spec {
            JobSpec::Interactive {
                input: InputSpec::TiffFile { path },
                prompt,
                ..
            } => Ok(SliceJob {
                source: SliceSourceRef::File(path.clone()),
                prompt: prompt.clone(),
            }),
            JobSpec::Interactive {
                input: InputSpec::PhantomSlice { kind, seed, side },
                prompt,
                ..
            } => Ok(SliceJob {
                source: SliceSourceRef::Pixels(
                    generate_slice(
                        &PhantomConfig::new((*kind).into(), *seed).with_size(*side, *side),
                    )
                    .raw
                    .to_f32(),
                ),
                prompt: prompt.clone(),
            }),
            other => Err(format!("no slice replay for {other:?}")),
        }
    }
}

/// Median `zenesis_data::generate_slice` time at the workload's slice
/// size, ms: what a `phantom_*` input would add to every job.
pub fn generate_slice_ms(side: usize) -> f64 {
    let mut seed = 0;
    time_ms(5, Duration::from_millis(150), || {
        seed += 1;
        generate_slice(
            &PhantomConfig::new(zenesis_data::SampleKind::Amorphous, seed).with_size(side, side),
        )
    })
}

fn new_pipeline() -> Zenesis {
    // `run_job` builds a pipeline per job, so every job starts with an
    // empty embedding cache; so does every replayed request.
    Zenesis::new(ZenesisConfig::default())
}

/// The staged replica of `Zenesis::segment_slice`: adapt, then grounding
/// and SAM encoding under one `par::join`, then one decode per box, then
/// the relevance gate. Returns the combined mask and the box count.
fn replica_segment_slice(
    t: &Tracer,
    parent: usize,
    req: u64,
    z: &Zenesis,
    raw: &Image<f32>,
    prompt: &str,
) -> (BitMask, usize, Arc<Image<f32>>) {
    t.span("core.segment_slice", Some(parent), req, |root| {
        let input = t.span("image.to_f32", Some(root), req, |_| raw.to_f32());
        let adapted = t.span("adapt.run", Some(root), req, |run| {
            let mut cur = input.clone();
            for stage in &z.config.adapt.stages {
                let name = format!("adapt.stage.{}", stage.name());
                cur = t.span(&name, Some(run), req, |_| stage.apply(&cur));
                // `run_traced` records each stage's output range and mean.
                t.span("adapt.provenance", Some(run), req, |_| {
                    black_box((cur.min_max(), cur.mean_norm()));
                });
            }
            Arc::new(cur)
        });
        let (w, h) = adapted.dims();
        let (grounding, emb) = t.span("par.join", Some(root), req, |join| {
            zenesis_par::join(
                || {
                    t.span("ground.ground", Some(join), req, |_| {
                        z.dino().ground(&adapted, prompt)
                    })
                },
                || {
                    t.span("sam.encode_cached", Some(join), req, |_| {
                        z.sam().encode_cached(&adapted)
                    })
                },
            )
        });
        let polarity = if grounding.dark_polarity {
            Polarity::Dark
        } else {
            Polarity::Bright
        };
        let masks: Vec<BitMask> = grounding
            .detections
            .iter()
            .map(|d| {
                t.span("sam.decode", Some(root), req, |_| {
                    z.sam()
                        .segment(&emb, &PromptSet::from_box(d.bbox).with_polarity(polarity))
                })
            })
            .collect();
        let combined = t.span("core.gate", Some(root), req, |gate| {
            let mut combined = BitMask::new(w, h);
            for m in &masks {
                combined.or_with(m);
            }
            if let Some(floor) = z.config.relevance_floor {
                let relevance = t.span("ground.relevance_full", Some(gate), req, |_| {
                    grounding.relevance_full(w, h)
                });
                let support = BitMask::from_threshold(&relevance, floor);
                let support = t.span("image.dilate", Some(gate), req, |_| {
                    dilate(&support, Structuring::Square(grounding.patch / 2))
                });
                combined.and_with(&support);
            }
            combined
        });
        // The result carries the full-resolution relevance map as well.
        t.span("ground.relevance_full", Some(root), req, |_| {
            black_box(grounding.relevance_full(w, h));
        });
        (combined, masks.len(), adapted)
    })
}

/// What the slice replay measured besides its spans.
struct SliceReplay {
    /// `Zenesis::segment_slice` wall time per job, ms.
    reference_ms: Vec<f64>,
    boxes: Vec<usize>,
    /// A few adapted images, for the standalone kernels.
    adapted: Vec<Arc<Image<f32>>>,
    raws: Vec<Image<f32>>,
}

/// Replay slice jobs as whole requests: parse, load, segment (staged), and
/// serialize, each under a span; then run the real `segment_slice` on the
/// same pixels and require the same mask.
fn replay_slices(t: &Tracer, jobs: &[SliceJob], first_request: u64) -> Result<SliceReplay, String> {
    let mut out = SliceReplay {
        reference_ms: Vec::new(),
        boxes: Vec::new(),
        adapted: Vec::new(),
        raws: Vec::new(),
    };
    for (i, job) in jobs.iter().enumerate() {
        let req = first_request + i as u64;
        let (mask, raw) = t.span("request", None, req, |root| -> Result<_, String> {
            let z = t.span("core.pipeline_new", Some(root), req, |_| new_pipeline());
            let raw = match &job.source {
                SliceSourceRef::File(path) => t.span("tiff.load_slice", Some(root), req, |_| {
                    zenesis_tiff::load_tiff(path)
                        .map(|page| page.to_f32())
                        .map_err(|e| format!("cannot read {path}: {e}"))
                })?,
                SliceSourceRef::Pixels(img) => img.clone(),
            };
            let (mask, boxes, adapted) = replica_segment_slice(t, root, req, &z, &raw, &job.prompt);
            out.boxes.push(boxes);
            if out.adapted.len() < 8 {
                out.adapted.push(adapted);
            }
            Ok((mask, raw))
        })?;
        let z = new_pipeline();
        let t0 = Instant::now();
        let reference = z.segment_slice(&raw, &job.prompt);
        out.reference_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if reference.combined != mask {
            return Err(format!(
                "the staged replica's mask differs from Zenesis::segment_slice on job {i} ({} vs {} pixels)",
                mask.count(),
                reference.combined.count()
            ));
        }
        if reference.detections.len() != out.boxes[i] {
            return Err(format!(
                "the staged replica decoded a different number of boxes on job {i}"
            ));
        }
        if out.raws.len() < 12 {
            out.raws.push(raw);
        }
    }
    Ok(out)
}

/// Slice-pipeline layers: spans of the replay, then the standalone calls.
pub fn slice_layers(
    t: &Tracer,
    jobs: &[SliceJob],
    specs: &[JobSpec],
    layers: &mut Layers,
) -> Result<(), String> {
    let replay = replay_slices(t, jobs, 0)?;
    let n = jobs.len() as f64;
    let reference = median(&replay.reference_ms);
    let (w, h) = replay.raws[0].dims();
    for (metric, span) in [
        ("tiff.load_slice_ms", "tiff.load_slice"),
        ("image.to_f32_ms", "image.to_f32"),
        ("adapt.run_ms", "adapt.run"),
        ("adapt.stage_ms.destripe", "adapt.stage.destripe"),
        (
            "adapt.stage_ms.percentile_stretch",
            "adapt.stage.percentile_stretch",
        ),
        ("adapt.stage_ms.median", "adapt.stage.median"),
        ("adapt.stage_ms.clahe", "adapt.stage.clahe"),
        ("ground.ground_ms", "ground.ground"),
        ("ground.relevance_full_ms", "ground.relevance_full"),
        ("sam.decode_ms_per_box", "sam.decode"),
        ("core.gate_ms", "core.gate"),
        ("image.dilate_ms", "image.dilate"),
    ] {
        layers.set(metric, t.median_ms(span));
    }
    layers.set(
        "adapt.mpix_per_s",
        (w * h) as f64 / 1e6 / (layers.get("adapt.run_ms") / 1e3),
    );
    let boxes: usize = replay.boxes.iter().sum();
    layers.set("ground.detections_per_slice", boxes as f64 / n);
    layers.set(
        "sam.decodes_per_slice",
        t.durations_ms("sam.decode").len() as f64 / n,
    );
    layers.set("core.segment_slice_ms", reference);
    let staged = median(&t.durations_ms("core.segment_slice"));
    layers.set(
        "trace.replica_gap_pct",
        (staged - reference) / reference * 100.0,
    );
    // Per job: what the four named stages and the gate leave of the real
    // call unexplained.
    let (adapt, join, decode, gate) = (
        t.per_request_ms("adapt.run"),
        t.per_request_ms("par.join"),
        t.per_request_ms("sam.decode"),
        t.per_request_ms("core.gate"),
    );
    let residuals: Vec<f64> = replay
        .reference_ms
        .iter()
        .enumerate()
        .map(|(i, whole)| {
            let r = i as u64;
            let staged = adapt[&r] + join[&r] + decode.get(&r).copied().unwrap_or(0.0) + gate[&r];
            1.0 - staged / whole
        })
        .collect();
    layers.set("core.residual_share", median(&residuals));

    // Standalone calls, on this workload's own adapted images.
    let z = new_pipeline();
    let images = &replay.adapted;
    let mut at = 0;
    let mut next = || {
        at += 1;
        &images[at % images.len()]
    };
    let (patch, sigma) = (z.dino().config.patch, z.dino().config.feature_sigma);
    layers.set(
        "ground.features_ms",
        t.time_calls("ground.features", 30, Duration::from_millis(300), || {
            FeatureGrid::compute_at_scale(next(), patch, sigma)
        }),
    );
    layers.set(
        "sam.encode_ms",
        t.time_calls("sam.encode", 30, Duration::from_millis(300), || {
            z.sam().encode(next())
        }),
    );
    let cached = &images[0];
    z.sam().encode_cached(cached);
    layers.set(
        "sam.encode_cached_hit_us",
        time_us(8, || z.sam().encode_cached(cached)),
    );
    kernel_layers(&images[0], patch, layers);

    let job_ms: Vec<f64> = specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            black_box(run_job(spec));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.set("core.run_job_slice_ms", median(&job_ms));

    layers.set(
        "par.join_overhead_us",
        time_us(8, || zenesis_par::join(|| (), || ())),
    );
    let prompt = &jobs[0].prompt;
    let segment = |threads: usize| {
        let _g = ThreadsGuard::new(threads);
        let times: Vec<f64> = replay
            .raws
            .iter()
            .map(|raw| {
                let z = new_pipeline();
                let t0 = Instant::now();
                black_box(z.segment_slice(raw, prompt));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    };
    layers.set("par.slice_speedup_t2", segment(1) / segment(2));
    obs_layers(&replay.raws, prompt, layers);
    Ok(())
}

/// The two kernels grounding spends its time in, at the shapes it issues
/// for one slice: patch features times the projection, and text-to-patch
/// attention weights. Operation counts are computed from the shapes.
fn kernel_layers(adapted: &Image<f32>, patch: usize, layers: &mut Layers) {
    const EMBED_DIM: usize = 32;
    const PROMPT_TOKENS: usize = 3;
    let grid = FeatureGrid::compute(adapted, patch);
    let (tokens, channels) = (grid.feats.rows(), grid.feats.cols());
    let projection = Matrix::seeded_uniform(channels, EMBED_DIM, 0.35, 7);
    let matmul = |threads: usize| {
        let _g = ThreadsGuard::new(threads);
        time_us(8, || grid.feats.matmul(&projection))
    };
    let us = matmul(zenesis_par::available_parallelism());
    layers.set("tensor.matmul_us", us);
    layers.set(
        "tensor.matmul_gflops",
        (2 * tokens * channels * EMBED_DIM) as f64 / us / 1e3,
    );
    layers.set("tensor.matmul_speedup_t2", matmul(1) / matmul(2));
    let k = grid.feats.matmul(&projection);
    let q = Matrix::seeded_uniform(PROMPT_TOKENS, EMBED_DIM, 1.0, 11);
    let us = time_us(8, || zenesis_nn::attention_weights(&q, &k));
    layers.set("nn.attention_us", us);
    layers.set(
        "nn.attention_gflops",
        (2 * PROMPT_TOKENS * tokens * EMBED_DIM) as f64 / us / 1e3,
    );
}

/// What each `ZENESIS_OBS` level costs `segment_slice`, as a share of the
/// time with recording off. Every workload runs with it off.
fn obs_layers(raws: &[Image<f32>], prompt: &str, layers: &mut Layers) {
    use zenesis_obs::ObsLevel;
    let mut ms = [Vec::new(), Vec::new(), Vec::new()];
    for raw in raws {
        for (i, level) in [ObsLevel::Off, ObsLevel::Spans, ObsLevel::Full]
            .into_iter()
            .enumerate()
        {
            zenesis_obs::set_level(level);
            let z = new_pipeline();
            let t0 = Instant::now();
            black_box(z.segment_slice(raw, prompt));
            ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    zenesis_obs::set_level(ObsLevel::Off);
    zenesis_obs::reset();
    let off = median(&ms[0]);
    layers.set(
        "obs.spans_overhead_pct",
        (median(&ms[1]) - off) / off * 100.0,
    );
    layers.set(
        "obs.full_overhead_pct",
        (median(&ms[2]) - off) / off * 100.0,
    );
}

/// Volume layers on one workload's stacks: streaming TIFF reads, the
/// volume executor at one and two threads, temporal refinement, the
/// journal and the mask-stack encode. Returns slice jobs sampled from the
/// stacks, for the slice replay.
pub fn volume_layers(
    t: &Tracer,
    stacks: &[(String, String)],
    scratch: &Path,
    layers: &mut Layers,
) -> Result<Vec<SliceJob>, String> {
    let (path, prompt) = &stacks[0];
    let open =
        || zenesis_tiff::VolumeReader::open(path).map_err(|e| format!("cannot open {path}: {e}"));
    layers.set(
        "tiff.open_volume_ms",
        t.time_calls("tiff.open_volume", 30, Duration::from_millis(100), || {
            open().map(|r| r.depth())
        }),
    );
    let mut sampled = Vec::new();
    for (path, prompt) in stacks {
        let reader = zenesis_tiff::VolumeReader::open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        for z in 0..reader.depth() {
            let slice = t
                .span("tiff.read_slice", None, NO_REQUEST, |_| {
                    reader.read_slice(z)
                })
                .map_err(|e| format!("cannot read slice {z} of {path}: {e}"))?;
            if z % 4 == 0 {
                sampled.push(SliceJob {
                    source: SliceSourceRef::Pixels(slice),
                    prompt: prompt.clone(),
                });
            }
        }
    }
    let reader = open()?;
    let read_ms = t.median_ms("tiff.read_slice");
    layers.set("tiff.read_slice_ms", read_ms);
    // Bytes are computed from the page shape (16-bit samples), not read
    // from the disk's counters.
    let page_mb = (reader.width() * reader.height() * 2) as f64 / 1e6;
    layers.set("tiff.read_mb_per_s", page_mb / (read_ms / 1e3));

    // The volume executor, one thread against two, on the first stack.
    let z = new_pipeline();
    let stream = |threads: usize| {
        let _g = ThreadsGuard::new(threads);
        let t0 = Instant::now();
        let r = t.span(
            &format!("core.segment_volume_streamed.t{threads}"),
            None,
            NO_REQUEST,
            |_| z.segment_volume_streamed(&reader, prompt, &CancelToken::new(), None),
        );
        (r, t0.elapsed().as_secs_f64())
    };
    let (_, one) = stream(1);
    let (result, two) = stream(2);
    let result = result.map_err(|e| format!("segment_volume_streamed failed: {e}"))?;
    layers.set("par.volume_speedup_t2", one / two);

    let masks_path = scratch.join("trace-masks.tif");
    layers.set(
        "tiff.write_masks_ms",
        t.time_calls("tiff.write_masks", 5, Duration::from_millis(200), || {
            zenesis_tiff::save_mask_volume_tiff(&result.masks, &masks_path)
        }),
    );
    let _ = std::fs::remove_file(&masks_path);

    let raw_boxes: Vec<Option<BoxRegion>> = result.events.iter().map(|e| e.raw_box).collect();
    layers.set(
        "core.refine_boxes_us",
        time_us(8, || refine_boxes(&raw_boxes, &z.config.temporal)),
    );

    // The journal: one slice record and one mask record per slice, as the
    // executor appends them.
    let journal_dir = scratch.join("trace-journal");
    let header = Header::new(
        reader.depth(),
        reader.width(),
        reader.height(),
        prompt,
        "{}",
    );
    let opened = Journal::open(&journal_dir, &header, false)
        .map_err(|e| format!("cannot open a journal: {e}"))?;
    let appends: Vec<f64> = result
        .masks
        .iter()
        .zip(&result.events)
        .enumerate()
        .map(|(slice, (mask, event))| {
            let detections: Vec<Detection> = event
                .used_box
                .iter()
                .map(|&bbox| Detection {
                    bbox,
                    score: 0.9,
                    phrase: prompt.clone(),
                })
                .collect();
            let t0 = Instant::now();
            t.span("core.checkpoint_append", None, NO_REQUEST, |_| {
                opened
                    .journal
                    .record_slice(slice, &SliceOutcome::Ok, &detections, mask);
                opened.journal.record_mask(slice, mask, false);
            });
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    drop(opened);
    let _ = std::fs::remove_dir_all(&journal_dir);
    layers.set("core.checkpoint_append_ms", median(&appends));

    // Whole jobs through `run_job`, journal and mask file included.
    let mut job_ms = Vec::new();
    let mut corrections = 0;
    for (i, (path, prompt)) in stacks.iter().chain(stacks.first()).enumerate() {
        let ckpt = scratch.join(format!("trace-job-{i}-ckpt"));
        let masks = scratch.join(format!("trace-job-{i}-masks.tif"));
        let spec = JobSpec::Batch {
            input: zenesis_core::job::InputSpec::TiffVolumeFile { path: path.clone() },
            prompt: prompt.clone(),
            config: None,
            checkpoint_dir: Some(ckpt.to_string_lossy().into_owned()),
            resume: true,
            masks_out: Some(masks.to_string_lossy().into_owned()),
        };
        let t0 = Instant::now();
        let result = t.span("core.run_job_volume", None, NO_REQUEST, |_| run_job(&spec));
        job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let JobResult::Volume {
            corrections: c,
            depth,
            ..
        } = result
        else {
            return Err(format!("run_job on {path} answered {result:?}"));
        };
        if i < stacks.len() {
            corrections += c;
        }
        layers.set(
            "core.checkpoint_bytes_per_slice",
            zenesis_core::checkpoint::journal_len(&ckpt) as f64 / depth as f64,
        );
        let _ = std::fs::remove_dir_all(&ckpt);
        let _ = std::fs::remove_file(&masks);
    }
    layers.set("core.run_job_volume_ms", median(&job_ms));
    // A count: it must repeat exactly for a given seed.
    layers.set("core.temporal_corrections", corrections as f64);
    Ok(sampled)
}

fn instant_runner() -> JobRunner {
    Arc::new(|_spec, _cancel| JobResult::Volume {
        depth: 1,
        corrections: 0,
        per_slice_pixels: vec![1],
        degraded: vec![],
        failed: vec![],
    })
}

/// The serving layer's fixed costs, with the job itself taken out: parse,
/// serialize, queue, dispatch to a worker and back, and a TCP round trip
/// through the mux. `line` is one of the workload's own request lines.
pub fn serve_layers(line: &str, layers: &mut Layers) -> Result<(), String> {
    layers.set(
        "serve.parse_us",
        time_us(16, || zenesis_serve::parse_request(line, 1)),
    );
    let response = |result: JobResult| Response {
        id: 7,
        trace: zenesis_obs::TraceId::from_u64(0x92d3_f0a1_c44b_e977).expect("nonzero"),
        attempts: 1,
        queue_ms: 0.4,
        run_ms: 36.5,
        retry_after_ms: None,
        result,
    };
    let slice = response(JobResult::Slice {
        detections: vec![BoxRegion::new(8, 16, 120, 200); 3],
        mask_pixels: 4096,
        coverage: 0.0625,
        total_ms: 36.1,
    });
    let volume = response(JobResult::Volume {
        depth: 48,
        corrections: 2,
        per_slice_pixels: (0..48).map(|z| 2500 + 13 * z).collect(),
        degraded: vec![],
        failed: vec![],
    });
    layers.set(
        "serve.serialize_slice_us",
        time_us(16, || slice.to_json_line()),
    );
    layers.set(
        "serve.serialize_volume_us",
        time_us(16, || volume.to_json_line()),
    );

    let queue = BoundedQueue::new(64);
    layers.set(
        "serve.queue_push_pop_us",
        time_us(64, || {
            queue
                .try_push(7u64, Lane::Interactive)
                .expect("the queue has room");
            queue.pop()
        }),
    );

    let config = ServeConfig {
        workers: 2,
        queue_cap: 64,
        tenant_cap: 8,
        ..ServeConfig::default()
    };
    let server = Arc::new(zenesis_serve::Server::start_with_runner(
        config,
        instant_runner(),
    ));
    let (tx, rx) = crossbeam::channel::unbounded();
    layers.set(
        "serve.dispatch_us",
        time_us(16, || {
            server.submit_line(line, 1, &tx);
            loop {
                if let Some(r) = rx.try_recv() {
                    break r;
                }
                std::hint::spin_loop();
            }
        }),
    );

    let mux = Mux::spawn(Arc::clone(&server), "127.0.0.1:0", MuxConfig::default())
        .map_err(|e| format!("cannot start an in-process mux: {e}"))?;
    let round_trip = (|| -> std::io::Result<f64> {
        use std::io::{BufRead, BufReader, Write};
        let mut conns = Vec::new();
        for _ in 0..2 {
            let s = std::net::TcpStream::connect(mux.local_addr())?;
            s.set_nodelay(true)?;
            conns.push((s.try_clone()?, BufReader::new(s)));
        }
        let mut turn = 0;
        let mut failed = None;
        let us = time_us(8, || {
            let (w, r) = &mut conns[turn % 2];
            turn += 1;
            let mut answer = String::new();
            if let Err(e) = writeln!(w, "{line}").and_then(|_| r.read_line(&mut answer)) {
                failed = Some(e);
            }
        });
        failed.map_or(Ok(us), Err)
    })();
    mux.shutdown();
    server.shutdown();
    layers.set(
        "serve.mux_roundtrip_us",
        round_trip.map_err(|e| format!("in-process mux round trip failed: {e}"))?,
    );
    Ok(())
}

/// `run_job` on the tiny jobs `control_plane` sends: the per-job fixed
/// cost (spec validation, pipeline construction, phantom generation).
pub fn tiny_job_layer(specs: &[JobSpec], layers: &mut Layers) {
    let mut at = 0;
    layers.set(
        "core.run_job_tiny_ms",
        time_ms(64, Duration::from_millis(200), || {
            at += 1;
            run_job(&specs[at % specs.len()])
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_data::SampleKind;

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let t = Tracer::new();
        t.span("root", None, 1, |root| {
            std::thread::sleep(Duration::from_millis(2));
            // Two overlapping children, as under a `par::join`.
            std::thread::scope(|s| {
                s.spawn(|| {
                    t.span("child", Some(root), 1, |_| {
                        std::thread::sleep(Duration::from_millis(6))
                    })
                });
                t.span("child", Some(root), 1, |_| {
                    std::thread::sleep(Duration::from_millis(6))
                });
            });
        });
        let rows = t.self_times();
        let (count, total, own) = rows["root"];
        assert_eq!(count, 1);
        assert!(total >= 8.0, "root lasted {total} ms");
        // Overlap is counted once: about 2 ms of the root is its own, not
        // 8 - 12 < 0.
        assert!(
            own > 1.0 && own < total - 5.0,
            "root self time {own} of {total} ms"
        );
        let (count, total, own) = rows["child"];
        assert_eq!(count, 2);
        assert!((total - own).abs() < 1e-9, "leaves are all self time");
        assert_eq!(t.per_request_ms("child").len(), 1);
        let json: serde_json::Value = serde_json::from_str(&t.to_json("w", 3)).unwrap();
        assert_eq!(json["spans"].as_array().unwrap().len(), 3);
        assert_eq!(json["spans"][1]["parent"], 0u64);
    }

    #[test]
    fn staged_replica_matches_segment_slice_bit_for_bit() {
        let t = Tracer::new();
        let jobs: Vec<SliceJob> = [
            (SampleKind::Amorphous, "bright catalyst particles"),
            (SampleKind::Crystalline, "needle-like crystalline catalyst"),
        ]
        .into_iter()
        .map(|(kind, prompt)| SliceJob {
            source: SliceSourceRef::Pixels(
                generate_slice(&PhantomConfig::new(kind, 5).with_size(96, 96))
                    .raw
                    .to_f32(),
            ),
            prompt: prompt.to_string(),
        })
        .collect();
        let replay = replay_slices(&t, &jobs, 0).expect("the replica is bit-identical");
        assert_eq!(replay.reference_ms.len(), 2);
        assert!(
            replay.boxes.iter().any(|&b| b > 0),
            "the phantoms have structure to detect"
        );
        // Every stage of the default recipe left a span under each request.
        for name in [
            "adapt.stage.destripe",
            "adapt.stage.clahe",
            "ground.ground",
            "sam.encode_cached",
            "core.gate",
        ] {
            assert_eq!(t.per_request_ms(name).len(), 2, "{name}");
        }
    }
}
