//! Mode B: segment a volume slice by slice.
//!
//! [`Zenesis::segment_volume_streamed`] is the one volume executor. It
//! pulls slices on demand from a [`SliceSource`] — a streaming TIFF
//! stack, or an in-memory `Volume<T>` — and never retains a slice's f32
//! pixels past the stage that needs them. Peak pixel residency is
//! O(active workers × one slice); only the per-slice *bit* masks and
//! detections — 32x smaller than the pixels — accumulate across the
//! run.
//!
//! Both passes that touch pixels (stage 1 adapt+ground, stage 3 decode)
//! read the slice independently, in-memory volumes included. That
//! re-read is safe under fault injection because an injection decision
//! is a pure function of `(seed, site, slice index)`: a slice that read
//! cleanly in stage 1 reads cleanly again in stage 3, and checkpoint
//! replay of either pass reproduces the original decision. Adaptation
//! is deterministic, so the re-adapted pixels entering stage 3 are
//! bit-identical to the ones stage 1 saw — the same property the
//! journal's replay path relies on. Stage 3 encodes each slice it
//! decodes once and hands that embedding to every decode of the slice.
//!
//! The executor carries the whole fault-tolerance contract of
//! docs/ROBUSTNESS.md: the quarantine/retry/Otsu ladder, temporal box
//! refinement, CRC-journaled checkpoint/resume, cancellation, and the
//! too-many-failures floor.

use std::panic::{catch_unwind, AssertUnwindSafe};

use zenesis_image::{BitMask, BoxRegion, Image, Pixel, Volume};
use zenesis_par::CancelToken;
use zenesis_sam::{ImageEmbedding, MemoryBank};

use crate::checkpoint::{self, CheckpointSpec, Replay};
use crate::pipeline::Zenesis;
use crate::temporal::{
    panic_message, refine_boxes, SliceOutcome, StageOne, VolumeCancelled, VolumeError, VolumeResult,
};

/// A volume whose slices are produced on demand, normalized to f32.
///
/// Implementations must be cheap to query for shape and must tolerate
/// concurrent `read_slice` calls from parallel slice workers.
pub trait SliceSource: Sync {
    /// Number of slices.
    fn depth(&self) -> usize;

    /// `(width, height)` of every slice.
    fn dims(&self) -> (usize, usize);

    /// Produce slice `z` in the `Image<f32>` substrate. Errors are
    /// surfaced as strings because the pipeline quarantines them per
    /// slice rather than propagating a typed failure.
    fn read_slice(&self, z: usize) -> Result<Image<f32>, String>;
}

/// A materialized volume streams by converting one slice at a time, so
/// stage 1 sees exactly the pixels `segment_slice` would.
impl<T: Pixel> SliceSource for Volume<T> {
    fn depth(&self) -> usize {
        Volume::depth(self)
    }

    fn dims(&self) -> (usize, usize) {
        self.slices().first().map_or((0, 0), |s| s.dims())
    }

    fn read_slice(&self, z: usize) -> Result<Image<f32>, String> {
        Ok(self.slice(z).to_f32())
    }
}

/// A TIFF stack on disk streams pages through the codec, with its
/// `io.tiff` fault site and `io.tiff.*` instrumentation in the path.
impl SliceSource for zenesis_tiff::VolumeReader {
    fn depth(&self) -> usize {
        zenesis_tiff::VolumeReader::depth(self)
    }

    fn dims(&self) -> (usize, usize) {
        (self.width(), self.height())
    }

    fn read_slice(&self, z: usize) -> Result<Image<f32>, String> {
        zenesis_tiff::VolumeReader::read_slice(self, z).map_err(|e| e.to_string())
    }
}

/// The run was cancelled during a stage: report the pixel counts of
/// the slices that finished it, in slice order.
fn cancelled<'a>(total: usize, done: impl Iterator<Item = &'a BitMask>) -> VolumeError {
    let per_slice_pixels: Vec<usize> = done.map(BitMask::count).collect();
    VolumeError::Cancelled(VolumeCancelled {
        completed: per_slice_pixels.len(),
        total,
        per_slice_pixels,
    })
}

impl Zenesis {
    /// Mode B batch processing of an in-memory volume with temporal
    /// refinement: [`Zenesis::segment_volume_streamed`] with no deadline
    /// and no journal.
    pub fn segment_volume<T: Pixel>(&self, vol: &Volume<T>, prompt: &str) -> VolumeResult {
        self.segment_volume_streamed(vol, prompt, &CancelToken::new(), None)
            .expect("a fresh token never cancels and a healthy volume never aborts")
    }

    /// Mode B over a [`SliceSource`]: the full fault-tolerant volume
    /// pipeline without ever holding more than O(active workers) slices
    /// of pixel data in memory.
    ///
    /// Stage 1 reads, adapts and grounds every slice in parallel, with
    /// per-slice quarantine and Otsu fallback; stage 2 runs the
    /// (sequential, windowed) box heuristic; stage 3 decodes masks in
    /// parallel with the refined boxes. When `config.use_memory` is set,
    /// decoding instead runs sequentially through a SAM2 memory bank,
    /// with the refined box of each slice seeding the cold start.
    ///
    /// `cancel` is polled before each slice of stages 1 and 3, so a
    /// deadline or an explicit stop yields [`VolumeError::Cancelled`]
    /// with the completed slices' pixel counts. When `checkpoint` is
    /// given, a crash-safe journal makes a killed run resumable without
    /// recomputing finished slices, bit-identically.
    ///
    /// A slice whose *read* fails (after one retry) is recorded as
    /// [`SliceOutcome::Failed`] with an empty mask: with no pixels
    /// there is nothing for the Otsu fallback to threshold. Read
    /// failures count toward the same >50% abort floor as pipeline
    /// failures.
    pub fn segment_volume_streamed(
        &self,
        src: &dyn SliceSource,
        prompt: &str,
        cancel: &CancelToken,
        checkpoint: Option<&CheckpointSpec>,
    ) -> Result<VolumeResult, VolumeError> {
        let _root = zenesis_obs::span("pipeline.segment_volume");
        let depth = src.depth();
        let (w, h) = src.dims();
        let (journal, replay) = match checkpoint {
            Some(spec) => {
                let config_json = serde_json::to_string(&self.config)
                    .map_err(|e| VolumeError::Checkpoint(format!("config fingerprint: {e}")))?;
                let header = checkpoint::Header::new(depth, w, h, prompt, &config_json);
                let opened =
                    checkpoint::Journal::open(&spec.dir, &header, spec.resume).map_err(|e| {
                        VolumeError::Checkpoint(format!(
                            "cannot open journal in {}: {e}",
                            spec.dir.display()
                        ))
                    })?;
                (Some(opened.journal), opened.replay)
            }
            None => (None, Replay::default()),
        };
        // Stage 1: read + adapt + ground each slice in parallel, then
        // immediately compact to detections/mask/outcome so the slice's
        // pixels are freed before the next slice is pulled. Workers tick
        // a shared progress counter and, when recording, emit one
        // `slice.done` event with per-slice latency, throughput, and ETA
        // — the live-telemetry feed for long Mode B batches. The timing
        // clock and mask count are only computed when recording, so
        // `ZENESIS_OBS=off` adds a single atomic add per slice. Slices
        // found in the checkpoint journal skip the pipeline entirely.
        let progress = zenesis_par::Progress::new(depth);
        let maybe_stage1: Vec<Option<StageOne>> = zenesis_par::par_map_range(depth, |z| {
            if cancel.is_cancelled() {
                return None;
            }
            if let Some(rep) = replay.slices.get(&z) {
                progress.tick();
                return Some(StageOne {
                    detections: rep.detections.clone(),
                    combined: rep.combined.clone(),
                    outcome: rep.outcome.clone(),
                });
            }
            let t0 = zenesis_obs::enabled().then(std::time::Instant::now);
            let one = match self.read_slice_guarded(src, z) {
                Ok(raw) => {
                    let (r, outcome) = self.run_slice_guarded(&raw, z, prompt, cancel)?;
                    StageOne {
                        detections: r.detections,
                        combined: r.combined,
                        outcome,
                    }
                }
                Err(reason) => self.failed_read_slice(z, w, h, reason),
            };
            if let Some(j) = &journal {
                j.record_slice(z, &one.outcome, &one.detections, &one.combined);
            }
            // Post-journal death sites: the slice is already durable,
            // so a kill/hang here costs at most this worker's life —
            // the restarted worker replays it and trips nothing,
            // guaranteeing forward progress per worker generation.
            zenesis_fault::with_unit(z as u64, || {
                let _ = zenesis_fault::trip("worker.kill");
                let _ = zenesis_fault::trip("worker.hang");
            });
            progress.tick();
            if let Some(t0) = t0 {
                zenesis_obs::events::emit(zenesis_obs::events::Event::SliceDone {
                    index: z,
                    done: progress.done_clamped(),
                    total: depth,
                    lat_ms: t0.elapsed().as_secs_f64() * 1e3,
                    mask_pixels: one.combined.count() as u64,
                    rate: progress.rate(),
                    eta_s: progress.eta_secs(),
                });
            }
            Some(one)
        });
        if maybe_stage1.iter().any(Option::is_none) {
            return Err(cancelled(
                depth,
                maybe_stage1.iter().flatten().map(|s| &s.combined),
            ));
        }
        let stage1: Vec<StageOne> = maybe_stage1.into_iter().flatten().collect();
        // Graceful degradation has a floor: a volume where most slices
        // produced nothing is not a result, it is a lie with a mask
        // format. Abort rather than hand back mostly-empty garbage.
        let failed = stage1.iter().filter(|s| s.outcome.is_failed()).count();
        if failed * 2 > depth {
            zenesis_obs::events::warn(format!("volume abandoned: {failed}/{depth} slices failed"));
            return Err(VolumeError::TooManyFailures {
                failed,
                total: depth,
            });
        }
        // Stage 2: temporal refinement over the primary (highest-score)
        // boxes.
        let refine_span = zenesis_obs::span("temporal.refine");
        let raw_boxes: Vec<Option<BoxRegion>> = stage1
            .iter()
            .map(|s| s.detections.first().map(|d| d.bbox))
            .collect();
        let (used, events, window_dims) = refine_boxes(&raw_boxes, &self.config.temporal);
        drop(refine_span);
        if zenesis_obs::enabled() {
            for e in events.iter().filter(|e| e.corrected) {
                zenesis_obs::events::emit(zenesis_obs::events::Event::TemporalReplace {
                    slice: e.slice,
                    had_detection: e.raw_box.is_some(),
                });
            }
        }
        // Stage 3: decode masks with the refined primary box plus the
        // secondary boxes that pass the same size screen, re-reading,
        // re-adapting and encoding each slice that decodes. A decode that
        // panics or trips a fault keeps the slice's stage-1 mask instead
        // (Otsu fallback for degraded slices, empty for failed ones).
        // Every box decodes with the prompt's polarity, as in stage 1.
        let _decode = zenesis_obs::span("temporal.decode");
        let polarity = self.prompt_polarity(prompt);
        let decode = |z: usize, emb: &ImageEmbedding| {
            self.decode_with_box(emb, polarity, used[z], &stage1[z].detections, window_dims[z])
        };
        let maybe_masks: Vec<Option<(BitMask, bool)>> = if self.config.use_memory {
            // The memory bank is sequential and stateful, so every slice
            // is re-read and propagated — failed ones included, seeding
            // the bank with their stage-1 mask so temporal continuity
            // survives the gap — and replayed masks are not shortcut or
            // journaled: the bank's warm state must match an unbroken
            // run.
            let mut bank = MemoryBank::new(self.config.temporal.window.max(1));
            let mut out = Vec::with_capacity(depth);
            for (z, s1) in stage1.iter().enumerate() {
                if cancel.is_cancelled() {
                    out.push(None);
                    continue;
                }
                let emb = match self.reencode(src, z, &s1.outcome) {
                    Ok(emb) => emb,
                    // No pixels to propagate: keep the stage-1 mask and
                    // leave the bank untouched. A slice whose stage-1
                    // read failed the same way is already `Failed`, not
                    // newly degraded.
                    Err(reason) => {
                        let degraded = !s1.outcome.is_failed();
                        if degraded {
                            self.report_decode_degraded(z, &reason);
                        }
                        out.push(Some((s1.combined.clone(), degraded)));
                        continue;
                    }
                };
                let decoded = zenesis_fault::with_unit(z as u64, || {
                    catch_unwind(AssertUnwindSafe(|| {
                        bank.propagate(self.sam(), &emb, || {
                            if s1.outcome.keeps_stage1_mask(used[z]) {
                                s1.combined.clone()
                            } else {
                                decode(z, &emb)
                            }
                        })
                    }))
                });
                out.push(Some(match decoded {
                    Ok(mask) => (mask, false),
                    Err(p) => {
                        self.report_decode_degraded(z, &panic_message(p.as_ref()));
                        (s1.combined.clone(), true)
                    }
                }));
            }
            out
        } else {
            // Slices that keep their stage-1 mask (failed, or degraded
            // without a rescue box) are never re-read.
            zenesis_par::par_map_range(depth, |z| {
                if cancel.is_cancelled() {
                    return None;
                }
                if let Some(rep) = replay.masks.get(&z) {
                    return Some((rep.mask.clone(), rep.degraded_by_decode));
                }
                let s1 = &stage1[z];
                let (mask, degraded) = if s1.outcome.keeps_stage1_mask(used[z]) {
                    (s1.combined.clone(), false)
                } else {
                    match self.reencode(src, z, &s1.outcome) {
                        Ok(emb) => self.decode_slice_guarded(z, s1, || decode(z, &emb)),
                        Err(reason) => {
                            self.report_decode_degraded(z, &reason);
                            (s1.combined.clone(), true)
                        }
                    }
                };
                if let Some(j) = &journal {
                    j.record_mask(z, &mask, degraded);
                }
                Some((mask, degraded))
            })
        };
        if maybe_masks.iter().any(Option::is_none) {
            return Err(cancelled(
                depth,
                maybe_masks.iter().flatten().map(|(m, _)| m),
            ));
        }
        let mut outcomes: Vec<SliceOutcome> = stage1.into_iter().map(|s| s.outcome).collect();
        let mut masks = Vec::with_capacity(depth);
        for (z, (mask, degraded_by_decode)) in maybe_masks.into_iter().flatten().enumerate() {
            if degraded_by_decode && outcomes[z].is_ok() {
                outcomes[z] = SliceOutcome::Degraded {
                    reason: "mask decode failed; stage-1 mask used".into(),
                };
            }
            masks.push(mask);
        }
        Ok(VolumeResult {
            masks,
            events,
            outcomes,
        })
    }

    /// Read slice `z` with one retry, under the slice's fault unit so
    /// an `io.tiff` injection decision is reproducible across passes.
    fn read_slice_guarded(&self, src: &dyn SliceSource, z: usize) -> Result<Image<f32>, String> {
        zenesis_fault::with_unit(z as u64, || {
            let mut reason = String::new();
            for _attempt in 0..2 {
                match src.read_slice(z) {
                    Ok(img) => return Ok(img),
                    Err(e) => reason = e,
                }
            }
            Err(reason)
        })
    }

    /// Stage-1 record for a slice whose pixels never arrived.
    fn failed_read_slice(&self, z: usize, w: usize, h: usize, reason: String) -> StageOne {
        let why = format!("slice read failed ({reason})");
        zenesis_obs::counter("slice.failed").inc();
        zenesis_obs::events::emit(zenesis_obs::events::Event::SliceFailed {
            slice: z,
            reason: why.clone(),
        });
        StageOne {
            detections: Vec::new(),
            combined: BitMask::new(w, h),
            outcome: SliceOutcome::Failed { reason: why },
        }
    }

    /// Re-read, re-adapt and encode slice `z` for stage-3 decoding:
    /// healthy slices re-run the full (deterministic) adaptation,
    /// quarantined slices the sanitized minimal one — the adaptation
    /// stage 1 used, so stage 3 decodes from the pixels stage 1 saw.
    /// The adapted pixels are dropped once encoded.
    fn reencode(
        &self,
        src: &dyn SliceSource,
        z: usize,
        outcome: &SliceOutcome,
    ) -> Result<ImageEmbedding, String> {
        let raw = self.read_slice_guarded(src, z)?;
        let adapted = match outcome {
            SliceOutcome::Ok => self.config.adapt.run(&raw),
            _ => self.sanitized_minimal_adapt(&raw),
        };
        Ok(self.sam().encode(&adapted))
    }
}
