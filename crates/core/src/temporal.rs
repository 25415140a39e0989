//! Heuristic temporal box refinement for volumes (Fig. 7).
//!
//! Paper: "For multi-slice volumes, the system computes mean width/height
//! across a fallback window of adjacent slices. Boxes exceeding a height
//! or width factor are replaced by the average box of previous slices,
//! ensuring temporal consistency and mitigating artifacts due to sudden
//! changes in appearance or GroundingDINO failures."

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use zenesis_adapt::AdaptPipeline;
use zenesis_ground::Detection;
use zenesis_image::{BitMask, BoxRegion, Image, Pixel};
use zenesis_par::CancelToken;
use zenesis_sam::{ImageEmbedding, Polarity, PromptSet};

use crate::pipeline::{PipelineTrace, SliceResult, Zenesis};

/// Temporal refinement parameters. Unknown keys are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TemporalConfig {
    /// Number of previous slices in the fallback window.
    pub window: usize,
    /// A box is an outlier if its width or height differs from the window
    /// mean by more than this multiplicative factor (checked both ways:
    /// `dim > factor * mean` or `dim < mean / factor`).
    pub size_factor: f64,
    /// Also treat a missing detection (no boxes at all) as an outlier and
    /// substitute the window-average box.
    pub fill_missing: bool,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        TemporalConfig {
            window: 3,
            size_factor: 1.6,
            fill_missing: true,
        }
    }
}

/// Per-slice record of what the heuristic did.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SliceBoxEvent {
    pub slice: usize,
    /// The primary DINO box before refinement (None = no detection).
    pub raw_box: Option<BoxRegion>,
    /// The box actually used after refinement.
    pub used_box: Option<BoxRegion>,
    /// Whether the heuristic replaced the raw box.
    pub corrected: bool,
}

/// How one slice of a volume fared through the fault-tolerant pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceOutcome {
    /// The primary pipeline (possibly after one retry) produced the slice.
    Ok,
    /// The primary pipeline failed; a fallback (Otsu baseline, or the
    /// stage-1 mask when stage-3 decode failed) stands in for this slice.
    Degraded {
        /// Why the primary path was abandoned.
        reason: String,
    },
    /// Both the primary pipeline and the fallback failed; the slice's
    /// mask is empty.
    Failed {
        /// Why nothing could be produced.
        reason: String,
    },
}

impl SliceOutcome {
    /// Stage 3 keeps the stage-1 mask of a failed slice, and of a
    /// degraded one the temporal heuristic gave no rescue box.
    pub(crate) fn keeps_stage1_mask(&self, primary: Option<BoxRegion>) -> bool {
        self.is_failed() || (!self.is_ok() && primary.is_none())
    }

    /// The primary pipeline produced this slice.
    pub fn is_ok(&self) -> bool {
        matches!(self, SliceOutcome::Ok)
    }

    /// A fallback stands in for this slice.
    pub fn is_degraded(&self) -> bool {
        matches!(self, SliceOutcome::Degraded { .. })
    }

    /// Nothing could be produced for this slice.
    pub fn is_failed(&self) -> bool {
        matches!(self, SliceOutcome::Failed { .. })
    }
}

/// What stage 1 keeps per slice: detections, the stage-1 mask, and the
/// health outcome. The adapted pixels are dropped once encoded; the
/// slice's SAM embedding and per-box masks travel beside this record
/// only until the slice decodes, so the volume executor holds at most
/// threads + ring capacity embeddings, never one per slice.
pub(crate) struct StageOne {
    pub(crate) detections: Vec<Detection>,
    pub(crate) combined: BitMask,
    pub(crate) outcome: SliceOutcome,
}

/// A volume run could not complete.
#[derive(Debug)]
pub enum VolumeError {
    /// Cancelled by deadline or explicit stop (carries partial progress).
    Cancelled(VolumeCancelled),
    /// More than half the slices failed outright — the volume result
    /// would be garbage, so the run aborts instead of degrading further.
    TooManyFailures {
        /// Slices whose primary pipeline *and* fallback both failed.
        failed: usize,
        /// Slices in the volume.
        total: usize,
    },
    /// The checkpoint journal could not be opened.
    Checkpoint(String),
}

impl std::fmt::Display for VolumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeError::Cancelled(c) => {
                write!(f, "cancelled after {}/{} slices", c.completed, c.total)
            }
            VolumeError::TooManyFailures { failed, total } => {
                write!(f, "volume abandoned: {failed}/{total} slices failed")
            }
            VolumeError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for VolumeError {}

impl VolumeError {
    /// True when `message` is the rendered form of
    /// [`VolumeError::TooManyFailures`]. Abort conditions cross the job
    /// boundary flattened into a `JobResult::Error` message, so
    /// downstream triggers (the serve-side flight recorder) need a
    /// stable classifier; keeping it here, beside the `Display` impl it
    /// mirrors — and pinned to it by a unit test below — means the
    /// message cannot be reworded without this classifier following.
    pub fn message_is_too_many_failures(message: &str) -> bool {
        message.starts_with("volume abandoned:")
    }
}

/// A volume run was cancelled (deadline or explicit stop) before every
/// slice finished; carries the partial progress for the timeout result.
#[derive(Debug)]
pub struct VolumeCancelled {
    /// Slices that fully completed the cancelled stage.
    pub completed: usize,
    /// Slices in the volume.
    pub total: usize,
    /// Combined-mask pixel counts of the completed slices, in slice
    /// order (masks of unreached slices are simply absent).
    pub per_slice_pixels: Vec<usize>,
}

/// Result of batch volume processing.
#[derive(Debug)]
pub struct VolumeResult {
    /// Per-slice segmentation masks.
    pub masks: Vec<BitMask>,
    /// What the temporal heuristic did per slice.
    pub events: Vec<SliceBoxEvent>,
    /// Per-slice health: which slices came from the primary pipeline,
    /// which from a fallback, and which produced nothing.
    pub outcomes: Vec<SliceOutcome>,
}

impl VolumeResult {
    /// Number of slices whose box was corrected.
    pub fn corrections(&self) -> usize {
        self.events.iter().filter(|e| e.corrected).count()
    }

    /// Indices of slices served by a fallback.
    pub fn degraded_slices(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_degraded())
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of slices that produced nothing (empty mask).
    pub fn failed_slices(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_failed())
            .map(|(i, _)| i)
            .collect()
    }

    /// Volumetric evaluation against per-slice ground truth: pooled 3-D
    /// metrics plus temporal-smoothness diagnostics.
    pub fn evaluate(&self, truths: &[BitMask]) -> zenesis_metrics::VolumeEval {
        zenesis_metrics::evaluate_volume(&self.masks, truths)
    }
}

/// Is `b` an outlier relative to the window mean dimensions?
fn is_outlier(b: &BoxRegion, mean_w: f64, mean_h: f64, factor: f64) -> bool {
    let (w, h) = (b.width() as f64, b.height() as f64);
    w > factor * mean_w || h > factor * mean_h || w < mean_w / factor || h < mean_h / factor
}

/// Mean box (center and size averaged) of a window of boxes.
fn mean_box(window: &[BoxRegion]) -> BoxRegion {
    let n = window.len() as f64;
    let (mut cx, mut cy, mut w, mut h) = (0.0, 0.0, 0.0, 0.0);
    for b in window {
        let (bx, by) = b.center();
        cx += bx;
        cy += by;
        w += b.width() as f64;
        h += b.height() as f64;
    }
    BoxRegion::from_center(cx / n, cy / n, w / n, h / n)
}

/// Output of [`refine_boxes`]: per-slice used boxes, per-slice events,
/// and the `(mean width, mean height)` of the fallback window that
/// judged each slice (`None` before any history exists).
pub type RefinedBoxes = (
    Vec<Option<BoxRegion>>,
    Vec<SliceBoxEvent>,
    Vec<Option<(f64, f64)>>,
);

/// Apply the temporal heuristic to a per-slice primary-box sequence.
///
/// Returns `(used_boxes, events, window_dims)` where `window_dims[i]` is
/// the `(mean width, mean height)` of the fallback window that judged
/// slice `i` (`None` before any history exists — the same statistic also
/// screens that slice's secondary boxes). Accepted (non-outlier) boxes
/// enter the history window that judges later slices; replaced boxes do
/// not, so one bad slice cannot poison the statistics.
///
/// The heuristic is causal — slice `i` is judged only against slices
/// before it — so `refine_boxes(&raw[..k])` is the first `k` entries of
/// `refine_boxes(&raw)`, which lets the volume executor run it as a
/// cursor over the prefix of slices stage 1 has finished.
pub fn refine_boxes(raw: &[Option<BoxRegion>], cfg: &TemporalConfig) -> RefinedBoxes {
    let mut refiner = Refiner::new(*cfg, raw.len());
    for rb in raw {
        refiner.push(*rb);
    }
    refiner.finish()
}

/// [`refine_boxes`] one slice at a time, in z order.
pub(crate) struct Refiner {
    cfg: TemporalConfig,
    /// Accepted boxes, oldest first.
    history: Vec<BoxRegion>,
    out: RefinedBoxes,
}

impl Refiner {
    /// A refiner for a volume of `depth` slices.
    pub(crate) fn new(cfg: TemporalConfig, depth: usize) -> Self {
        Refiner {
            cfg,
            history: Vec::new(),
            out: (
                Vec::with_capacity(depth),
                Vec::with_capacity(depth),
                Vec::with_capacity(depth),
            ),
        }
    }

    /// Slices judged so far; the next [`Refiner::push`] judges this one.
    pub(crate) fn cursor(&self) -> usize {
        self.out.0.len()
    }

    /// The used box and window dimensions of judged slice `z`.
    pub(crate) fn judged(&self, z: usize) -> (Option<BoxRegion>, Option<(f64, f64)>) {
        (self.out.0[z], self.out.2[z])
    }

    /// Judge the next slice, whose primary box is `rb`.
    pub(crate) fn push(&mut self, rb: Option<BoxRegion>) -> &SliceBoxEvent {
        let cfg = &self.cfg;
        let window: Vec<BoxRegion> = self
            .history
            .iter()
            .rev()
            .take(cfg.window)
            .copied()
            .collect();
        let window_dims = (!window.is_empty()).then(|| {
            (
                window.iter().map(|x| x.width() as f64).sum::<f64>() / window.len() as f64,
                window.iter().map(|x| x.height() as f64).sum::<f64>() / window.len() as f64,
            )
        });
        let (used_box, corrected) = match (rb, window_dims) {
            (Some(b), Some((mean_w, mean_h))) => {
                if is_outlier(&b, mean_w, mean_h, cfg.size_factor) {
                    (Some(mean_box(&window)), true)
                } else {
                    (Some(b), false)
                }
            }
            (Some(b), None) => (Some(b), false),
            (None, Some(_)) if cfg.fill_missing => (Some(mean_box(&window)), true),
            (None, _) => (None, false),
        };
        if let (Some(u), false) = (used_box, corrected) {
            self.history.push(u);
        }
        let (used, events, dims) = &mut self.out;
        events.push(SliceBoxEvent {
            slice: used.len(),
            raw_box: rb,
            used_box,
            corrected,
        });
        used.push(used_box);
        dims.push(window_dims);
        events.last().expect("just pushed")
    }

    pub(crate) fn finish(self) -> RefinedBoxes {
        self.out
    }
}

/// Stringify a caught panic payload the way `std` does for uncaught
/// panics.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A zeroed trace for fallback / replayed slices (no stages ran).
fn empty_trace() -> PipelineTrace {
    PipelineTrace {
        adapt_ms: 0.0,
        ground_ms: 0.0,
        segment_ms: 0.0,
        total_ms: 0.0,
        adapt_stages: Vec::new(),
        tokens: Vec::new(),
        n_detections: 0,
    }
}

impl Zenesis {
    /// Stage 1 with quarantine: try the primary pipeline (panics and
    /// structured errors both caught), retry once, then fall back to the
    /// Otsu baseline on a sanitized minimally-adapted slice. Returns
    /// `None` only when `cancel` fired (the slice counts as unreached).
    /// A slice the primary pipeline produced comes back with the SAM
    /// embedding its masks were decoded from; a fallback's `adapted`
    /// is the sanitized minimal adaptation, and nothing encoded it.
    pub(crate) fn run_slice_guarded<T: Pixel>(
        &self,
        raw: &Image<T>,
        z: usize,
        prompt: &str,
        cancel: &CancelToken,
    ) -> Option<(SliceResult, SliceOutcome, Option<ImageEmbedding>)> {
        zenesis_fault::with_unit(z as u64, || {
            let _ = zenesis_fault::trip("slice.slow"); // latency-only site
            // Pre-compute death site: fires before the slice is journaled,
            // so a restarted worker hits the same slice and dies again —
            // the deterministic crash loop the poison breaker exists for.
            let _ = zenesis_fault::trip("worker.kill.pre");
            let mut reason = String::new();
            for attempt in 0..2 {
                match catch_unwind(AssertUnwindSafe(|| self.try_segment_slice(raw, prompt))) {
                    Ok(Ok((r, emb))) => return Some((r, SliceOutcome::Ok, Some(emb))),
                    Ok(Err(e)) => reason = e.to_string(),
                    Err(p) => reason = format!("panic: {}", panic_message(p.as_ref())),
                }
                if attempt == 0 {
                    zenesis_obs::counter("slice.quarantined").inc();
                    zenesis_obs::events::emit(zenesis_obs::events::Event::SliceQuarantined {
                        slice: z,
                        reason: reason.clone(),
                    });
                    // A deadline that fires during quarantine beats the
                    // retry/fallback budget: report unreached, not failed.
                    if cancel.is_cancelled() {
                        return None;
                    }
                }
            }
            if cancel.is_cancelled() {
                return None;
            }
            let (result, outcome) = match catch_unwind(AssertUnwindSafe(|| {
                self.otsu_fallback(raw)
            })) {
                Ok((r, None)) => {
                    let why = format!("primary pipeline failed ({reason}); otsu fallback");
                    (r, SliceOutcome::Degraded { reason: why })
                }
                Ok((r, Some(degenerate))) => {
                    let why = format!(
                        "primary pipeline failed ({reason}); otsu fallback degenerate: {degenerate}"
                    );
                    (r, SliceOutcome::Failed { reason: why })
                }
                Err(p) => {
                    let why = format!(
                        "primary pipeline failed ({reason}); otsu fallback panicked: {}",
                        panic_message(p.as_ref())
                    );
                    (self.empty_slice_result(raw), SliceOutcome::Failed { reason: why })
                }
            };
            match &outcome {
                SliceOutcome::Degraded { reason } => {
                    zenesis_obs::counter("slice.degraded").inc();
                    zenesis_obs::events::emit(zenesis_obs::events::Event::SliceDegraded {
                        slice: z,
                        reason: reason.clone(),
                    });
                }
                SliceOutcome::Failed { reason } => {
                    zenesis_obs::counter("slice.failed").inc();
                    zenesis_obs::events::emit(zenesis_obs::events::Event::SliceFailed {
                        slice: z,
                        reason: reason.clone(),
                    });
                }
                SliceOutcome::Ok => unreachable!("fallback never reports Ok"),
            }
            Some((result, outcome, None))
        })
    }

    /// The quarantine fallback: sanitize non-finite pixels, run the
    /// minimal adaptation, threshold with the Otsu baseline. Returns the
    /// degenerate-histogram reason when even Otsu has nothing to offer.
    fn otsu_fallback<T: Pixel>(
        &self,
        raw: &Image<T>,
    ) -> (SliceResult, Option<zenesis_baseline::OtsuDegenerate>) {
        let adapted = self.sanitized_minimal_adapt(raw);
        let (combined, degenerate) = match zenesis_baseline::try_segment_otsu(&adapted) {
            Ok(mask) => (mask, None),
            Err(d) => {
                let (w, h) = adapted.dims();
                (BitMask::new(w, h), Some(d))
            }
        };
        (self.synthesized_result(adapted, combined), degenerate)
    }

    /// An empty stand-in result for a slice nothing could segment.
    fn empty_slice_result<T: Pixel>(&self, raw: &Image<T>) -> SliceResult {
        let adapted = self.sanitized_minimal_adapt(raw);
        let (w, h) = adapted.dims();
        self.synthesized_result(adapted, BitMask::new(w, h))
    }

    /// Minimal adaptation with non-finite pixels zeroed first — the
    /// primary cascade may be exactly what failed, so the fallback uses
    /// the cheapest robust path instead.
    pub(crate) fn sanitized_minimal_adapt<T: Pixel>(&self, raw: &Image<T>) -> Image<f32> {
        let mut img = raw.to_f32();
        for v in img.as_mut_slice() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        AdaptPipeline::minimal().run(&img).0
    }

    /// Wrap an adapted image + mask as a [`SliceResult`] with no
    /// detections and a zeroed trace (fallbacks have no grounding).
    pub(crate) fn synthesized_result(&self, adapted: Image<f32>, combined: BitMask) -> SliceResult {
        let (w, h) = adapted.dims();
        SliceResult {
            adapted: Arc::new(adapted),
            detections: Vec::new(),
            masks: Vec::new(),
            combined,
            relevance: Image::zeros(w, h),
            trace: empty_trace(),
        }
    }

    /// Stage 3 with quarantine: run `decode` with two attempts (panics
    /// and the `sam.decode` fault site caught); on failure keep the
    /// stage-1 mask and flag the slice degraded.
    pub(crate) fn decode_slice_guarded(
        &self,
        z: usize,
        s1: &StageOne,
        decode: impl Fn() -> BitMask,
    ) -> (BitMask, bool) {
        zenesis_fault::with_unit(z as u64, || {
            let mut reason = String::new();
            for _attempt in 0..2 {
                let decoded = catch_unwind(AssertUnwindSafe(|| {
                    if zenesis_fault::trip("sam.decode").is_some() {
                        return Err("injected fault at sam.decode".to_string());
                    }
                    Ok(decode())
                }));
                match decoded {
                    Ok(Ok(m)) => return (m, false),
                    Ok(Err(e)) => reason = e,
                    Err(p) => reason = format!("panic: {}", panic_message(p.as_ref())),
                }
            }
            self.report_decode_degraded(z, &reason);
            (s1.combined.clone(), true)
        })
    }

    pub(crate) fn report_decode_degraded(&self, z: usize, reason: &str) {
        zenesis_obs::counter("slice.degraded").inc();
        zenesis_obs::events::emit(zenesis_obs::events::Event::SliceDegraded {
            slice: z,
            reason: format!("mask decode failed ({reason}); kept stage-1 mask"),
        });
    }

    /// Decode a slice's embedding using a refined primary box (if any)
    /// together with the secondary detections that pass the same
    /// temporal size screen (a glitched slice's garbage boxes must not
    /// leak in as secondaries), every box with the prompt's `polarity`.
    ///
    /// `masks` are the per-box masks stage 1 decoded from `emb` with the
    /// same polarity, aligned with `detections` (empty when stage 1 kept
    /// none). A box equal to a detection's box takes that mask instead of
    /// a second decode of the same prompt on the same embedding, so the
    /// result is bit-identical either way; only the other boxes —
    /// temporal mean boxes — are decoded.
    pub(crate) fn decode_with_box(
        &self,
        emb: &ImageEmbedding,
        polarity: Polarity,
        primary: Option<BoxRegion>,
        detections: &[Detection],
        masks: &[BitMask],
        window_dims: Option<(f64, f64)>,
    ) -> BitMask {
        let (w, h) = emb.dims();
        let mut combined = BitMask::new(w, h);
        let mut add = |b: BoxRegion| match detections.iter().zip(masks).find(|(d, _)| d.bbox == b) {
            Some((_, m)) => combined.or_with(m),
            None => combined.or_with(
                &self
                    .sam()
                    .segment(emb, &PromptSet::from_box(b).with_polarity(polarity)),
            ),
        };
        if let Some(b) = primary {
            add(b);
        }
        for d in detections.iter().skip(1) {
            if let Some((mean_w, mean_h)) = window_dims {
                if is_outlier(&d.bbox, mean_w, mean_h, self.config.temporal.size_factor) {
                    continue;
                }
            }
            add(d.bbox);
        }
        combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x0: usize, y0: usize, x1: usize, y1: usize) -> BoxRegion {
        BoxRegion::new(x0, y0, x1, y1)
    }

    /// Pins `message_is_too_many_failures` to the `Display` impl it
    /// classifies: rewording the error text must update both together.
    #[test]
    fn too_many_failures_classifier_matches_display() {
        let rendered = VolumeError::TooManyFailures {
            failed: 3,
            total: 4,
        }
        .to_string();
        assert!(VolumeError::message_is_too_many_failures(&rendered));
        for other in [
            VolumeError::Checkpoint("disk full".into()).to_string(),
            VolumeError::Cancelled(VolumeCancelled {
                completed: 1,
                total: 4,
                per_slice_pixels: vec![1],
            })
            .to_string(),
            "job panicked: boom".to_string(),
        ] {
            assert!(!VolumeError::message_is_too_many_failures(&other), "{other}");
        }
    }

    #[test]
    fn consistent_sequence_untouched() {
        let raw: Vec<Option<BoxRegion>> = (0..6)
            .map(|i| Some(b(10 + i, 10, 30 + i, 40)))
            .collect();
        let (used, events, _) = refine_boxes(&raw, &TemporalConfig::default());
        assert!(events.iter().all(|e| !e.corrected));
        assert_eq!(used, raw);
    }

    #[test]
    fn oversized_outlier_replaced_by_window_mean() {
        let mut raw: Vec<Option<BoxRegion>> =
            (0..5).map(|_| Some(b(10, 10, 30, 40))).collect();
        raw.push(Some(b(0, 0, 120, 120))); // sudden failure box
        raw.push(Some(b(10, 10, 30, 40)));
        let (used, events, _) = refine_boxes(&raw, &TemporalConfig::default());
        assert!(events[5].corrected, "outlier must be corrected");
        let u = used[5].unwrap();
        // Replacement has the window's dimensions (20 x 30).
        assert_eq!((u.width(), u.height()), (20, 30));
        // The slice after the outlier is judged against clean history.
        assert!(!events[6].corrected);
    }

    #[test]
    fn undersized_outlier_replaced() {
        let mut raw: Vec<Option<BoxRegion>> =
            (0..4).map(|_| Some(b(10, 10, 50, 50))).collect();
        raw.push(Some(b(20, 20, 24, 24))); // collapsed box
        let (_, events, _) = refine_boxes(&raw, &TemporalConfig::default());
        assert!(events[4].corrected);
    }

    #[test]
    fn missing_detection_filled_from_window() {
        let mut raw: Vec<Option<BoxRegion>> =
            (0..3).map(|_| Some(b(10, 10, 30, 40))).collect();
        raw.push(None);
        let (used, events, _) = refine_boxes(&raw, &TemporalConfig::default());
        assert!(events[3].corrected);
        assert!(used[3].is_some());
        let cfg = TemporalConfig {
            fill_missing: false,
            ..TemporalConfig::default()
        };
        let (used2, events2, _) = refine_boxes(&raw, &cfg);
        assert!(used2[3].is_none());
        assert!(!events2[3].corrected);
    }

    #[test]
    fn first_slice_never_corrected() {
        let raw = vec![Some(b(0, 0, 100, 100))];
        let (used, events, _) = refine_boxes(&raw, &TemporalConfig::default());
        assert!(!events[0].corrected);
        assert_eq!(used[0], raw[0]);
    }

    #[test]
    fn corrected_boxes_do_not_poison_history() {
        // Three good, then a run of bad boxes: all bad ones corrected
        // against the surviving good history.
        let mut raw: Vec<Option<BoxRegion>> =
            (0..3).map(|_| Some(b(10, 10, 30, 40))).collect();
        for _ in 0..4 {
            raw.push(Some(b(0, 0, 128, 128)));
        }
        let (_, events, _) = refine_boxes(&raw, &TemporalConfig::default());
        for e in &events[3..] {
            assert!(e.corrected, "slice {} should be corrected", e.slice);
        }
    }

    #[test]
    fn empty_sequence() {
        let (used, events, dims) = refine_boxes(&[], &TemporalConfig::default());
        assert!(used.is_empty() && events.is_empty() && dims.is_empty());
    }

    /// Stage 3 reusing stage 1's per-box masks assembles the same mask,
    /// bit for bit, as decoding every box again: with the primary a
    /// detection box, a temporal mean box or absent, with either
    /// polarity, and with a window that screens a secondary box out.
    #[test]
    fn stage_one_masks_decode_bit_identically() {
        use crate::config::ZenesisConfig;
        use zenesis_data::{generate_slice, PhantomConfig, SampleKind};

        let z = Zenesis::new(ZenesisConfig::default());
        let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 4));
        let prompt = "bright catalyst particles";
        let (r, emb) = z.try_segment_slice(&g.raw, prompt).expect("healthy slice");
        let dets = &r.detections;
        assert_eq!(dets.len(), 3, "a primary and two secondaries");
        let boxes: Vec<BoxRegion> = dets.iter().map(|d| d.bbox).collect();
        let mean = mean_box(&boxes);
        assert!(!boxes.contains(&mean), "the mean box is not a detection");
        // A window the size of the first secondary keeps it and screens
        // out the second.
        let d1 = &dets[1].bbox;
        let window = (d1.width() as f64, d1.height() as f64);
        let factor = z.config.temporal.size_factor;
        assert!(!is_outlier(d1, window.0, window.1, factor));
        assert!(is_outlier(&dets[2].bbox, window.0, window.1, factor));

        for polarity in [Polarity::Bright, Polarity::Dark] {
            let masks: Vec<BitMask> = boxes
                .iter()
                .map(|&b| {
                    z.sam()
                        .segment(&emb, &PromptSet::from_box(b).with_polarity(polarity))
                })
                .collect();
            if polarity == z.prompt_polarity(prompt) {
                assert_eq!(masks, r.masks, "stage 1's masks are these decodes");
            }
            for primary in [Some(boxes[0]), Some(mean), None] {
                for window_dims in [None, Some(window)] {
                    let reused =
                        z.decode_with_box(&emb, polarity, primary, dets, &masks, window_dims);
                    let decoded =
                        z.decode_with_box(&emb, polarity, primary, dets, &[], window_dims);
                    let case = format!("{polarity:?} {primary:?} {window_dims:?}");
                    assert!(decoded.count() > 0, "{case}: non-vacuous");
                    assert_eq!(reused.dims(), decoded.dims(), "{case}");
                    for y in 0..decoded.height() {
                        for x in 0..decoded.width() {
                            assert_eq!(reused.get(x, y), decoded.get(x, y), "{case} at ({x}, {y})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn factor_controls_sensitivity() {
        let mut raw: Vec<Option<BoxRegion>> =
            (0..3).map(|_| Some(b(10, 10, 30, 40))).collect();
        raw.push(Some(b(10, 10, 40, 55))); // 1.5x in both dims
        let strict = TemporalConfig {
            size_factor: 1.2,
            ..TemporalConfig::default()
        };
        let lax = TemporalConfig {
            size_factor: 2.0,
            ..TemporalConfig::default()
        };
        assert!(refine_boxes(&raw, &strict).1[3].corrected);
        assert!(!refine_boxes(&raw, &lax).1[3].corrected);
    }
}
