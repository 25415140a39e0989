//! The core Zenesis pipeline: raw → adapt → ground → segment (Fig. 2).
//!
//! With `ZENESIS_OBS=spans` (or `full`) every run records a span tree —
//! `pipeline.segment_slice` over `pipeline.adapt` / `pipeline.ground` /
//! `pipeline.segment`, which in turn cover the per-stage, grounding, and
//! decoder sub-spans of the lower layers — plus the
//! `pipeline.{adapt,ground,segment,total}.lat` latency histograms. The
//! [`PipelineTrace`] carried on every [`SliceResult`] is filled from the
//! same wall-clock measurements whether or not recording is on, so
//! outputs are identical with observability disabled.

#![allow(clippy::field_reassign_with_default)]

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use zenesis_adapt::AdaptTrace;
use zenesis_ground::{Detection, GroundingDino};
use zenesis_image::{BitMask, Image, Pixel};
use zenesis_sam::{Polarity, PromptSet, Sam};

use crate::config::ZenesisConfig;

/// Why one slice failed the guarded (volume) pipeline. The plain
/// [`Zenesis::segment_slice`] path is infallible; these arise only from
/// [`Zenesis::try_segment_slice`], where quarantine needs a structured
/// reason to journal and report.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceError {
    /// The adaptation cascade produced (or received) non-finite pixels.
    Adapt(zenesis_adapt::AdaptError),
    /// A downstream stage produced non-finite values.
    NonFinite {
        /// Pipeline stage that produced the values.
        stage: String,
        /// Number of non-finite values observed.
        count: usize,
    },
    /// An armed fault-injection site fired (tests and chaos drills).
    Injected {
        /// The fault site that fired.
        site: &'static str,
    },
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceError::Adapt(e) => write!(f, "adapt: {e}"),
            SliceError::NonFinite { stage, count } => {
                write!(f, "{count} non-finite values after stage {stage}")
            }
            SliceError::Injected { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for SliceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SliceError::Adapt(e) => Some(e),
            _ => None,
        }
    }
}

/// Stage timings and provenance of one slice run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineTrace {
    pub adapt_ms: f64,
    pub ground_ms: f64,
    pub segment_ms: f64,
    pub total_ms: f64,
    pub adapt_stages: Vec<AdaptTrace>,
    pub tokens: Vec<String>,
    pub n_detections: usize,
}

/// The result of segmenting one slice.
#[derive(Debug, Clone)]
pub struct SliceResult {
    /// The adapted (model-ready) image, shared so re-prompting and
    /// temporal refinement never copy the pixels.
    pub adapted: Arc<Image<f32>>,
    /// DINO detections that survived thresholds and NMS.
    pub detections: Vec<Detection>,
    /// Per-detection masks, aligned with `detections`.
    pub masks: Vec<BitMask>,
    /// Union of all per-detection masks — the Zenesis segmentation.
    pub combined: BitMask,
    /// Patch-level grounding relevance upsampled to image resolution
    /// (used for display overlays and multi-object conflict resolution).
    pub relevance: Image<f32>,
    /// Stage provenance.
    pub trace: PipelineTrace,
}

impl SliceResult {
    /// Pixel coverage of the combined mask.
    pub fn coverage(&self) -> f64 {
        self.combined.coverage()
    }
}

/// The assembled platform pipeline.
pub struct Zenesis {
    pub config: ZenesisConfig,
    dino: GroundingDino,
    sam: Sam,
}

impl Zenesis {
    pub fn new(config: ZenesisConfig) -> Self {
        let dino = GroundingDino::new(config.dino.clone());
        let sam = Sam::new(config.sam);
        Zenesis { config, dino, sam }
    }

    /// Access the grounding model (used by rectify / hierarchy).
    pub fn dino(&self) -> &GroundingDino {
        &self.dino
    }

    /// Access the segmenter.
    pub fn sam(&self) -> &Sam {
        &self.sam
    }

    /// Teach the platform a user concept learned with
    /// [`zenesis_ground::finetune`] (the optional fine-tuning module);
    /// the concept name becomes prompt vocabulary for every mode.
    pub fn teach_concept(&mut self, concept: &zenesis_ground::LearnedConcept) {
        self.dino.teach(concept);
    }

    /// Adapt a raw image of any bit depth into the model-ready domain.
    pub fn adapt<T: Pixel>(&self, raw: &Image<T>) -> (Image<f32>, Vec<AdaptTrace>) {
        self.config.adapt.run_traced(&raw.to_f32())
    }

    /// Full pipeline on a raw slice with a natural-language prompt.
    pub fn segment_slice<T: Pixel>(&self, raw: &Image<T>, prompt: &str) -> SliceResult {
        let _root = zenesis_obs::span("pipeline.segment_slice");
        let ((adapted, adapt_stages), adapt_ms) =
            zenesis_obs::timed("pipeline.adapt", || self.adapt(raw));
        zenesis_obs::record_ms("pipeline.adapt.lat", adapt_ms);
        match self.segment_adapted_inner(Arc::new(adapted), adapt_stages, adapt_ms, prompt, false) {
            Ok(r) => r,
            Err(_) => unreachable!("the unguarded pipeline is infallible"),
        }
    }

    /// Guarded pipeline for the fault-tolerant volume path: every stage
    /// boundary is checked for non-finite values and armed fault sites
    /// ([`zenesis_fault`]) may fire. Identical output to
    /// [`Zenesis::segment_slice`] on healthy input with no faults armed.
    pub fn try_segment_slice<T: Pixel>(
        &self,
        raw: &Image<T>,
        prompt: &str,
    ) -> Result<SliceResult, SliceError> {
        let _root = zenesis_obs::span("pipeline.segment_slice");
        let (adapt_res, adapt_ms) = zenesis_obs::timed("pipeline.adapt", || {
            self.config.adapt.run_traced_checked(&raw.to_f32())
        });
        let (adapted, adapt_stages) = adapt_res.map_err(SliceError::Adapt)?;
        zenesis_obs::record_ms("pipeline.adapt.lat", adapt_ms);
        self.segment_adapted_inner(Arc::new(adapted), adapt_stages, adapt_ms, prompt, true)
    }

    /// Pipeline on an already-adapted image (Mode A re-prompting reuses
    /// the adaptation). The `Arc` is cloned, not the pixels; the count of
    /// avoided copies is the `core.adapt_reuse` metric.
    pub fn segment_adapted(&self, adapted: &Arc<Image<f32>>, prompt: &str) -> SliceResult {
        if zenesis_obs::enabled() {
            zenesis_obs::counter("core.adapt_reuse").inc();
            zenesis_obs::counter("core.adapt_reuse.bytes_saved")
                .add((adapted.len() * std::mem::size_of::<f32>()) as u64);
        }
        match self.segment_adapted_inner(Arc::clone(adapted), Vec::new(), 0.0, prompt, false) {
            Ok(r) => r,
            Err(_) => unreachable!("the unguarded pipeline is infallible"),
        }
    }

    /// Shared tail of the pipeline. With `guards` off (the interactive
    /// paths) this is infallible and checks nothing — zero overhead over
    /// the pre-guard implementation. With `guards` on (the volume path)
    /// fault sites `ground.dino` / `sam.decode` may trip and stage
    /// outputs are screened for non-finite values.
    fn segment_adapted_inner(
        &self,
        adapted: Arc<Image<f32>>,
        adapt_stages: Vec<AdaptTrace>,
        adapt_ms: f64,
        prompt: &str,
        guards: bool,
    ) -> Result<SliceResult, SliceError> {
        let (w, h) = adapted.dims();
        if guards && zenesis_fault::trip("ground.dino").is_some() {
            return Err(SliceError::Injected {
                site: "ground.dino",
            });
        }
        // Grounding and the SAM image encoding are independent; fork-join
        // overlaps them (SAM's design point: encode once, decode many) —
        // unless the slice is under the grain threshold, where neither
        // arm takes as long as waking a helper does.
        let ((grounding, emb), ground_ms) = zenesis_obs::timed("pipeline.ground", || {
            let ground = || self.dino.ground(&adapted, prompt);
            let encode = || self.sam.encode_cached(&adapted);
            if w * h < zenesis_par::SMALL_WORK_ELEMS {
                (ground(), encode())
            } else {
                zenesis_par::join(ground, encode)
            }
        });
        zenesis_obs::record_ms("pipeline.ground.lat", ground_ms);
        if guards && zenesis_fault::trip("sam.decode").is_some() {
            return Err(SliceError::Injected { site: "sam.decode" });
        }

        let ((masks, combined, relevance), segment_ms) = zenesis_obs::timed("pipeline.segment", || {
            let polarity = if grounding.dark_polarity {
                Polarity::Dark
            } else {
                Polarity::Bright
            };
            let masks: Vec<BitMask> = grounding
                .detections
                .iter()
                .map(|d| {
                    self.sam
                        .segment(&emb, &PromptSet::from_box(d.bbox).with_polarity(polarity))
                })
                .collect();
            let mut combined = BitMask::new(w, h);
            for m in &masks {
                combined.or_with(m);
            }
            // Relevance gate (the Grounded-SAM practice of keeping only
            // mask pixels the grounding supports): intersect with the
            // dilated high-relevance region. Dilation by half a patch
            // forgives the coarse patch grid at structure boundaries.
            // The upsampled map is also the one the result carries.
            let relevance = grounding.relevance_full(w, h);
            if let Some(floor) = self.config.relevance_floor {
                let support = BitMask::from_threshold(&relevance, floor);
                let support = zenesis_image::morphology::dilate(
                    &support,
                    zenesis_image::morphology::Structuring::Square(grounding.patch / 2),
                );
                combined.and_with(&support);
            }
            (masks, combined, relevance)
        });
        zenesis_obs::record_ms("pipeline.segment.lat", segment_ms);
        zenesis_obs::record_ms("pipeline.total.lat", adapt_ms + ground_ms + segment_ms);

        if guards {
            let bad = relevance.as_slice().iter().filter(|v| !v.is_finite()).count();
            if bad > 0 {
                return Err(SliceError::NonFinite {
                    stage: "ground.relevance".into(),
                    count: bad,
                });
            }
        }
        Ok(SliceResult {
            adapted,
            masks,
            combined,
            relevance,
            trace: PipelineTrace {
                adapt_ms,
                ground_ms,
                segment_ms,
                total_ms: adapt_ms + ground_ms + segment_ms,
                adapt_stages,
                tokens: grounding.tokens.clone(),
                n_detections: grounding.detections.len(),
            },
            detections: grounding.detections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_data::{generate_slice, PhantomConfig, SampleKind};

    fn pipeline() -> Zenesis {
        Zenesis::new(ZenesisConfig::default())
    }

    #[test]
    fn crystalline_slice_end_to_end() {
        let g = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 1));
        let z = pipeline();
        let r = z.segment_slice(&g.raw, "needle-like crystalline catalyst");
        assert!(!r.detections.is_empty(), "no detections");
        assert_eq!(r.masks.len(), r.detections.len());
        let iou = r.combined.iou(&g.truth);
        assert!(iou > 0.5, "pipeline iou {iou}");
        assert_eq!(r.trace.n_detections, r.detections.len());
        assert!(r.trace.total_ms > 0.0);
        assert_eq!(r.trace.adapt_stages.len(), z.config.adapt.stages.len());
    }

    #[test]
    fn amorphous_slice_end_to_end() {
        let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 11));
        let z = pipeline();
        let r = z.segment_slice(&g.raw, "bright catalyst particles");
        let iou = r.combined.iou(&g.truth);
        assert!(iou > 0.5, "pipeline iou {iou}");
    }

    #[test]
    fn empty_prompt_empty_mask() {
        let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 2));
        let z = pipeline();
        let r = z.segment_slice(&g.raw, "");
        assert!(r.detections.is_empty());
        assert_eq!(r.combined.count(), 0);
    }

    #[test]
    fn segment_adapted_reuses_adaptation() {
        let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 3));
        let z = pipeline();
        let full = z.segment_slice(&g.raw, "bright catalyst particles");
        let re = z.segment_adapted(&full.adapted, "bright catalyst particles");
        assert_eq!(re.combined, full.combined);
        assert_eq!(re.trace.adapt_ms, 0.0);
    }

    #[test]
    fn combined_is_gated_union_of_masks() {
        let g = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 4));
        // With the relevance gate on, combined ⊆ union of per-box masks.
        let z = pipeline();
        let r = z.segment_slice(&g.raw, "needle-like crystalline catalyst");
        let mut union = BitMask::new(r.combined.width(), r.combined.height());
        for m in &r.masks {
            union.or_with(m);
        }
        assert_eq!(r.combined.intersection_count(&union), r.combined.count());
        // With the gate off, combined == union exactly.
        let mut cfg = ZenesisConfig::default();
        cfg.relevance_floor = None;
        let z2 = Zenesis::new(cfg);
        let r2 = z2.segment_slice(&g.raw, "needle-like crystalline catalyst");
        let mut union2 = BitMask::new(r2.combined.width(), r2.combined.height());
        for m in &r2.masks {
            union2.or_with(m);
        }
        assert_eq!(union2, r2.combined);
    }
}
