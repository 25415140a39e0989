//! The core Zenesis pipeline: raw → adapt → ground → segment (Fig. 2).
//!
//! With `ZENESIS_OBS=spans` (or `full`) every run records a span tree —
//! `pipeline.segment_slice` over `pipeline.adapt` / `pipeline.ground` /
//! `pipeline.segment`, which in turn cover the per-stage, grounding, and
//! decoder sub-spans of the lower layers — plus the
//! `pipeline.{adapt,prepare,ground,segment,total}.lat` latency
//! histograms (`pipeline.prepare` nests inside `pipeline.ground` here). The
//! [`PipelineTrace`] carried on every [`SliceResult`] is filled from the
//! same wall-clock measurements whether or not recording is on, so
//! outputs are identical with observability disabled.
//!
//! Every slice run is a prompt-independent [`Prepared`] half
//! ([`Zenesis::prepare`], span `pipeline.prepare`) followed by a prompt
//! tail ([`Zenesis::segment_prepared`]); re-prompting one slice pays the
//! first half once. [`Zenesis::segment_slice`] is the two back to back.
//! Callers that reuse a SAM embedding hold it themselves
//! ([`Prepared::embedding`]) and pass it on; no path looks one up.

#![allow(clippy::field_reassign_with_default)]

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use zenesis_adapt::{AdaptError, AdaptTrace};
use zenesis_ground::{Detection, Grounding, GroundingDino, ImageSide};
use zenesis_image::filter::{gaussian_blur, gradient_magnitude};
use zenesis_image::{BitMask, Image, Pixel};
use zenesis_sam::{ImageEmbedding, Polarity, PromptSet, Sam};

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
    /// The adapted (model-ready) image; re-prompting it goes through
    /// [`Zenesis::prepare_adapted`] once, then the prompt tail.
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

/// The prompt-independent half of one slice run, from
/// [`Zenesis::prepare`]: grounding's image side and the SAM embedding.
/// Any number of prompts decode against it through
/// [`Zenesis::segment_prepared`] — SAM's "encode once, decode many". It
/// keeps no pixels of the slice itself.
pub struct Prepared {
    image: ImageSide,
    emb: ImageEmbedding,
}

impl Prepared {
    /// Slice `(width, height)` in pixels.
    pub fn dims(&self) -> (usize, usize) {
        self.emb.dims()
    }

    /// The SAM embedding, for decoders outside the prompt tail
    /// (Rectify's candidate boxes).
    pub fn embedding(&self) -> &ImageEmbedding {
        &self.emb
    }

    /// Heap bytes held: the SAM embedding's three rasters and
    /// grounding's patch keys.
    pub fn heap_bytes(&self) -> usize {
        let (w, h) = self.dims();
        3 * w * h * std::mem::size_of::<f32>() + self.image.heap_bytes()
    }
}

/// What one prompt produces on a prepared slice: a [`SliceResult`]
/// without the adapted pixels.
#[derive(Debug, Clone)]
pub struct Segmentation {
    /// DINO detections that survived thresholds and NMS.
    pub detections: Vec<Detection>,
    /// Per-detection masks, aligned with `detections`.
    pub masks: Vec<BitMask>,
    /// Union of all per-detection masks after the relevance gate.
    pub combined: BitMask,
    /// Patch-level grounding relevance upsampled to image resolution.
    pub relevance: Image<f32>,
    /// Stage provenance. Preparation is not in it: `adapt_ms` is 0 and
    /// `ground_ms` covers the prompt side of grounding only.
    pub trace: PipelineTrace,
}

/// Run two independent per-image passes. Fork-join overlaps them
/// (SAM's design point: encode once, decode many) unless the slice is
/// under the grain threshold, where neither arm takes as long as waking
/// a helper does.
fn overlap<RA: Send, RB: Send>(
    pixels: usize,
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    if pixels < zenesis_par::SMALL_WORK_ELEMS {
        (a(), b())
    } else {
        zenesis_par::join(a, b)
    }
}

/// The SAM polarity of a grounding's `dark_polarity`.
fn polarity(dark: bool) -> Polarity {
    if dark {
        Polarity::Dark
    } else {
        Polarity::Bright
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

    /// The intensity side `prompt` asks for: the polarity its grounding
    /// decodes with on any image, since it depends on the prompt alone.
    pub(crate) fn prompt_polarity(&self, prompt: &str) -> Polarity {
        polarity(self.dino.prompt_is_dark(&zenesis_ground::tokenize(prompt)))
    }

    /// Adapt a raw image of any bit depth into the model-ready domain.
    pub fn adapt<T: Pixel>(&self, raw: &Image<T>) -> (Image<f32>, Vec<AdaptTrace>) {
        self.config.adapt.run(&raw.to_f32())
    }

    /// The adapt step of every slice run, timed as `pipeline.adapt`;
    /// `guards` runs the stage guards of `AdaptPipeline::run_checked`.
    fn adapt_timed<T: Pixel>(
        &self,
        raw: &Image<T>,
        guards: bool,
    ) -> Result<(Image<f32>, Vec<AdaptTrace>, f64), AdaptError> {
        let (adapted, adapt_ms) = zenesis_obs::timed("pipeline.adapt", || {
            if guards {
                self.config.adapt.run_checked(&raw.to_f32())
            } else {
                Ok(self.adapt(raw))
            }
        });
        let (adapted, stages) = adapted?;
        zenesis_obs::record_ms("pipeline.adapt.lat", adapt_ms);
        Ok((adapted, stages, adapt_ms))
    }

    /// Full pipeline on a raw slice with a natural-language prompt.
    pub fn segment_slice<T: Pixel>(&self, raw: &Image<T>, prompt: &str) -> SliceResult {
        self.slice(raw, prompt, false).expect("the unguarded pipeline is infallible").0
    }

    /// Guarded pipeline for the fault-tolerant volume path: every stage
    /// boundary is checked for non-finite values and armed fault sites
    /// ([`zenesis_fault`]) may fire. Identical output to
    /// [`Zenesis::segment_slice`] on healthy input with no faults armed.
    /// The SAM embedding the masks were decoded from comes back with the
    /// result, so a caller decoding more boxes on the slice (Mode B's
    /// refined boxes) encodes nothing again.
    pub fn try_segment_slice<T: Pixel>(
        &self,
        raw: &Image<T>,
        prompt: &str,
    ) -> Result<(SliceResult, ImageEmbedding), SliceError> {
        self.slice(raw, prompt, true)
    }

    /// The prompt-independent half of [`Zenesis::segment_slice`]: adapt,
    /// then grounding's image side and the SAM encode (span
    /// `pipeline.prepare`).
    pub fn prepare<T: Pixel>(&self, raw: &Image<T>) -> Prepared {
        let (adapted, ..) = self.adapt_timed(raw, false).expect("the unguarded adapt is infallible");
        self.prepare_adapted(&adapted)
    }

    /// [`Zenesis::prepare`] on an already-adapted image (Mode A sessions,
    /// multi-object passes, Further Segment crops and the evaluation
    /// methods adapt once themselves).
    ///
    /// Grounding's feature pyramid and the SAM encode both start with a
    /// Gaussian blur of the image and that blur's gradient magnitude
    /// (span `pipeline.blur`). When the two sigmas are the same (the
    /// defaults: 1.0 and ViT-H's 1.0) that pair is computed once, else
    /// once per sigma; the two tails then run against it, and the
    /// embedding keeps SAM's. The result is bit-identical to
    /// `GroundingDino::prepare` joined with `Sam::encode`.
    pub fn prepare_adapted(&self, adapted: &Image<f32>) -> Prepared {
        let ((image, emb), prepare_ms) = zenesis_obs::timed("pipeline.prepare", || {
            let blur = |sigma| {
                let smooth = gaussian_blur(adapted, sigma);
                let grad = gradient_magnitude(&smooth);
                (smooth, grad)
            };
            let (sigma, feature_sigma) =
                (self.sam.config.encode_sigma, self.dino.feature_blur_sigma());
            let ((smooth, grad), grounding_own) = {
                let _s = zenesis_obs::span("pipeline.blur");
                (
                    blur(sigma),
                    (feature_sigma.to_bits() != sigma.to_bits()).then(|| blur(feature_sigma)),
                )
            };
            let (fblur, fgrad) = grounding_own
                .as_ref()
                .map_or((&smooth, &grad), |(b, g)| (b, g));
            let (image, texture) = overlap(
                adapted.len(),
                || self.dino.prepare_blurred(adapted, fblur, fgrad),
                || self.sam.encode_texture(adapted),
            );
            let emb = ImageEmbedding {
                smooth,
                grad,
                texture,
            };
            (image, emb)
        });
        zenesis_obs::record_ms("pipeline.prepare.lat", prepare_ms);
        Prepared { image, emb }
    }

    /// The prompt-dependent half: ground `prompt` against the prepared
    /// image side, decode one mask per box, apply the relevance gate.
    /// Bit-identical to the same fields of [`Zenesis::segment_slice`] on
    /// the raw slice `prepared` came from.
    pub fn segment_prepared(&self, prepared: &Prepared, prompt: &str) -> Segmentation {
        let (grounding, ground_ms) = zenesis_obs::timed("pipeline.ground", || {
            self.dino.ground_prepared(&prepared.image, prompt)
        });
        zenesis_obs::record_ms("pipeline.ground.lat", ground_ms);
        self.decode(grounding, &prepared.emb, Vec::new(), 0.0, ground_ms)
    }

    /// One slice run from raw pixels: adapt, [`Zenesis::prepare_adapted`],
    /// then the prompt tail, under span `pipeline.segment_slice`. With
    /// `guards` off (the interactive paths) this is infallible and checks
    /// nothing. With `guards` on (the volume path) adaptation runs its
    /// stage guards, fault sites `ground.dino` / `sam.decode` may trip
    /// and the relevance map is screened for non-finite values.
    /// `ground_ms` covers both the image side and the prompt side of
    /// grounding. The SAM embedding comes back beside the result.
    fn slice<T: Pixel>(
        &self,
        raw: &Image<T>,
        prompt: &str,
        guards: bool,
    ) -> Result<(SliceResult, ImageEmbedding), SliceError> {
        let _root = zenesis_obs::span("pipeline.segment_slice");
        let (adapted, adapt_stages, adapt_ms) =
            self.adapt_timed(raw, guards).map_err(SliceError::Adapt)?;
        if guards && zenesis_fault::trip("ground.dino").is_some() {
            return Err(SliceError::Injected {
                site: "ground.dino",
            });
        }
        let ((prepared, grounding), ground_ms) = zenesis_obs::timed("pipeline.ground", || {
            let prepared = self.prepare_adapted(&adapted);
            let grounding = self.dino.ground_prepared(&prepared.image, prompt);
            (prepared, grounding)
        });
        zenesis_obs::record_ms("pipeline.ground.lat", ground_ms);
        if guards && zenesis_fault::trip("sam.decode").is_some() {
            return Err(SliceError::Injected { site: "sam.decode" });
        }
        let s = self.decode(grounding, &prepared.emb, adapt_stages, adapt_ms, ground_ms);
        if guards {
            let bad = s.relevance.as_slice().iter().filter(|v| !v.is_finite()).count();
            if bad > 0 {
                return Err(SliceError::NonFinite {
                    stage: "ground.relevance".into(),
                    count: bad,
                });
            }
        }
        let result = SliceResult {
            adapted: Arc::new(adapted),
            detections: s.detections,
            masks: s.masks,
            combined: s.combined,
            relevance: s.relevance,
            trace: s.trace,
        };
        Ok((result, prepared.emb))
    }

    /// The tail every run shares: one SAM decode per box, their union,
    /// the relevance gate.
    fn decode(
        &self,
        grounding: Grounding,
        emb: &ImageEmbedding,
        adapt_stages: Vec<AdaptTrace>,
        adapt_ms: f64,
        ground_ms: f64,
    ) -> Segmentation {
        let (w, h) = emb.dims();
        let ((masks, combined, relevance), segment_ms) = zenesis_obs::timed("pipeline.segment", || {
            let polarity = polarity(grounding.dark_polarity);
            let masks: Vec<BitMask> = grounding
                .detections
                .iter()
                .map(|d| {
                    self.sam
                        .segment(emb, &PromptSet::from_box(d.bbox).with_polarity(polarity))
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
        Segmentation {
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
        }
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
    fn prepare_adapted_reuses_adaptation() {
        let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 3));
        let z = pipeline();
        let full = z.segment_slice(&g.raw, "bright catalyst particles");
        let prepared = z.prepare_adapted(&full.adapted);
        let re = z.segment_prepared(&prepared, "bright catalyst particles");
        assert_eq!(re.combined, full.combined);
        assert_eq!(re.trace.adapt_ms, 0.0);
    }

    /// The shared blur changes no bit: `prepare_adapted` matches the two
    /// standalone image sides with equal sigmas (one blur) and with
    /// different ones (one blur per sigma).
    #[test]
    fn prepare_adapted_matches_standalone_image_sides() {
        let bits =
            |img: &Image<f32>| -> Vec<u32> { img.as_slice().iter().map(|v| v.to_bits()).collect() };
        let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 4));
        let prompt = "bright catalyst particles";
        for variant in [
            zenesis_sam::SamVariant::VitH,
            zenesis_sam::SamVariant::MobileSam,
        ] {
            let mut cfg = ZenesisConfig::default();
            cfg.sam = zenesis_sam::SamConfig::for_variant(variant);
            let z = Zenesis::new(cfg);
            let shared =
                z.dino.feature_blur_sigma().to_bits() == z.sam.config.encode_sigma.to_bits();
            assert_eq!(shared, variant == zenesis_sam::SamVariant::VitH);
            let adapted = z.adapt(&g.raw).0;
            let prepared = z.prepare_adapted(&adapted);
            let emb = z.sam.encode(&adapted);
            assert_eq!(bits(&prepared.emb.smooth), bits(&emb.smooth), "{variant:?}");
            assert_eq!(bits(&prepared.emb.grad), bits(&emb.grad), "{variant:?}");
            assert_eq!(
                bits(&prepared.emb.texture),
                bits(&emb.texture),
                "{variant:?}"
            );
            let ours = z.dino.ground_prepared(&prepared.image, prompt);
            let theirs = z.dino.ground(&adapted, prompt);
            assert!(!theirs.detections.is_empty(), "{variant:?}");
            assert_eq!(ours.detections, theirs.detections, "{variant:?}");
            assert_eq!(
                bits(&ours.relevance),
                bits(&theirs.relevance),
                "{variant:?}"
            );
        }
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
