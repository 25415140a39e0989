//! The declarative adaptation pipeline.
//!
//! A pipeline is a serializable list of [`AdaptStage`]s — exactly what the
//! paper's no-code UI submits. Running it returns the adapted image; a
//! traced run additionally records per-stage statistics (the provenance a
//! scientist needs to trust that adaptation preserved their data).

use serde::{Deserialize, Serialize};
use zenesis_image::Image;

use crate::{denoise, destripe, equalize, normalize, resample};

/// A structured adaptation failure (checked runs only).
///
/// The plain [`AdaptPipeline::run`] / [`AdaptPipeline::run_traced`] never
/// fail; the `_checked` variants used by the fault-tolerant volume path
/// guard each stage boundary so poisoned pixels are caught *here*, with
/// the stage named, instead of surfacing as silent garbage (or asserts)
/// deep inside DINO/SAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptError {
    /// A stage produced NaN/Inf pixels.
    NonFinite {
        /// Name of the stage whose output was poisoned.
        stage: String,
        /// Number of non-finite pixels in that output.
        count: usize,
    },
    /// A fault-injection site forced this stage to fail (test harnesses).
    Injected {
        /// Name of the stage the fault fired under.
        stage: String,
    },
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::NonFinite { stage, count } => {
                write!(f, "adapt stage {stage} produced {count} non-finite pixels")
            }
            AdaptError::Injected { stage } => {
                write!(f, "injected fault in adapt stage {stage}")
            }
        }
    }
}

impl std::error::Error for AdaptError {}

/// One adaptation operator with its parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum AdaptStage {
    /// Linear min-max stretch.
    MinMax,
    /// Robust percentile stretch clipping tails.
    PercentileStretch { p_lo: f64, p_hi: f64 },
    /// Z-score standardization squashed into `[0,1]`.
    ZScore,
    /// Gamma correction.
    Gamma { gamma: f32 },
    /// Intensity inversion.
    Invert,
    /// Global histogram equalization.
    Equalize,
    /// Contrast-limited adaptive histogram equalization.
    Clahe { tiles: usize, clip_limit: f64 },
    /// Median filter.
    Median { radius: usize },
    /// Gaussian blur.
    Gaussian { sigma: f32 },
    /// Bilateral edge-preserving denoise.
    Bilateral { sigma_s: f32, sigma_r: f32 },
    /// Non-local-means-lite denoise.
    NlmLite { search: usize, strength: f32 },
    /// FIB curtaining removal.
    Destripe { smooth_radius: usize },
    /// Least-squares plane subtraction (STM/AFM tilt removal).
    FlattenPlane,
    /// Large-scale Gaussian background subtraction (glow removal).
    Highpass { sigma: f32 },
    /// Bilinear resize to fixed dimensions.
    Resize { width: usize, height: usize },
    /// Resize longest side, preserving aspect.
    ResizeLongest { target: usize },
}

impl AdaptStage {
    /// Apply this stage to an image.
    pub fn apply(&self, img: &Image<f32>) -> Image<f32> {
        match *self {
            AdaptStage::MinMax => normalize::min_max(img),
            AdaptStage::PercentileStretch { p_lo, p_hi } => {
                normalize::percentile_stretch(img, p_lo, p_hi)
            }
            AdaptStage::ZScore => normalize::zscore(img),
            AdaptStage::Gamma { gamma } => normalize::gamma(img, gamma),
            AdaptStage::Invert => normalize::invert(img),
            AdaptStage::Equalize => equalize::equalize(img),
            AdaptStage::Clahe { tiles, clip_limit } => equalize::clahe(img, tiles, clip_limit),
            AdaptStage::Median { radius } => denoise::median_filter(img, radius),
            AdaptStage::Gaussian { sigma } => denoise::gaussian_blur(img, sigma),
            AdaptStage::Bilateral { sigma_s, sigma_r } => {
                denoise::bilateral(img, sigma_s, sigma_r)
            }
            AdaptStage::NlmLite { search, strength } => {
                denoise::nlm_lite(img, search, strength)
            }
            AdaptStage::Destripe { smooth_radius } => {
                destripe::destripe_columns(img, smooth_radius)
            }
            AdaptStage::FlattenPlane => crate::flatten::flatten_plane(img),
            AdaptStage::Highpass { sigma } => crate::flatten::highpass(img, sigma),
            AdaptStage::Resize { width, height } => {
                resample::resize_bilinear(img, width, height)
            }
            AdaptStage::ResizeLongest { target } => resample::resize_longest_side(img, target).0,
        }
    }

    /// Stage name for traces.
    pub fn name(&self) -> &'static str {
        match self {
            AdaptStage::MinMax => "min_max",
            AdaptStage::PercentileStretch { .. } => "percentile_stretch",
            AdaptStage::ZScore => "zscore",
            AdaptStage::Gamma { .. } => "gamma",
            AdaptStage::Invert => "invert",
            AdaptStage::Equalize => "equalize",
            AdaptStage::Clahe { .. } => "clahe",
            AdaptStage::Median { .. } => "median",
            AdaptStage::Gaussian { .. } => "gaussian",
            AdaptStage::Bilateral { .. } => "bilateral",
            AdaptStage::NlmLite { .. } => "nlm_lite",
            AdaptStage::Destripe { .. } => "destripe",
            AdaptStage::FlattenPlane => "flatten_plane",
            AdaptStage::Highpass { .. } => "highpass",
            AdaptStage::Resize { .. } => "resize",
            AdaptStage::ResizeLongest { .. } => "resize_longest",
        }
    }
}

/// Per-stage provenance record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptTrace {
    pub stage: String,
    pub out_min: f32,
    pub out_max: f32,
    pub out_mean: f64,
    pub out_width: usize,
    pub out_height: usize,
}

impl AdaptTrace {
    /// Provenance of `stage`'s output, from one pass over it.
    fn of(stage: &AdaptStage, out: &Image<f32>) -> Self {
        let (out_min, out_max, out_mean) = out.min_max_mean();
        AdaptTrace {
            stage: stage.name().to_string(),
            out_min,
            out_max,
            out_mean,
            out_width: out.width(),
            out_height: out.height(),
        }
    }
}

/// An ordered list of adaptation stages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AdaptPipeline {
    pub stages: Vec<AdaptStage>,
}

impl AdaptPipeline {
    /// Empty (identity) pipeline.
    pub fn identity() -> Self {
        AdaptPipeline { stages: Vec::new() }
    }

    /// The default recipe used throughout the paper reproduction for raw
    /// FIB-SEM: destripe, robust stretch, light edge-preserving denoise,
    /// then CLAHE to surface low-contrast structure.
    pub fn recommended() -> Self {
        AdaptPipeline {
            stages: vec![
                AdaptStage::Destripe { smooth_radius: 8 },
                AdaptStage::PercentileStretch {
                    p_lo: 0.005,
                    p_hi: 0.995,
                },
                AdaptStage::Median { radius: 1 },
                AdaptStage::Clahe {
                    tiles: 4,
                    clip_limit: 2.2,
                },
            ],
        }
    }

    /// The STM preset: plane flattening (piezo/tilt), robust stretch.
    pub fn stm() -> Self {
        AdaptPipeline {
            stages: vec![
                AdaptStage::FlattenPlane,
                AdaptStage::PercentileStretch {
                    p_lo: 0.005,
                    p_hi: 0.995,
                },
            ],
        }
    }

    /// The XRD preset: high-pass glow/ring-background removal, stretch.
    pub fn xrd() -> Self {
        AdaptPipeline {
            stages: vec![
                AdaptStage::Highpass { sigma: 6.0 },
                AdaptStage::PercentileStretch {
                    p_lo: 0.005,
                    p_hi: 0.999,
                },
            ],
        }
    }

    /// A minimal pipeline (robust stretch only) for ablations.
    pub fn minimal() -> Self {
        AdaptPipeline {
            stages: vec![AdaptStage::PercentileStretch {
                p_lo: 0.005,
                p_hi: 0.995,
            }],
        }
    }

    /// Append a stage (builder style).
    pub fn then(mut self, stage: AdaptStage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Run the pipeline.
    pub fn run(&self, img: &Image<f32>) -> Image<f32> {
        let mut cur = img.clone();
        for stage in &self.stages {
            let _s = zenesis_obs::enabled()
                .then(|| zenesis_obs::span(format!("adapt.{}", stage.name())));
            cur = stage.apply(&cur);
        }
        cur
    }

    /// Run the pipeline with NaN/Inf boundary guards after every stage.
    ///
    /// Identical output to [`run`](Self::run) on healthy input (the guard
    /// only *scans*; it never rewrites pixels). A stage that emits
    /// non-finite values fails fast with [`AdaptError::NonFinite`] naming
    /// the stage, so the volume pipeline can quarantine the slice instead
    /// of feeding poison into DINO/SAM. Denoise stages additionally check
    /// the `adapt.denoise` fault-injection site.
    pub fn run_checked(&self, img: &Image<f32>) -> Result<Image<f32>, AdaptError> {
        let mut cur = img.clone();
        for stage in &self.stages {
            let _s = zenesis_obs::enabled()
                .then(|| zenesis_obs::span(format!("adapt.{}", stage.name())));
            cur = stage.apply(&cur);
            Self::guard_stage(stage, &mut cur)?;
        }
        Ok(cur)
    }

    /// [`run_traced`](Self::run_traced) with the same boundary guards as
    /// [`run_checked`](Self::run_checked).
    pub fn run_traced_checked(
        &self,
        img: &Image<f32>,
    ) -> Result<(Image<f32>, Vec<AdaptTrace>), AdaptError> {
        let mut cur = img.clone();
        let mut traces = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let span = zenesis_obs::enabled()
                .then(|| zenesis_obs::span(format!("adapt.{}", stage.name())));
            cur = stage.apply(&cur);
            drop(span);
            Self::guard_stage(stage, &mut cur)?;
            traces.push(AdaptTrace::of(stage, &cur));
        }
        Ok((cur, traces))
    }

    fn guard_stage(stage: &AdaptStage, out: &mut Image<f32>) -> Result<(), AdaptError> {
        let is_denoise = matches!(
            stage,
            AdaptStage::Median { .. }
                | AdaptStage::Gaussian { .. }
                | AdaptStage::Bilateral { .. }
                | AdaptStage::NlmLite { .. }
        );
        if is_denoise {
            match zenesis_fault::trip("adapt.denoise") {
                Some(zenesis_fault::Injection::Nan) => {
                    // Poison a scattering of pixels; the guard below must
                    // catch exactly this class of corruption.
                    let px = out.as_mut_slice();
                    let step = (px.len() / 16).max(1);
                    for v in px.iter_mut().step_by(step) {
                        *v = f32::NAN;
                    }
                }
                Some(zenesis_fault::Injection::Error) => {
                    return Err(AdaptError::Injected {
                        stage: stage.name().to_string(),
                    });
                }
                None => {}
            }
        }
        let count = out.as_slice().iter().filter(|v| !v.is_finite()).count();
        if count > 0 {
            return Err(AdaptError::NonFinite {
                stage: stage.name().to_string(),
                count,
            });
        }
        Ok(())
    }

    /// Run the pipeline, recording per-stage provenance.
    pub fn run_traced(&self, img: &Image<f32>) -> (Image<f32>, Vec<AdaptTrace>) {
        let mut cur = img.clone();
        let mut traces = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let span = zenesis_obs::enabled()
                .then(|| zenesis_obs::span(format!("adapt.{}", stage.name())));
            cur = stage.apply(&cur);
            drop(span);
            traces.push(AdaptTrace::of(stage, &cur));
        }
        (cur, traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fault plan is process-global: serialize every test that arms it
    // or runs a checked pipeline containing a denoise stage.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn identity_pipeline_is_identity() {
        let img = Image::<f32>::from_fn(8, 8, |x, y| (x + y) as f32 / 14.0);
        assert_eq!(AdaptPipeline::identity().run(&img), img);
    }

    #[test]
    fn stages_compose_in_order() {
        let img = Image::<f32>::filled(4, 4, 0.25);
        // Invert then gamma(2): (1-0.25)^2 = 0.5625.
        let p = AdaptPipeline::identity()
            .then(AdaptStage::Invert)
            .then(AdaptStage::Gamma { gamma: 2.0 });
        let out = p.run(&img);
        assert!((out.get(0, 0) - 0.5625).abs() < 1e-6);
        // Reverse order differs: 1 - 0.25^2 = 0.9375.
        let q = AdaptPipeline::identity()
            .then(AdaptStage::Gamma { gamma: 2.0 })
            .then(AdaptStage::Invert);
        assert!((q.run(&img).get(0, 0) - 0.9375).abs() < 1e-6);
    }

    #[test]
    fn recommended_handles_degenerate_inputs() {
        for img in [
            Image::<f32>::filled(16, 16, 0.0),
            Image::<f32>::filled(16, 16, 1.0),
            Image::<f32>::filled(16, 16, 0.5),
        ] {
            let out = AdaptPipeline::recommended().run(&img);
            assert!(out.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn resize_stage_changes_dims() {
        let img = Image::<f32>::zeros(10, 20);
        let p = AdaptPipeline::identity().then(AdaptStage::Resize {
            width: 5,
            height: 4,
        });
        assert_eq!(p.run(&img).dims(), (5, 4));
    }

    #[test]
    fn traced_run_matches_untraced() {
        let img = Image::<f32>::from_fn(16, 16, |x, y| ((x * 3 + y * 5) % 11) as f32 / 10.0);
        let p = AdaptPipeline::recommended();
        let plain = p.run(&img);
        let (traced, traces) = p.run_traced(&img);
        assert_eq!(plain, traced);
        assert_eq!(traces.len(), p.stages.len());
        assert_eq!(traces[0].stage, "destripe");
        for t in &traces {
            assert!(t.out_min.is_finite() && t.out_max.is_finite());
        }
    }

    #[test]
    fn pipeline_serde_roundtrip() {
        let p = AdaptPipeline::recommended();
        let json = serde_json::to_string(&p).unwrap();
        let back: AdaptPipeline = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // And the JSON is the tagged no-code format.
        assert!(json.contains("\"op\":\"destripe\""));
    }

    #[test]
    fn checked_run_matches_unchecked_on_clean_input() {
        let _g = FAULT_LOCK.lock().unwrap();
        let img = Image::<f32>::from_fn(24, 24, |x, y| ((x * 7 + y * 3) % 13) as f32 / 12.0);
        for p in [
            AdaptPipeline::recommended(),
            AdaptPipeline::minimal(),
            AdaptPipeline::stm(),
        ] {
            assert_eq!(p.run_checked(&img).unwrap(), p.run(&img));
            let (traced, traces) = p.run_traced_checked(&img).unwrap();
            assert_eq!(traced, p.run(&img));
            assert_eq!(traces.len(), p.stages.len());
        }
    }

    #[test]
    fn checked_run_catches_poisoned_pixels() {
        // NaN in the *input* survives the stretch and trips the guard at
        // the first stage boundary.
        let mut img = Image::<f32>::from_fn(16, 16, |x, _| x as f32 / 15.0);
        img.as_mut_slice()[5] = f32::NAN;
        img.as_mut_slice()[9] = f32::INFINITY;
        let err = AdaptPipeline::minimal().run_checked(&img).unwrap_err();
        match err {
            AdaptError::NonFinite { stage, count } => {
                assert_eq!(stage, "percentile_stretch");
                assert!(count >= 1, "count {count}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn denoise_fault_site_poisons_checked_runs_only() {
        let _g = FAULT_LOCK.lock().unwrap();
        use zenesis_fault::{FaultKind, FaultPlan};
        let img = Image::<f32>::from_fn(16, 16, |x, y| ((x + 2 * y) % 9) as f32 / 8.0);
        let _armed = FaultPlan::new()
            .site("adapt.denoise", FaultKind::Nan, 1.0, 3)
            .arm();
        // recommended() contains a median denoise stage -> poisoned.
        let err = AdaptPipeline::recommended().run_checked(&img).unwrap_err();
        assert!(matches!(err, AdaptError::NonFinite { ref stage, .. } if stage == "median"));
        // minimal() has no denoise stage -> the site never fires.
        assert!(AdaptPipeline::minimal().run_checked(&img).is_ok());
        // The plain path never consults fault sites.
        let out = AdaptPipeline::recommended().run(&img);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pipeline_from_json_text() {
        let json = r#"{"stages":[{"op":"min_max"},{"op":"gamma","gamma":0.5}]}"#;
        let p: AdaptPipeline = serde_json::from_str(json).unwrap();
        assert_eq!(p.stages.len(), 2);
        let img = Image::<f32>::from_fn(4, 4, |x, _| x as f32 / 6.0);
        let out = p.run(&img);
        assert!((out.get(3, 0) - 1.0).abs() < 1e-6); // minmax then gamma keeps max at 1
    }
}
