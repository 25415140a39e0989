//! # zenesis-adapt
//!
//! The data-readiness layer: "lightweight multi-modal adaptation techniques
//! that enable zero-shot operation on raw scientific data" (paper
//! contribution 3).
//!
//! Raw FIB-SEM slices are 16-bit, low-contrast, noisy, and striped; the
//! foundation-model stack expects well-exposed 8-bit-like inputs. This
//! crate converts between the two **without fine-tuning and without
//! destroying domain information**: every operator works in the canonical
//! normalized `f32` domain of `zenesis-image` and is assembled into a
//! declarative, serializable [`AdaptPipeline`] (the no-code contract — a
//! UI ships JSON, the pipeline runs).
//!
//! Operators:
//! * [`normalize`] — min-max, robust percentile, and z-score normalization.
//! * [`equalize`] — global histogram equalization and CLAHE.
//! * [`denoise`] — bilateral and non-local-means-lite (plus re-exported
//!   median/Gaussian from `zenesis-image`).
//! * [`destripe`] — FIB curtaining (vertical stripe) suppression.
//! * [`resample`] — bilinear resizing to model-native resolutions.
//! * [`pipeline`] — the composable stage list with provenance tracing.

#![forbid(unsafe_code)]

pub mod denoise;
pub mod flatten;
pub mod destripe;
pub mod equalize;
pub mod normalize;
pub mod pipeline;
pub mod resample;

pub use pipeline::{AdaptError, AdaptPipeline, AdaptStage, AdaptTrace};

use zenesis_image::{Image, Pixel, RgbImage};

/// The packed output of the adaptation layer.
pub struct ModelInput {
    /// Adapted grayscale in `[0, 1]`.
    pub gray: Image<f32>,
    /// Channel-replicated 8-bit RGB view (what a pretrained encoder eats).
    pub rgb: RgbImage,
}

/// Run `pipeline` on a raw image of any supported bit depth and pack the
/// result for model consumption (3 identical RGB channels, the standard
/// grayscale-to-RGB adaptation).
pub fn prepare<T: Pixel>(raw: &Image<T>, pipeline: &AdaptPipeline) -> ModelInput {
    let adapted = pipeline.run(&raw.to_f32());
    let rgb = RgbImage::from_gray(&adapted);
    ModelInput { gray: adapted, rgb }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_full_stack_16bit() {
        let raw = Image::<u16>::from_fn(32, 32, |x, y| ((x * y * 83) % 9000 + 200) as u16);
        let input = prepare(&raw, &AdaptPipeline::recommended());
        assert_eq!(input.gray.dims(), (32, 32));
        assert_eq!(input.rgb.width(), 32);
        let (lo, hi) = input.gray.min_max();
        assert!(lo >= 0.0 && hi <= 1.0);
        // Adapted image should use a substantial part of the range even
        // though the raw data occupied a sliver of the 16-bit range.
        assert!(hi - lo > 0.5);
    }
}
