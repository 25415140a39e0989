//! # zenesis-metrics
//!
//! The paper's "comprehensive real-time evaluation framework, supporting
//! quantitative assessment at multiple granularities" (contribution 4):
//!
//! * [`confusion`] — pixel confusion matrices and the derived scores the
//!   paper reports (accuracy, IoU, Dice) plus precision/recall/specificity,
//!   F1, MCC, and a boundary-tolerant F1.
//! * [`aggregate`] — per-sample records rolled up to dataset granularity
//!   with mean ± population std (the `x.xxx ± 0.xxx` cells of Tables 1-3).
//! * [`dashboard`] — render a [`aggregate::DatasetEval`] as the text
//!   dashboard (Fig. 8), CSV, or JSON.
//! * [`morphometry`] — the downstream materials analysis run on final
//!   masks: per-particle sizes/shapes/orientations and phase statistics
//!   in physical units (the catalyst-layer numbers the paper's dataset
//!   section motivates).

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod confusion;
pub mod dashboard;
pub mod morphometry;
pub mod volume;

pub use aggregate::{DatasetEval, MeanStd, SampleEval};
pub use confusion::{boundary_f1, hausdorff, Confusion, Scores};
pub use morphometry::{analyze_particles, analyze_phase, ParticleStats, PhaseStats, PixelSize};
pub use volume::{evaluate_volume, VolumeEval};
