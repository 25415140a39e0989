//! The platform's three modes (paper Fig. 4): A — interactive single
//! slice, B — batch volume processing, C — evaluation.
//!
//! Mode A lives in [`crate::session`]; Mode B is
//! [`crate::pipeline::Zenesis::segment_volume`]; this module implements
//! Mode C, the evaluation harness that regenerates the paper's tables.

use std::time::Instant;

use zenesis_image::BitMask;
use zenesis_metrics::{Confusion, DatasetEval, SampleEval};

use zenesis_data::{Dataset, Sample};
use zenesis_par::CancelToken;

use crate::method::Method;
use crate::pipeline::Zenesis;

/// An evaluation run was cancelled (deadline or explicit stop) before
/// every sample finished. Completed samples are preserved so the caller
/// can report partial progress.
#[derive(Debug)]
pub struct EvalCancelled {
    /// Samples fully evaluated before cancellation.
    pub completed: usize,
    /// Samples in the dataset.
    pub total: usize,
    /// The evaluation records of the completed samples.
    pub partial: DatasetEval,
}

/// Evaluate a set of methods over the benchmark dataset (Mode C).
///
/// Every sample is adapted once; each method then segments the same
/// adapted image, and the prediction is scored against the exact phantom
/// ground truth. Samples are processed in parallel.
pub fn evaluate(z: &Zenesis, dataset: &Dataset, methods: &[Method]) -> DatasetEval {
    evaluate_cancellable(z, dataset, methods, &CancelToken::new())
        .expect("a fresh token never cancels")
}

/// [`evaluate`] with cooperative cancellation: the per-sample loop polls
/// `cancel` before each sample, so a deadline or explicit stop returns
/// [`EvalCancelled`] with whatever finished instead of running the whole
/// sweep to completion.
pub fn evaluate_cancellable(
    z: &Zenesis,
    dataset: &Dataset,
    methods: &[Method],
    cancel: &CancelToken,
) -> Result<DatasetEval, EvalCancelled> {
    let records: Vec<Option<Vec<SampleEval>>> = zenesis_par::par_map(&dataset.samples, |sample| {
        if cancel.is_cancelled() {
            return None;
        }
        Some(evaluate_sample(z, sample, methods))
    });
    let total = dataset.samples.len();
    let completed = records.iter().filter(|r| r.is_some()).count();
    let mut eval = DatasetEval::new();
    for group in records.into_iter().flatten() {
        for r in group {
            eval.push(r);
        }
    }
    if completed < total {
        return Err(EvalCancelled {
            completed,
            total,
            partial: eval,
        });
    }
    Ok(eval)
}

/// Evaluate all methods on a single sample.
///
/// Baselines see the minimally-stretched view (the rendition a generic
/// tool gets); Zenesis sees its own adaptation. See [`Method`].
pub fn evaluate_sample(z: &Zenesis, sample: &Sample, methods: &[Method]) -> Vec<SampleEval> {
    let (adapted, _) = z.adapt(&sample.raw);
    // The baseline rendition is only needed when a baseline method runs.
    let minimal = methods
        .iter()
        .any(|m| *m != Method::Zenesis)
        .then(|| zenesis_adapt::AdaptPipeline::minimal().run(&sample.raw.to_f32()).0);
    let baseline_view = minimal.as_ref().unwrap_or(&adapted);
    let prompt = sample.kind.default_prompt();
    methods
        .iter()
        .map(|m| {
            let t0 = Instant::now();
            let pred: BitMask = m.segment_views(z, baseline_view, &adapted, prompt);
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
            let scores = Confusion::from_masks(&pred, &sample.truth).scores();
            SampleEval {
                sample_id: sample.id.clone(),
                group: sample.kind.label().to_string(),
                method: m.name().to_string(),
                scores,
                elapsed_ms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZenesisConfig;
    use zenesis_data::benchmark_dataset;

    #[test]
    fn mode_c_produces_full_grid() {
        // Tiny dataset (2 of each kind at 64px) for speed: slice the full
        // benchmark set down.
        let full = benchmark_dataset(64, 9);
        let small = Dataset {
            samples: full
                .samples
                .into_iter()
                .enumerate()
                .filter(|(i, _)| i % 10 < 2) // first 2 of each kind
                .map(|(_, s)| s)
                .collect(),
        };
        assert_eq!(small.samples.len(), 4);
        let z = Zenesis::new(ZenesisConfig::default());
        let eval = evaluate(&z, &small, &Method::all());
        assert_eq!(eval.samples.len(), 12); // 4 samples x 3 methods
        let summaries = eval.summarize();
        assert_eq!(summaries.len(), 6); // 2 groups x 3 methods
        for s in &summaries {
            assert_eq!(s.n_samples, 2);
            assert!(s.accuracy.mean >= 0.0 && s.accuracy.mean <= 1.0);
        }
    }
}
