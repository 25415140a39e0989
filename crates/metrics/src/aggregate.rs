//! Per-sample records and dataset-level aggregation.
//!
//! The paper reports "average performance metrics" as `mean ± std` over 10
//! slices per sample type (Tables 1-3); this module produces exactly those
//! cells, at both individual-sample and dataset granularity.

use serde::{Deserialize, Serialize};

use crate::confusion::Scores;

/// Mean and population standard deviation of a series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanStd {
    pub mean: f64,
    pub std: f64,
    pub(crate) n: usize,
}

impl MeanStd {
    /// Compute from values (population std, matching the paper's small-n
    /// reporting). Empty input yields zeros.
    pub fn of(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return MeanStd {
                mean: 0.0,
                std: 0.0,
                n: 0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        MeanStd {
            mean,
            std: var.sqrt(),
            n,
        }
    }

    /// Format as the paper's table cell, e.g. `0.947±0.005`.
    pub(crate) fn cell(&self) -> String {
        format!("{:.3}±{:.3}", self.mean, self.std)
    }
}

/// Evaluation of one sample (slice) by one method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleEval {
    /// Sample identifier (e.g. `crystalline_03`).
    pub sample_id: String,
    /// Group key (e.g. `Crystalline` / `Amorphous`).
    pub group: String,
    /// Method name (e.g. `Otsu`, `SAM-only`, `Zenesis`).
    pub method: String,
    pub scores: Scores,
    /// Wall-clock milliseconds spent segmenting this sample.
    pub elapsed_ms: f64,
}

/// Aggregated metrics for one `(group, method)` cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupSummary {
    pub group: String,
    pub method: String,
    pub accuracy: MeanStd,
    pub iou: MeanStd,
    pub dice: MeanStd,
    pub(crate) precision: MeanStd,
    pub(crate) recall: MeanStd,
    pub n_samples: usize,
    pub(crate) total_ms: f64,
}

/// A full evaluation run: per-sample records plus grouped summaries.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct DatasetEval {
    pub samples: Vec<SampleEval>,
}

impl DatasetEval {
    pub fn new() -> Self {
        DatasetEval {
            samples: Vec::new(),
        }
    }

    pub fn push(&mut self, s: SampleEval) {
        self.samples.push(s);
    }

    /// Distinct `(group, method)` pairs in insertion order.
    fn cells(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for s in &self.samples {
            let key = (s.group.clone(), s.method.clone());
            if !out.contains(&key) {
                out.push(key);
            }
        }
        out
    }

    /// Aggregate per `(group, method)`.
    pub fn summarize(&self) -> Vec<GroupSummary> {
        self.cells()
            .into_iter()
            .map(|(group, method)| {
                let subset: Vec<&SampleEval> = self
                    .samples
                    .iter()
                    .filter(|s| s.group == group && s.method == method)
                    .collect();
                let col = |f: &dyn Fn(&Scores) -> f64| {
                    MeanStd::of(&subset.iter().map(|s| f(&s.scores)).collect::<Vec<_>>())
                };
                GroupSummary {
                    accuracy: col(&|s| s.accuracy),
                    iou: col(&|s| s.iou),
                    dice: col(&|s| s.dice),
                    precision: col(&|s| s.precision),
                    recall: col(&|s| s.recall),
                    n_samples: subset.len(),
                    total_ms: subset.iter().map(|s| s.elapsed_ms).sum(),
                    group,
                    method,
                }
            })
            .collect()
    }

    /// Summary for one `(group, method)` if present.
    pub fn summary_for(&self, group: &str, method: &str) -> Option<GroupSummary> {
        self.summarize()
            .into_iter()
            .find(|s| s.group == group && s.method == method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(acc: f64, iou: f64) -> Scores {
        Scores {
            accuracy: acc,
            iou,
            dice: 2.0 * iou / (1.0 + iou),
            precision: 0.9,
            recall: 0.8,
            specificity: 0.95,
            mcc: 0.7,
        }
    }

    fn sample(group: &str, method: &str, acc: f64, iou: f64) -> SampleEval {
        SampleEval {
            sample_id: format!("{group}_{method}_{acc}"),
            group: group.into(),
            method: method.into(),
            scores: scores(acc, iou),
            elapsed_ms: 5.0,
        }
    }

    #[test]
    fn mean_std_basics() {
        let ms = MeanStd::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((ms.mean - 2.5).abs() < 1e-12);
        assert!((ms.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(ms.n, 4);
        let empty = MeanStd::of(&[]);
        assert_eq!(empty.mean, 0.0);
        let single = MeanStd::of(&[7.0]);
        assert_eq!(single.std, 0.0);
    }

    #[test]
    fn cell_formatting_matches_paper_style() {
        let ms = MeanStd::of(&[0.942, 0.952]);
        assert_eq!(ms.cell(), "0.947±0.005");
    }

    #[test]
    fn summarize_groups_and_methods() {
        let mut ev = DatasetEval::new();
        ev.push(sample("Crystalline", "Otsu", 0.6, 0.2));
        ev.push(sample("Crystalline", "Otsu", 0.5, 0.1));
        ev.push(sample("Crystalline", "Zenesis", 0.99, 0.86));
        ev.push(sample("Amorphous", "Otsu", 0.58, 0.4));
        let summaries = ev.summarize();
        assert_eq!(summaries.len(), 3);
        let s = ev.summary_for("Crystalline", "Otsu").unwrap();
        assert_eq!(s.n_samples, 2);
        assert!((s.accuracy.mean - 0.55).abs() < 1e-12);
        assert!((s.iou.mean - 0.15).abs() < 1e-12);
        assert_eq!(s.total_ms, 10.0);
        assert!(ev.summary_for("Amorphous", "Zenesis").is_none());
    }

    #[test]
    fn serde_roundtrip() {
        let mut ev = DatasetEval::new();
        ev.push(sample("Amorphous", "SAM-only", 0.5, 0.4));
        let json = serde_json::to_string(&ev).unwrap();
        let back: DatasetEval = serde_json::from_str(&json).unwrap();
        assert_eq!(back.samples.len(), 1);
        assert_eq!(back.samples[0].method, "SAM-only");
    }
}
