//! Volumetric evaluation for Mode B: 3-D overlap metrics (pooled over
//! slices, which is *not* the mean of per-slice scores) and temporal
//! consistency of a segmentation through the stack.

use serde::{Deserialize, Serialize};
use zenesis_image::BitMask;

use crate::confusion::Confusion;

/// Pooled 3-D evaluation of a predicted slice stack against truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VolumeEval {
    /// Voxel-pooled confusion (sums over all slices).
    pub(crate) pooled: Confusion,
    /// Per-slice IoU series.
    pub(crate) slice_iou: Vec<f64>,
    /// Mean inter-slice IoU of the *prediction* (how smoothly the
    /// segmentation evolves through z); 1.0 for a single-slice stack.
    pub prediction_smoothness: f64,
    /// Mean inter-slice IoU of the *truth* (the intrinsic smoothness of
    /// the structures; compare against `prediction_smoothness`).
    pub truth_smoothness: f64,
}

impl VolumeEval {
    /// Voxel-level (3-D) IoU.
    pub fn iou3d(&self) -> f64 {
        self.pooled.iou()
    }

    /// Voxel-level (3-D) Dice.
    pub fn dice3d(&self) -> f64 {
        self.pooled.dice()
    }
}

/// Evaluate a predicted mask stack against a ground-truth stack.
///
/// Panics if the stacks differ in depth or any slice pair differs in
/// dimensions; empty stacks are rejected.
pub fn evaluate_volume(pred: &[BitMask], truth: &[BitMask]) -> VolumeEval {
    assert_eq!(pred.len(), truth.len(), "stack depth mismatch");
    assert!(!pred.is_empty(), "empty stacks");
    let mut pooled = Confusion {
        tp: 0,
        fp: 0,
        tn: 0,
        fn_: 0,
    };
    let mut slice_iou = Vec::with_capacity(pred.len());
    for (p, t) in pred.iter().zip(truth) {
        let c = Confusion::from_masks(p, t);
        pooled.tp += c.tp;
        pooled.fp += c.fp;
        pooled.tn += c.tn;
        pooled.fn_ += c.fn_;
        slice_iou.push(c.iou());
    }
    let smooth = |stack: &[BitMask]| -> f64 {
        if stack.len() < 2 {
            return 1.0;
        }
        let mut s = 0.0;
        for w in stack.windows(2) {
            s += w[0].iou(&w[1]);
        }
        s / (stack.len() - 1) as f64
    };
    VolumeEval {
        pooled,
        slice_iou,
        prediction_smoothness: smooth(pred),
        truth_smoothness: smooth(truth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::BoxRegion;

    fn stack(xs: &[usize]) -> Vec<BitMask> {
        xs.iter()
            .map(|&x| BitMask::from_box(20, 20, BoxRegion::new(x, 5, x + 8, 13)))
            .collect()
    }

    #[test]
    fn perfect_volume() {
        let t = stack(&[2, 3, 4]);
        let e = evaluate_volume(&t, &t);
        assert_eq!(e.iou3d(), 1.0);
        assert_eq!(e.dice3d(), 1.0);
        assert!(e.slice_iou.iter().all(|&v| v == 1.0));
        assert!((e.prediction_smoothness - e.truth_smoothness).abs() < 1e-12);
    }

    #[test]
    fn pooled_differs_from_mean_of_slices() {
        // Slice 1 perfect, slice 2 empty prediction against a large truth:
        // pooled IoU weights by area, mean-of-slices does not.
        let truth = vec![
            BitMask::from_box(20, 20, BoxRegion::new(0, 0, 2, 2)), // 4 px
            BitMask::from_box(20, 20, BoxRegion::new(0, 0, 10, 10)), // 100 px
        ];
        let pred = vec![truth[0].clone(), BitMask::new(20, 20)];
        let e = evaluate_volume(&pred, &truth);
        let mean_slice = e.slice_iou.iter().sum::<f64>() / 2.0;
        // Pooled: 4 / 104; mean: (1 + 0) / 2.
        assert!((e.iou3d() - 4.0 / 104.0).abs() < 1e-12);
        assert!((mean_slice - 0.5).abs() < 1e-12);
        assert!(e.iou3d() < mean_slice);
    }

    #[test]
    fn smoothness_tracks_drift() {
        // Jumping prediction is less smooth than a drifting truth.
        let truth = stack(&[5, 6, 7, 8]);
        let pred = stack(&[5, 11, 5, 11]);
        let e = evaluate_volume(&pred, &truth);
        assert!(e.prediction_smoothness < e.truth_smoothness);
        assert!(e.truth_smoothness > 0.7);
    }

    #[test]
    fn single_slice_smoothness_is_one() {
        let t = stack(&[4]);
        let e = evaluate_volume(&t, &t);
        assert_eq!(e.prediction_smoothness, 1.0);
    }

    #[test]
    #[should_panic]
    fn depth_mismatch_panics() {
        let a = stack(&[1, 2]);
        let b = stack(&[1]);
        let _ = evaluate_volume(&a, &b);
    }
}
