//! Pixel confusion matrices and derived segmentation scores.

use serde::{Deserialize, Serialize};
use zenesis_image::BitMask;

/// Pixel-level confusion counts of a predicted mask against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    pub tp: usize,
    pub fp: usize,
    pub(crate) tn: usize,
    pub fn_: usize,
}

impl Confusion {
    /// Compare a prediction to ground truth (same dimensions required).
    pub fn from_masks(pred: &BitMask, truth: &BitMask) -> Self {
        assert_eq!(pred.dims(), truth.dims(), "mask dims differ");
        let tp = pred.intersection_count(truth);
        let fp = pred.count() - tp;
        let fn_ = truth.count() - tp;
        let tn = pred.len() - tp - fp - fn_;
        Confusion { tp, fp, tn, fn_ }
    }

    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// `(TP + TN) / total`.
    pub fn accuracy(&self) -> f64 {
        (self.tp + self.tn) as f64 / self.total().max(1) as f64
    }

    /// Jaccard index `TP / (TP + FP + FN)`; 1.0 when both masks are empty.
    pub fn iou(&self) -> f64 {
        let denom = self.tp + self.fp + self.fn_;
        if denom == 0 {
            1.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// Dice / F1 `2TP / (2TP + FP + FN)`; 1.0 when both masks are empty.
    pub fn dice(&self) -> f64 {
        let denom = 2 * self.tp + self.fp + self.fn_;
        if denom == 0 {
            1.0
        } else {
            2.0 * self.tp as f64 / denom as f64
        }
    }

    /// `TP / (TP + FP)`; 1.0 for an empty prediction.
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            1.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// `TP / (TP + FN)`; 1.0 for empty ground truth.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            1.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// `TN / (TN + FP)`; 1.0 when there are no true negatives to protect.
    pub(crate) fn specificity(&self) -> f64 {
        let denom = self.tn + self.fp;
        if denom == 0 {
            1.0
        } else {
            self.tn as f64 / denom as f64
        }
    }

    /// Matthews correlation coefficient in `[-1, 1]`; 0 for degenerate
    /// denominators.
    pub(crate) fn mcc(&self) -> f64 {
        let (tp, fp, tn, fn_) = (
            self.tp as f64,
            self.fp as f64,
            self.tn as f64,
            self.fn_ as f64,
        );
        let denom = ((tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_)).sqrt();
        if denom == 0.0 {
            0.0
        } else {
            (tp * tn - fp * fn_) / denom
        }
    }

    /// Bundle the scores the dashboard shows.
    pub fn scores(&self) -> Scores {
        Scores {
            accuracy: self.accuracy(),
            iou: self.iou(),
            dice: self.dice(),
            precision: self.precision(),
            recall: self.recall(),
            specificity: self.specificity(),
            mcc: self.mcc(),
        }
    }
}

/// The derived score bundle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scores {
    pub accuracy: f64,
    pub iou: f64,
    pub dice: f64,
    pub precision: f64,
    pub recall: f64,
    pub specificity: f64,
    pub mcc: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::BoxRegion;

    fn masks() -> (BitMask, BitMask) {
        let truth = BitMask::from_box(20, 20, BoxRegion::new(5, 5, 15, 15)); // 100 px
        let pred = BitMask::from_box(20, 20, BoxRegion::new(5, 5, 15, 10)); // 50 px, all inside
        (pred, truth)
    }

    #[test]
    fn confusion_counts() {
        let (pred, truth) = masks();
        let c = Confusion::from_masks(&pred, &truth);
        assert_eq!(c.tp, 50);
        assert_eq!(c.fp, 0);
        assert_eq!(c.fn_, 50);
        assert_eq!(c.tn, 300);
        assert_eq!(c.total(), 400);
    }

    #[test]
    fn score_values() {
        let (pred, truth) = masks();
        let c = Confusion::from_masks(&pred, &truth);
        assert!((c.accuracy() - 350.0 / 400.0).abs() < 1e-12);
        assert!((c.iou() - 0.5).abs() < 1e-12);
        assert!((c.dice() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.precision() - 1.0).abs() < 1e-12);
        assert!((c.recall() - 0.5).abs() < 1e-12);
        assert!((c.specificity() - 1.0).abs() < 1e-12);
        assert!(c.mcc() > 0.0 && c.mcc() < 1.0);
    }

    #[test]
    fn perfect_prediction() {
        let truth = BitMask::from_box(10, 10, BoxRegion::new(2, 2, 8, 8));
        let c = Confusion::from_masks(&truth, &truth);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.iou(), 1.0);
        assert_eq!(c.dice(), 1.0);
        assert_eq!(c.mcc(), 1.0);
    }

    #[test]
    fn inverted_prediction_is_anti_correlated() {
        let truth = BitMask::from_box(10, 10, BoxRegion::new(0, 0, 10, 5));
        let pred = truth.not();
        let c = Confusion::from_masks(&pred, &truth);
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.iou(), 0.0);
        assert_eq!(c.mcc(), -1.0);
    }

    #[test]
    fn empty_vs_empty_conventions() {
        let e = BitMask::new(8, 8);
        let c = Confusion::from_masks(&e, &e);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.iou(), 1.0);
        assert_eq!(c.dice(), 1.0);
        assert_eq!(c.mcc(), 0.0); // degenerate
    }

    #[test]
    fn dice_iou_relation() {
        let (pred, truth) = masks();
        let c = Confusion::from_masks(&pred, &truth);
        let (d, i) = (c.dice(), c.iou());
        assert!((d - 2.0 * i / (1.0 + i)).abs() < 1e-12);
        assert!(i <= d);
    }

    #[test]
    #[should_panic]
    fn dims_must_match() {
        let a = BitMask::new(4, 4);
        let b = BitMask::new(5, 5);
        let _ = Confusion::from_masks(&a, &b);
    }
}
