//! # zenesis-nn
//!
//! The cross-modal attention of the GroundingDINO surrogate: the paper's
//! Eq. (1) attention weights,
//!
//! ```text
//! softmax(Q K^T / sqrt(d))
//! ```
//!
//! the relevance of each text token (query) over the image patches
//! (keys) that `zenesis-ground` thresholds into boxes.
//!
//! ## Weights
//!
//! There are no pretrained weights in this reproduction (see DESIGN.md §2),
//! so there is no transformer backbone either: the semantic content of
//! the pipeline comes from the hand-crafted feature channels in
//! `zenesis-ground`, projected into a shared space by one seeded linear
//! map, and this function is the whole of the attention.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use zenesis_tensor::{softmax_rows, Matrix};

/// Raw attention weights `softmax(Q K^T / sqrt(d))` — the relevance map
/// the grounding head thresholds into boxes.
pub fn attention_weights(q: &Matrix, k: &Matrix) -> Matrix {
    assert_eq!(q.cols(), k.cols(), "q/k feature dims differ");
    let mut scores = q.matmul_transposed(k);
    scores.scale(1.0 / (q.cols() as f32).sqrt());
    softmax_rows(&scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_weights_rows_sum_to_one() {
        let q = Matrix::seeded_uniform(6, 16, 1.0, 4);
        let k = Matrix::seeded_uniform(10, 16, 1.0, 5);
        let w = attention_weights(&q, &k);
        assert_eq!((w.rows(), w.cols()), (6, 10));
        for r in 0..6 {
            let s: f32 = w.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_weights_peak_on_matching_key() {
        // Query equal to one key (scaled up) should attend mostly to it.
        let mut k = Matrix::seeded_uniform(4, 8, 1.0, 9);
        for c in 0..8 {
            k.set(2, c, if c == 0 { 5.0 } else { 0.0 });
        }
        let q = Matrix::from_fn(1, 8, |_, c| if c == 0 { 5.0 } else { 0.0 });
        let w = attention_weights(&q, &k);
        let best = (0..4)
            .max_by(|&a, &b| w.get(0, a).partial_cmp(&w.get(0, b)).unwrap())
            .unwrap();
        assert_eq!(best, 2);
    }
}
