//! Property tests for Eq. 1's attention weights: every row is a
//! probability distribution over the keys.

use proptest::prelude::*;
use zenesis_nn::attention_weights;
use zenesis_tensor::Matrix;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn attention_weights_are_distributions(q in arb_matrix(3, 8), k in arb_matrix(7, 8)) {
        let w = attention_weights(&q, &k);
        for r in 0..3 {
            let sum: f32 = w.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(w.row(r).iter().all(|&x| x >= 0.0));
        }
    }
}
