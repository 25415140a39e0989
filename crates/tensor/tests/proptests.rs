//! Property tests for the tensor kernels: linear-algebra identities that
//! must hold for any data, at any thread count.

use proptest::prelude::*;
use zenesis_par::ThreadsGuard;
use zenesis_tensor::{softmax_rows, Matrix};

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn sum(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), a.cols(), |r, c| a.get(r, c) + b.get(r, c))
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matmul_distributes_over_addition(
        a in arb_matrix(5, 7), b in arb_matrix(7, 4), c in arb_matrix(7, 4)
    ) {
        // A(B + C) = AB + AC
        let lhs = a.matmul(&sum(&b, &c));
        let rhs = sum(&a.matmul(&b), &a.matmul(&c));
        prop_assert!(approx_eq(&lhs, &rhs, 1e-3));
    }

    #[test]
    fn matmul_transpose_identity(a in arb_matrix(6, 5), b in arb_matrix(4, 5)) {
        // A B^T computed directly equals A * transpose(B).
        let direct = a.matmul_transposed(&b);
        let via_t = a.matmul(&b.transpose());
        prop_assert!(approx_eq(&direct, &via_t, 1e-4));
    }

    #[test]
    fn transpose_of_product(a in arb_matrix(4, 6), b in arb_matrix(6, 3)) {
        // (AB)^T = B^T A^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(approx_eq(&lhs, &rhs, 1e-3));
    }

    #[test]
    fn matmul_identity_is_identity(a in arb_matrix(5, 5)) {
        let i = Matrix::identity(5);
        prop_assert!(approx_eq(&a.matmul(&i), &a, 1e-5));
        prop_assert!(approx_eq(&i.matmul(&a), &a, 1e-5));
    }

    #[test]
    fn matmul_deterministic_across_threads(a in arb_matrix(9, 11), b in arb_matrix(11, 6)) {
        let results: Vec<Matrix> = [1usize, 2, 4].iter().map(|&n| {
            let _g = ThreadsGuard::new(n);
            a.matmul(&b)
        }).collect();
        prop_assert_eq!(results[0].as_slice(), results[1].as_slice());
        prop_assert_eq!(results[1].as_slice(), results[2].as_slice());
    }

    #[test]
    fn softmax_rows_distribution(m in arb_matrix(4, 9)) {
        let s = softmax_rows(&m);
        for r in 0..4 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_preserves_argmax(m in arb_matrix(3, 7)) {
        let s = softmax_rows(&m);
        for r in 0..3 {
            let am_in = (0..7).max_by(|&i, &j| m.get(r, i).partial_cmp(&m.get(r, j)).unwrap()).unwrap();
            let am_out = (0..7).max_by(|&i, &j| s.get(r, i).partial_cmp(&s.get(r, j)).unwrap()).unwrap();
            prop_assert!((s.get(r, am_in) - s.get(r, am_out)).abs() < 1e-6);
        }
    }
}
