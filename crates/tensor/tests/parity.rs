//! Parity suite: the blocked, panel-packed matmul kernels must match a
//! textbook triple-loop reference to within the 1e-4 kernel budget on a
//! shape grid that exercises every dispatch path — degenerate 1×N / N×1
//! shapes, sizes straddling the `MR`/`NR` panel boundaries, and
//! non-multiple-of-8 tails. The blocked kernel contracts `k` in source
//! order, so agreement is in fact bit-exact; the tolerance guards future
//! reorderings.

use proptest::prelude::*;
use zenesis_tensor::{Matrix, ScalarGuard, MR, NR};

/// Textbook `A · B`: no blocking, no packing, `k` contracted in order.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0f32;
        for k in 0..a.cols() {
            acc += a.get(i, k) * b.get(k, j);
        }
        acc
    })
}

/// Textbook `A · Bᵀ` where `b` is stored row-major as B (not Bᵀ).
fn naive_matmul_transposed(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols());
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        let mut acc = 0.0f32;
        for k in 0..a.cols() {
            acc += a.get(i, k) * b.get(j, k);
        }
        acc
    })
}

fn assert_close(got: &Matrix, want: &Matrix, tol: f32, label: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{label}: shape");
    for r in 0..want.rows() {
        for c in 0..want.cols() {
            let (g, w) = (got.get(r, c), want.get(r, c));
            let scale = w.abs().max(1.0);
            assert!(
                (g - w).abs() <= tol * scale,
                "{label}: ({r},{c}) got {g} want {w}"
            );
        }
    }
}

/// Shape grid: (m, k, n) triples covering degenerate edges, panel
/// boundaries (`MR`, `NR`, and ±1 around both), non-multiple-of-8 tails,
/// and the small-size fast path vs the blocked path on either side of it.
fn shape_grid() -> Vec<(usize, usize, usize)> {
    let mut grid = vec![
        (1, 1, 1),
        (1, 7, 1),
        (1, 16, 9),   // 1×N row vector
        (9, 16, 1),   // N×1 column output
        (1, 1, 33),
        (3, 5, 7),    // everything odd
        (8, 8, 8),
        (13, 29, 11), // primes: no dimension divides any block size
        (31, 33, 29),
        (40, 100, 7),
        (5, 3, 100),
        (64, 64, 64),
        (65, 63, 66), // straddles the 64-wide cache blocks
    ];
    // Panel-boundary sweep around MR (row panels) and NR (column panels).
    for d in [MR - 1, MR, MR + 1] {
        grid.push((d, 17, 9));
    }
    for d in [NR - 1, NR, NR + 1] {
        grid.push((9, 17, d));
    }
    grid
}

#[test]
fn blocked_matmul_matches_naive_on_grid() {
    for (m, k, n) in shape_grid() {
        let a = Matrix::seeded_uniform(m, k, 2.0, (m * 1009 + k) as u64);
        let b = Matrix::seeded_uniform(k, n, 2.0, (k * 1013 + n) as u64);
        let got = a.matmul(&b);
        let want = naive_matmul(&a, &b);
        assert_close(&got, &want, 1e-4, &format!("matmul {m}x{k}x{n}"));
    }
}

#[test]
fn blocked_matmul_transposed_matches_naive_on_grid() {
    for (m, k, n) in shape_grid() {
        let a = Matrix::seeded_uniform(m, k, 2.0, (m * 1019 + k) as u64);
        let b = Matrix::seeded_uniform(n, k, 2.0, (n * 1021 + k) as u64);
        let got = a.matmul_transposed(&b);
        let want = naive_matmul_transposed(&a, &b);
        assert_close(&got, &want, 1e-4, &format!("matmul_transposed {m}x{k}x{n}"));
    }
}

#[test]
fn blocked_transpose_matches_naive_non_square() {
    for (r, c) in [(1, 17), (17, 1), (3, 64), (64, 3), (33, 65), (127, 31)] {
        let m = Matrix::seeded_uniform(r, c, 1.0, (r * 31 + c) as u64);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (c, r));
        for i in 0..r {
            for j in 0..c {
                assert_eq!(t.get(j, i), m.get(i, j), "transpose {r}x{c} at ({i},{j})");
            }
        }
    }
}

/// Per-element bit equality. The SIMD-dispatched and forced-scalar kernel
/// paths compile the same accumulation body (no FMA contraction), so their
/// outputs must agree to the last bit — not merely within tolerance.
fn assert_bits_equal(a: &Matrix, b: &Matrix, label: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{label}: shape");
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let (x, y) = (a.get(r, c), b.get(r, c));
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: ({r},{c}) dispatch {x} vs scalar {y}"
            );
        }
    }
}

/// Remainder sweep dimensions: every residue class mod `NR` (the SIMD lane
/// width) at both ends of the size range — 1..=NR and 512-NR+1..=512.
fn residue_dims() -> (Vec<usize>, Vec<usize>) {
    ((1..=NR).collect(), (512 - NR + 1..=512).collect())
}

/// (m, n) pairs for the sweep: the full small×small cross, small×large in
/// both orientations, the large diagonal, and the two large off-diagonal
/// corners. Every residue pair is covered at the small end and every
/// residue reaches 512-scale; the full large×large cross is skipped only
/// to keep the naive O(m·k·n) reference affordable in debug builds.
fn sweep_pairs() -> Vec<(usize, usize)> {
    let (small, large) = residue_dims();
    let mut pairs = Vec::new();
    for &m in &small {
        for &n in small.iter().chain(&large) {
            pairs.push((m, n));
            pairs.push((n, m));
        }
    }
    for &d in &large {
        pairs.push((d, d));
    }
    pairs.push((512 - NR + 1, 512));
    pairs.push((512, 512 - NR + 1));
    pairs
}

/// S1 remainder sweep: both product kernels, every dim residue mod `NR`
/// from 1×1 up to 512×512, checked against the naive reference on the
/// runtime-dispatched path AND bit-compared against the forced-scalar
/// fallback. `k = 9` (one lane plus a tail) keeps the reference fast; one
/// more input, 96×80×88, runs a deep contraction through full 4-row
/// blocks and panel pairs.
#[test]
fn simd_remainder_sweep_dispatch_and_forced_scalar() {
    let shapes = sweep_pairs()
        .into_iter()
        .map(|(m, n)| (m, 9, n))
        .chain([(96, 80, 88)]);
    for (m, k, n) in shapes {
        let a = Matrix::seeded_uniform(m, k, 2.0, (m * 7907 + n) as u64);
        let b = Matrix::seeded_uniform(k, n, 2.0, (n * 7919 + m) as u64);
        let bt = Matrix::seeded_uniform(n, k, 2.0, (m * 7927 + n) as u64);

        let got = a.matmul(&b);
        assert_close(&got, &naive_matmul(&a, &b), 1e-4, &format!("sweep matmul {m}x{k}x{n}"));
        let scalar = {
            let _g = ScalarGuard::new();
            a.matmul(&b)
        };
        assert_bits_equal(&got, &scalar, &format!("sweep matmul {m}x{k}x{n}"));

        let got_t = a.matmul_transposed(&bt);
        assert_close(
            &got_t,
            &naive_matmul_transposed(&a, &bt),
            1e-4,
            &format!("sweep matmul_transposed {m}x{k}x{n}"),
        );
        let scalar_t = {
            let _g = ScalarGuard::new();
            a.matmul_transposed(&bt)
        };
        assert_bits_equal(&got_t, &scalar_t, &format!("sweep matmul_transposed {m}x{k}x{n}"));
    }
}

/// S1 non-finite propagation: NaN and ±inf inputs flow through the packed
/// kernel exactly as through the naive reference (same per-element k-order
/// means identical IEEE propagation), and the dispatched and forced-scalar
/// paths remain bit-identical.
#[test]
fn non_finite_inputs_propagate_identically() {
    let (m, k, n) = (13, 9, 11);
    let mut a = Matrix::seeded_uniform(m, k, 1.0, 42);
    a.set(2, 3, f32::NAN);
    a.set(5, 0, f32::INFINITY);
    a.set(7, 8, f32::NEG_INFINITY);
    let b = Matrix::seeded_uniform(k, n, 1.0, 43);
    let bt = Matrix::seeded_uniform(n, k, 1.0, 44);

    for (got, want, label) in [
        (a.matmul(&b), naive_matmul(&a, &b), "matmul"),
        (
            a.matmul_transposed(&bt),
            naive_matmul_transposed(&a, &bt),
            "matmul_transposed",
        ),
    ] {
        for r in 0..m {
            for c in 0..got.cols() {
                let (g, w) = (got.get(r, c), want.get(r, c));
                if w.is_nan() {
                    assert!(g.is_nan(), "{label}: ({r},{c}) want NaN got {g}");
                } else {
                    assert_eq!(g.to_bits(), w.to_bits(), "{label}: ({r},{c}) got {g} want {w}");
                }
            }
        }
        // Rows that saw no poisoned lhs element must stay finite.
        for r in [0usize, 1, 3, 4, 6, 8] {
            for c in 0..got.cols() {
                assert!(got.get(r, c).is_finite(), "{label}: clean row {r} poisoned");
            }
        }
    }

    let dispatch = a.matmul(&b);
    let scalar = {
        let _g = ScalarGuard::new();
        a.matmul(&b)
    };
    for (x, y) in dispatch.as_slice().iter().zip(scalar.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "non-finite dispatch vs scalar");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random-shape parity: any (m, k, n) in [1, 48]³ with random data,
    /// both product kernels.
    #[test]
    fn matmul_parity_random_shapes(
        m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in 0u64..10_000
    ) {
        let a = Matrix::seeded_uniform(m, k, 3.0, seed);
        let b = Matrix::seeded_uniform(k, n, 3.0, seed ^ 0x9e37);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4, "matmul(prop)");

        let bt = Matrix::seeded_uniform(n, k, 3.0, seed ^ 0x79b9);
        assert_close(
            &a.matmul_transposed(&bt),
            &naive_matmul_transposed(&a, &bt),
            1e-4,
            "matmul_transposed(prop)",
        );
    }
}
