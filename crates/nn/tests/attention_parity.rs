//! Parity suite: the fused attention kernel (packed vertical score pass,
//! `fast_exp` softmax, normalizer folded into the output scale) must
//! match an unfused libm-exact reference — materialized score matrix,
//! `f32::exp` softmax, separate A·V product — to within 1e-4.
//!
//! `attention_into` has one route: K packed into 8-wide panels, query
//! rows in groups of 4, 2 and 1. The shape grid hits every branch of it:
//! query counts that leave 2- and 1-row groups (and batches smaller
//! than one 4-row group), key counts that leave a leftover full panel
//! and a zero-padded tail panel, any head width `d` (the score pass is
//! vertical across keys, so `d` is only a loop bound), and `d_v` widths
//! covering whole 16-wide output chunks, chunks plus a remainder, and a
//! remainder alone.

use proptest::prelude::*;
use zenesis_nn::attention;
use zenesis_tensor::{Matrix, ScalarGuard};

/// Unfused reference: scores = Q·Kᵀ/√d, exact-softmax per row, then ·V.
fn naive_attention(q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
    let d = q.cols();
    let scale = 1.0 / (d as f32).sqrt();
    let mut out = Matrix::zeros(q.rows(), v.cols());
    for r in 0..q.rows() {
        let mut scores: Vec<f32> = (0..k.rows())
            .map(|j| {
                let dot: f32 = q.row(r).iter().zip(k.row(j)).map(|(a, b)| a * b).sum();
                dot * scale
            })
            .collect();
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for s in scores.iter_mut() {
            *s = (*s - max).exp();
            sum += *s;
        }
        for (j, &w) in scores.iter().enumerate() {
            for c in 0..v.cols() {
                out.set(r, c, out.get(r, c) + (w / sum) * v.get(j, c));
            }
        }
    }
    out
}

fn check(n_q: usize, n_kv: usize, d: usize, d_v: usize) {
    let seed = (n_q * 1_000_003 + n_kv * 1009 + d * 31 + d_v) as u64;
    let q = Matrix::seeded_uniform(n_q, d, 2.0, seed);
    let k = Matrix::seeded_uniform(n_kv, d, 2.0, seed ^ 0xa5a5);
    let v = Matrix::seeded_uniform(n_kv, d_v, 2.0, seed ^ 0x5a5a);
    let got = attention(&q, &k, &v);
    let want = naive_attention(&q, &k, &v);
    assert_eq!((got.rows(), got.cols()), (n_q, d_v));
    for r in 0..n_q {
        for c in 0..d_v {
            let (g, w) = (got.get(r, c), want.get(r, c));
            assert!(
                (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                "attention {n_q}x{n_kv} d={d} d_v={d_v}: ({r},{c}) got {g} want {w}"
            );
        }
    }
}

#[test]
fn fused_attention_matches_naive_specialized_dims() {
    // Power-of-two head widths, up to wider than any head the pipeline
    // builds.
    for d in [8usize, 16, 32, 64, 128] {
        check(4, 64, d, d);
        check(3, 256, d, 32); // the benchmarked grounding shape family
    }
}

#[test]
fn fused_attention_matches_naive_generic_dims() {
    // Odd head widths, including ones narrower than a SIMD register.
    for d in [1usize, 3, 7, 12, 33, 100] {
        check(5, 37, d, 19);
    }
}

#[test]
fn fused_attention_matches_naive_edge_shapes() {
    check(1, 1, 8, 1); // fully degenerate
    check(1, 257, 32, 64); // single query row, odd kv count
    check(7, 2, 16, 3); // 4-, 2- and 1-row groups
    check(2, 5, 64, 1); // d_v=1: pure remainder accumulator
    check(3, 9, 32, 17); // 16-wide chunk + remainder
    check(2, 11, 32, 48); // three 16-wide chunks, no remainder
    check(5, 13, 32, 100); // six 16-wide chunks + remainder-4
}

#[test]
fn fused_attention_matches_naive_large_dispatch() {
    // Many query rows against a K+V working set that overflows L1: the
    // fused route, at self-attention sizes far beyond any Swin window.
    check(40, 128, 96, 96);
    check(64, 256, 64, 64);
}

/// Run `attention` under the runtime-dispatched SIMD path and again with
/// the scalar fallback forced; the twice-compiled kernel body guarantees
/// the two are bit-identical, not merely close.
fn check_dispatch_vs_scalar(n_q: usize, n_kv: usize, d: usize, d_v: usize) {
    let seed = (n_q * 99_991 + n_kv * 101 + d * 17 + d_v) as u64;
    let q = Matrix::seeded_uniform(n_q, d, 2.0, seed);
    let k = Matrix::seeded_uniform(n_kv, d, 2.0, seed ^ 0xbeef);
    let v = Matrix::seeded_uniform(n_kv, d_v, 2.0, seed ^ 0xfeed);
    let dispatch = attention(&q, &k, &v);
    let scalar = {
        let _g = ScalarGuard::new();
        attention(&q, &k, &v)
    };
    for (i, (a, b)) in dispatch.as_slice().iter().zip(scalar.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "attention {n_q}x{n_kv} d={d} d_v={d_v}: flat {i} dispatch {a} scalar {b}"
        );
    }
}

/// S1 remainder sweep: every `n_kv` residue mod 8 at both ends of the size
/// range (1..=8 and 505..=512), paired and unpaired query counts, checked
/// against the naive reference AND bit-compared dispatch-vs-forced-scalar.
#[test]
fn fused_attention_remainder_sweep_both_paths() {
    let kv_dims: Vec<usize> = (1..=8).chain(505..=512).collect();
    for &n_kv in &kv_dims {
        for n_q in [1usize, 2, 5] {
            check(n_q, n_kv, 32, 24);
            check_dispatch_vs_scalar(n_q, n_kv, 32, 24);
        }
    }
    // Odd head widths at the large-kv end.
    for d in [7usize, 33] {
        check(3, 509, d, 19);
        check_dispatch_vs_scalar(3, 509, d, 19);
    }
    // A large self-attention shape.
    check_dispatch_vs_scalar(40, 512, 64, 64);
}

/// S1 non-finite propagation: a NaN planted in one query row must poison
/// exactly that output row (softmax and the weighted sum are per-row), and
/// ±inf values in V must flow identically through the dispatched and
/// forced-scalar kernels.
#[test]
fn fused_attention_non_finite_propagation() {
    let (n_q, n_kv, d, d_v) = (5usize, 37usize, 32usize, 24usize);
    let q_clean = Matrix::seeded_uniform(n_q, d, 2.0, 77);
    let k = Matrix::seeded_uniform(n_kv, d, 2.0, 78);
    let v = Matrix::seeded_uniform(n_kv, d_v, 2.0, 79);
    let clean = attention(&q_clean, &k, &v);

    let mut q = q_clean.clone();
    q.set(1, 4, f32::NAN);
    let got = attention(&q, &k, &v);
    for c in 0..d_v {
        assert!(got.get(1, c).is_nan(), "poisoned row col {c} not NaN");
    }
    for r in [0usize, 2, 3, 4] {
        for c in 0..d_v {
            assert_eq!(
                got.get(r, c).to_bits(),
                clean.get(r, c).to_bits(),
                "clean row {r} changed by NaN in row 1"
            );
        }
    }
    let scalar = {
        let _g = ScalarGuard::new();
        attention(&q, &k, &v)
    };
    for (a, b) in got.as_slice().iter().zip(scalar.as_slice()) {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "NaN case dispatch vs scalar: {a} vs {b}"
        );
    }

    let mut v_inf = v.clone();
    v_inf.set(3, 0, f32::INFINITY);
    v_inf.set(9, 5, f32::NEG_INFINITY);
    let got_inf = attention(&q_clean, &k, &v_inf);
    let scalar_inf = {
        let _g = ScalarGuard::new();
        attention(&q_clean, &k, &v_inf)
    };
    let mut saw_non_finite = false;
    for (a, b) in got_inf.as_slice().iter().zip(scalar_inf.as_slice()) {
        saw_non_finite |= !a.is_finite();
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "inf case dispatch vs scalar: {a} vs {b}"
        );
    }
    assert!(saw_non_finite, "±inf in V vanished: softmax weights are strictly positive");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes and data: fused and unfused agree everywhere.
    #[test]
    fn fused_attention_parity_random(
        n_q in 1usize..9, n_kv in 1usize..40, d in 1usize..40, d_v in 1usize..40,
        seed in 0u64..10_000
    ) {
        let q = Matrix::seeded_uniform(n_q, d, 2.0, seed);
        let k = Matrix::seeded_uniform(n_kv, d, 2.0, seed ^ 0x1234);
        let v = Matrix::seeded_uniform(n_kv, d_v, 2.0, seed ^ 0x4321);
        let got = attention(&q, &k, &v);
        let want = naive_attention(&q, &k, &v);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((g - w).abs() <= 1e-4 * w.abs().max(1.0), "got {g} want {w}");
        }
    }
}
