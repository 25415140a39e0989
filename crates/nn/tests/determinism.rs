//! Determinism suite (S2): the k-major bit-stability contract.
//!
//! Matmul and fused attention run on the calling thread: no thread count
//! reaches them. What still fans out is coarse — Swin windows across the
//! `zenesis-par` team, and the grain-gated row-wise kernels (layer norm,
//! GELU, row softmax) — and each of those splits work into disjoint
//! *output* regions with the per-element arithmetic unchanged inside each
//! region. Thread count therefore changes only which thread writes a row,
//! never the sequence of IEEE operations that produces it. Likewise the
//! AVX2 and scalar kernel paths compile the same `#[inline(always)]` body
//! (no FMA contraction), so forcing the scalar fallback must reproduce
//! the dispatched output bit-for-bit.
//!
//! These tests pin both properties: kernels are bit-identical across
//! SIMD-on vs forced-scalar, and the encoders are bit-identical across
//! thread counts {1, 2, 8} as well.
//!
//! Thread count and the scalar override are process-global, so every test
//! serializes on one mutex rather than racing guards against each other.

use std::sync::Mutex;

use zenesis_image::Image;
use zenesis_nn::{attention, SwinStage, VitEncoder};
use zenesis_par::ThreadsGuard;
use zenesis_tensor::{Matrix, ScalarGuard};

static GUARD_LOCK: Mutex<()> = Mutex::new(());

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_same_bits(a: &[u32], b: &[u32], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x,
            y,
            "{label}: flat index {i} differs: {} vs {}",
            f32::from_bits(*x),
            f32::from_bits(*y)
        );
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn attention_and_matmul_bit_identical_simd_vs_forced_scalar() {
    let _l = GUARD_LOCK.lock().unwrap();
    // Odd n_q = 23 leaves an unpaired last query row after the 4- and
    // 2-row groups; 300 keys leave a leftover full panel and a tail.
    for (n_q, n_kv, d, d_v) in [(24usize, 512usize, 32usize, 32usize), (23, 300, 64, 48)] {
        let q = Matrix::seeded_uniform(n_q, d, 2.0, 41);
        let k = Matrix::seeded_uniform(n_kv, d, 2.0, 42);
        let v = Matrix::seeded_uniform(n_kv, d_v, 2.0, 43);
        let att = bits(&attention(&q, &k, &v));
        let _g = ScalarGuard::new();
        assert_same_bits(
            &att,
            &bits(&attention(&q, &k, &v)),
            &format!("attention {n_q}x{n_kv} simd-vs-scalar"),
        );
    }
    let a = Matrix::seeded_uniform(96, 80, 2.0, 44);
    let b = Matrix::seeded_uniform(80, 88, 2.0, 45);
    let bt = Matrix::seeded_uniform(88, 80, 2.0, 46);
    let (mm, mmt) = (bits(&a.matmul(&b)), bits(&a.matmul_transposed(&bt)));
    let _g = ScalarGuard::new();
    assert_same_bits(&mm, &bits(&a.matmul(&b)), "matmul simd-vs-scalar");
    let scalar_t = bits(&a.matmul_transposed(&bt));
    assert_same_bits(&mmt, &scalar_t, "matmul_transposed simd-vs-scalar");
}

#[test]
fn swin_stage_bit_identical_across_thread_counts() {
    let _l = GUARD_LOCK.lock().unwrap();
    // The grounding backbone's shape: window 4, dim 32, 4 heads. Windows
    // fan out across the team; each window's block runs inline.
    let swin = SwinStage::new(4, 32, 4, 2, 0x5EED ^ 0x31);
    let tokens = Matrix::seeded_uniform(16 * 16, 32, 1.0, 51);
    let base = {
        let _t = ThreadsGuard::new(1);
        bits(&swin.forward(&tokens, 16, 16))
    };
    for t in THREAD_COUNTS {
        let _t = ThreadsGuard::new(t);
        let out = bits(&swin.forward(&tokens, 16, 16));
        assert_same_bits(&base, &out, &format!("swin t={t}"));
        let _g = ScalarGuard::new();
        let scalar = bits(&swin.forward(&tokens, 16, 16));
        assert_same_bits(&base, &scalar, &format!("swin scalar t={t}"));
    }
}

#[test]
fn vit_encoder_bit_identical_across_thread_counts_and_simd_paths() {
    let _l = GUARD_LOCK.lock().unwrap();
    // End-to-end: patch embed + multi-head attention + matmul + GELU MLP
    // + layernorm, all under one forward pass.
    let img = Image::<f32>::from_fn(64, 64, |x, y| ((x * 7 + y * 13) % 97) as f32 / 96.0);
    let vit = VitEncoder::new(8, 64, 4, 2, 5);
    let base = {
        let _t = ThreadsGuard::new(1);
        bits(&vit.forward(&img).0)
    };
    for t in THREAD_COUNTS {
        let _t = ThreadsGuard::new(t);
        assert_same_bits(&base, &bits(&vit.forward(&img).0), &format!("vit t={t}"));
        let _g = ScalarGuard::new();
        assert_same_bits(&base, &bits(&vit.forward(&img).0), &format!("vit scalar t={t}"));
    }
}
