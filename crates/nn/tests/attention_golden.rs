//! Golden bits: the exact outputs of the attention path the product runs,
//! pinned as FNV-1a digests of their `to_bits()`.
//!
//! Each digest is recomputed at 1 and 2 threads and with the scalar
//! fallback forced, and all three must equal the stored value. So the
//! dispatched `Q·Kᵀ` product and the row-parallel softmax are checked
//! against forced scalar here. A kernel rewrite must leave every digest
//! untouched; a digest may only change together with a deliberate change
//! of arithmetic, stated as such.
//!
//! Covered: `attention_weights` (Eq. 1) at the grounding shapes — 3
//! prompt tokens of width 32 against the 256, 1024 and 4096 patch keys
//! of a 128², 256² and 512² slice — plus two odd shapes; and the default
//! `GroundingDino` grounding a 128² phantom (relevance map and boxes).
//!
//! Thread count and the scalar override are process-global, so the tests
//! serialize on one mutex.

use std::sync::Mutex;

use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_ground::{DinoConfig, GroundingDino};
use zenesis_nn::attention_weights;
use zenesis_par::ThreadsGuard;
use zenesis_tensor::{Matrix, ScalarGuard};

static GUARD_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

/// Digest of `f`'s output at 1 thread, asserting that 2 threads and the
/// forced-scalar path produce the same bits.
fn stable_digest(label: &str, f: impl Fn(&mut Fnv)) -> u64 {
    let run = || {
        let mut h = Fnv::new();
        f(&mut h);
        h.0
    };
    let one = {
        let _t = ThreadsGuard::new(1);
        run()
    };
    let two = {
        let _t = ThreadsGuard::new(2);
        run()
    };
    let scalar = {
        let _t = ThreadsGuard::new(2);
        let _g = ScalarGuard::new();
        run()
    };
    assert_eq!(one, two, "{label}: 1 vs 2 threads");
    assert_eq!(one, scalar, "{label}: dispatched vs forced scalar");
    one
}

/// Compare computed digests with the pinned ones, reporting every
/// mismatch at once.
fn check(got: &[(String, u64)], want: &[u64]) {
    assert_eq!(got.len(), want.len(), "digest count");
    let bad: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != *w)
        .map(|((label, g), w)| format!("{label}: got {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert!(bad.is_empty(), "golden digests moved:\n{}", bad.join("\n"));
}

#[test]
fn attention_weights_bits_are_pinned() {
    let _l = lock();
    // (queries, keys, width): the grounding shapes, then two odd ones —
    // a width that is no multiple of the 8-lane panel and key counts
    // that leave a leftover full panel and a zero-padded tail.
    let shapes = [
        (3usize, 256usize, 32usize),
        (3, 1024, 32),
        (3, 4096, 32),
        (1, 37, 13),
        (5, 300, 19),
    ];
    let got: Vec<(String, u64)> = shapes
        .iter()
        .map(|&(n_q, n_kv, d)| {
            let label = format!("attention_weights {n_q}x{n_kv}x{d}");
            let seed = (n_q * 1_000_003 + n_kv * 1009 + d) as u64;
            // The grounding queries carry the logit scale (6.0), so the
            // scores span the range the softmax sees in the product.
            let q = Matrix::seeded_uniform(n_q, d, 6.0, seed);
            let k = Matrix::seeded_uniform(n_kv, d, 1.0, seed ^ 0xa5a5);
            let digest = stable_digest(&label, |h| h.floats(attention_weights(&q, &k).as_slice()));
            (label, digest)
        })
        .collect();
    check(
        &got,
        &[
            0x98b6_5462_7159_35ec,
            0x47b1_c449_3c90_5685,
            0xfbfa_8526_f9b5_d296,
            0x1b78_aa7a_6e55_39a7,
            0x15df_00f3_c92a_8d95,
        ],
    );
}

#[test]
fn default_grounding_bits_are_pinned() {
    let _l = lock();
    let dino = GroundingDino::new(DinoConfig::default());
    let img =
        generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 3).with_size(128, 128)).clean;
    let digest = stable_digest("grounding", |h| {
        let g = dino.ground(&img, "bright catalyst particles");
        assert!(!g.detections.is_empty(), "the phantom must yield boxes");
        h.floats(g.relevance.as_slice());
        for det in &g.detections {
            let b = det.bbox;
            for c in [b.x0, b.y0, b.x1, b.y1] {
                h.word(c as u64);
            }
            h.word(det.score.to_bits());
        }
    });
    check(&[("grounding".into(), digest)], &[0x0c67_7303_e095_995c]);
}
