//! Golden bits: the exact outputs of every attention-bearing path the
//! product can reach, pinned as FNV-1a digests of their `to_bits()`.
//!
//! Each digest is recomputed at 1 and 2 threads and with the scalar
//! fallback forced, and all three must equal the stored value. A kernel
//! rewrite that regroups rows, panels or output chunks must leave every
//! digest here untouched; a digest may only change together with a
//! deliberate change of arithmetic, stated as such.
//!
//! Covered: `attention()` over a grid of query counts (all ≥ 4), key
//! counts and head widths; a Swin stage at the grounding backbone's
//! shape on two grids where every window holds at least 4 tokens; a
//! small ViT encoder; and GroundingDINO with the Swin backbone enabled,
//! grounding a 128² phantom (relevance map and boxes). Query counts
//! under 4 and very large self-attention shapes are covered at
//! tolerance by `attention_parity.rs`.
//!
//! Thread count and the scalar override are process-global, so the tests
//! serialize on one mutex.

use std::sync::Mutex;

use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_ground::{DinoConfig, GroundingDino};
use zenesis_image::Image;
use zenesis_nn::{attention, SwinStage, VitEncoder};
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
fn attention_grid_bits_are_pinned() {
    let _l = lock();
    let dims = [(8usize, 8usize), (16, 16), (32, 24), (33, 19), (64, 48)];
    let got: Vec<(String, u64)> = dims
        .iter()
        .map(|&(d, d_v)| {
            let label = format!("attention d={d} d_v={d_v}");
            let digest = stable_digest(&label, |h| {
                for n_q in [4usize, 5, 6, 7, 16, 23, 24] {
                    for n_kv in [1usize, 7, 8, 9, 16, 257, 512] {
                        let seed = (n_q * 1_000_003 + n_kv * 1009 + d * 31 + d_v) as u64;
                        let q = Matrix::seeded_uniform(n_q, d, 2.0, seed);
                        let k = Matrix::seeded_uniform(n_kv, d, 2.0, seed ^ 0xa5a5);
                        let v = Matrix::seeded_uniform(n_kv, d_v, 2.0, seed ^ 0x5a5a);
                        h.floats(attention(&q, &k, &v).as_slice());
                    }
                }
            });
            (label, digest)
        })
        .collect();
    check(
        &got,
        &[
            0xc104_9528_a116_b171,
            0x98d4_3385_2e05_59ca,
            0x56ac_431f_3970_917a,
            0x938b_98b2_d2a2_4eb9,
            0xf4a4_d70a_c794_989f,
        ],
    );
}

#[test]
fn encoder_bits_are_pinned() {
    let _l = lock();
    // The grounding backbone's shape: window 4, dim 32, 4 heads.
    let swin = SwinStage::new(4, 32, 4, 2, 0x5EED ^ 0x31);
    let mut got = Vec::new();
    for (gw, gh) in [(16usize, 16usize), (14, 12)] {
        let tokens = Matrix::seeded_uniform(gw * gh, 32, 1.0, (gw * 100 + gh) as u64);
        let label = format!("swin {gw}x{gh}");
        let digest = stable_digest(&label, |h| {
            h.floats(swin.forward(&tokens, gw, gh).as_slice())
        });
        got.push((label, digest));
    }
    let img = Image::<f32>::from_fn(64, 64, |x, y| ((x * 7 + y * 13) % 97) as f32 / 96.0);
    let vit = VitEncoder::new(8, 64, 4, 2, 5);
    let digest = stable_digest("vit 64x64", |h| h.floats(vit.forward(&img).0.as_slice()));
    got.push(("vit 64x64".into(), digest));
    check(
        &got,
        &[
            0x88a9_fb1e_efc0_b133,
            0xc0c3_9999_7586_0e85,
            0xe6b0_d816_43bd_32a5,
        ],
    );
}

#[test]
fn grounding_with_swin_backbone_bits_are_pinned() {
    let _l = lock();
    let dino = GroundingDino::new(DinoConfig {
        backbone_depth: 2,
        ..DinoConfig::default()
    });
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
    check(&[("grounding".into(), digest)], &[0xd1cc_3a6a_5238_3b39]);
}
