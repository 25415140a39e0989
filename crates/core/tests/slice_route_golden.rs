//! Golden bits of every product path that reuses a SAM embedding: the
//! three evaluation methods, Further Segment, Rectify and a Mode A
//! session. Each output is pinned as an FNV-1a digest
//! of its mask words (and boxes, where the path returns any), so a change
//! to how those paths obtain their embedding must leave every digest
//! here untouched.
//!
//! Every prompt is bright: the digests pin the embedding route, not the
//! polarity handling.
//!
//! Tests serialize on one mutex: the volume test's executor and the
//! thread team are process-global.

use std::sync::Mutex;

use zenesis_adapt::AdaptPipeline;
use zenesis_core::rectify::CandidateCriteria;
use zenesis_core::session::Session;
use zenesis_core::{Method, Zenesis, ZenesisConfig};
use zenesis_data::{generate_slice, generate_volume, PhantomConfig, SampleKind};
use zenesis_image::{BitMask, BoxRegion, Image, Point};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mask(&mut self, m: &BitMask) {
        self.word(m.width() as u64);
        self.word(m.height() as u64);
        for &w in m.words() {
            self.word(w);
        }
    }

    fn bbox(&mut self, b: BoxRegion) {
        for v in [b.x0, b.y0, b.x1, b.y1] {
            self.word(v as u64);
        }
    }
}

fn digest(f: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv::new();
    f(&mut h);
    h.0
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

fn pipeline() -> Zenesis {
    Zenesis::new(ZenesisConfig::default())
}

fn adapted_phantom(z: &Zenesis, kind: SampleKind, seed: u64, side: usize) -> Image<f32> {
    let g = generate_slice(&PhantomConfig::new(kind, seed).with_size(side, side));
    z.adapt(&g.raw).0
}

#[test]
fn method_masks_are_pinned() {
    let _l = lock();
    let z = pipeline();
    let mut got = Vec::new();
    for (kind, seed) in [(SampleKind::Amorphous, 41), (SampleKind::Crystalline, 42)] {
        let g = generate_slice(&PhantomConfig::new(kind, seed).with_size(96, 96));
        let adapted = z.adapt(&g.raw).0;
        let baseline_view = AdaptPipeline::minimal().run(&g.raw.to_f32()).0;
        for m in Method::all() {
            let mask = m.segment_views(&z, &baseline_view, &adapted, kind.default_prompt());
            assert!(mask.count() > 0, "{kind:?} {}", m.name());
            got.push((format!("{kind:?} {}", m.name()), digest(|h| h.mask(&mask))));
        }
    }
    check(
        &got,
        &[
            0x7324b29743c38f5f,
            0x8c8ebf485707ebf7,
            0x057e9e462352661a,
            0x911f05e3605056f4,
            0x1401b3a19d71ff05,
            0x850ac160434443d4,
        ],
    );
}

#[test]
fn further_segment_child_is_pinned() {
    let _l = lock();
    let z = pipeline();
    let adapted = adapted_phantom(&z, SampleKind::Amorphous, 43, 128);
    let child = z
        .further_segment(
            &adapted,
            BoxRegion::new(20, 24, 100, 112),
            "bright catalyst particles",
        )
        .expect("region inside the image");
    assert!(child.mask.count() > 0, "the child run found something");
    let got = digest(|h| {
        h.bbox(child.region);
        for d in &child.detections {
            h.bbox(d.bbox);
        }
        h.mask(&child.mask);
        h.mask(&child.crop_result.combined);
    });
    check(&[("further_segment".into(), got)], &[0x532fe37532e28347]);
}

#[test]
fn rectify_picks_are_pinned() {
    let _l = lock();
    let z = pipeline();
    let emb = z
        .sam()
        .encode(&adapted_phantom(&z, SampleKind::Amorphous, 44, 96));
    let mut got = Vec::new();
    for (i, (x, y)) in [(48, 48), (20, 70), (75, 30), (5, 5)]
        .into_iter()
        .enumerate()
    {
        let picked = z
            .rectify(
                &emb,
                Point::new(x, y),
                16,
                CandidateCriteria::Mixed,
                i as u64,
            )
            .expect("some candidate decodes to a mask");
        got.push((
            format!("click ({x}, {y})"),
            digest(|h| {
                h.bbox(picked.bbox);
                h.mask(&picked.mask);
            }),
        ));
    }
    check(
        &got,
        &[
            0x25b7f155e9aa53de,
            0x24f74977b36a3700,
            0x98ae8d522b4a3ec1,
            0xb9dad6c8c0527603,
        ],
    );
}

#[test]
fn session_history_is_pinned() {
    let _l = lock();
    let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 45).with_size(96, 96));
    let mut s = Session::open(ZenesisConfig::default(), &g.raw);
    let mut got = Vec::new();
    s.prompt("bright catalyst particles");
    got.push(("prompt".to_string(), digest(|h| h.mask(&s.current_mask()))));
    let prompted = s.current_mask();
    assert!(s.rectify(Point::new(8, 88), 16, 9), "a candidate applies");
    assert_ne!(s.current_mask(), prompted, "the pick adds pixels");
    got.push(("rectify".to_string(), digest(|h| h.mask(&s.current_mask()))));
    assert!(
        s.further_segment("catalyst particles"),
        "the child run applies"
    );
    got.push((
        "further_segment".to_string(),
        digest(|h| h.mask(&s.current_mask())),
    ));
    assert_eq!(s.depth(), 3);
    check(
        &got,
        &[0x5e9e9c1cb2108061, 0x35d6f58b2e54f52b, 0xa4ef1d098fa549ae],
    );
}

/// No product path fills `Sam`'s embedding LRU: batch volumes, the three
/// evaluation methods and Further Segment all encode once and pass the
/// embedding on.
#[test]
fn no_product_path_fills_the_embedding_lru() {
    let _l = lock();
    let z = pipeline();
    let prompt = SampleKind::Crystalline.default_prompt();
    let v = generate_volume(SampleKind::Crystalline, 64, 4, 47, &[]);
    z.segment_volume(&v.volume, prompt);
    let g = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 48).with_size(64, 64));
    let adapted = z.adapt(&g.raw).0;
    let baseline_view = AdaptPipeline::minimal().run(&g.raw.to_f32()).0;
    for m in Method::all() {
        m.segment_views(&z, &baseline_view, &adapted, prompt);
    }
    z.further_segment(&adapted, BoxRegion::new(8, 8, 56, 56), prompt)
        .expect("region inside the image");
    assert_eq!(z.sam().embed_cache_len(), 0);
}
