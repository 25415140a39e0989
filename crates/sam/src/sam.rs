//! The assembled promptable segmenter.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use std::sync::Mutex;

use crate::lock;
use zenesis_image::{BitMask, Image};

use crate::auto::{segment_auto, AutoConfig};
use crate::decoder::{decode_box, decode_mask_prior, decode_points};
use crate::embedding::ImageEmbedding;
use crate::prompt::PromptSet;
use crate::score::{quality_score, stability_score};

/// Model-scale presets mirroring the SAM family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamVariant {
    /// Full-quality decoding (the ViT-H analogue the paper deploys).
    VitH,
    /// FastSAM-like: single-tolerance multimask, coarser automatic grid.
    FastSam,
    /// MobileSAM-like: heavier smoothing, coarsest grid — cheapest.
    MobileSam,
}

/// Segmenter configuration. Unknown keys are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SamConfig {
    pub variant: SamVariant,
    /// Embedding denoise sigma.
    pub encode_sigma: f32,
    /// Step tolerance for region growing.
    pub(crate) step_tol: f32,
    /// Global tolerances for multimask output (low / medium / high).
    pub(crate) tolerances: [f32; 3],
    /// Box-prompt margin in pixels.
    pub(crate) box_margin: usize,
    /// Minimum component area kept by the box decoder.
    pub(crate) min_area: usize,
    /// Fill interior holes in box-decoded masks.
    pub(crate) fill_holes: bool,
    /// Automatic-mode grid step.
    pub(crate) grid_step: usize,
}

impl Default for SamConfig {
    fn default() -> Self {
        SamConfig::for_variant(SamVariant::VitH)
    }
}

impl SamConfig {
    /// Preset for a model-scale variant.
    pub fn for_variant(v: SamVariant) -> Self {
        match v {
            SamVariant::VitH => SamConfig {
                variant: v,
                encode_sigma: 1.0,
                step_tol: 0.05,
                tolerances: [0.08, 0.14, 0.22],
                box_margin: 2,
                min_area: 12,
                fill_holes: true,
                grid_step: 16,
            },
            SamVariant::FastSam => SamConfig {
                variant: v,
                encode_sigma: 1.2,
                step_tol: 0.06,
                tolerances: [0.14, 0.14, 0.14],
                box_margin: 2,
                min_area: 24,
                fill_holes: true,
                grid_step: 24,
            },
            SamVariant::MobileSam => SamConfig {
                variant: v,
                encode_sigma: 1.8,
                step_tol: 0.08,
                tolerances: [0.16, 0.16, 0.16],
                box_margin: 3,
                min_area: 32,
                fill_holes: true,
                grid_step: 32,
            },
        }
    }

    fn auto_config(&self) -> AutoConfig {
        AutoConfig {
            grid_step: self.grid_step,
            step_tol: self.step_tol,
            global_tol: self.tolerances[1],
            min_area: self.min_area.max(16),
            dedup_iou: 0.7,
        }
    }
}

/// One decoded mask with its quality estimates.
#[derive(Debug, Clone)]
pub struct MaskPrediction {
    pub mask: BitMask,
    /// Stability under decoder perturbation (SAM's stability score).
    pub stability: f64,
    /// Ranking score (predicted-IoU analogue).
    pub quality: f64,
    /// Which tolerance level produced it (0 = tightest).
    pub level: usize,
}

/// Capacity of the per-`Sam` embedding cache behind [`Sam::encode_cached`].
const EMBED_CACHE_CAP: usize = 8;

struct CacheEntry {
    hash: u64,
    sigma: f32,
    /// Full copy of the source image so a (vanishingly unlikely) hash
    /// collision degrades to a miss, never to a wrong embedding.
    img: Image<f32>,
    emb: Arc<ImageEmbedding>,
}

impl CacheEntry {
    /// Same content: bit patterns, not f32 `==`, so an image holding NaN
    /// finds its own entry instead of inserting a copy per call.
    fn matches(&self, hash: u64, sigma: f32, img: &Image<f32>) -> bool {
        self.hash == hash && self.sigma.to_bits() == sigma.to_bits() && self.img.same_bits(img)
    }
}

/// Multiply-rotate hash over the image dimensions and the pixel bit
/// patterns, two pixels per 64-bit word and two independent lanes, so
/// the dependency chain is a quarter of the pixel count. Only a
/// prefilter: a hit still requires [`Image::same_bits`].
fn hash_image(img: &Image<f32>) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let word = |p: &[f32]| p[0].to_bits() as u64 | (p[1].to_bits() as u64) << 32;
    let px = img.as_slice();
    let quads = px.chunks_exact(4);
    let tail = quads.remainder();
    let (mut a, mut b) = (mix(0, img.width() as u64), mix(0, img.height() as u64));
    for q in quads {
        a = mix(a, word(&q[..2]));
        b = mix(b, word(&q[2..]));
    }
    for v in tail {
        a = mix(a, v.to_bits() as u64);
    }
    mix(a, b)
}

/// The promptable segmenter. Encode once ([`Sam::encode`]), decode many
/// prompts against that embedding: callers that reuse an embedding hold
/// it and pass it on.
pub struct Sam {
    pub config: SamConfig,
    cache: Mutex<Vec<CacheEntry>>,
}

impl Sam {
    pub fn new(config: SamConfig) -> Self {
        Sam {
            config,
            cache: Mutex::new(Vec::new()),
        }
    }

    /// Encode an adapted image (the expensive pass, done once per image).
    pub fn encode(&self, img: &Image<f32>) -> ImageEmbedding {
        let _s = zenesis_obs::span("sam.encode");
        ImageEmbedding::encode(img, self.config.encode_sigma)
    }

    /// The part of [`Sam::encode`] left when the caller already holds the
    /// blur of `img` at `encode_sigma` and its gradient magnitude: the
    /// texture raster, under the same span. An embedding assembled from
    /// those two rasters and this one is `encode(img)`, bit for bit.
    pub fn encode_texture(&self, img: &Image<f32>) -> Image<f32> {
        let _s = zenesis_obs::span("sam.encode");
        crate::embedding::texture(img)
    }

    /// Encode with memoization in a small LRU keyed by image content:
    /// identical image content (and encode sigma) returns the cached
    /// embedding, which is exactly what [`Sam::encode`] computes. No
    /// pipeline path calls this; every product caller encodes once and
    /// passes the embedding on. Hit/miss counts appear as the
    /// `sam.embed_cache.hit` / `sam.embed_cache.miss` metrics when
    /// observability is enabled; the cache itself is active at every
    /// level, and is deterministic, so outputs do not depend on
    /// `ZENESIS_OBS`.
    pub fn encode_cached(&self, img: &Image<f32>) -> Arc<ImageEmbedding> {
        let sigma = self.config.encode_sigma;
        let h = hash_image(img);
        {
            let mut cache = lock(&self.cache);
            if let Some(pos) = cache.iter().position(|e| e.matches(h, sigma, img)) {
                let entry = cache.remove(pos);
                let emb = Arc::clone(&entry.emb);
                cache.push(entry); // most-recently-used goes last
                if zenesis_obs::enabled() {
                    zenesis_obs::counter("sam.embed_cache.hit").inc();
                    // Per-lookup events are high-volume: `full` only.
                    if zenesis_obs::full() {
                        zenesis_obs::events::emit(zenesis_obs::events::Event::CacheHit {
                            cache: "sam.embed".into(),
                        });
                    }
                }
                return emb;
            }
        }
        // Encode outside the lock: concurrent misses on different images
        // proceed in parallel (same-image races redundantly encode, which
        // is benign because encoding is deterministic).
        if zenesis_obs::enabled() {
            zenesis_obs::counter("sam.embed_cache.miss").inc();
            if zenesis_obs::full() {
                zenesis_obs::events::emit(zenesis_obs::events::Event::CacheMiss {
                    cache: "sam.embed".into(),
                });
            }
        }
        let emb = Arc::new(self.encode(img));
        let mut cache = lock(&self.cache);
        // Re-check under the lock: a racing thread may have inserted the
        // same image while we encoded. Inserting a second entry would
        // waste a slot and evict a live embedding, so adopt the winner's
        // entry (keeping one shared `Arc`) and discard ours.
        if let Some(pos) = cache.iter().position(|e| e.matches(h, sigma, img)) {
            let entry = cache.remove(pos);
            let existing = Arc::clone(&entry.emb);
            cache.push(entry); // the race still counts as a use: MRU
            if zenesis_obs::enabled() {
                zenesis_obs::counter("sam.embed_cache.race").inc();
            }
            return existing;
        }
        if cache.len() >= EMBED_CACHE_CAP {
            cache.remove(0);
        }
        cache.push(CacheEntry {
            hash: h,
            sigma,
            img: img.clone(),
            emb: Arc::clone(&emb),
        });
        emb
    }

    /// Number of embeddings currently cached (diagnostics; the capacity
    /// is fixed at 8 entries).
    pub fn embed_cache_len(&self) -> usize {
        lock(&self.cache).len()
    }

    /// Decode a prompt set into multimask predictions, best first.
    ///
    /// Empty prompt sets produce no predictions (SAM requires a prompt;
    /// "everything" mode is [`Sam::segment_auto`]).
    pub fn predict(&self, emb: &ImageEmbedding, prompts: &PromptSet) -> Vec<MaskPrediction> {
        if prompts.is_empty() {
            return Vec::new();
        }
        let _s = zenesis_obs::span("sam.decode");
        let bbox = prompts.box_constraint();
        let fg = prompts.fg_points();
        let bg = prompts.bg_points();
        let prior = prompts.mask_prior();

        let mut preds: Vec<MaskPrediction> = Vec::new();
        if let Some(b) = bbox {
            if fg.is_empty() && prior.is_none() {
                // Pure box prompt: in-box statistics split.
                let mask = decode_box(
                    emb,
                    b,
                    self.config.box_margin,
                    self.config.min_area,
                    self.config.fill_holes,
                    prompts.polarity == crate::prompt::Polarity::Bright,
                );
                let quality = quality_score(emb, &mask, 1.0);
                preds.push(MaskPrediction {
                    mask,
                    stability: 1.0,
                    quality,
                    level: 1,
                });
                return preds;
            }
        }
        if let Some(pr) = &prior {
            let mask = decode_mask_prior(emb, pr, self.config.step_tol, self.config.tolerances[1]);
            let quality = quality_score(emb, &mask, 1.0);
            preds.push(MaskPrediction {
                mask,
                stability: 1.0,
                quality,
                level: 1,
            });
            return preds;
        }
        // Point path: multimask at three tolerances, optionally bounded.
        for (level, &tol) in self.config.tolerances.iter().enumerate() {
            let mask = decode_points(emb, &fg, &bg, self.config.step_tol, tol, bbox);
            let stability = stability_score(emb, &fg, self.config.step_tol, tol);
            let quality = quality_score(emb, &mask, stability);
            preds.push(MaskPrediction {
                mask,
                stability,
                quality,
                level,
            });
        }
        preds.sort_by(|a, b| b.quality.partial_cmp(&a.quality).expect("finite quality"));
        preds
    }

    /// The best single mask for a prompt set (all-false if no prompts).
    pub fn segment(&self, emb: &ImageEmbedding, prompts: &PromptSet) -> BitMask {
        self.predict(emb, prompts)
            .into_iter()
            .next()
            .map(|p| p.mask)
            .unwrap_or_else(|| {
                let (w, h) = emb.dims();
                BitMask::new(w, h)
            })
    }

    /// Automatic everything-mode, max-confidence selection — the
    /// "SAM-only" baseline of the paper.
    pub fn segment_auto(&self, emb: &ImageEmbedding) -> BitMask {
        segment_auto(emb, &self.config.auto_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{PointLabel, Prompt};
    use zenesis_image::{BoxRegion, Point};

    fn disk_image() -> Image<f32> {
        Image::from_fn(64, 64, |x, y| {
            let dx = x as f32 - 32.0;
            let dy = y as f32 - 32.0;
            if dx * dx + dy * dy < 14.0 * 14.0 {
                0.8
            } else {
                0.1
            }
        })
    }

    fn disk_truth() -> BitMask {
        BitMask::from_fn(64, 64, |x, y| {
            let dx = x as f32 - 32.0;
            let dy = y as f32 - 32.0;
            dx * dx + dy * dy < 14.0 * 14.0
        })
    }

    #[test]
    fn point_prompt_multimask() {
        let sam = Sam::new(SamConfig::default());
        let emb = sam.encode(&disk_image());
        let preds = sam.predict(&emb, &PromptSet::point(32, 32));
        assert_eq!(preds.len(), 3);
        let best = &preds[0];
        assert!(best.mask.iou(&disk_truth()) > 0.8);
        assert!(best.quality >= preds[1].quality);
    }

    #[test]
    fn box_prompt_segments_object() {
        let sam = Sam::new(SamConfig::default());
        let emb = sam.encode(&disk_image());
        let ps = PromptSet::from_box(BoxRegion::new(16, 16, 48, 48));
        let m = sam.segment(&emb, &ps);
        assert!(m.iou(&disk_truth()) > 0.8, "iou {}", m.iou(&disk_truth()));
    }

    #[test]
    fn empty_prompts_empty_output() {
        let sam = Sam::new(SamConfig::default());
        let emb = sam.encode(&disk_image());
        assert!(sam.predict(&emb, &PromptSet::new()).is_empty());
        assert_eq!(sam.segment(&emb, &PromptSet::new()).count(), 0);
    }

    #[test]
    fn point_inside_box_constrained() {
        let sam = Sam::new(SamConfig::default());
        let emb = sam.encode(&disk_image());
        // Background point with a box: growth cannot escape the box.
        let ps = PromptSet::point(2, 2).with(Prompt::Box(BoxRegion::new(0, 0, 16, 16)));
        let m = sam.segment(&emb, &ps);
        assert!(m.count() > 0);
        for p in m.iter_true() {
            assert!(p.x < 16 && p.y < 16);
        }
    }

    #[test]
    fn mask_prompt_refines() {
        let sam = Sam::new(SamConfig::default());
        let emb = sam.encode(&disk_image());
        let prior = BitMask::from_box(64, 64, BoxRegion::new(26, 26, 38, 38));
        let ps = PromptSet::new().with(Prompt::Mask(prior));
        let m = sam.segment(&emb, &ps);
        assert!(m.iou(&disk_truth()) > 0.6);
    }

    #[test]
    fn bg_point_vetoes() {
        let sam = Sam::new(SamConfig::default());
        let emb = sam.encode(&disk_image());
        let ps =
            PromptSet::point(32, 32).with(Prompt::Point(Point::new(2, 2), PointLabel::Background));
        let m = sam.segment(&emb, &ps);
        assert!(m.get(32, 32));
        assert!(!m.get(2, 2));
    }

    #[test]
    fn auto_mode_runs_and_picks_background() {
        let sam = Sam::new(SamConfig::default());
        let emb = sam.encode(&disk_image());
        let m = sam.segment_auto(&emb);
        assert!(m.coverage() > 0.5, "background should dominate");
        assert!(!m.get(32, 32));
    }

    #[test]
    fn variants_differ_in_cost_parameters() {
        let full = SamConfig::for_variant(SamVariant::VitH);
        let fast = SamConfig::for_variant(SamVariant::FastSam);
        let mobile = SamConfig::for_variant(SamVariant::MobileSam);
        assert!(full.grid_step < fast.grid_step);
        assert!(fast.grid_step < mobile.grid_step);
        assert!(full.encode_sigma < mobile.encode_sigma);
        // FastSAM collapses multimask to a single tolerance.
        assert_eq!(fast.tolerances[0], fast.tolerances[2]);
        assert_ne!(full.tolerances[0], full.tolerances[2]);
    }

    #[test]
    fn encode_cached_matches_encode_and_reuses() {
        let sam = Sam::new(SamConfig::default());
        let img = disk_image();
        let direct = sam.encode(&img);
        let a = sam.encode_cached(&img);
        let b = sam.encode_cached(&img);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        // Same mask from cached and direct embeddings.
        let ps = PromptSet::point(32, 32);
        assert_eq!(sam.segment(&a, &ps), sam.segment(&direct, &ps));
        // A different image misses and gets its own embedding.
        let other = Image::<f32>::filled(64, 64, 0.3);
        let c = sam.encode_cached(&other);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn encode_cache_evicts_least_recently_used() {
        let sam = Sam::new(SamConfig::default());
        let imgs: Vec<Image<f32>> = (0..EMBED_CACHE_CAP + 1)
            .map(|i| Image::<f32>::filled(16, 16, i as f32 / 16.0))
            .collect();
        let first = sam.encode_cached(&imgs[0]);
        for img in &imgs[1..] {
            let _ = sam.encode_cached(img);
        }
        // imgs[0] was the oldest entry and must have been evicted.
        let again = sam.encode_cached(&imgs[0]);
        assert!(!Arc::ptr_eq(&first, &again));
        // The most recent insert is still cached.
        let last = sam.encode_cached(&imgs[EMBED_CACHE_CAP]);
        let last2 = sam.encode_cached(&imgs[EMBED_CACHE_CAP]);
        assert!(Arc::ptr_eq(&last, &last2));
    }

    #[test]
    fn concurrent_encode_cached_inserts_one_entry() {
        // Regression: racing misses on the same image each pushed their
        // own CacheEntry, burning LRU slots and evicting live embeddings.
        // Use a barrier so every thread misses before any can insert.
        let sam = std::sync::Arc::new(Sam::new(SamConfig::default()));
        let img = disk_image();
        let n = 8;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(n));
        let embs: Vec<Arc<ImageEmbedding>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let sam = std::sync::Arc::clone(&sam);
                    let barrier = std::sync::Arc::clone(&barrier);
                    let img = img.clone();
                    s.spawn(move || {
                        barrier.wait();
                        sam.encode_cached(&img)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            sam.embed_cache_len(),
            1,
            "racing misses must collapse to one cache entry"
        );
        // Every subsequent lookup shares the single surviving Arc.
        let canonical = sam.encode_cached(&img);
        assert!(Arc::ptr_eq(&sam.encode_cached(&img), &canonical));
        assert!(
            embs.iter().any(|e| Arc::ptr_eq(e, &canonical)),
            "the cached embedding must be one of the raced results"
        );
    }

    #[test]
    fn nan_image_hits_its_own_entry() {
        // Regression: f32 `==` made a NaN-pixel image unequal to itself,
        // so every call missed and pushed another copy into the LRU.
        let sam = Sam::new(SamConfig::default());
        let mut img = disk_image();
        img.set(5, 7, f32::NAN);
        let a = sam.encode_cached(&img);
        let b = sam.encode_cached(&img);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(sam.embed_cache_len(), 1);
    }

    #[test]
    fn hash_covers_dims_and_every_pixel() {
        let img = Image::<f32>::from_fn(7, 5, |x, y| (x * 5 + y) as f32);
        assert_ne!(hash_image(&img), hash_image(&img.transpose()));
        // Each pixel position, the odd tail included, feeds the hash.
        for i in 0..img.len() {
            let mut other = img.clone();
            other.set(i % 7, i / 7, -1.0);
            assert_ne!(hash_image(&img), hash_image(&other), "pixel {i}");
        }
    }

    #[test]
    fn serde_config_roundtrip() {
        let cfg = SamConfig::for_variant(SamVariant::FastSam);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SamConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
