//! The assembled GroundingDINO surrogate.

use serde::{Deserialize, Serialize};
use zenesis_image::Image;
use zenesis_nn::attention_weights;
use zenesis_tensor::Matrix;

use crate::boxes::{decode_boxes, nms, Detection};
use crate::features::{FeatureGrid, N_CHANNELS};
use crate::lexicon::Lexicon;
use crate::tokenizer::tokenize;

/// Grounding hyperparameters (the knobs the paper's UI exposes). Unknown
/// keys are rejected, so a misspelled threshold fails the job instead of
/// running at its default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DinoConfig {
    /// Patch side in pixels.
    pub patch: usize,
    /// Minimum patch relevance to seed a box region.
    pub box_threshold: f32,
    /// Minimum mean region relevance to keep a box.
    pub text_threshold: f32,
    /// NMS IoU threshold.
    pub nms_iou: f64,
    /// Shared embedding dimensionality.
    pub(crate) embed_dim: usize,
    /// Attention temperature (CLIP-style logit scale): sharpens the
    /// softmax over patches so relevance contrasts survive thresholding.
    pub(crate) logit_scale: f32,
    /// Gaussian sigma applied before visual feature extraction.
    pub feature_sigma: f32,
    /// Weight seed.
    pub(crate) seed: u64,
}

impl Default for DinoConfig {
    fn default() -> Self {
        DinoConfig {
            patch: 8,
            box_threshold: 0.65,
            text_threshold: 0.72,
            nms_iou: 0.6,
            embed_dim: 32,
            logit_scale: 6.0,
            feature_sigma: 1.0,
            seed: 0x5EED,
        }
    }
}

/// The result of grounding a prompt in an image.
#[derive(Debug, Clone)]
pub struct Grounding {
    /// Kept detections, best first.
    pub detections: Vec<Detection>,
    /// Per-patch relevance in `[0, 1]` (gw x gh), for visualization and
    /// for SAM seed selection downstream.
    pub relevance: Image<f32>,
    /// Patch side used.
    pub patch: usize,
    /// Tokens the prompt reduced to.
    pub tokens: Vec<String>,
    /// True when the prompt asks for dark structures (pores, voids,
    /// background) rather than bright ones — carried to the mask decoder
    /// so in-box statistical splits pick the right side.
    pub dark_polarity: bool,
}

impl Grounding {
    /// Upsample the patch relevance to image resolution (nearest) for
    /// overlay display.
    pub fn relevance_full(&self, w: usize, h: usize) -> Image<f32> {
        self.relevance.resize_nearest(w, h)
    }
}

/// The prompt-independent half of grounding one image, from
/// `GroundingDino::prepare`. Holds only what the prompt side reads, so
/// it can outlive the image.
#[derive(Debug, Clone)]
pub struct ImageSide {
    /// Patch keys in the shared embedding space, `(gw*gh) x embed_dim`.
    k: Matrix,
    gw: usize,
    gh: usize,
    /// Image `(width, height)` in pixels.
    dims: (usize, usize),
    /// Input-health factor in `[0, 1]`.
    health: f32,
}

impl ImageSide {
    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        self.k.rows() * self.k.cols() * std::mem::size_of::<f32>()
    }
}

/// Text-conditioned box generator over adapted scientific images.
pub struct GroundingDino {
    pub config: DinoConfig,
    lexicon: Lexicon,
    /// Shared text/image projection into the embedding space.
    projection: Matrix,
}

impl GroundingDino {
    pub fn new(config: DinoConfig) -> Self {
        let projection = Matrix::seeded_uniform(
            N_CHANNELS,
            config.embed_dim,
            (1.0 / N_CHANNELS as f32).sqrt(),
            config.seed ^ 0x17,
        );
        GroundingDino {
            config,
            lexicon: Lexicon::scientific(),
            projection,
        }
    }

    /// Teach the grounding model a user concept (the optional fine-tuning
    /// module, paper future work): after this, `name` behaves like any
    /// built-in vocabulary term in prompts.
    pub fn teach(&mut self, concept: &crate::finetune::LearnedConcept) {
        self.lexicon.add_concept(&concept.name, concept.vector);
    }

    /// The prompt-independent image side of grounding (the span
    /// `ground.encode`): patch features, projected into the shared space,
    /// plus the input-health factor.
    /// Compute it once per image and ground any number of prompts against
    /// it with [`GroundingDino::ground_prepared`].
    pub(crate) fn prepare(&self, img: &Image<f32>) -> ImageSide {
        let _s = zenesis_obs::span("ground.encode");
        let grid = FeatureGrid::compute_at_scale(img, self.config.patch, self.config.feature_sigma);
        self.image_side(img, grid)
    }

    /// The Gaussian sigma grounding's feature pyramid blurs `img` with.
    pub fn feature_blur_sigma(&self) -> f32 {
        crate::features::blur_sigma(self.config.feature_sigma)
    }

    /// `GroundingDino::prepare` with the feature-scale blur computed by
    /// the caller: `blur` is `gaussian_blur(img, feature_blur_sigma())`
    /// and `edge` its gradient magnitude. Bit-identical to `prepare(img)`.
    pub fn prepare_blurred(
        &self,
        img: &Image<f32>,
        blur: &Image<f32>,
        edge: &Image<f32>,
    ) -> ImageSide {
        let _s = zenesis_obs::span("ground.encode");
        self.image_side(img, FeatureGrid::from_blur(blur, edge, self.config.patch))
    }

    /// Project a feature grid of `img` into patch keys and attach the
    /// input-health factor.
    fn image_side(&self, img: &Image<f32>, grid: FeatureGrid) -> ImageSide {
        let (gw, gh) = (grid.gw, grid.gh);
        // Patch features -> shared projection: the patch keys.
        let k = grid.feats.matmul(&self.projection);
        // Input-health factor: a pretrained encoder's confidence collapses
        // on inputs far outside its operating exposure (raw 16-bit counts
        // squeezed into a sliver of the range). The surrogate's arithmetic
        // is scale-free, so this distribution-shift penalty is modelled
        // explicitly: confidence scales with the input's robust dynamic
        // range until it reaches a healthy spread. This is what makes the
        // adaptation layer *necessary*, as in the paper (DESIGN.md §4b).
        let health = {
            let hist = zenesis_image::histogram::Histogram::of_image(img, 512);
            // Extreme percentiles measure *exposure* (does the data use
            // the model's operating range at all?) without penalizing
            // legitimately sparse scenes like diffraction frames.
            let spread = (hist.percentile(0.999) - hist.percentile(0.001)).max(0.0);
            (spread / 0.35).min(1.0)
        };
        ImageSide {
            k,
            gw,
            gh,
            dims: img.dims(),
            health,
        }
    }

    /// Ground `prompt` in the adapted image. An empty prompt (or one that
    /// reduces to no tokens) returns an empty grounding — text is the
    /// control signal; without it there is nothing to ground.
    pub fn ground(&self, img: &Image<f32>, prompt: &str) -> Grounding {
        let _root = zenesis_obs::span("ground.dino");
        self.ground_text(&self.prepare(img), prompt)
    }

    /// [`GroundingDino::ground`] against an image side computed earlier
    /// by `GroundingDino::prepare`: the same arithmetic in the same
    /// order, so the result is bit-identical.
    pub fn ground_prepared(&self, side: &ImageSide, prompt: &str) -> Grounding {
        let _root = zenesis_obs::span("ground.dino");
        self.ground_text(side, prompt)
    }

    /// The prompt side of grounding: tokens, cross-modal attention,
    /// relevance, box decoding.
    fn ground_text(&self, side: &ImageSide, prompt: &str) -> Grounding {
        let tokens = {
            let _s = zenesis_obs::span("ground.tokenize");
            tokenize(prompt)
        };
        let (gw, gh) = (side.gw, side.gh);
        let dark_polarity = self.prompt_is_dark(&tokens);
        if tokens.is_empty() {
            return Grounding {
                detections: Vec::new(),
                relevance: Image::zeros(gw, gh),
                patch: self.config.patch,
                tokens,
                dark_polarity,
            };
        }
        // Text side: tokens -> attribute vectors -> shared projection.
        let attn_span = zenesis_obs::span("ground.attention");
        let tvecs = self.lexicon.encode_tokens(&tokens);
        let tmat = Matrix::from_fn(tvecs.len(), N_CHANNELS, |r, c| tvecs[r][c]);
        let mut q = tmat.matmul(&self.projection);
        q.scale(self.config.logit_scale);
        // Eq. (1): softmax(Q K^T / sqrt(d)) over patches, per token.
        let weights = attention_weights(&q, &side.k);
        // Standardize each token's attention distribution and squash with
        // a sigmoid, so relevance is invariant to how much of the image
        // matches (a background prompt matching 80% of patches scores as
        // confidently as a needle prompt matching 5%). Tokens combine by
        // mean: every concept in the prompt must agree, which is what
        // keeps noise-textured distractor patches (which may excite one
        // generic token) below threshold. A (near-)uniform distribution
        // maps to 0.5 everywhere.
        let n = gw * gh;
        let mut rel = vec![0.0f32; n];
        let n_tok = weights.rows() as f32;
        for t in 0..weights.rows() {
            let row = weights.row(t);
            let mean = 1.0 / n as f32;
            let var = row.iter().map(|w| (w - mean) * (w - mean)).sum::<f32>() / n as f32;
            let std = var.sqrt();
            for (p, r) in rel.iter_mut().enumerate() {
                let z = if std > 1e-9 {
                    (row[p] - mean) / std
                } else {
                    0.0
                };
                *r += side.health / (1.0 + (-z).exp()) / n_tok;
            }
        }
        drop(attn_span);
        let nms_span = zenesis_obs::span("ground.nms");
        let dets = decode_boxes(
            &rel,
            gw,
            gh,
            self.config.patch,
            side.dims.0,
            side.dims.1,
            self.config.box_threshold,
            self.config.text_threshold,
            prompt,
        );
        let mut detections = nms(dets, self.config.nms_iou);
        // Text-conditioned shape prior: a pretrained grounding model
        // learns that "particles" are compact while "needles" are
        // elongated. Here the lexicon supplies the same prior: prompts
        // without elongation semantics reject extreme-aspect boxes
        // (frame-edge glow bands, scan artifacts).
        if !self.prompt_is_elongated(&tokens) {
            let max_aspect = 3.5;
            let compact: Vec<Detection> = detections
                .iter()
                .filter(|d| {
                    let (bw, bh) = (d.bbox.width().max(1) as f64, d.bbox.height().max(1) as f64);
                    (bw / bh).max(bh / bw) <= max_aspect
                })
                .cloned()
                .collect();
            if !compact.is_empty() {
                detections = compact;
            }
        }
        drop(nms_span);
        Grounding {
            detections,
            relevance: Image::from_vec(gw, gh, rel).expect("grid shape"),
            patch: self.config.patch,
            tokens,
            dark_polarity,
        }
    }

    /// Does the prompt carry elongation semantics (needles, fibers, ...)?
    pub(crate) fn prompt_is_elongated(&self, tokens: &[String]) -> bool {
        use crate::lexicon::CH_ELONGATION;
        let net: f32 = tokens
            .iter()
            .map(|t| self.lexicon.encode(t)[CH_ELONGATION])
            .sum();
        net > 0.2
    }

    /// Net intensity polarity of a token list: dark when the summed
    /// lexicon darkness weight clearly exceeds the brightness weight.
    pub fn prompt_is_dark(&self, tokens: &[String]) -> bool {
        use crate::lexicon::{CH_BRIGHT, CH_DARK};
        let mut bright = 0.0f32;
        let mut dark = 0.0f32;
        for t in tokens {
            let v = self.lexicon.encode(t);
            bright += v[CH_BRIGHT];
            dark += v[CH_DARK];
        }
        dark > bright + 0.2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::BoxRegion;

    /// Bright square on dark background.
    fn bright_square_img() -> Image<f32> {
        Image::from_fn(128, 128, |x, y| {
            if (40..88).contains(&x) && (48..96).contains(&y) {
                0.85
            } else {
                0.08
            }
        })
    }

    #[test]
    fn grounds_bright_region() {
        let dino = GroundingDino::new(DinoConfig::default());
        let img = bright_square_img();
        let g = dino.ground(&img, "bright");
        assert!(!g.detections.is_empty(), "should detect the bright square");
        let best = &g.detections[0];
        let truth = BoxRegion::new(40, 48, 88, 96);
        let iou = best.bbox.iou(&truth);
        assert!(iou > 0.5, "box iou {iou}, got {:?}", best.bbox);
    }

    #[test]
    fn dark_prompt_grounds_background_not_square() {
        // A background prompt matches ~80% of patches; standardized
        // relevance compresses as the matching region grows, so wide-
        // region prompts are used with lower thresholds (a user knob in
        // the platform).
        let dino = GroundingDino::new(DinoConfig {
            box_threshold: 0.55,
            text_threshold: 0.55,
            ..DinoConfig::default()
        });
        let img = bright_square_img();
        let g = dino.ground(&img, "dark background");
        assert!(!g.detections.is_empty());
        // The background box must be much larger than the square.
        assert!(g.detections[0].bbox.area() > 48 * 48 * 2);
    }

    #[test]
    fn empty_prompt_grounds_nothing() {
        let dino = GroundingDino::new(DinoConfig::default());
        let img = bright_square_img();
        for p in ["", "segment the", "?!"] {
            let g = dino.ground(&img, p);
            assert!(g.detections.is_empty(), "prompt {p:?}");
        }
    }

    #[test]
    fn relevance_map_shape_and_range() {
        let dino = GroundingDino::new(DinoConfig::default());
        let img = bright_square_img();
        let g = dino.ground(&img, "bright");
        assert_eq!(g.relevance.dims(), (16, 16));
        for &v in g.relevance.as_slice() {
            assert!((0.0..=1.0).contains(&v));
        }
        let full = g.relevance_full(128, 128);
        assert_eq!(full.dims(), (128, 128));
        // Relevance is higher inside the square than outside.
        assert!(full.get(64, 72) > full.get(8, 8));
    }

    #[test]
    fn deterministic() {
        let dino = GroundingDino::new(DinoConfig::default());
        let img = bright_square_img();
        let a = dino.ground(&img, "bright particles");
        let b = dino.ground(&img, "bright particles");
        assert_eq!(a.detections, b.detections);
    }

    #[test]
    fn one_prepared_side_answers_every_prompt_like_ground() {
        let dino = GroundingDino::new(DinoConfig::default());
        let img = bright_square_img();
        let side = dino.prepare(&img);
        for p in ["bright", "dark background", "bright particles", ""] {
            let (a, b) = (dino.ground(&img, p), dino.ground_prepared(&side, p));
            assert_eq!(a.detections, b.detections, "{p:?}");
            let bits = |g: &Grounding| -> Vec<u32> {
                g.relevance.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b), "{p:?}");
        }
    }

    #[test]
    fn unknown_vocabulary_degrades_gracefully() {
        let dino = GroundingDino::new(DinoConfig::default());
        let img = bright_square_img();
        let g = dino.ground(&img, "zeolite dendrites");
        // No crash; weak hashed embeddings produce near-uniform relevance,
        // so either nothing or low-confidence boxes — but never a panic.
        for d in &g.detections {
            assert!(d.score <= 1.0);
        }
    }

    #[test]
    fn thresholds_control_detection_count() {
        let img = bright_square_img();
        let loose = GroundingDino::new(DinoConfig {
            box_threshold: 0.5,
            text_threshold: 0.5,
            ..DinoConfig::default()
        });
        let strict = GroundingDino::new(DinoConfig {
            box_threshold: 0.98,
            text_threshold: 0.98,
            ..DinoConfig::default()
        });
        let nl = loose.ground(&img, "bright").detections.len();
        let ns = strict.ground(&img, "bright").detections.len();
        assert!(ns <= nl);
    }
}
