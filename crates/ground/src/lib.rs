//! # zenesis-ground
//!
//! The GroundingDINO surrogate: open-vocabulary, text-conditioned bounding
//! box generation over scientific images, with the exact mechanism the
//! paper describes —
//!
//! > "Zenesis employs a transformer-based GroundingDINO encoder to project
//! > text prompts and image inputs into a shared embedding space.
//! > Cross-modal attention then computes relevance scores between text
//! > tokens (queries) and image patch embeddings (keys and values). ...
//! > High-confidence regions are output as bounding boxes, controlled by
//! > box and text thresholds."
//!
//! The pipeline:
//!
//! 1. [`tokenizer`] — prompt → tokens (with bigram merging so "needle
//!    like" or "catalyst particles" act as units).
//! 2. [`lexicon`] — tokens → visual-attribute vectors in the shared
//!    8-channel semantic space (brightness, darkness, texture, edge
//!    energy, elongation, smoothness, contrast, bias). This replaces the
//!    pretrained text encoder (DESIGN.md §2); unknown tokens get a hashed
//!    zero-mean embedding, keeping the system genuinely open-vocabulary.
//! 3. [`features`] — image → per-patch attribute vectors via the classical
//!    feature pyramid (local statistics, Sobel energy, structure-tensor
//!    coherence). These hand-built channels stand in for the pretrained
//!    Swin-T backbone; there is no transformer backbone (DESIGN.md §2).
//! 4. Both sides project through one shared seeded linear map into the
//!    embedding space where [`zenesis_nn::attention_weights`] — Eq. (1) —
//!    produces per-token relevance over patches.
//! 5. [`boxes`] — relevance map → thresholded patch mask → morphological
//!    closing → connected components → pixel boxes → text-score filter →
//!    greedy NMS.

#![forbid(unsafe_code)]

pub mod boxes;
pub mod dino;
pub mod finetune;
pub mod features;
pub mod lexicon;
pub mod tokenizer;

pub use boxes::{nms, Detection};
pub use dino::{DinoConfig, GroundingDino, Grounding, ImageSide};
pub use finetune::{learn_concept, Exemplar, FinetuneConfig, LearnedConcept};
pub use features::{FeatureGrid, CHANNEL_NAMES, N_CHANNELS};
pub use lexicon::Lexicon;
pub use tokenizer::tokenize;
