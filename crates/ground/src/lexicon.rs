//! The scientific concept lexicon: the zero-shot "text encoder".
//!
//! Each known term maps to a weight vector over the 8 shared semantic
//! channels (see [`crate::features`] for the image side). Weights are
//! signed: positive attracts attention to patches expressing the
//! attribute, negative repels. Unknown terms hash to a small zero-mean
//! vector — they neither help nor destroy a prompt, which is what "open
//! vocabulary" degrades to without pretrained embeddings.

use crate::features::N_CHANNELS;

/// Channel indices (keep in sync with `features::CHANNEL_NAMES`).
pub(crate) const CH_BRIGHT: usize = 0;
pub(crate) const CH_DARK: usize = 1;
pub(crate) const CH_TEXTURE: usize = 2;
pub(crate) const CH_EDGE: usize = 3;
pub(crate) const CH_ELONGATION: usize = 4;
pub(crate) const CH_SMOOTH: usize = 5;
pub(crate) const CH_CONTRAST: usize = 6;
pub(crate) const CH_BIAS: usize = 7;

/// The term → attribute-vector dictionary.
pub struct Lexicon {
    entries: Vec<(&'static str, [f32; N_CHANNELS])>,
    /// User-taught concepts (see [`crate::finetune`]); looked up before
    /// the built-in vocabulary so a user can also *override* a term.
    custom: Vec<(String, [f32; N_CHANNELS])>,
}

impl Default for Lexicon {
    fn default() -> Self {
        Self::scientific()
    }
}

impl Lexicon {
    /// The built-in scientific-imaging lexicon.
    pub fn scientific() -> Self {
        let mut e: Vec<(&'static str, [f32; N_CHANNELS])> = Vec::new();
        let mut add = |terms: &[&'static str], v: [f32; N_CHANNELS]| {
            for t in terms {
                e.push((t, v));
            }
        };
        // bright / dark primitives
        add(
            &["bright", "white", "light"],
            ch(&[(CH_BRIGHT, 1.2), (CH_DARK, -0.8)]),
        );
        add(
            &["dark", "black", "void", "pore", "pores", "hole", "holes"],
            ch(&[(CH_DARK, 1.2), (CH_BRIGHT, -0.8), (CH_SMOOTH, 0.2)]),
        );
        add(
            &["background"],
            ch(&[(CH_DARK, 1.0), (CH_SMOOTH, 0.8), (CH_EDGE, -0.6)]),
        );
        // structure primitives
        add(
            &[
                "needle",
                "needles",
                "rod",
                "rods",
                "fiber",
                "fibers",
                "wire",
                "wires",
                "dendrite",
                "dendrites",
            ],
            ch(&[
                (CH_ELONGATION, 1.3),
                (CH_EDGE, 1.0),
                (CH_CONTRAST, 0.5),
                (CH_SMOOTH, -0.5),
            ]),
        );
        add(
            &["crystalline", "crystal", "crystals", "lattice"],
            ch(&[(CH_ELONGATION, 1.0), (CH_EDGE, 0.8), (CH_CONTRAST, 0.4)]),
        );
        add(
            &[
                "particle",
                "particles",
                "grain",
                "grains",
                "blob",
                "blobs",
                "agglomerate",
                "agglomerates",
                "catalyst_particles",
            ],
            ch(&[
                (CH_BRIGHT, 1.0),
                (CH_SMOOTH, 0.8),
                (CH_TEXTURE, -0.7),
                (CH_CONTRAST, 0.4),
                (CH_DARK, -0.8),
            ]),
        );
        add(
            &["amorphous"],
            ch(&[(CH_BRIGHT, 0.6), (CH_SMOOTH, 0.7), (CH_ELONGATION, -0.6)]),
        );
        // domain objects
        add(
            &["catalyst", "iridium", "irox", "iro2", "catalyst_layer"],
            ch(&[
                (CH_CONTRAST, 0.8),
                (CH_EDGE, 0.5),
                (CH_BRIGHT, 0.5),
                (CH_DARK, -0.5),
            ]),
        );
        add(
            &["ionomer", "nafion", "membrane", "film"],
            ch(&[(CH_TEXTURE, 0.8), (CH_BRIGHT, 0.2), (CH_EDGE, -0.3)]),
        );
        add(
            &["textured", "rough", "grainy", "noisy"],
            ch(&[(CH_TEXTURE, 1.2), (CH_SMOOTH, -1.0)]),
        );
        add(
            &["smooth", "uniform", "flat", "homogeneous"],
            ch(&[(CH_SMOOTH, 1.2), (CH_TEXTURE, -1.0), (CH_EDGE, -0.5)]),
        );
        add(
            &["edge", "edges", "boundary", "boundaries", "interface"],
            ch(&[(CH_EDGE, 1.3)]),
        );
        // Point-like features: a sub-patch bright spot raises patch mean,
        // local contrast, and edge energy all at once.
        add(
            &[
                "spot",
                "spots",
                "dot",
                "dots",
                "point",
                "points",
                "puncta",
                "precipitate",
                "precipitates",
                "adsorbate",
                "adsorbates",
            ],
            ch(&[
                (CH_BRIGHT, 0.8),
                (CH_CONTRAST, 0.9),
                (CH_EDGE, 0.7),
                (CH_DARK, -0.6),
            ]),
        );
        Lexicon {
            entries: e,
            custom: Vec::new(),
        }
    }

    /// Teach (or override) a concept with an explicit attribute vector.
    pub fn add_concept(&mut self, name: &str, vector: [f32; N_CHANNELS]) {
        if let Some(slot) = self.custom.iter_mut().find(|(n, _)| n == name) {
            slot.1 = vector;
        } else {
            self.custom.push((name.to_string(), vector));
        }
    }

    /// Encode one token. Known terms return their attribute vector;
    /// unknown terms hash to a deterministic small zero-mean vector.
    pub fn encode(&self, term: &str) -> [f32; N_CHANNELS] {
        if let Some((_, v)) = self.custom.iter().find(|(t, _)| t == term) {
            return *v;
        }
        if let Some((_, v)) = self.entries.iter().find(|(t, _)| *t == term) {
            return *v;
        }
        // Open-vocabulary fallback: weak hashed embedding.
        let mut h = 0xcbf29ce484222325u64;
        for b in term.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut v = [0.0f32; N_CHANNELS];
        let mut sum = 0.0f32;
        for (i, item) in v.iter_mut().enumerate() {
            let mut z = h.wrapping_add((i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z ^= z >> 31;
            *item = ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.2;
            sum += *item;
        }
        // Zero-mean so unknown tokens carry no global attribute bias.
        let mean = sum / N_CHANNELS as f32;
        for item in v.iter_mut() {
            *item -= mean;
        }
        v[CH_BIAS] = 0.0;
        v
    }

    /// Encode a token list into a `tokens x channels` row-major matrix.
    pub(crate) fn encode_tokens(&self, tokens: &[String]) -> Vec<[f32; N_CHANNELS]> {
        tokens.iter().map(|t| self.encode(t)).collect()
    }
}

fn ch(pairs: &[(usize, f32)]) -> [f32; N_CHANNELS] {
    let mut v = [0.0f32; N_CHANNELS];
    for &(i, w) in pairs {
        v[i] = w;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_terms_have_expected_signs() {
        let lx = Lexicon::scientific();
        let bright = lx.encode("bright");
        assert!(bright[CH_BRIGHT] > 0.0 && bright[CH_DARK] < 0.0);
        let needle = lx.encode("needle");
        assert!(needle[CH_ELONGATION] > 0.0 && needle[CH_EDGE] > 0.0);
        let particle = lx.encode("particles");
        assert!(particle[CH_BRIGHT] > 0.0 && particle[CH_SMOOTH] > 0.0);
        let bg = lx.encode("background");
        assert!(bg[CH_DARK] > 0.0 && bg[CH_EDGE] < 0.0);
    }

    #[test]
    fn synonyms_share_vectors() {
        let lx = Lexicon::scientific();
        assert_eq!(lx.encode("needle"), lx.encode("rod"));
        assert_eq!(lx.encode("particle"), lx.encode("blob"));
    }

    #[test]
    fn unknown_terms_deterministic_weak_zero_mean() {
        let lx = Lexicon::scientific();
        let a = lx.encode("zeolite");
        let b = lx.encode("zeolite");
        assert_eq!(a, b);
        let sum: f32 = a.iter().sum();
        assert!(sum.abs() < 0.15, "nearly zero-mean, sum {sum}");
        assert!(a.iter().all(|v| v.abs() < 0.3), "weak magnitude");
        // Distinct unknowns get distinct embeddings.
        assert_ne!(a, lx.encode("perovskite"));
    }

    #[test]
    fn needle_and_particle_are_contrasting() {
        // The two sample types must pull attention to different channels.
        let lx = Lexicon::scientific();
        let n = lx.encode("needle");
        let p = lx.encode("particles");
        let dot: f32 = n.iter().zip(p.iter()).map(|(a, b)| a * b).sum();
        let nn: f32 = n.iter().map(|v| v * v).sum::<f32>().sqrt();
        let pp: f32 = p.iter().map(|v| v * v).sum::<f32>().sqrt();
        let cos = dot / (nn * pp);
        assert!(cos < 0.5, "needle/particle cosine {cos} too similar");
    }

    #[test]
    fn encode_tokens_shape() {
        let lx = Lexicon::scientific();
        let toks = vec!["bright".to_string(), "needle".to_string()];
        let m = lx.encode_tokens(&toks);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], lx.encode("bright"));
    }
}
