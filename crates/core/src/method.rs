//! The unified method interface used by the evaluation mode: the three
//! columns of the paper's comparison (Tables 1-3).
//!
//! The comparison is tool-level, as in the paper: the baselines (Otsu,
//! SAM-only) operate on a *minimally viewable* rendition of the raw data
//! (robust percentile stretch — what ImageJ or a SAM demo notebook would
//! be fed), while Zenesis brings its own adaptation layer. That asymmetry
//! is the paper's point: data readiness is part of the platform.

use serde::{Deserialize, Serialize};
use zenesis_image::{BitMask, Image};

use crate::pipeline::Zenesis;

/// A segmentation method under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    /// Global Otsu thresholding (Table 1).
    Otsu,
    /// SAM automatic mode, max-confidence mask (Table 2).
    SamOnly,
    /// The full text-grounded pipeline (Table 3).
    Zenesis,
}

impl Method {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Otsu => "Otsu",
            Method::SamOnly => "SAM-only",
            Method::Zenesis => "Zenesis",
        }
    }

    /// All three methods in table order.
    pub fn all() -> [Method; 3] {
        [Method::Otsu, Method::SamOnly, Method::Zenesis]
    }

    /// Segment an image. `prompt` is only consumed by Zenesis — the
    /// baselines are promptless by definition. `baseline_view` is the
    /// minimally-stretched rendition baselines see; `adapted` is the
    /// Zenesis-adapted view.
    pub fn segment_views(
        &self,
        z: &Zenesis,
        baseline_view: &Image<f32>,
        adapted: &Image<f32>,
        prompt: &str,
    ) -> BitMask {
        match self {
            Method::Otsu => zenesis_baseline::segment_otsu(baseline_view),
            Method::SamOnly => z.sam().segment_auto(&z.sam().encode(baseline_view)),
            Method::Zenesis => z.segment_prepared(&z.prepare_adapted(adapted), prompt).combined,
        }
    }

    /// Segment with a single shared view (used by quick demos; the
    /// benchmark harness uses [`Method::segment_views`]).
    pub fn segment(&self, z: &Zenesis, adapted: &Image<f32>, prompt: &str) -> BitMask {
        self.segment_views(z, adapted, adapted, prompt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZenesisConfig;

    #[test]
    fn names_match_paper() {
        assert_eq!(Method::Otsu.name(), "Otsu");
        assert_eq!(Method::SamOnly.name(), "SAM-only");
        assert_eq!(Method::Zenesis.name(), "Zenesis");
        assert_eq!(Method::all().len(), 3);
    }

    #[test]
    fn all_methods_produce_masks() {
        let img = Image::<f32>::from_fn(64, 64, |x, y| {
            if (20..44).contains(&x) && (20..44).contains(&y) {
                0.8
            } else {
                0.1
            }
        });
        let z = Zenesis::new(ZenesisConfig::default());
        for m in Method::all() {
            let mask = m.segment(&z, &img, "bright particles");
            assert_eq!(mask.dims(), (64, 64), "{}", m.name());
        }
    }

    #[test]
    fn serde_roundtrip() {
        for m in Method::all() {
            let json = serde_json::to_string(&m).unwrap();
            let back: Method = serde_json::from_str(&json).unwrap();
            assert_eq!(back, m);
        }
    }
}
