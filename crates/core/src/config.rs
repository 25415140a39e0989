//! Platform configuration: every knob the paper's UI exposes, in one
//! serializable struct.

use serde::{Deserialize, Serialize};
use zenesis_adapt::AdaptPipeline;
use zenesis_ground::DinoConfig;
use zenesis_sam::{SamConfig, SamVariant};

use crate::temporal::TemporalConfig;

/// Full Zenesis configuration. Unknown keys are rejected, so a
/// misspelled or retired setting fails the job instead of being dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ZenesisConfig {
    /// Data-readiness adaptation applied to raw inputs.
    pub adapt: AdaptPipeline,
    /// GroundingDINO surrogate parameters.
    pub dino: DinoConfig,
    /// SAM surrogate parameters.
    pub sam: SamConfig,
    /// Temporal refinement for volumes.
    pub temporal: TemporalConfig,
    /// Relevance gate: decoded mask components whose mean grounding
    /// relevance falls below this floor are discarded (None disables).
    /// This is the Grounded-SAM practice of keeping only masks supported
    /// by the grounded region, and is what stops bright-but-irrelevant
    /// structure inside an oversized box from leaking into the result.
    pub relevance_floor: Option<f32>,
}

impl Default for ZenesisConfig {
    fn default() -> Self {
        ZenesisConfig {
            adapt: AdaptPipeline::recommended(),
            dino: DinoConfig::default(),
            sam: SamConfig::for_variant(SamVariant::VitH),
            temporal: TemporalConfig::default(),
            relevance_floor: Some(0.60),
        }
    }
}

impl ZenesisConfig {
    /// A faster, lower-fidelity configuration (FastSAM preset, minimal
    /// adaptation) for interactive previews and ablations.
    pub fn fast_preview() -> Self {
        ZenesisConfig {
            adapt: AdaptPipeline::minimal(),
            sam: SamConfig::for_variant(SamVariant::FastSam),
            ..ZenesisConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_preview_differ() {
        let d = ZenesisConfig::default();
        let p = ZenesisConfig::fast_preview();
        assert_ne!(d, p);
        assert_eq!(p.sam.variant, SamVariant::FastSam);
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = ZenesisConfig::default();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: ZenesisConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        // The contract is human-readable: key sections present.
        assert!(json.contains("\"adapt\""));
        assert!(json.contains("\"box_threshold\""));
        assert!(json.contains("\"temporal\""));
    }
}
