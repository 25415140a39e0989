//! Multi-object segmentation (paper §Conclusion, future work 2):
//! "support for multi-object segmentation within individual images and
//! volumes, enabling more complex scene understanding."
//!
//! Each named object gets its own prompt; the pipeline grounds and
//! decodes every object independently (in parallel), then resolves
//! pixel-level conflicts by grounding relevance: a pixel claimed by two
//! objects goes to the one whose prompt attends to it more strongly.

use zenesis_image::{BitMask, Image, Pixel};

use crate::pipeline::Zenesis;

/// One named object to segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectSpec {
    /// Class label (also the key in the result).
    pub(crate) label: String,
    /// Natural-language prompt for this object.
    pub prompt: String,
}

impl ObjectSpec {
    pub fn new(label: impl Into<String>, prompt: impl Into<String>) -> Self {
        ObjectSpec {
            label: label.into(),
            prompt: prompt.into(),
        }
    }
}

/// Result of a multi-object pass.
#[derive(Debug, Clone)]
pub struct MultiResult {
    /// Per-object masks after conflict resolution (disjoint), aligned
    /// with the input spec order.
    pub masks: Vec<(String, BitMask)>,
    pub width: usize,
    pub height: usize,
    /// Pixels that were claimed by more than one object before
    /// resolution (scene-complexity diagnostic).
    pub contested: usize,
}

impl MultiResult {
    /// Mask for a label, if present.
    pub fn mask_for(&self, label: &str) -> Option<&BitMask> {
        self.masks.iter().find(|(l, _)| l == label).map(|(_, m)| m)
    }
}

impl Zenesis {
    /// Segment several named objects in one adapted image.
    ///
    /// Objects are processed independently and in parallel; overlapping
    /// claims are resolved per pixel by comparing each object's grounding
    /// relevance at that pixel.
    pub(crate) fn segment_multi(
        &self,
        adapted: &Image<f32>,
        objects: &[ObjectSpec],
    ) -> MultiResult {
        assert!(objects.len() <= 255, "at most 255 object classes");
        let (w, h) = adapted.dims();
        // The image is prepared once; per object only the prompt tail
        // runs, and its result carries the relevance field needed for
        // conflict resolution.
        let prepared = self.prepare_adapted(adapted);
        let per_object: Vec<(BitMask, Image<f32>)> = zenesis_par::par_map(objects, |spec| {
            let result = self.segment_prepared(&prepared, &spec.prompt);
            (result.combined, result.relevance)
        });
        // Conflict resolution.
        let mut class_map = vec![0u8; w * h];
        let mut contested = 0usize;
        for y in 0..h {
            for x in 0..w {
                let mut best: Option<(usize, f32)> = None;
                let mut claims = 0;
                for (i, (mask, rel)) in per_object.iter().enumerate() {
                    if mask.get(x, y) {
                        claims += 1;
                        let r = rel.get(x, y);
                        if best.map(|(_, br)| r > br).unwrap_or(true) {
                            best = Some((i, r));
                        }
                    }
                }
                if claims > 1 {
                    contested += 1;
                }
                if let Some((i, _)) = best {
                    class_map[y * w + x] = (i + 1) as u8;
                }
            }
        }
        let masks: Vec<(String, BitMask)> = objects
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let m = BitMask::from_fn(w, h, |x, y| class_map[y * w + x] == (i + 1) as u8);
                (spec.label.clone(), m)
            })
            .collect();
        MultiResult {
            masks,
            width: w,
            height: h,
            contested,
        }
    }

    /// Multi-object segmentation straight from a raw image.
    pub fn segment_multi_raw<T: Pixel>(
        &self,
        raw: &Image<T>,
        objects: &[ObjectSpec],
    ) -> MultiResult {
        let (adapted, _) = self.adapt(raw);
        self.segment_multi(&adapted, objects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZenesisConfig;

    /// A two-phase scene: bright blobs and dark pores on a mid-gray film.
    fn scene() -> Image<f32> {
        Image::from_fn(128, 128, |x, y| {
            let blob = {
                let dx = x as f32 - 40.0;
                let dy = y as f32 - 48.0;
                dx * dx + dy * dy < 22.0 * 22.0
            };
            let blob2 = {
                let dx = x as f32 - 90.0;
                let dy = y as f32 - 80.0;
                dx * dx + dy * dy < 16.0 * 16.0
            };
            let pore = {
                let dx = x as f32 - 72.0;
                let dy = y as f32 - 28.0;
                dx * dx + dy * dy < 12.0 * 12.0
            };
            if blob || blob2 {
                0.85
            } else if pore {
                0.05
            } else {
                0.45
            }
        })
    }

    fn specs() -> Vec<ObjectSpec> {
        vec![
            ObjectSpec::new("particles", "bright particles"),
            ObjectSpec::new("pores", "dark pores"),
        ]
    }

    #[test]
    fn segments_both_classes_disjointly() {
        let z = Zenesis::new(ZenesisConfig::default());
        let r = z.segment_multi(&scene(), &specs());
        let particles = r.mask_for("particles").unwrap();
        let pores = r.mask_for("pores").unwrap();
        assert!(particles.get(40, 48), "blob center must be particles");
        assert!(pores.get(72, 28), "pore center must be pores");
        // Disjoint by construction.
        assert_eq!(particles.intersection_count(pores), 0);
    }

    #[test]
    fn empty_spec_list_is_empty_result() {
        let z = Zenesis::new(ZenesisConfig::default());
        let r = z.segment_multi(&scene(), &[]);
        assert!(r.masks.is_empty());
        assert_eq!(r.contested, 0);
    }

    #[test]
    fn conflicting_prompts_resolved_by_relevance() {
        // Two prompts that both cover the bright blobs: every blob pixel
        // must land in exactly one class.
        let z = Zenesis::new(ZenesisConfig::default());
        let specs = vec![
            ObjectSpec::new("a", "bright particles"),
            ObjectSpec::new("b", "bright grains"),
        ];
        let r = z.segment_multi(&scene(), &specs);
        assert!(r.contested > 0, "identical prompts should contest pixels");
        let a = r.mask_for("a").unwrap();
        let b = r.mask_for("b").unwrap();
        assert_eq!(a.intersection_count(b), 0);
    }

    #[test]
    fn raw_entry_point_adapts_first() {
        let z = Zenesis::new(ZenesisConfig::default());
        let raw: Image<u16> = scene().quantize();
        let r = z.segment_multi_raw(&raw, &specs());
        assert!(r.mask_for("particles").unwrap().count() > 0);
    }
}
