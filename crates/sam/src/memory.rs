//! SAM2-style streaming memory for volumes.
//!
//! SAM 2 extends SAM "to video sequences with streaming memory mechanisms
//! for real-time processing and temporal consistency" (paper §Foundation
//! Model). Here the memory bank holds the last few slice masks; the next
//! slice is decoded with the (decayed) memory consensus as a mask prompt,
//! so segmentation tracks structures through the volume instead of
//! re-solving each slice cold.

use std::collections::VecDeque;

use zenesis_image::BitMask;

use crate::decoder::decode_mask_prior;
use crate::embedding::ImageEmbedding;
use crate::sam::{Sam, SamConfig};

/// Rolling memory of recent slice masks.
#[derive(Debug, Clone)]
pub struct MemoryBank {
    capacity: usize,
    masks: VecDeque<BitMask>,
}

impl MemoryBank {
    /// A bank remembering up to `capacity` past slices.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        MemoryBank {
            capacity,
            masks: VecDeque::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.masks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Record a decoded slice mask.
    pub fn push(&mut self, mask: BitMask) {
        if self.masks.len() == self.capacity {
            self.masks.pop_front();
        }
        self.masks.push_back(mask);
    }

    /// Consensus prior: pixels set in at least half of the remembered
    /// masks (more recent masks break ties by majority rule being
    /// computed over the full window). `None` when the bank is empty.
    pub fn consensus(&self) -> Option<BitMask> {
        let first = self.masks.front()?;
        let (w, h) = first.dims();
        let need = self.masks.len().div_ceil(2);
        let mut counts = vec![0u16; w * h];
        for m in &self.masks {
            for p in m.iter_true() {
                counts[p.y * w + p.x] += 1;
            }
        }
        let mut out = BitMask::new(w, h);
        for y in 0..h {
            for x in 0..w {
                if counts[y * w + x] as usize >= need {
                    out.set(x, y, true);
                }
            }
        }
        Some(out)
    }

    /// Decode the next slice, given its embedding `emb`, conditioned on
    /// memory: the consensus mask is used as a mask prompt (propagation);
    /// the result is pushed into the bank and returned. With an empty bank
    /// this falls back to `fallback` (e.g. a cold per-slice segmentation
    /// against the same embedding), which is also recorded.
    pub fn propagate(
        &mut self,
        sam: &Sam,
        emb: &ImageEmbedding,
        fallback: impl FnOnce() -> BitMask,
    ) -> BitMask {
        let mask = match self.consensus() {
            Some(prior) if prior.count() > 0 => {
                let cfg: &SamConfig = &sam.config;
                decode_mask_prior(emb, &prior, cfg.step_tol, cfg.tolerances[1])
            }
            _ => fallback(),
        };
        self.push(mask.clone());
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::{BoxRegion, Image};

    fn mask_at(x0: usize) -> BitMask {
        BitMask::from_box(32, 32, BoxRegion::new(x0, 10, x0 + 10, 20))
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut bank = MemoryBank::new(2);
        bank.push(mask_at(0));
        bank.push(mask_at(5));
        bank.push(mask_at(10));
        assert_eq!(bank.len(), 2);
        // Consensus of masks at 5 and 10: overlap is x in 10..15.
        let c = bank.consensus().unwrap();
        assert!(c.get(12, 15));
        assert!(!c.get(2, 15), "evicted mask must not vote");
    }

    #[test]
    fn consensus_majority() {
        let mut bank = MemoryBank::new(3);
        bank.push(mask_at(0));
        bank.push(mask_at(0));
        bank.push(mask_at(20));
        let c = bank.consensus().unwrap();
        // Two of three masks cover x in 0..10 -> majority.
        assert!(c.get(5, 15));
        // Only one covers x in 20..30 -> minority.
        assert!(!c.get(25, 15));
    }

    #[test]
    fn empty_bank_no_consensus() {
        let bank = MemoryBank::new(3);
        assert!(bank.consensus().is_none());
    }

    #[test]
    fn propagate_tracks_moving_object() {
        let sam = Sam::new(SamConfig::default());
        let mut bank = MemoryBank::new(3);
        // A bright square drifting right by 1 px per slice.
        let slice = |shift: usize| {
            Image::<f32>::from_fn(48, 48, move |x, y| {
                if (16 + shift..32 + shift).contains(&x) && (16..32).contains(&y) {
                    0.85
                } else {
                    0.1
                }
            })
        };
        // Cold start on slice 0.
        let emb0 = sam.encode(&slice(0));
        let m0 = sam.segment(
            &emb0,
            &crate::prompt::PromptSet::from_box(BoxRegion::new(12, 12, 36, 36)),
        );
        bank.push(m0);
        // Propagate through drifting slices; fallback must not be needed.
        for shift in 1..5 {
            let emb = sam.encode(&slice(shift));
            let m = bank.propagate(&sam, &emb, || panic!("fallback used"));
            let truth = BitMask::from_fn(48, 48, |x, y| {
                (16 + shift..32 + shift).contains(&x) && (16..32).contains(&y)
            });
            let iou = m.iou(&truth);
            // The consensus prior lags a moving object by design (it is a
            // majority over the trailing window), so the bar is modest.
            assert!(iou > 0.55, "shift {shift}: iou {iou}");
        }
    }

    #[test]
    fn propagate_cold_uses_fallback() {
        let sam = Sam::new(SamConfig::default());
        let mut bank = MemoryBank::new(2);
        let img = Image::<f32>::filled(16, 16, 0.5);
        let fallback_mask = BitMask::from_box(16, 16, BoxRegion::new(0, 0, 4, 4));
        let got = bank.propagate(&sam, &sam.encode(&img), || fallback_mask.clone());
        assert_eq!(got, fallback_mask);
        assert_eq!(bank.len(), 1);
    }
}
