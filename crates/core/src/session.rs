//! Mode A: the interactive session (prompt, inspect, rectify, refine)
//! with undo history — the state behind the paper's web UI.

use zenesis_image::{BitMask, Image, Pixel, Point};

use crate::config::ZenesisConfig;
use crate::pipeline::{Prepared, Zenesis};
use crate::rectify::CandidateCriteria;

/// One recorded interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interaction {
    Prompted { prompt: String },
    Rectified { click: Point },
    FurtherSegmented { prompt: String },
    Undone,
}

/// An interactive single-slice session.
pub struct Session {
    zenesis: Zenesis,
    /// Adapted once at open.
    adapted: Image<f32>,
    /// Prepared once at open; every prompt runs only the prompt tail.
    prepared: Prepared,
    /// Mask history; last entry is the current segmentation.
    history: Vec<BitMask>,
    /// Interaction log (for reproducibility / audit).
    pub log: Vec<Interaction>,
}

impl Session {
    /// Open a session on a raw image (adaptation, grounding's image side
    /// and the SAM encode run once).
    pub fn open<T: Pixel>(config: ZenesisConfig, raw: &Image<T>) -> Self {
        let zenesis = Zenesis::new(config);
        let (adapted, _) = zenesis.adapt(raw);
        let prepared = zenesis.prepare_adapted(&adapted);
        Session {
            zenesis,
            adapted,
            prepared,
            history: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Current segmentation (all-false before the first prompt).
    pub fn current_mask(&self) -> BitMask {
        self.history
            .last()
            .cloned()
            .unwrap_or_else(|| BitMask::new(self.adapted.width(), self.adapted.height()))
    }

    /// Prompt-driven segmentation; pushes the result onto the history.
    pub fn prompt(&mut self, text: &str) -> &BitMask {
        let result = self.zenesis.segment_prepared(&self.prepared, text);
        self.history.push(result.combined);
        self.log.push(Interaction::Prompted {
            prompt: text.to_string(),
        });
        self.history.last().expect("just pushed")
    }

    /// Rectify the current segmentation with a user click: random
    /// candidate boxes decoded against the embedding prepared at open,
    /// nearest-segment selection. The chosen candidate's mask is unioned
    /// into the current mask. Returns whether a candidate was applied.
    pub fn rectify(&mut self, click: Point, n_candidates: usize, seed: u64) -> bool {
        match self.zenesis.rectify(
            self.prepared.embedding(),
            click,
            n_candidates,
            CandidateCriteria::Mixed,
            seed,
        ) {
            Some(cand) => {
                let mut merged = self.current_mask();
                merged.or_with(&cand.mask);
                self.history.push(merged);
                self.log.push(Interaction::Rectified { click });
                true
            }
            None => false,
        }
    }

    /// Further-segment inside the current mask with a new prompt; the
    /// child mask *replaces* the current segmentation (drill-down).
    pub fn further_segment(&mut self, prompt: &str) -> bool {
        let current = self.current_mask();
        match self
            .zenesis
            .further_segment_mask(&self.adapted, &current, prompt)
        {
            Some(child) if child.mask.count() > 0 => {
                self.history.push(child.mask);
                self.log.push(Interaction::FurtherSegmented {
                    prompt: prompt.to_string(),
                });
                true
            }
            _ => false,
        }
    }

    /// Undo the last mask-changing interaction. Returns whether anything
    /// was undone.
    pub fn undo(&mut self) -> bool {
        if self.history.pop().is_some() {
            self.log.push(Interaction::Undone);
            true
        } else {
            false
        }
    }

    /// Number of mask states in history.
    pub fn depth(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk_raw() -> Image<u16> {
        Image::from_fn(64, 64, |x, y| {
            let dx = x as f32 - 32.0;
            let dy = y as f32 - 32.0;
            if dx * dx + dy * dy < 150.0 {
                14000
            } else {
                1500
            }
        })
    }

    #[test]
    fn prompt_then_undo() {
        let mut s = Session::open(ZenesisConfig::default(), &disk_raw());
        assert_eq!(s.current_mask().count(), 0);
        s.prompt("bright particles");
        let after = s.current_mask().count();
        assert!(after > 0);
        assert!(s.undo());
        assert_eq!(s.current_mask().count(), 0);
        assert!(!s.undo());
        assert_eq!(
            s.log,
            vec![
                Interaction::Prompted {
                    prompt: "bright particles".into()
                },
                Interaction::Undone
            ]
        );
    }

    #[test]
    fn rectify_unions_into_mask() {
        let mut s = Session::open(ZenesisConfig::default(), &disk_raw());
        s.prompt("bright particles");
        let before = s.current_mask();
        let applied = s.rectify(Point::new(32, 32), 10, 5);
        assert!(applied);
        let after = s.current_mask();
        // Union: never shrinks.
        assert!(after.count() >= before.count());
        assert_eq!(after.intersection_count(&before), before.count());
        assert_eq!(s.depth(), 2);
    }

    #[test]
    fn reprompting_replaces_current() {
        let mut s = Session::open(ZenesisConfig::default(), &disk_raw());
        s.prompt("bright particles");
        let a = s.current_mask();
        s.prompt("dark background");
        let b = s.current_mask();
        assert_ne!(a, b);
        assert!(s.undo());
        assert_eq!(s.current_mask(), a);
    }
}
