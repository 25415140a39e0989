//! Prompt types: point clicks (foreground/background), boxes, rough masks.

use serde::{Deserialize, Serialize};
use zenesis_image::{BitMask, BoxRegion, Point};

/// Label of a point click.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PointLabel {
    Foreground,
    Background,
}

/// One prompt element.
#[derive(Debug, Clone, PartialEq)]
pub enum Prompt {
    /// A click at a pixel.
    Point(Point, PointLabel),
    /// A bounding-box constraint.
    Box(BoxRegion),
    /// A rough mask to refine.
    Mask(BitMask),
}

/// Which intensity side of a statistical split is the object of interest.
///
/// SAM proper infers this from its learned embedding; here the polarity is
/// carried explicitly (the grounding layer derives it from the prompt
/// text, e.g. "dark pores" vs "bright particles").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Polarity {
    /// Foreground is the brighter side (the default for catalyst phases).
    #[default]
    Bright,
    /// Foreground is the darker side (pores, voids, background studies).
    Dark,
}

/// A set of prompts describing one object.
#[derive(Debug, Clone, Default)]
pub struct PromptSet {
    pub(crate) prompts: Vec<Prompt>,
    /// Intensity polarity of the sought object.
    pub polarity: Polarity,
}

impl PromptSet {
    /// An empty set (test fixtures build sets with [`PromptSet::with`]).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        PromptSet::default()
    }

    /// A single foreground click.
    pub fn point(x: usize, y: usize) -> Self {
        PromptSet {
            prompts: vec![Prompt::Point(Point::new(x, y), PointLabel::Foreground)],
            polarity: Polarity::Bright,
        }
    }

    /// A single box.
    pub fn from_box(b: BoxRegion) -> Self {
        PromptSet {
            prompts: vec![Prompt::Box(b)],
            polarity: Polarity::Bright,
        }
    }

    /// Set the intensity polarity (builder style).
    pub fn with_polarity(mut self, polarity: Polarity) -> Self {
        self.polarity = polarity;
        self
    }

    #[cfg(test)]
    pub(crate) fn with(mut self, p: Prompt) -> Self {
        self.prompts.push(p);
        self
    }

    /// All foreground points.
    pub(crate) fn fg_points(&self) -> Vec<Point> {
        self.prompts
            .iter()
            .filter_map(|p| match p {
                Prompt::Point(pt, PointLabel::Foreground) => Some(*pt),
                _ => None,
            })
            .collect()
    }

    /// All background points.
    pub(crate) fn bg_points(&self) -> Vec<Point> {
        self.prompts
            .iter()
            .filter_map(|p| match p {
                Prompt::Point(pt, PointLabel::Background) => Some(*pt),
                _ => None,
            })
            .collect()
    }

    /// The tightest box constraint, if any boxes are present.
    pub(crate) fn box_constraint(&self) -> Option<BoxRegion> {
        let mut it = self.prompts.iter().filter_map(|p| match p {
            Prompt::Box(b) => Some(*b),
            _ => None,
        });
        let first = it.next()?;
        Some(it.fold(first, |acc, b| acc.intersect(&b)))
    }

    /// The union of mask prompts, if any.
    pub(crate) fn mask_prior(&self) -> Option<BitMask> {
        let mut out: Option<BitMask> = None;
        for p in &self.prompts {
            if let Prompt::Mask(m) = p {
                match &mut out {
                    Some(acc) => acc.or_with(m),
                    None => out = Some(m.clone()),
                }
            }
        }
        out
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.prompts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_accessors() {
        let ps = PromptSet::point(3, 4)
            .with(Prompt::Point(Point::new(9, 9), PointLabel::Background))
            .with(Prompt::Box(BoxRegion::new(0, 0, 10, 10)));
        assert_eq!(ps.fg_points(), vec![Point::new(3, 4)]);
        assert_eq!(ps.bg_points(), vec![Point::new(9, 9)]);
        assert_eq!(ps.box_constraint(), Some(BoxRegion::new(0, 0, 10, 10)));
        assert!(ps.mask_prior().is_none());
        assert!(!ps.is_empty());
    }

    #[test]
    fn multiple_boxes_intersect() {
        let ps = PromptSet::from_box(BoxRegion::new(0, 0, 10, 10))
            .with(Prompt::Box(BoxRegion::new(5, 5, 20, 20)));
        assert_eq!(ps.box_constraint(), Some(BoxRegion::new(5, 5, 10, 10)));
    }

    #[test]
    fn mask_prompts_union() {
        let a = BitMask::from_box(8, 8, BoxRegion::new(0, 0, 2, 2));
        let b = BitMask::from_box(8, 8, BoxRegion::new(4, 4, 6, 6));
        let ps = PromptSet::new()
            .with(Prompt::Mask(a.clone()))
            .with(Prompt::Mask(b.clone()));
        let u = ps.mask_prior().unwrap();
        assert_eq!(u, a.or(&b));
    }

    #[test]
    fn empty_set() {
        let ps = PromptSet::new();
        assert!(ps.is_empty());
        assert!(ps.box_constraint().is_none());
        assert!(ps.fg_points().is_empty());
    }
}
