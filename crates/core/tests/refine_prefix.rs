//! The temporal heuristic is causal: a slice is judged only against the
//! slices before it, so refining a prefix of a volume gives exactly the
//! first entries of refining the whole volume. The pipelined volume
//! executor depends on this — it judges each slice as soon as every
//! slice before it has finished stage 1, never revisiting a decision.

use proptest::prelude::*;
use zenesis_core::temporal::{refine_boxes, TemporalConfig};
use zenesis_image::BoxRegion;

/// A primary box, or no detection on roughly one slice in four; sizes
/// spread wide enough that both outlier directions occur.
fn primary() -> impl Strategy<Value = Option<BoxRegion>> {
    (0u8..4, 0usize..100, 0usize..100, 1usize..80, 1usize..80)
        .prop_map(|(k, x, y, w, h)| (k > 0).then(|| BoxRegion::new(x, y, x + w, y + h)))
}

fn config() -> impl Strategy<Value = TemporalConfig> {
    (0usize..6, 1.0f64..3.0, any::<bool>()).prop_map(|(window, size_factor, fill_missing)| {
        TemporalConfig {
            window,
            size_factor,
            fill_missing,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn refining_a_prefix_gives_the_prefix_of_the_whole(
        raw in prop::collection::vec(primary(), 0..40),
        cfg in config(),
        cut in 0usize..41,
    ) {
        let k = cut.min(raw.len());
        let (used, events, dims) = refine_boxes(&raw, &cfg);
        let (used_k, events_k, dims_k) = refine_boxes(&raw[..k], &cfg);
        prop_assert_eq!(&used_k[..], &used[..k]);
        prop_assert_eq!(&dims_k[..], &dims[..k]);
        prop_assert_eq!(events_k.len(), k);
        for (a, b) in events_k.iter().zip(&events) {
            prop_assert_eq!(
                (a.slice, a.raw_box, a.used_box, a.corrected),
                (b.slice, b.raw_box, b.used_box, b.corrected)
            );
        }
    }
}
