//! Mode A human-in-the-loop session: prompt, inspect, **Rectify
//! Segmentation** with random candidate boxes (paper Fig. 6), and
//! **Further Segment** a subregion (paper Fig. 5), with undo.
//!
//! ```text
//! cargo run --release --example interactive_rectify
//! ```
//!
//! The "user" is scripted: it clicks at the centroid of a structure the
//! automated grounding missed, exactly the weakly-supervised correction
//! loop the paper designs.

use zenesis::core::session::Session;
use zenesis::core::{Zenesis, ZenesisConfig};
use zenesis::data::{generate_slice, PhantomConfig, SampleKind};
use zenesis::image::Point;
use zenesis::metrics::Confusion;

fn main() {
    let slice = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 2025));

    // Cripple the automated grounding so the session needs the human:
    // absurd thresholds mean DINO returns nothing.
    let mut cfg = ZenesisConfig::default();
    cfg.dino.box_threshold = 0.995;
    cfg.dino.text_threshold = 0.995;

    let mut session = Session::open(cfg.clone(), &slice.raw);
    println!("== interactive session (Mode A) ==");

    // Turn 1: prompt. The crippled grounding finds nothing.
    session.prompt("catalyst particles");
    let m1 = session.current_mask();
    println!(
        "after prompt: {} px segmented, IoU {:.3}",
        m1.count(),
        m1.iou(&slice.truth)
    );

    // Turn 2: the user clicks on the missed agglomerate; the platform
    // offers random candidate boxes and picks the nearest segment.
    let (cx, cy) = slice.truth.centroid().expect("non-empty truth");
    let click = Point::new(cx.round() as usize, cy.round() as usize);
    println!("user clicks at ({}, {}) and rectifies...", click.x, click.y);
    let applied = session.rectify(click, 24, 7);
    let m2 = session.current_mask();
    println!(
        "after rectify (applied={applied}): {} px, IoU {:.3}",
        m2.count(),
        m2.iou(&slice.truth)
    );

    // Turn 3: drill into the selected segment for dark pores.
    let refined = session.further_segment("dark pores");
    println!(
        "further segment (\"dark pores\") applied={refined}: {} px",
        session.current_mask().count()
    );

    // Turn 4: if the drill-down applied, it was exploratory — undo it.
    if refined {
        session.undo();
        println!("after undo: back to {} px", session.current_mask().count());
    }
    let m4 = session.current_mask();
    assert_eq!(m4, m2, "undo must restore the rectified state");

    // Compare against the fully automated (uncrippled) platform.
    let auto = Zenesis::new(ZenesisConfig::default())
        .segment_slice(&slice.raw, "catalyst particles")
        .combined;
    let s_hitl = Confusion::from_masks(&m4, &slice.truth).scores();
    let s_auto = Confusion::from_masks(&auto, &slice.truth).scores();
    println!("\n== summary ==");
    println!(
        "human-in-the-loop : IoU {:.3}  Dice {:.3}",
        s_hitl.iou, s_hitl.dice
    );
    println!(
        "fully automated   : IoU {:.3}  Dice {:.3}",
        s_auto.iou, s_auto.dice
    );
    println!("interaction log   : {:?}", session.log);
}
