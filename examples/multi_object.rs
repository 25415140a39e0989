//! Multi-object segmentation (paper future work 2): several named
//! prompts segment one image into disjoint classes, with relevance-based
//! conflict resolution — plus a taught concept from the fine-tuning
//! module (future work 3) used as prompt vocabulary.
//!
//! ```text
//! cargo run --release --example multi_object
//! ```

use zenesis::core::{ObjectSpec, Zenesis, ZenesisConfig};
use zenesis::data::{generate_slice, PhantomConfig, SampleKind};
use zenesis::ground::{learn_concept, Exemplar, FinetuneConfig};
use zenesis::image::draw::overlay_mask;
use zenesis::image::io::pgm::save_ppm;
use zenesis::image::RgbImage;

fn main() -> zenesis::image::Result<()> {
    // Teach the platform a user concept from one labelled slice.
    let train = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 1));
    let z = Zenesis::new(ZenesisConfig::default());
    let (train_adapted, _) = z.adapt(&train.raw);
    let concept = learn_concept(
        "my_needles",
        &[Exemplar {
            image: &train_adapted,
            mask: &train.truth,
        }],
        &FinetuneConfig::default(),
    )
    .expect("learnable concept");
    println!(
        "taught concept {:?}: {} positive / {} negative patches, separation {:.2}",
        concept.name, concept.n_pos, concept.n_neg, concept.separation
    );

    // Multi-object pass on an unseen slice: the learned term plus two
    // built-in vocabulary prompts.
    let mut z = Zenesis::new(ZenesisConfig::default());
    z.teach_concept(&concept);
    let slice = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 6));
    let objects = vec![
        ObjectSpec::new("needles", "my_needles"),
        ObjectSpec::new("background", "dark background"),
    ];
    let result = z.segment_multi_raw(&slice.raw, &objects);

    println!(
        "\nclass map over {}x{} pixels:",
        result.width, result.height
    );
    for (label, mask) in &result.masks {
        println!(
            "  {:<12} {:>6} px ({:.1}% of frame)",
            label,
            mask.count(),
            100.0 * mask.coverage()
        );
    }
    println!(
        "  contested pixels resolved by relevance: {}",
        result.contested
    );
    let needles_iou = result
        .mask_for("needles")
        .map(|m| m.iou(&slice.truth))
        .unwrap_or(0.0);
    println!("\nlearned-term needles IoU vs ground truth: {needles_iou:.3}");

    // Render the class map.
    let (adapted, _) = z.adapt(&slice.raw);
    let mut rgb = RgbImage::from_gray(&adapted);
    let palette = [[220u8, 60, 40], [60, 110, 220]];
    for (i, (_, mask)) in result.masks.iter().enumerate() {
        overlay_mask(&mut rgb, mask, palette[i % palette.len()], 0.4);
    }
    std::fs::create_dir_all("out")?;
    save_ppm(&rgb, "out/multi_object.ppm")?;
    println!("class overlay written to out/multi_object.ppm");
    Ok(())
}
