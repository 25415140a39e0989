//! Quickstart: the end-to-end Zenesis flow on one raw FIB-SEM slice
//! (paper Figs. 2/4 — the Mode A interactive pipeline).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Steps shown:
//! 1. acquire a raw, non-AI-ready 16-bit slice (synthetic phantom);
//! 2. run the platform with a natural-language prompt;
//! 3. inspect the provenance trace (per-stage adaptation + timings);
//! 4. score against ground truth and write figure files to `out/`.

use zenesis::core::{Zenesis, ZenesisConfig};
use zenesis::data::{generate_slice, PhantomConfig, SampleKind};
use zenesis::image::draw::{draw_box_outline, overlay_mask};
use zenesis::image::io::pgm::{save_pgm_u16, save_ppm};
use zenesis::image::RgbImage;
use zenesis::metrics::{analyze_phase, Confusion, PixelSize};

fn main() -> zenesis::image::Result<()> {
    // 1. A raw instrument frame: 16-bit counts in a narrow dynamic range.
    let slice = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 42));
    let (lo, hi) = slice.raw.min_max();
    println!(
        "raw slice: {}x{} u16, counts in [{lo}, {hi}] (non-AI-ready)",
        slice.raw.width(),
        slice.raw.height()
    );

    // 2. The platform, with the default configuration the paper's UI ships.
    let z = Zenesis::new(ZenesisConfig::default());
    let prompt = "needle-like crystalline catalyst";
    let result = z.segment_slice(&slice.raw, prompt);

    // 3. Provenance: what the adaptation did, what grounding found.
    println!("\nprompt: {prompt:?} -> tokens {:?}", result.trace.tokens);
    for t in &result.trace.adapt_stages {
        println!(
            "  adapt/{:<18} -> range [{:.3}, {:.3}] mean {:.3}",
            t.stage, t.out_min, t.out_max, t.out_mean
        );
    }
    println!("  grounding: {} detection(s)", result.detections.len());
    for d in &result.detections {
        println!("    box {:?} score {:.3}", d.bbox, d.score);
    }
    println!(
        "  timings: adapt {:.1} ms | ground {:.1} ms | segment {:.1} ms",
        result.trace.adapt_ms, result.trace.ground_ms, result.trace.segment_ms
    );

    // 4. Score against the phantom's exact ground truth.
    let scores = Confusion::from_masks(&result.combined, &slice.truth).scores();
    println!(
        "\nvs ground truth: accuracy {:.3} | IoU {:.3} | Dice {:.3}",
        scores.accuracy, scores.iou, scores.dice
    );

    // Downstream materials analysis on the final mask.
    let phase = analyze_phase(&result.combined, PixelSize { nm: 5.0 });
    println!(
        "\nmorphometry @5nm/px: {} needles | mean eq-diameter {:.0} nm | aspect {:.1} | orientation coherence {:.2}",
        phase.n_particles, phase.mean_eq_diameter_nm, phase.mean_aspect, phase.orientation_coherence
    );

    // Write the visuals.
    std::fs::create_dir_all("out/quickstart")?;
    save_pgm_u16(&slice.raw, "out/quickstart/raw.pgm")?;
    let mut rgb = RgbImage::from_gray(&result.adapted);
    overlay_mask(&mut rgb, &result.combined, [220, 60, 40], 0.45);
    for d in &result.detections {
        draw_box_outline(&mut rgb, d.bbox, [60, 220, 60]);
    }
    save_ppm(&rgb, "out/quickstart/overlay.ppm")?;
    println!("\nwrote out/quickstart/raw.pgm and out/quickstart/overlay.ppm");
    Ok(())
}
