//! Mode B: batch-process a FIB-SEM volume with temporal box refinement
//! (paper Fig. 7) and compare against the per-slice ground truth.
//!
//! ```text
//! cargo run --release --example volume_batch
//! ```
//!
//! The volume carries two injected acquisition glitches (defocus bursts);
//! the heuristic refinement detects the resulting outlier boxes and
//! substitutes the sliding-window average, exactly as the paper describes.

use zenesis::core::{Zenesis, ZenesisConfig};
use zenesis::data::{generate_volume, SampleKind};

fn main() {
    let depth = 12;
    let outliers = [4usize, 8];
    println!("generating a {depth}-slice crystalline volume (glitches at {outliers:?})...");
    let vol = generate_volume(SampleKind::Crystalline, 128, depth, 2025, &outliers);
    println!(
        "volume: {}x{}x{} voxels, anisotropy {:.1}x",
        vol.volume.width(),
        vol.volume.height(),
        vol.volume.depth(),
        vol.volume.voxel().anisotropy()
    );

    let z = Zenesis::new(ZenesisConfig::default());
    let t0 = std::time::Instant::now();
    let result = z.segment_volume(&vol.volume, "needle-like crystalline catalyst");
    let secs = t0.elapsed().as_secs_f64();

    println!(
        "\nprocessed {depth} slices in {secs:.2} s ({:.1} slices/s) on {} threads",
        depth as f64 / secs,
        zenesis::par::current_threads()
    );
    println!("\nper-slice results (c = heuristic corrected the box):");
    println!(
        "{:>6} {:>8} {:>10} {:>10}",
        "slice", "IoU", "pixels", "corrected"
    );
    for (zi, (mask, truth)) in result.masks.iter().zip(&vol.truths).enumerate() {
        let ev = &result.events[zi];
        println!(
            "{:>6} {:>8.3} {:>10} {:>10}",
            zi,
            mask.iou(truth),
            mask.count(),
            if ev.corrected { "yes" } else { "" }
        );
    }
    let mean: f64 = result
        .masks
        .iter()
        .zip(&vol.truths)
        .map(|(m, t)| m.iou(t))
        .sum::<f64>()
        / depth as f64;
    println!(
        "\nmean slice IoU {mean:.3}; heuristic corrected {} slice(s) (glitches injected at {outliers:?})",
        result.corrections()
    );
    let ev = result.evaluate(&vol.truths);
    println!(
        "volumetric: 3D IoU {:.3} | 3D Dice {:.3} | prediction smoothness {:.3} (truth {:.3})",
        ev.iou3d(),
        ev.dice3d(),
        ev.prediction_smoothness,
        ev.truth_smoothness
    );
}
