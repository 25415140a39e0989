//! Experiment drivers: one function per paper table/figure.

#![allow(clippy::field_reassign_with_default)]

use std::path::Path;

use zenesis_adapt::AdaptPipeline;
use zenesis_core::job::{InputSpec, JobSpec, PhantomKind};
use zenesis_core::rectify::CandidateCriteria;
use zenesis_core::{modes, Method, TemporalConfig, Zenesis, ZenesisConfig};
use zenesis_data::{benchmark_dataset, generate_slice, generate_volume, PhantomConfig, SampleKind};
use zenesis_image::draw::{draw_box_outline, hstack_gray, overlay_mask};
use zenesis_image::io::pgm::{save_pgm_u8, save_ppm};
use zenesis_image::io::png::{save_png_gray, save_png_rgb};
use zenesis_image::{Image, Point, RgbImage};
use zenesis_metrics::dashboard::{render_sample_table, render_summary_table, to_csv};
use zenesis_metrics::{Confusion, DatasetEval};

/// Default benchmark resolution. The paper's slices are full microscope
/// frames; 128 px phantoms keep the full pipeline honest while the whole
/// reproduction runs in seconds.
pub const SIDE: usize = 128;
/// Default dataset seed.
pub const SEED: u64 = 2025;

/// The paper's reported numbers (group, method, accuracy, iou, dice) for
/// Tables 1-3, used to print paper-vs-measured comparisons.
pub fn paper_reference() -> Vec<(&'static str, &'static str, f64, f64, f64)> {
    vec![
        ("Crystalline", "Otsu", 0.586, 0.161, 0.274),
        ("Amorphous", "Otsu", 0.581, 0.407, 0.578),
        ("Crystalline", "SAM-only", f64::NAN, 0.100, 0.173),
        ("Amorphous", "SAM-only", 0.499, 0.405, 0.571),
        ("Crystalline", "Zenesis", 0.987, 0.857, 0.923),
        ("Amorphous", "Zenesis", 0.947, 0.858, 0.923),
    ]
}

/// Run the Tables 1-3 evaluation: all three methods over the 20-slice
/// benchmark. Returns the full per-sample evaluation.
pub fn run_tables(side: usize, seed: u64) -> DatasetEval {
    let z = Zenesis::new(ZenesisConfig::default());
    let ds = benchmark_dataset(side, seed);
    modes::evaluate(&z, &ds, &Method::all())
}

/// Render the Tables 1-3 report with paper-vs-measured rows.
pub fn tables_report(eval: &DatasetEval) -> String {
    let mut out = String::new();
    out.push_str("== Tables 1-3: average performance metrics (20 phantom slices) ==\n\n");
    out.push_str(&render_summary_table(&eval.summarize()));
    out.push_str("\nPaper vs measured (mean values):\n");
    out.push_str(&format!(
        "{:<12} {:<9} {:>18} {:>18} {:>18}\n",
        "Group", "Method", "Accuracy (p/m)", "IOU (p/m)", "Dice (p/m)"
    ));
    for (group, method, acc, iou, dice) in paper_reference() {
        if let Some(s) = eval.summary_for(group, method) {
            let fmt = |p: f64, m: f64| {
                if p.is_nan() {
                    format!("  -  /{m:.3}")
                } else {
                    format!("{p:.3}/{m:.3}")
                }
            };
            out.push_str(&format!(
                "{:<12} {:<9} {:>18} {:>18} {:>18}\n",
                group,
                method,
                fmt(acc, s.accuracy.mean),
                fmt(iou, s.iou.mean),
                fmt(dice, s.dice.mean),
            ));
        }
    }
    out
}

/// Fig. 3: qualitative comparison panels. Writes, for one slice of each
/// kind, the adapted image plus Otsu / SAM-only / Zenesis masks and
/// overlays into `outdir`. Returns the per-method IoUs (crystalline,
/// amorphous) for the caption.
pub fn fig3(outdir: &Path) -> zenesis_image::Result<Vec<(String, f64, f64)>> {
    std::fs::create_dir_all(outdir)?;
    let z = Zenesis::new(ZenesisConfig::default());
    let mut rows: Vec<(String, f64, f64)> = Method::all()
        .iter()
        .map(|m| (m.name().to_string(), 0.0, 0.0))
        .collect();
    for (ki, kind) in [SampleKind::Crystalline, SampleKind::Amorphous]
        .into_iter()
        .enumerate()
    {
        let g = generate_slice(&PhantomConfig::new(kind, SEED).with_size(SIDE, SIDE));
        let (adapted, _) = z.adapt(&g.raw);
        // Same tool-level views as Tables 1-3: baselines see the minimal
        // stretch, Zenesis sees its own adaptation.
        let baseline_view = AdaptPipeline::minimal().run(&g.raw.to_f32()).0;
        let prompt = kind.default_prompt();
        let name = kind.label().to_lowercase();
        // Save raw (quantized), adapted, truth.
        save_pgm_u8(&g.raw.to_f32().map(|v| v * 4.0).quantize(), outdir.join(format!("{name}_raw.pgm")))?;
        save_pgm_u8(&adapted.quantize(), outdir.join(format!("{name}_adapted.pgm")))?;
        save_pgm_u8(&g.truth.to_image(), outdir.join(format!("{name}_truth.pgm")))?;
        let mut panels: Vec<Image<u8>> = vec![adapted.quantize(), g.truth.to_image()];
        for (mi, m) in Method::all().iter().enumerate() {
            let pred = m.segment_views(&z, &baseline_view, &adapted, prompt);
            let iou = pred.iou(&g.truth);
            if ki == 0 {
                rows[mi].1 = iou;
            } else {
                rows[mi].2 = iou;
            }
            save_pgm_u8(
                &pred.to_image(),
                outdir.join(format!("{name}_{}.pgm", m.name().to_lowercase().replace('-', "_"))),
            )?;
            // Colour overlay with boxes for the Zenesis panel, on the
            // view the method actually saw.
            let view = if *m == Method::Zenesis { &adapted } else { &baseline_view };
            let mut rgb = RgbImage::from_gray(view);
            overlay_mask(&mut rgb, &pred, [220, 60, 40], 0.45);
            if *m == Method::Zenesis {
                let r = z.segment_prepared(&z.prepare_adapted(&adapted), prompt);
                for d in &r.detections {
                    draw_box_outline(&mut rgb, d.bbox, [60, 220, 60]);
                }
            }
            save_ppm(
                &rgb,
                outdir.join(format!(
                    "{name}_{}_overlay.ppm",
                    m.name().to_lowercase().replace('-', "_")
                )),
            )?;
            save_png_rgb(
                &rgb,
                outdir.join(format!(
                    "{name}_{}_overlay.png",
                    m.name().to_lowercase().replace('-', "_")
                )),
            )?;
            panels.push(pred.to_image());
        }
        let refs: Vec<&Image<u8>> = panels.iter().collect();
        let panel = hstack_gray(&refs, 2, 128);
        save_pgm_u8(&panel, outdir.join(format!("{name}_panel.pgm")))?;
        save_png_gray(&panel, outdir.join(format!("{name}_panel.png")))?;
    }
    Ok(rows)
}

/// Fig. 5: Further Segment. Runs a parent prompt, then re-segments the
/// best detection with a child prompt; returns (parent pixels, child
/// pixels, child-inside-parent-region fraction).
pub fn fig5() -> (usize, usize, f64) {
    let z = Zenesis::new(ZenesisConfig::default());
    let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, SEED).with_size(SIDE, SIDE));
    let (adapted, _) = z.adapt(&g.raw);
    let parent = z.segment_prepared(&z.prepare_adapted(&adapted), "bright catalyst particles");
    let Some(best) = parent.detections.first() else {
        return (0, 0, 0.0);
    };
    let child = z
        .further_segment(&adapted, best.bbox, "dark pores")
        .expect("child run");
    let inside = child
        .mask
        .iter_true()
        .filter(|p| child.region.contains(*p))
        .count();
    let frac = if child.mask.count() == 0 {
        1.0
    } else {
        inside as f64 / child.mask.count() as f64
    };
    (parent.combined.count(), child.mask.count(), frac)
}

/// Fig. 6: Rectify Segmentation. Degrades the grounding (absurd
/// thresholds force a bad/no detection), then recovers via the
/// human-in-the-loop random-box + nearest-segment flow with a simulated
/// click at the ground-truth centroid. Returns (iou before, iou after).
pub fn fig6() -> (f64, f64) {
    let mut cfg = ZenesisConfig::default();
    cfg.dino.box_threshold = 0.995; // cripple automated grounding
    cfg.dino.text_threshold = 0.995;
    let z = Zenesis::new(cfg);
    let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, SEED).with_size(SIDE, SIDE));
    let (adapted, _) = z.adapt(&g.raw);
    let prepared = z.prepare_adapted(&adapted);
    let broken = z.segment_prepared(&prepared, "bright catalyst particles");
    let before = broken.combined.iou(&g.truth);
    let (cx, cy) = g.truth.centroid().expect("non-empty truth");
    let click = Point::new(cx.round() as usize, cy.round() as usize);
    let after = match z.rectify(prepared.embedding(), click, 24, CandidateCriteria::Mixed, 7) {
        Some(c) => {
            let mut merged = broken.combined.clone();
            merged.or_with(&c.mask);
            merged.iou(&g.truth)
        }
        None => before,
    };
    (before, after)
}

/// One Fig. 7 variant result.
pub struct TemporalVariant {
    pub name: &'static str,
    pub corrections: usize,
    pub mean_iou: f64,
    pub outlier_iou: f64,
}

/// Fig. 7: heuristic temporal refinement on a volume with injected
/// outlier slices. Compares refinement off and on, reporting both
/// overall mean IoU and the IoU on the glitched slices.
pub fn fig7(depth: usize) -> Vec<TemporalVariant> {
    let outliers: Vec<usize> = vec![depth / 3, 2 * depth / 3];
    let vol = generate_volume(SampleKind::Crystalline, SIDE, depth, SEED, &outliers);
    let run = |name: &'static str, temporal_on: bool| {
        let mut cfg = ZenesisConfig::default();
        if !temporal_on {
            cfg.temporal = TemporalConfig {
                window: 0,
                size_factor: f64::INFINITY,
                fill_missing: false,
            };
        }
        let z = Zenesis::new(cfg);
        let r = z.segment_volume(&vol.volume, "needle-like crystalline catalyst");
        let ious: Vec<f64> = r
            .masks
            .iter()
            .zip(&vol.truths)
            .map(|(m, t)| m.iou(t))
            .collect();
        let mean_iou = ious.iter().sum::<f64>() / depth as f64;
        let outlier_iou =
            outliers.iter().map(|&z| ious[z]).sum::<f64>() / outliers.len() as f64;
        TemporalVariant {
            name,
            corrections: r.corrections(),
            mean_iou,
            outlier_iou,
        }
    };
    vec![run("refinement off", false), run("refinement on", true)]
}

/// Fig. 8: the evaluation dashboard (both granularities) as text.
pub fn fig8(eval: &DatasetEval) -> String {
    let mut out = String::new();
    out.push_str("== Fig. 8: segmentation performance dashboard ==\n\n");
    out.push_str("-- dataset granularity --\n");
    out.push_str(&render_summary_table(&eval.summarize()));
    out.push_str("\n-- individual sample granularity --\n");
    out.push_str(&render_sample_table(eval));
    out
}

/// Ablation grid: Zenesis variants with components disabled.
/// Returns rows of (name, crystalline mean IoU, amorphous mean IoU).
pub fn ablation(side: usize, seed: u64) -> Vec<(String, f64, f64)> {
    let ds = benchmark_dataset(side, seed);
    let variants: Vec<(&str, ZenesisConfig)> = vec![
        ("full", ZenesisConfig::default()),
        ("no-adaptation", {
            let mut c = ZenesisConfig::default();
            c.adapt = AdaptPipeline::identity();
            c
        }),
        ("minimal-adaptation", {
            let mut c = ZenesisConfig::default();
            c.adapt = AdaptPipeline::minimal();
            c
        }),
        ("fast-preview", ZenesisConfig::fast_preview()),
    ];
    variants
        .into_iter()
        .map(|(name, cfg)| {
            let z = Zenesis::new(cfg);
            let mut sums = [0.0f64; 2];
            let mut counts = [0usize; 2];
            for s in &ds.samples {
                let (adapted, _) = z.adapt(&s.raw);
                let pred = z
                    .segment_prepared(&z.prepare_adapted(&adapted), s.kind.default_prompt())
                    .combined;
                let iou = Confusion::from_masks(&pred, &s.truth).iou();
                let idx = match s.kind {
                    SampleKind::Crystalline => 0,
                    SampleKind::Amorphous => 1,
                };
                sums[idx] += iou;
                counts[idx] += 1;
            }
            (
                name.to_string(),
                sums[0] / counts[0] as f64,
                sums[1] / counts[1] as f64,
            )
        })
        .collect()
}

/// Strong-scaling measurement: wall time of Mode C over the benchmark at
/// each thread count. Returns (threads, seconds).
pub fn scaling(side: usize, seed: u64, thread_counts: &[usize]) -> Vec<(usize, f64)> {
    let ds = benchmark_dataset(side, seed);
    let z = Zenesis::new(ZenesisConfig::default());
    thread_counts
        .iter()
        .map(|&n| {
            let _g = zenesis_par::ThreadsGuard::new(n);
            let t0 = std::time::Instant::now();
            let _ = modes::evaluate(&z, &ds, &[Method::Zenesis]);
            (n, t0.elapsed().as_secs_f64())
        })
        .collect()
}

/// A ready-made JSON job spec exercising the no-code contract end to end
/// (used by the quickstart and tests).
pub fn example_job() -> JobSpec {
    JobSpec::Interactive {
        input: InputSpec::PhantomSlice {
            kind: PhantomKind::Amorphous,
            seed: SEED,
            side: SIDE,
        },
        prompt: "bright catalyst particles".into(),
        config: None,
    }
}

/// CSV of an evaluation (re-exported for the repro binary).
pub fn eval_csv(eval: &DatasetEval) -> String {
    to_csv(eval)
}

/// Extension: morphometry of the two catalyst phases, computed from the
/// *Zenesis segmentations* (not ground truth) — the downstream materials
/// numbers the paper's dataset section motivates (needle-like crystalline
/// IrO2 has much higher specific surface area and oriented morphology).
/// Returns (label, PhaseStats) per sample type at 5 nm/px.
pub fn morphometry() -> Vec<(String, zenesis_metrics::PhaseStats)> {
    let z = Zenesis::new(ZenesisConfig::default());
    let px = zenesis_metrics::PixelSize { nm: 5.0 };
    [SampleKind::Crystalline, SampleKind::Amorphous]
        .into_iter()
        .map(|kind| {
            let g = generate_slice(&PhantomConfig::new(kind, SEED).with_size(SIDE, SIDE));
            let pred = z.segment_slice(&g.raw, kind.default_prompt()).combined;
            (kind.label().to_string(), zenesis_metrics::analyze_phase(&pred, px))
        })
        .collect()
}

/// Extension: cross-modality zero-shot rows (future work 1): per modality
/// (label, IoU, recall) using the modality's readiness preset.
pub fn modalities() -> Vec<(String, f64, f64)> {
    use zenesis_data::modalities::{generate_modality, Modality};
    [Modality::Stm, Modality::Edx, Modality::Xrd]
        .into_iter()
        .map(|m| {
            let mut cfg = ZenesisConfig::default();
            cfg.adapt = match m.adapt_preset_name() {
                "stm" => AdaptPipeline::stm(),
                "xrd" => AdaptPipeline::xrd(),
                _ => AdaptPipeline::minimal(),
            };
            let z = Zenesis::new(cfg);
            let mut iou = 0.0;
            let mut recall = 0.0;
            let n = 3.0;
            for seed in [1u64, 2, 3] {
                let f = generate_modality(m, SIDE, seed);
                let pred = z.segment_slice(&f.raw, m.default_prompt()).combined;
                let c = Confusion::from_masks(&pred, &f.truth);
                iou += c.iou();
                recall += c.recall();
            }
            (m.label().to_string(), iou / n, recall / n)
        })
        .collect()
}

/// Extension: interaction efficiency — IoU after k rectification clicks
/// with crippled automated grounding (quantifying Fig. 6's loop). The
/// simulated user clicks the centroid of the largest still-missing truth
/// component each round. Returns (clicks, IoU) including clicks = 0.
pub fn interaction_efficiency(max_clicks: usize) -> Vec<(usize, f64)> {
    use zenesis_image::components::{label_components, Connectivity};
    let mut cfg = ZenesisConfig::default();
    cfg.dino.box_threshold = 0.995;
    cfg.dino.text_threshold = 0.995;
    let z = Zenesis::new(cfg);
    let g = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, SEED).with_size(SIDE, SIDE));
    let (adapted, _) = z.adapt(&g.raw);
    let prepared = z.prepare_adapted(&adapted);
    let emb = prepared.embedding();
    let mut mask = z.segment_prepared(&prepared, "catalyst particles").combined;
    let mut curve = vec![(0usize, mask.iou(&g.truth))];
    for k in 1..=max_clicks {
        // Largest missing truth component.
        let mut missing = g.truth.clone();
        missing.subtract(&mask);
        let labels = label_components(&missing, Connectivity::Eight);
        let Some(target) = labels.largest() else {
            curve.push((k, mask.iou(&g.truth)));
            continue;
        };
        let click = Point::new(
            target.centroid.0.round() as usize,
            target.centroid.1.round() as usize,
        );
        if let Some(c) = z.rectify(emb, click, 24, CandidateCriteria::Mixed, k as u64) {
            mask.or_with(&c.mask);
        }
        curve.push((k, mask.iou(&g.truth)));
    }
    curve
}

/// Extension: the fine-tuning module's transfer — learn "my_needles" from
/// `n_exemplars` labelled slices, evaluate box recall on unseen slices.
/// Returns (n_exemplars, mean recall over 3 held-out slices).
pub fn finetune_transfer(max_exemplars: usize) -> Vec<(usize, f64)> {
    use zenesis_ground::{learn_concept, DinoConfig, Exemplar, FinetuneConfig, GroundingDino};
    use zenesis_image::BitMask;
    let adapt = AdaptPipeline::recommended();
    let train: Vec<(Image<f32>, BitMask)> = (0..max_exemplars as u64)
        .map(|s| {
            let g = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 100 + s));
            (adapt.run(&g.raw.to_f32()).0, g.truth)
        })
        .collect();
    let held_out: Vec<(Image<f32>, BitMask)> = (0..3u64)
        .map(|s| {
            let g = generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 200 + s));
            (adapt.run(&g.raw.to_f32()).0, g.truth)
        })
        .collect();
    (1..=max_exemplars)
        .map(|n| {
            let exemplars: Vec<Exemplar> = train[..n]
                .iter()
                .map(|(img, mask)| Exemplar { image: img, mask })
                .collect();
            let recall = match learn_concept("my_needles", &exemplars, &FinetuneConfig::default())
            {
                Some(concept) => {
                    let mut dino = GroundingDino::new(DinoConfig::default());
                    dino.teach(&concept);
                    let mut total = 0.0;
                    for (img, truth) in &held_out {
                        let gr = dino.ground(img, "my_needles");
                        let (w, h) = img.dims();
                        let mut boxes = BitMask::new(w, h);
                        for d in &gr.detections {
                            boxes.or_with(&BitMask::from_box(w, h, d.bbox));
                        }
                        total += boxes.intersection_count(truth) as f64 / truth.count() as f64;
                    }
                    total / held_out.len() as f64
                }
                None => 0.0,
            };
            (n, recall)
        })
        .collect()
}
