//! The no-code contract, end to end at the string level: every job mode
//! driven exactly as the paper's web UI (or the CLI) would drive it —
//! JSON in, JSON out — including file-backed inputs.

use zenesis::core::job::run_job_json;

fn run(json: &str) -> serde_json::Value {
    serde_json::from_str(&run_job_json(json)).expect("response is JSON")
}

#[test]
fn interactive_phantom_job() {
    let v = run(r#"{
        "mode": "interactive",
        "input": {"source": "phantom_slice", "kind": "crystalline", "seed": 3},
        "prompt": "needle-like crystalline catalyst"
    }"#);
    assert_eq!(v["kind"], "slice");
    assert!(v["mask_pixels"].as_u64().unwrap() > 500);
    assert!(v["coverage"].as_f64().unwrap() < 0.5);
    assert!(v["total_ms"].as_f64().unwrap() > 0.0);
    let dets = v["detections"].as_array().unwrap();
    assert!(!dets.is_empty());
    // Boxes are serialized with their geometry fields.
    assert!(dets[0]["x0"].is_u64() && dets[0]["y1"].is_u64());
}

#[test]
fn interactive_job_with_custom_config() {
    // The config section is the full platform configuration; a crippled
    // grounding threshold must flow through and yield no detections.
    let v = run(r#"{
        "mode": "interactive",
        "input": {"source": "phantom_slice", "kind": "amorphous", "seed": 5},
        "prompt": "catalyst particles",
        "config": {
            "adapt": {"stages": [{"op": "percentile_stretch", "p_lo": 0.005, "p_hi": 0.995}]},
            "dino": {
                "patch": 8, "box_threshold": 0.995, "text_threshold": 0.995,
                "nms_iou": 0.6, "embed_dim": 32, "logit_scale": 6.0,
                "feature_sigma": 1.0, "seed": 24301
            },
            "sam": {
                "variant": "VitH", "encode_sigma": 1.0, "step_tol": 0.05,
                "tolerances": [0.08, 0.14, 0.22], "box_margin": 2,
                "min_area": 12, "fill_holes": true, "grid_step": 16
            },
            "temporal": {"window": 3, "size_factor": 1.6, "fill_missing": true},
            "relevance_floor": 0.6
        }
    }"#);
    assert_eq!(v["kind"], "slice");
    assert_eq!(v["detections"].as_array().unwrap().len(), 0);
    assert_eq!(v["mask_pixels"], 0);
}

#[test]
fn batch_volume_job_reports_corrections() {
    let v = run(r#"{
        "mode": "batch",
        "input": {
            "source": "phantom_volume", "kind": "crystalline",
            "seed": 2025, "depth": 6, "side": 96, "outlier_slices": [3]
        },
        "prompt": "needle-like crystalline catalyst"
    }"#);
    assert_eq!(v["kind"], "volume");
    assert_eq!(v["depth"], 6);
    assert_eq!(v["per_slice_pixels"].as_array().unwrap().len(), 6);
}

#[test]
fn file_backed_jobs_roundtrip_through_disk() {
    let dir = std::env::temp_dir().join("zenesis_nocode_it");
    std::fs::create_dir_all(&dir).unwrap();
    // Produce inputs in all three on-disk formats from one phantom.
    let g = zenesis::data::generate_slice(&zenesis::data::PhantomConfig::new(
        zenesis::data::SampleKind::Amorphous,
        11,
    ));
    let tiff_path = dir.join("s.tif");
    zenesis::tiff::save_tiff_u16(&g.raw, &tiff_path).unwrap();
    let pgm_path = dir.join("s.pgm");
    zenesis::image::io::pgm::save_pgm_u16(&g.raw, &pgm_path).unwrap();
    let ppm_path = dir.join("s.ppm");
    zenesis::image::io::pgm::save_ppm(&zenesis::image::RgbImage::from_gray(&g.raw), &ppm_path)
        .unwrap();
    for (source, path) in [
        ("tiff_file", &tiff_path),
        ("pgm_file", &pgm_path),
        ("ppm_file", &ppm_path),
    ] {
        let json = format!(
            r#"{{"mode":"interactive","input":{{"source":"{source}","path":{path:?}}},"prompt":"catalyst particles"}}"#,
        );
        let v = run(&json);
        assert_eq!(v["kind"], "slice", "{source}: {v}");
        assert!(
            v["mask_pixels"].as_u64().unwrap() > 0,
            "{source} produced an empty mask"
        );
    }
}

#[test]
fn error_paths_are_structured_not_panics() {
    for bad in [
        "{not json",
        r#"{"mode": "interactive", "prompt": 42}"#,
        r#"{"mode": "interactive", "input": {"source": "benchmark", "seed": 1}, "prompt": "x"}"#,
        r#"{"mode": "batch", "input": {"source": "phantom_slice", "kind": "amorphous", "seed": 1}, "prompt": "x"}"#,
        r#"{"mode": "interactive", "input": {"source": "tiff_file", "path": "/nope.tif"}, "prompt": "x"}"#,
    ] {
        let v = run(bad);
        assert_eq!(v["kind"], "error", "input {bad:?} should yield an error");
        assert!(v["message"].as_str().unwrap().len() > 5);
    }
}

#[test]
fn volume_tiff_file_batch() {
    let dir = std::env::temp_dir().join("zenesis_nocode_vol");
    std::fs::create_dir_all(&dir).unwrap();
    let v = zenesis::data::generate_volume(zenesis::data::SampleKind::Amorphous, 64, 3, 5, &[]);
    let path = dir.join("v.tif");
    zenesis::tiff::save_tiff_volume_u16(&v.volume, &path).unwrap();
    let masks_path = dir.join("m.tif");
    let json = format!(
        r#"{{"mode":"batch","input":{{"source":"tiff_volume_file","path":{path:?}}},"prompt":"catalyst particles","masks_out":{masks_path:?}}}"#,
    );
    let out = run(&json);
    assert_eq!(out["kind"], "volume");
    assert_eq!(out["depth"], 3);
    // The masks the job reported and the masks it wrote to disk agree.
    let masks = zenesis::tiff::read_mask_tiff(&std::fs::read(&masks_path).unwrap()).unwrap();
    let pixels: Vec<usize> = masks.iter().map(|m| m.count()).collect();
    let reported: Vec<usize> = out["per_slice_pixels"]
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_u64().unwrap() as usize)
        .collect();
    assert_eq!(pixels, reported);
}
