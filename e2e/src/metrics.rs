//! The metric catalogue: every name the benchmark prints, with its unit,
//! its direction and, for end-to-end metrics, its regression bound.
//! `BENCHMARK.json` is generated from these tables (`e2e manifest`) and a
//! test keeps the committed file equal to them.

use std::collections::BTreeMap;

/// What one run measures for, s. 92 runs with their set-up must fit the
/// driver's 3420 s; this leaves room for 10 s of set-up and checking per
/// run.
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The figures a user of the platform sees. README.md says what each
/// stands for on each workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_req_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "slices_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "server_peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics, layer = crate. A metric whose layer is not on a
/// workload's path reads 0 on that workload.
pub const PER_LAYER: [Layer; 72] = [
    // From the served traffic: the client clock and each response's
    // `queue_ms` / `run_ms`.
    layer("serve.wire_p50_ms", "ms", "lower"),
    layer("serve.wire_p95_ms", "ms", "lower"),
    layer("serve.p50_ms_r30", "ms", "lower"),
    layer("serve.wire_p50_ms_r30", "ms", "lower"),
    layer("serve.queue_wait_p50_ms", "ms", "lower"),
    layer("serve.queue_wait_p95_ms", "ms", "lower"),
    layer("serve.run_p50_ms", "ms", "lower"),
    layer("serve.run_p95_ms", "ms", "lower"),
    layer("serve.p99_ms", "ms", "lower"),
    layer("serve.busy", "count", "lower"),
    layer("serve.error", "count", "lower"),
    layer("serve.timeout", "count", "lower"),
    layer("loadgen.sent", "count", "higher"),
    layer("loadgen.ok", "count", "higher"),
    layer("loadgen.failed_share", "ratio", "lower"),
    layer("loadgen.late_max_ms", "ms", "lower"),
    layer("loadgen.late_share", "ratio", "lower"),
    layer("loadgen.cpu_share", "ratio", "lower"),
    layer("loadgen.valid", "count", "higher"),
    // From the traced replay: calls into each crate's public functions.
    layer("tiff.load_slice_ms", "ms", "lower"),
    layer("tiff.open_volume_ms", "ms", "lower"),
    layer("tiff.read_slice_ms", "ms", "lower"),
    layer("tiff.read_mb_per_s", "MB/s", "higher"),
    layer("tiff.write_masks_ms", "ms", "lower"),
    layer("adapt.run_ms", "ms", "lower"),
    layer("adapt.mpix_per_s", "Mpix/s", "higher"),
    layer("adapt.stage_ms.destripe", "ms", "lower"),
    layer("adapt.stage_ms.percentile_stretch", "ms", "lower"),
    layer("adapt.stage_ms.median", "ms", "lower"),
    layer("adapt.stage_ms.clahe", "ms", "lower"),
    layer("ground.ground_ms", "ms", "lower"),
    layer("ground.features_ms", "ms", "lower"),
    layer("ground.relevance_full_ms", "ms", "lower"),
    layer("ground.detections_per_slice", "count", "higher"),
    layer("sam.encode_ms", "ms", "lower"),
    layer("sam.decode_ms_per_box", "ms", "lower"),
    layer("sam.decodes_per_slice", "count", "lower"),
    layer("sam.encode_cached_hit_us", "us", "lower"),
    layer("nn.attention_us", "us", "lower"),
    layer("nn.attention_gflops", "Gflop/s", "higher"),
    layer("tensor.matmul_us", "us", "lower"),
    layer("tensor.matmul_gflops", "Gflop/s", "higher"),
    layer("tensor.matmul_speedup_t2", "x", "higher"),
    layer("core.segment_slice_ms", "ms", "lower"),
    layer("core.gate_ms", "ms", "lower"),
    layer("image.to_f32_ms", "ms", "lower"),
    layer("image.dilate_ms", "ms", "lower"),
    layer("core.residual_share", "ratio", "lower"),
    layer("core.run_job_slice_ms", "ms", "lower"),
    layer("core.run_job_volume_ms", "ms", "lower"),
    layer("core.run_job_tiny_ms", "ms", "lower"),
    layer("core.refine_boxes_us", "us", "lower"),
    layer("core.temporal_corrections", "count", "higher"),
    layer("core.checkpoint_append_ms", "ms", "lower"),
    layer("core.checkpoint_bytes_per_slice", "B", "lower"),
    layer("par.join_overhead_us", "us", "lower"),
    layer("par.slice_speedup_t2", "x", "higher"),
    layer("par.volume_speedup_t2", "x", "higher"),
    layer("serve.parse_us", "us", "lower"),
    layer("serve.serialize_slice_us", "us", "lower"),
    layer("serve.serialize_volume_us", "us", "lower"),
    layer("serve.queue_push_pop_us", "us", "lower"),
    layer("serve.dispatch_us", "us", "lower"),
    layer("serve.mux_roundtrip_us", "us", "lower"),
    layer("serve.spawn_ready_ms", "ms", "lower"),
    layer("serve.process_worker_overhead_ms", "ms", "lower"),
    layer("obs.spans_overhead_pct", "%", "lower"),
    layer("obs.full_overhead_pct", "%", "lower"),
    layer("data.generate_slice_ms", "ms", "lower"),
    layer("data.fixture_gen_s", "s", "lower"),
    layer("trace.replica_gap_pct", "%", "lower"),
    layer("trace.e2e_residual_pct", "%", "lower"),
];

/// Per-layer values of one run, every catalogue name present (0 until a
/// probe sets it).
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|l| (l.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not in the per-layer catalogue"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("`{name}` is not in the metric catalogue"))
}

/// One-line reasons for the workloads, as `BENCHMARK.json` records them.
pub const WORKLOAD_WHY: [(&str, &str); 4] = [
    (
        "interactive_open",
        "Mode A click-to-mask on one connection: sessions of 3 prompts per slice share adapt and SAM-encode work; the 20 to 30 req/s step exposes per-connection write stalls and queueing",
    ),
    (
        "batch_stream",
        "Mode B back-to-back 48-slice TIFF stacks: streaming decode, the volume executor, temporal refinement, the CRC journal and mask encode do the work; the mux does almost none",
    ),
    (
        "mixed_tenants",
        "interactive tenant at 10 req/s on distinct slices (no shared work, the cache-bypass case) against a batch tenant: lanes, admission and two workers contending for two cores",
    ),
    (
        "control_plane",
        "16 tiny 16x16 jobs in flight on 2 connections: mux, parse, queue, admission, serialize and run_job's fixed cost are nearly all the time and the kernels almost none",
    ),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"e2e/run.sh\"],\n");
    s.push_str("  \"paths\": [\"e2e\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOAD_WHY.iter().enumerate() {
        let sep = if i + 1 < WORKLOAD_WHY.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, l) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            l.name, l.unit, l.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside e2e/");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `e2e manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_is_json_within_the_contract_limits() {
        let v: serde_json::Value = serde_json::from_str(&manifest_json()).unwrap();
        assert_eq!(v["workloads"].as_array().unwrap().len(), 4);
        for w in v["workloads"].as_array().unwrap() {
            assert!(w["why"].as_str().unwrap().len() <= 200);
            assert!(crate::workloads::Workload::from_name(w["name"].as_str().unwrap()).is_some());
        }
        let mut names: Vec<&str> = Vec::new();
        for list in ["end_to_end", "per_layer"] {
            for m in v[list].as_array().unwrap() {
                let (name, unit) = (m["name"].as_str().unwrap(), m["unit"].as_str().unwrap());
                assert!(name.len() <= 64 && unit.len() <= 16);
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                assert!(unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
                assert!(["higher", "lower"].contains(&m["better"].as_str().unwrap()));
                names.push(name);
            }
        }
        for m in v["end_to_end"].as_array().unwrap() {
            let bound = m["bound"].as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(v["end_to_end"]
            .as_array()
            .unwrap()
            .iter()
            .any(|m| m["name"] == "setup_s"));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "every metric name is used once");
        assert!(manifest_json().len() < 64 * 1024);
    }
}
