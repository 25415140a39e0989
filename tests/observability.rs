//! End-to-end observability contract: `segment_slice` emits the
//! documented span tree, batch runs emit the documented event stream,
//! and turning recording off changes nothing about the segmentation
//! outputs.
//!
//! Every test flips the process-global recording level, so they are
//! serialized through a mutex.

use std::collections::HashMap;
use std::sync::Mutex;

use zenesis::core::job::{run_job, InputSpec, JobResult, JobSpec, PhantomKind};
use zenesis::core::{SliceResult, Zenesis, ZenesisConfig};
use zenesis::data::{generate_slice, generate_volume, PhantomConfig, SampleKind};
use zenesis::obs::{ObsLevel, SpanId, SpanRecord};

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn run_pipeline() -> SliceResult {
    let slice = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 7).with_size(96, 96));
    let z = Zenesis::new(ZenesisConfig::default());
    z.segment_slice(&slice.raw, "catalyst particles")
}

/// Depth of `s` in the recorded forest (roots have depth 1).
fn depth(s: &SpanRecord, by_id: &HashMap<SpanId, SpanRecord>) -> usize {
    let mut d = 1;
    let mut cur = s.parent;
    while let Some(p) = cur {
        let Some(rec) = by_id.get(&p) else { break };
        d += 1;
        cur = rec.parent;
    }
    d
}

#[test]
fn segment_slice_emits_documented_span_tree() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    zenesis::obs::set_level(ObsLevel::Spans);
    zenesis::obs::reset();
    let result = run_pipeline();
    assert!(result.combined.count() > 0, "pipeline found something");

    let spans = zenesis::obs::snapshot();
    let by_id: HashMap<SpanId, SpanRecord> = spans.iter().map(|s| (s.id, s.clone())).collect();
    let find = |name: &str| -> SpanRecord {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} missing"))
            .clone()
    };

    // The documented tree: every pipeline phase plus model sub-spans.
    let root = find("pipeline.segment_slice");
    let adapt = find("pipeline.adapt");
    let ground = find("pipeline.ground");
    let prepare = find("pipeline.prepare");
    let segment = find("pipeline.segment");
    let dino = find("ground.dino");
    assert_eq!(adapt.parent, Some(root.id));
    assert_eq!(ground.parent, Some(root.id));
    assert_eq!(segment.parent, Some(root.id));
    // The ground phase covers the slice's preparation (grounding's image
    // side and, on the other join branch, the SAM encode) and then the
    // prompt side; mask decoding sits under the segment phase.
    assert_eq!(prepare.parent, Some(ground.id));
    assert_eq!(dino.parent, Some(ground.id));
    for leaf in ["ground.encode", "sam.encode"] {
        assert_eq!(find(leaf).parent, Some(prepare.id), "{leaf}");
    }
    for leaf in ["ground.tokenize", "ground.attention", "ground.nms"] {
        assert_eq!(find(leaf).parent, Some(dino.id), "{leaf}");
    }
    assert!(spans
        .iter()
        .filter(|s| s.name == "sam.decode")
        .all(|s| s.parent == Some(segment.id)));
    // Adaptation stages nest under the adapt phase.
    assert!(
        spans
            .iter()
            .any(|s| s.name.starts_with("adapt.") && s.parent == Some(adapt.id)),
        "at least one adapt stage span"
    );

    // ≥ 3 nesting levels (acceptance criterion); this tree has 4.
    let max_depth = spans.iter().map(|s| depth(s, &by_id)).max().unwrap_or(0);
    assert!(max_depth >= 3, "got depth {max_depth}");

    // Stage latencies feed the dashboard table.
    let rows = zenesis::obs::latency_rows();
    for stage in [
        "pipeline.adapt",
        "pipeline.ground",
        "pipeline.segment",
        "pipeline.total",
    ] {
        assert!(
            rows.iter().any(|r| r.stage == stage && r.count >= 1),
            "{stage} row"
        );
    }
    let table = zenesis::metrics::dashboard::render_latency_table(&rows);
    assert!(table.contains("pipeline.ground"));

    // And the JSON export parses back with the same span count.
    let json = zenesis::obs::export::trace_json_string(false);
    let v: serde_json::Value = serde_json::from_str(&json).expect("trace parses");
    assert_eq!(
        v["spans"].as_array().expect("spans array").len(),
        spans.len()
    );
}

#[test]
fn off_level_is_invisible_to_pipeline_outputs() {
    let _guard = LEVEL_LOCK.lock().unwrap();

    zenesis::obs::set_level(ObsLevel::Spans);
    zenesis::obs::reset();
    let with_obs = run_pipeline();

    zenesis::obs::set_level(ObsLevel::Off);
    zenesis::obs::reset();
    let without_obs = run_pipeline();
    assert!(
        zenesis::obs::snapshot().is_empty(),
        "off level must record no spans"
    );
    zenesis::obs::set_level(ObsLevel::Spans);

    // Identical segmentation outputs — observability may not perturb the
    // pipeline. (Trace timings are wall-clock and naturally differ.)
    assert_eq!(with_obs.combined, without_obs.combined);
    assert_eq!(with_obs.detections, without_obs.detections);
    assert_eq!(with_obs.masks, without_obs.masks);
    assert_eq!(with_obs.relevance, without_obs.relevance);
    assert_eq!(*with_obs.adapted, *without_obs.adapted);
}

/// A Mode B batch job emits the documented event stream: `job.start` /
/// `job.end` bracketing, one `slice.done` per slice with saturating
/// progress and ETA, and a `temporal.replace` for the seeded outlier.
#[test]
fn batch_job_emits_documented_event_stream() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    zenesis::obs::set_level(ObsLevel::Spans);
    zenesis::obs::reset();

    const DEPTH: usize = 6;
    let spec = JobSpec::Batch {
        input: InputSpec::PhantomVolume {
            kind: PhantomKind::Crystalline,
            seed: 5,
            depth: DEPTH,
            side: 64,
            outlier_slices: vec![3],
        },
        prompt: "needle-like crystalline catalyst".into(),
        config: None,
        checkpoint_dir: None,
        resume: true,
        masks_out: None,
    };
    let result = run_job(&spec);
    assert!(matches!(result, JobResult::Volume { .. }));

    let events = zenesis::obs::events::events_snapshot();
    let kinds: Vec<String> = events
        .iter()
        .map(|r| {
            zenesis::obs::events::event_json(r)["event"]
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    let kinds: Vec<&str> = kinds.iter().map(String::as_str).collect();
    assert_eq!(kinds.first(), Some(&"job.start"), "stream starts the job");
    assert_eq!(kinds.last(), Some(&"job.end"), "stream ends the job");
    assert_eq!(kinds.iter().filter(|k| **k == "slice.done").count(), DEPTH);
    assert!(
        kinds.contains(&"temporal.replace"),
        "seeded outlier slice must be reported: {kinds:?}"
    );

    // slice.done payloads: every index once, monotone-usable progress,
    // non-negative rate/ETA.
    let mut indices = Vec::new();
    for r in &events {
        if let zenesis::obs::events::Event::SliceDone {
            index,
            done,
            total,
            lat_ms,
            rate,
            eta_s,
            ..
        } = &r.event
        {
            indices.push(*index);
            assert_eq!(*total, DEPTH);
            assert!(*done >= 1 && *done <= DEPTH);
            assert!(*lat_ms >= 0.0);
            assert!(*rate >= 0.0);
            if let Some(eta) = eta_s {
                assert!(*eta >= 0.0, "eta must not go negative");
            }
        }
    }
    indices.sort_unstable();
    assert_eq!(indices, (0..DEPTH).collect::<Vec<_>>());

    // job.end carries success and a real duration.
    let Some(zenesis::obs::events::Event::JobEnd { mode, ok, dur_ms }) =
        events.last().map(|r| r.event.clone())
    else {
        panic!("last event must be job.end");
    };
    assert_eq!(mode, "batch");
    assert!(ok);
    assert!(dur_ms > 0.0);

    // The JSONL serialization parses line-by-line and keeps the order.
    let jsonl = zenesis::obs::events::events_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), events.len());
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("JSONL line parses");
        assert!(v["seq"].as_u64().is_some());
        assert!(v["event"].as_str().is_some());
    }

    zenesis::obs::reset();
    zenesis::obs::set_level(ObsLevel::Off);
}

/// `ZENESIS_OBS=off` yields byte-identical batch segmentation output and
/// records no events, spans, or metrics — the zero-overhead contract the
/// run ledger and event stream are built on.
#[test]
fn off_level_batch_is_byte_identical_and_eventless() {
    let _guard = LEVEL_LOCK.lock().unwrap();

    let run = || {
        let v = generate_volume(SampleKind::Amorphous, 64, 4, 9, &[2]);
        let z = Zenesis::new(ZenesisConfig::default());
        z.segment_volume(&v.volume, "catalyst particles")
    };

    zenesis::obs::set_level(ObsLevel::Full);
    zenesis::obs::reset();
    let with_obs = run();
    assert!(
        !zenesis::obs::events::events_snapshot().is_empty(),
        "full level records slice.done events"
    );

    zenesis::obs::set_level(ObsLevel::Off);
    zenesis::obs::reset();
    let without_obs = run();
    assert!(zenesis::obs::events::events_snapshot().is_empty());
    assert!(zenesis::obs::snapshot().is_empty());
    assert_eq!(zenesis::obs::events::dropped_events(), 0);

    assert_eq!(with_obs.masks, without_obs.masks, "byte-identical masks");
    assert_eq!(
        with_obs.events.len(),
        without_obs.events.len(),
        "same temporal decisions"
    );
    for (a, b) in with_obs.events.iter().zip(&without_obs.events) {
        assert_eq!(a.corrected, b.corrected);
        assert_eq!(a.used_box, b.used_box);
    }
    zenesis::obs::set_level(ObsLevel::Spans);
}
