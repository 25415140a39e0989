//! Export-layer contract: parent resolution scales to thousands of
//! spans, and the Chrome `trace_event` output has the schema Perfetto
//! expects. Each test file is its own process, but tests inside this
//! file share the global registries, so they serialize through a mutex.

use std::collections::HashSet;
use std::sync::Mutex;

use zenesis_obs::{set_level, ObsLevel};

static LOCK: Mutex<()> = Mutex::new(());

/// Chrome trace export: valid `trace_event` JSON array, complete events
/// carrying pid/tid/ph/ts/dur, ts-sorted, with one tid lane per thread.
#[test]
fn chrome_trace_has_perfetto_schema() {
    let _g = LOCK.lock().unwrap();
    set_level(ObsLevel::Spans);
    zenesis_obs::reset();

    {
        let root = zenesis_obs::span("chrome.root");
        let parent = root.id();
        std::thread::scope(|s| {
            for i in 0..3 {
                s.spawn(move || {
                    zenesis_obs::with_parent(parent, || {
                        let _w = zenesis_obs::span(format!("chrome.worker{i}"));
                        std::hint::black_box(0u64);
                    });
                });
            }
        });
        let _tail = zenesis_obs::span("chrome.tail");
    }

    let text = zenesis_obs::export::chrome_trace_string(false);
    let v: serde_json::Value = serde_json::from_str(&text).expect("chrome trace parses");
    let events = v.as_array().expect("trace_event output is a JSON array");
    assert!(!events.is_empty());

    let mut prev_ts = 0u64;
    let mut tids: HashSet<u64> = HashSet::new();
    let mut metadata_names: Vec<String> = Vec::new();
    let mut complete = 0usize;
    for e in events {
        let ph = e["ph"].as_str().expect("ph field");
        assert_eq!(e["pid"], 1u64, "single-process trace");
        let ts = e["ts"].as_u64().expect("ts field");
        assert!(ts >= prev_ts, "events must be ts-sorted");
        prev_ts = ts;
        let tid = e["tid"].as_u64().expect("tid field");
        match ph {
            "M" => {
                assert_eq!(e["name"], "thread_name");
                metadata_names.push(e["args"]["name"].as_str().unwrap().to_string());
            }
            "X" => {
                complete += 1;
                assert!(e["dur"].as_u64().is_some(), "complete events carry dur");
                assert!(e["name"].as_str().is_some());
                tids.insert(tid);
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // Root + tail on the main thread, one span per scoped worker.
    assert_eq!(complete, 5);
    assert!(
        tids.len() >= 2,
        "worker spans must land on distinct tid lanes (got {tids:?})"
    );
    // Every tid used by a span has a thread_name metadata record.
    assert_eq!(
        metadata_names.len(),
        metadata_names.iter().collect::<HashSet<_>>().len()
    );
    assert!(metadata_names.len() >= tids.len());

    zenesis_obs::reset();
    set_level(ObsLevel::Off);
}
