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

/// `v` with every number replaced by its type (`u` unsigned, `i`
/// signed, `f` float), so timestamps, durations and process-global ids
/// drop out while key order, value types and every string stay.
fn shape(v: &serde_json::Value) -> String {
    use serde_json::{Number, Value};
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Number(Number::U(_)) => "u".into(),
        Value::Number(Number::I(_)) => "i".into(),
        Value::Number(Number::F(_)) => "f".into(),
        Value::String(s) => format!("{s:?}"),
        Value::Array(items) => {
            let items: Vec<String> = items.iter().map(shape).collect();
            format!("[{}]", items.join(","))
        }
        Value::Object(m) => {
            let fields: Vec<String> = m.iter().map(|(k, v)| format!("{k}:{}", shape(v))).collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

/// The JSON trace, the Chrome trace and a flight dump keep their key
/// order and value types: one traced span with a traced child, one
/// untraced span on a second thread, a counter, a gauge, a histogram and a
/// traced event. Steps are a few milliseconds apart so the ordering by
/// timestamp is fixed. A change here is a format change, never a re-pin.
#[test]
fn trace_exports_keep_their_shape() {
    let _g = LOCK.lock().unwrap();
    set_level(ObsLevel::Spans);
    zenesis_obs::reset();
    let trace = zenesis_obs::TraceId::from_u64(0xabc);
    // Named threads, so the recorded thread names do not depend on how
    // the test harness names its own.
    let on_thread = |name: &str, work: Box<dyn FnOnce() + Send>| {
        std::thread::Builder::new()
            .name(name.into())
            .spawn(work)
            .unwrap()
            .join()
            .unwrap()
    };
    let pause = || std::thread::sleep(std::time::Duration::from_millis(3));
    on_thread(
        "shape-main",
        Box::new(move || {
            zenesis_obs::with_trace(trace, || {
                let _outer = zenesis_obs::span("shape.outer");
                pause();
                drop(zenesis_obs::span("shape.inner"));
                pause();
            });
        }),
    );
    pause();
    on_thread(
        "shape-worker",
        Box::new(|| drop(zenesis_obs::span("shape.worker"))),
    );
    pause();
    zenesis_obs::counter("shape.count").add(3);
    zenesis_obs::gauge("shape.depth").set(-2);
    zenesis_obs::histogram("shape.lat").record(40);
    on_thread(
        "shape-main",
        Box::new(move || {
            zenesis_obs::with_trace(trace, || zenesis_obs::events::warn("shape \"event\""));
        }),
    );

    let parse = |text: &str| shape(&serde_json::from_str(text).expect("export parses"));
    let json = parse(&zenesis_obs::export::trace_json_string(false));
    let chrome = parse(&zenesis_obs::export::chrome_trace_string(false));
    let flight = parse(&zenesis_obs::flight::dump_json("job.panic", trace));
    zenesis_obs::reset();
    set_level(ObsLevel::Off);

    assert_eq!(json, PINNED_TRACE_SHAPE);
    assert_eq!(chrome, PINNED_CHROME_SHAPE);
    assert_eq!(flight, PINNED_FLIGHT_SHAPE);
}

const PINNED_TRACE_SHAPE: &str = r#"{version:u,spans:[{id:u,parent:null,name:"shape.outer",thread:"shape-main",start_us:u,dur_us:u,trace:"0000000000000abc"},{id:u,parent:u,name:"shape.inner",thread:"shape-main",start_us:u,dur_us:u,trace:"0000000000000abc"},{id:u,parent:null,name:"shape.worker",thread:"shape-worker",start_us:u,dur_us:u,trace:null}],counters:{shape.count:u},gauges:{shape.depth:i},histograms:{shape.lat:{count:u,mean:f,p50:f,p90:f,p99:f,max:u}}}"#;
const PINNED_CHROME_SHAPE: &str = r#"[{name:"thread_name",ph:"M",ts:u,pid:u,tid:u,args:{name:"shape-main"}},{name:"thread_name",ph:"M",ts:u,pid:u,tid:u,args:{name:"shape-worker"}},{name:"shape.outer",cat:"zenesis",ph:"X",ts:u,dur:u,pid:u,tid:u,args:{id:u,parent:null,trace:"0000000000000abc"}},{name:"shape.inner",cat:"zenesis",ph:"X",ts:u,dur:u,pid:u,tid:u,args:{id:u,parent:u,trace:"0000000000000abc"}},{name:"shape.worker",cat:"zenesis",ph:"X",ts:u,dur:u,pid:u,tid:u,args:{id:u,parent:null}}]"#;
const PINNED_FLIGHT_SHAPE: &str = r#"{version:u,reason:"job.panic",trace_id:"0000000000000abc",captured_at_us:u,entries:[{kind:"span",ts_us:u,thread:"shape-main",trace:"0000000000000abc",name:"shape.inner",dur_us:u},{kind:"span",ts_us:u,thread:"shape-main",trace:"0000000000000abc",name:"shape.outer",dur_us:u},{kind:"span",ts_us:u,thread:"shape-worker",name:"shape.worker",dur_us:u},{kind:"event",ts_us:u,thread:"shape-main",trace:"0000000000000abc",event:{seq:u,ts_us:u,thread:"shape-main",trace:"0000000000000abc",event:"warn",message:"shape \"event\""}}]}"#;
