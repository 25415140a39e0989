//! Exports: the machine-readable JSON trace and its Chrome form.
//!
//! The JSON schema (version 1) is documented in `docs/OBSERVABILITY.md`:
//!
//! ```json
//! {
//!   "version": 1,
//!   "spans": [
//!     {"id": 3, "parent": 2, "name": "ground.attention",
//!      "thread": "main", "start_us": 1042, "dur_us": 311}
//!   ],
//!   "counters": {"sam.embed_cache.hit": 4},
//!   "gauges": {"serve.queue_depth": 0},
//!   "histograms": {
//!     "pipeline.adapt.lat": {"count": 20, "mean": 4210.0, "p50": 4100.0,
//!                            "p90": 5300.0, "p99": 6100.0, "max": 6233}
//!   }
//! }
//! ```

use std::collections::HashMap;

use serde::Serialize;
use serde_json::Value;

use crate::metrics::metrics_snapshot;
use crate::span::snapshot;

/// The JSON trace document (schema version 1).
#[derive(Serialize)]
struct TraceDoc<'a> {
    version: u32,
    spans: Vec<SpanRow<'a>>,
    /// Name → value objects, names sorted.
    counters: Value,
    gauges: Value,
    histograms: Value,
}

/// One closed span of the JSON trace.
#[derive(Serialize)]
struct SpanRow<'a> {
    id: u64,
    parent: Option<u64>,
    name: &'a str,
    thread: &'a str,
    start_us: u64,
    dur_us: u64,
    trace: Option<String>,
}

/// `pairs` as one JSON object, in their order.
fn object<T: Serialize>(pairs: &[(String, T)]) -> Value {
    let entry = |(k, v): &(String, T)| (k.clone(), serde_json::to_value(v).expect("serializes"));
    Value::Object(pairs.iter().map(entry).collect())
}

fn render<T: Serialize>(doc: &T, pretty: bool) -> String {
    if pretty {
        serde_json::to_string_pretty(doc).expect("trace serializes")
    } else {
        serde_json::to_string(doc).expect("trace serializes")
    }
}

/// The full trace (spans + metrics) serialized to a JSON string.
pub fn trace_json_string(pretty: bool) -> String {
    let spans = snapshot();
    let snap = metrics_snapshot();
    let doc = TraceDoc {
        version: 1,
        spans: spans
            .iter()
            .map(|s| SpanRow {
                id: s.id.0,
                parent: s.parent.map(|p| p.0),
                name: &s.name,
                thread: &s.thread,
                start_us: s.start_ns / 1_000,
                dur_us: s.dur_ns / 1_000,
                trace: s.trace.map(|t| t.to_hex()),
            })
            .collect(),
        counters: object(&snap.counters),
        gauges: object(&snap.gauges),
        histograms: object(&snap.histograms),
    };
    render(&doc, pretty)
}

/// One Chrome `trace_event` record. A `thread_name` metadata record
/// (`"ph": "M"`) has no `cat` or `dur` and carries the thread's real name
/// in `args`; a complete span (`"ph": "X"`) carries both, with its id,
/// parent and trace in `args`.
#[derive(Serialize)]
struct ChromeEvent<'a> {
    name: &'a str,
    #[serde(skip_serializing_if = "Option::is_none")]
    cat: Option<&'static str>,
    ph: &'static str,
    ts: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    dur: Option<u64>,
    pid: u64,
    tid: u64,
    args: ChromeArgs<'a>,
}

#[derive(Serialize)]
struct ChromeArgs<'a> {
    #[serde(skip_serializing_if = "Option::is_none")]
    name: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    id: Option<u64>,
    /// Outer `None`: no `parent` key (metadata); inner `None`: a root.
    #[serde(skip_serializing_if = "Option::is_none")]
    parent: Option<Option<u64>>,
    #[serde(skip_serializing_if = "Option::is_none")]
    trace: Option<String>,
}

/// The recorded spans in Chrome `trace_event` format — a JSON array that
/// loads directly in Perfetto or `chrome://tracing` — serialized to a
/// JSON string.
///
/// Each thread gets its own integer `tid` lane (assigned in order of
/// first appearance, with a `thread_name` metadata record carrying the
/// real name), every span becomes a complete (`"ph": "X"`) event with
/// microsecond `ts`/`dur`, and events are ordered by `ts` (metadata
/// records lead with `ts` 0). Span ids and parents ride along in `args`.
pub fn chrome_trace_string(pretty: bool) -> String {
    let spans = snapshot();
    let mut tids: HashMap<&str, u64> = HashMap::new();
    let mut events: Vec<ChromeEvent> = Vec::new();
    for s in &spans {
        let next = tids.len() as u64;
        tids.entry(&s.thread).or_insert_with(|| {
            events.push(ChromeEvent {
                name: "thread_name",
                cat: None,
                ph: "M",
                ts: 0,
                dur: None,
                pid: 1,
                tid: next,
                args: ChromeArgs {
                    name: Some(&s.thread),
                    id: None,
                    parent: None,
                    trace: None,
                },
            });
            next
        });
    }
    // `snapshot()` is start-sorted, so complete events come out ts-sorted.
    events.extend(spans.iter().map(|s| ChromeEvent {
        name: &s.name,
        cat: Some("zenesis"),
        ph: "X",
        ts: s.start_ns / 1_000,
        dur: Some(s.dur_ns / 1_000),
        pid: 1,
        tid: tids[s.thread.as_str()],
        args: ChromeArgs {
            name: None,
            id: Some(s.id.0),
            parent: Some(s.parent.map(|p| p.0)),
            trace: s.trace.map(|t| t.to_hex()),
        },
    }));
    render(&events, pretty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_valid_json() {
        for pretty in [false, true] {
            let v: Value = serde_json::from_str(&trace_json_string(pretty)).unwrap();
            assert_eq!(v["version"], 1u64);
            assert!(v["spans"].is_array());
            assert!(v["counters"].is_object());
        }
    }
}
