//! Exports: human-readable span tree and machine-readable JSON trace.
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

use serde_json::{Map, Number, Value};

use crate::metrics::metrics_snapshot;
use crate::span::{snapshot, SpanId, SpanRecord};

/// One id → index map, built once and shared by both [`children_of`] and
/// [`roots`] so parent resolution is O(n) over the whole snapshot (the
/// previous per-span linear scans were O(n²) and dominated export time on
/// multi-thousand-span traces).
fn index_by_id(spans: &[SpanRecord]) -> HashMap<SpanId, usize> {
    spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect()
}

fn children_of(spans: &[SpanRecord], by_id: &HashMap<SpanId, usize>) -> Vec<Vec<usize>> {
    // Spans are already start-sorted, so children stay start-ordered.
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(&p) = s.parent.as_ref().and_then(|p| by_id.get(p)) {
            kids[p].push(i);
        }
    }
    kids
}

fn roots(spans: &[SpanRecord], by_id: &HashMap<SpanId, usize>) -> Vec<usize> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            match s.parent {
                None => true,
                // A parent that never completed (still-open guard, or
                // cleared registry) promotes the child to a root so it
                // still shows up in the tree.
                Some(p) => !by_id.contains_key(&p),
            }
        })
        .map(|(i, _)| i)
        .collect()
}

fn render_node(
    spans: &[SpanRecord],
    kids: &[Vec<usize>],
    i: usize,
    depth: usize,
    out: &mut String,
) {
    let s = &spans[i];
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", s.name);
    out.push_str(&format!(
        "{label:<48} {:>10.3} ms  [{}]\n",
        s.dur_ns as f64 / 1e6,
        s.thread
    ));
    for &c in &kids[i] {
        render_node(spans, kids, c, depth + 1, out);
    }
}

/// Render every recorded span as an indented tree with durations and
/// thread attribution, roots ordered by start time.
pub fn render_tree() -> String {
    let spans = snapshot();
    if spans.is_empty() {
        return String::from("(no spans recorded — set ZENESIS_OBS=spans)\n");
    }
    let by_id = index_by_id(&spans);
    let kids = children_of(&spans, &by_id);
    let mut out = String::new();
    for r in roots(&spans, &by_id) {
        render_node(&spans, &kids, r, 0, &mut out);
    }
    out
}

/// The full trace (spans + metrics) as a JSON value.
pub fn trace_json() -> Value {
    let mut root = Map::new();
    root.insert("version", Value::Number(Number::U(1)));

    let spans: Vec<Value> = snapshot()
        .iter()
        .map(|s| {
            let mut m = Map::new();
            m.insert("id", Value::Number(Number::U(s.id.0)));
            m.insert(
                "parent",
                match s.parent {
                    Some(p) => Value::Number(Number::U(p.0)),
                    None => Value::Null,
                },
            );
            m.insert("name", Value::String(s.name.to_string()));
            m.insert("thread", Value::String(s.thread.clone()));
            m.insert("start_us", Value::Number(Number::U(s.start_ns / 1_000)));
            m.insert("dur_us", Value::Number(Number::U(s.dur_ns / 1_000)));
            m.insert(
                "trace",
                match s.trace {
                    Some(t) => Value::String(t.to_hex()),
                    None => Value::Null,
                },
            );
            Value::Object(m)
        })
        .collect();
    root.insert("spans", Value::Array(spans));

    let snap = metrics_snapshot();
    let mut counters = Map::new();
    for (k, v) in &snap.counters {
        counters.insert(k.clone(), Value::Number(Number::U(*v)));
    }
    root.insert("counters", Value::Object(counters));

    let mut gauges = Map::new();
    for (k, v) in &snap.gauges {
        gauges.insert(k.clone(), Value::Number(Number::I(*v)));
    }
    root.insert("gauges", Value::Object(gauges));

    let mut hists = Map::new();
    for (k, st) in &snap.histograms {
        let mut h = Map::new();
        h.insert("count", Value::Number(Number::U(st.count)));
        h.insert("mean", Value::Number(Number::F(st.mean)));
        h.insert("p50", Value::Number(Number::F(st.p50)));
        h.insert("p90", Value::Number(Number::F(st.p90)));
        h.insert("p99", Value::Number(Number::F(st.p99)));
        h.insert("max", Value::Number(Number::U(st.max)));
        hists.insert(k.clone(), Value::Object(h));
    }
    root.insert("histograms", Value::Object(hists));

    Value::Object(root)
}

/// The full trace serialized to a JSON string.
pub fn trace_json_string(pretty: bool) -> String {
    let v = trace_json();
    if pretty {
        serde_json::to_string_pretty(&v).expect("trace serializes")
    } else {
        serde_json::to_string(&v).expect("trace serializes")
    }
}

/// The recorded spans in Chrome `trace_event` format — a JSON array that
/// loads directly in Perfetto or `chrome://tracing`.
///
/// Each thread gets its own integer `tid` lane (assigned in order of
/// first appearance, with a `thread_name` metadata record carrying the
/// real name), every span becomes a complete (`"ph": "X"`) event with
/// microsecond `ts`/`dur`, and events are ordered by `ts` (metadata
/// records lead with `ts` 0). Span ids and parents ride along in `args`.
pub fn chrome_trace_json() -> Value {
    let spans = snapshot();
    let mut tids: HashMap<String, u64> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for s in &spans {
        let next = tids.len() as u64;
        tids.entry(s.thread.clone()).or_insert_with(|| {
            order.push(s.thread.clone());
            next
        });
    }
    let mut events: Vec<Value> = Vec::with_capacity(spans.len() + order.len());
    for name in &order {
        let mut m = Map::new();
        m.insert("name", Value::String("thread_name".into()));
        m.insert("ph", Value::String("M".into()));
        m.insert("ts", Value::Number(Number::U(0)));
        m.insert("pid", Value::Number(Number::U(1)));
        m.insert("tid", Value::Number(Number::U(tids[name])));
        let mut args = Map::new();
        args.insert("name", Value::String(name.clone()));
        m.insert("args", Value::Object(args));
        events.push(Value::Object(m));
    }
    // `snapshot()` is start-sorted, so complete events come out ts-sorted.
    for s in &spans {
        let mut m = Map::new();
        m.insert("name", Value::String(s.name.to_string()));
        m.insert("cat", Value::String("zenesis".into()));
        m.insert("ph", Value::String("X".into()));
        m.insert("ts", Value::Number(Number::U(s.start_ns / 1_000)));
        m.insert("dur", Value::Number(Number::U(s.dur_ns / 1_000)));
        m.insert("pid", Value::Number(Number::U(1)));
        m.insert("tid", Value::Number(Number::U(tids[&s.thread])));
        let mut args = Map::new();
        args.insert("id", Value::Number(Number::U(s.id.0)));
        args.insert(
            "parent",
            match s.parent {
                Some(p) => Value::Number(Number::U(p.0)),
                None => Value::Null,
            },
        );
        if let Some(t) = s.trace {
            args.insert("trace", Value::String(t.to_hex()));
        }
        m.insert("args", Value::Object(args));
        events.push(Value::Object(m));
    }
    Value::Array(events)
}

/// The Chrome trace serialized to a JSON string.
pub fn chrome_trace_string(pretty: bool) -> String {
    let v = chrome_trace_json();
    if pretty {
        serde_json::to_string_pretty(&v).expect("trace serializes")
    } else {
        serde_json::to_string(&v).expect("trace serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_valid_json() {
        let v = trace_json();
        assert_eq!(v["version"], 1u64);
        assert!(v["spans"].is_array());
        assert!(v["counters"].is_object());
        let text = trace_json_string(true);
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["version"], 1u64);
    }
}
