//! Crash flight recorder: the newest spans and events, dumped to JSON on
//! job panic, volume abandonment, or fault-site firing.
//!
//! Post-mortems want the *last* moments before a failure, but keeping
//! `ZENESIS_OBS=full` on in production is too expensive. The recorder
//! keeps no records of its own: the span store and the event buffer are
//! already bounded (each keeps its newest [`crate::RECORD_CAP`] records),
//! so recording costs nothing beyond the `spans` level itself.
//!
//! [`dump_json`] reads both stores, merges their newest
//! `FLIGHT_ENTRIES` records by timestamp, and renders a
//! self-describing JSON document (`version` 1); `zenesis-serve` writes
//! it atomically (temp + rename) to `<dir>/flight-<ts>-<trace_id>.json`.
//! Format details in `docs/OBSERVABILITY.md`.

use serde::Serialize;
use serde_json::Value;

use crate::events::{event_json, events_snapshot, EventRecord};
use crate::span::{snapshot, SpanRecord};
use crate::trace::TraceId;

/// Most entries one dump holds: the newest spans and events together.
pub(crate) const FLIGHT_ENTRIES: usize = 4_096;

/// One record a dump reads: a closed span or an emitted event.
enum Entry<'a> {
    Span(&'a SpanRecord),
    Event(&'a EventRecord),
}

/// The dump document (`version` 1).
#[derive(Serialize)]
struct Dump<'a> {
    version: u32,
    reason: &'a str,
    trace_id: Option<String>,
    captured_at_us: u64,
    entries: Vec<DumpEntry<'a>>,
}

/// One entry of a dump, tagged by `kind`.
#[derive(Serialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum DumpEntry<'a> {
    Span {
        ts_us: u64,
        thread: &'a str,
        #[serde(skip_serializing_if = "Option::is_none")]
        trace: Option<String>,
        name: &'a str,
        dur_us: u64,
    },
    Event {
        ts_us: u64,
        thread: &'a str,
        #[serde(skip_serializing_if = "Option::is_none")]
        trace: Option<String>,
        /// The event exactly as the JSONL stream writes it.
        event: Value,
    },
}

impl<'a> Entry<'a> {
    /// When the record happened, in µs since the observability epoch: a
    /// span's end, an event's emission.
    fn ts_us(&self) -> u64 {
        match self {
            Entry::Span(s) => (s.start_ns + s.dur_ns) / 1_000,
            Entry::Event(e) => e.ts_us,
        }
    }

    fn view(&self) -> DumpEntry<'a> {
        match *self {
            Entry::Span(s) => DumpEntry::Span {
                ts_us: self.ts_us(),
                thread: &s.thread,
                trace: s.trace.map(|t| t.to_hex()),
                name: &s.name,
                dur_us: s.dur_ns / 1_000,
            },
            Entry::Event(e) => DumpEntry::Event {
                ts_us: e.ts_us,
                thread: &e.thread,
                trace: e.trace.map(|t| t.to_hex()),
                event: event_json(e),
            },
        }
    }
}

/// Render the newest `FLIGHT_ENTRIES` spans and events, oldest first,
/// as a self-describing JSON document.
///
/// `reason` names the trigger (`"job.panic"`, `"too_many_failures"`,
/// `"fault.injected"`); `trace` is the failing job's id when known.
/// Entries from *all* traces are included (cross-job interference is
/// often the interesting part); each entry carries its own `trace`
/// field for filtering.
pub fn dump_json(reason: &str, trace: Option<TraceId>) -> String {
    let spans = snapshot();
    let events = events_snapshot();
    let mut entries: Vec<Entry> = spans
        .iter()
        .map(Entry::Span)
        .chain(events.iter().map(Entry::Event))
        .collect();
    entries.sort_by_key(Entry::ts_us);
    let newest = &entries[entries.len().saturating_sub(FLIGHT_ENTRIES)..];
    let dump = Dump {
        version: 1,
        reason,
        trace_id: trace.map(|t| t.to_hex()),
        captured_at_us: crate::span::epoch_elapsed_us(),
        entries: newest.iter().map(Entry::view).collect(),
    };
    serde_json::to_string_pretty(&dump).expect("a dump serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_holds_the_newest_spans_and_events_sorted() {
        let _g = crate::lock(&crate::TEST_LOCK);
        let before = crate::level();
        crate::set_level(crate::ObsLevel::Spans);
        let t = TraceId::from_u64(0xabc).unwrap();
        crate::trace::with_trace(Some(t), || {
            // More records than one dump holds, so it must pick the newest.
            for _ in 0..FLIGHT_ENTRIES {
                let _s = crate::span("flight.test.filler");
            }
            drop(crate::span("flight.test.span"));
            crate::events::warn("flight.test.event");
        });
        let doc = dump_json("job.panic", Some(t));
        crate::set_level(before);

        let v: Value = serde_json::from_str(&doc).expect("dump must be valid JSON");
        assert_eq!(v["version"], 1);
        assert_eq!(v["reason"], "job.panic");
        assert_eq!(v["trace_id"], "0000000000000abc");
        let entries = v["entries"].as_array().expect("entries array");
        assert!(!entries.is_empty() && entries.len() <= FLIGHT_ENTRIES);
        let ts: Vec<u64> = entries
            .iter()
            .map(|e| e["ts_us"].as_u64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "entries sorted by ts");
        // Events are embedded structurally, never as double-encoded strings.
        for e in entries.iter().filter(|e| e["kind"] == "event") {
            assert!(matches!(e["event"], Value::Object(_)), "{e:?}");
        }
        let span = entries
            .iter()
            .find(|e| e["kind"] == "span" && e["name"] == "flight.test.span")
            .expect("the just-closed span is in the dump");
        assert_eq!(span["trace"], "0000000000000abc");
        assert!(span["dur_us"].as_u64().is_some());
        let event = entries
            .iter()
            .find(|e| e["kind"] == "event" && e["event"]["message"] == "flight.test.event")
            .expect("the just-emitted event is in the dump");
        assert_eq!(event["trace"], "0000000000000abc");
        assert_eq!(event["event"]["event"], "warn");
    }
}
