//! The event taxonomy in `docs/OBSERVABILITY.md` is complete: its table
//! names every [`Event`] kind with exactly the payload fields
//! [`event_json`] writes, and names nothing else.

use std::collections::{BTreeMap, BTreeSet};

use zenesis_obs::events::{event_json, Event, EventRecord};

/// The value listed after `event`, or `None` after the last one. The
/// `match` has no wildcard arm: a new variant does not compile until it
/// is given an arm here, and it is listed once some arm builds it.
fn next(event: &Event) -> Option<Event> {
    let id = 1;
    Some(match event {
        Event::JobStart { .. } => Event::JobEnd {
            mode: "batch".into(),
            ok: true,
            dur_ms: 1.0,
        },
        Event::JobEnd { .. } => Event::JobQueued { id, depth: 1 },
        Event::JobQueued { .. } => Event::JobRejected { id, capacity: 8 },
        Event::JobRejected { .. } => Event::TenantRejected {
            id,
            tenant: "lab".into(),
            limit: 4,
        },
        Event::TenantRejected { .. } => Event::JobClosed { id },
        Event::JobClosed { .. } => Event::JobTimeout { id, dur_ms: 5.0 },
        Event::JobTimeout { .. } => Event::JobPanic {
            id,
            message: "boom".into(),
        },
        Event::JobPanic { .. } => Event::JobRetry {
            id,
            attempt: 1,
            delay_ms: 25,
        },
        Event::JobRetry { .. } => Event::SliceDone {
            index: 0,
            done: 1,
            total: 4,
            lat_ms: 2.0,
            mask_pixels: 10,
            rate: 0.5,
            eta_s: None,
        },
        Event::SliceDone { .. } => Event::TemporalReplace {
            slice: 2,
            had_detection: true,
        },
        Event::TemporalReplace { .. } => Event::RectifyPick {
            x: 3,
            y: 4,
            candidates: 2,
            picked_pixels: 9,
        },
        Event::RectifyPick { .. } => Event::CacheHit {
            cache: "sam.embed".into(),
        },
        Event::CacheHit { .. } => Event::CacheMiss {
            cache: "sam.embed".into(),
        },
        Event::CacheMiss { .. } => Event::FaultInjected {
            site: "sam.decode".into(),
            kind: "panic".into(),
            unit: 3,
        },
        Event::FaultInjected { .. } => Event::SliceQuarantined {
            slice: 3,
            reason: "decode".into(),
        },
        Event::SliceQuarantined { .. } => Event::SliceDegraded {
            slice: 3,
            reason: "decode".into(),
        },
        Event::SliceDegraded { .. } => Event::SliceFailed {
            slice: 3,
            reason: "decode".into(),
        },
        Event::SliceFailed { .. } => Event::CheckpointWrite {
            slice: 3,
            record: "slice".into(),
        },
        Event::CheckpointWrite { .. } => Event::CheckpointReplay {
            slices: 2,
            masks: 1,
        },
        Event::CheckpointReplay { .. } => Event::CheckpointCorruptTail {
            kept: 4,
            offset: 128,
            reason: "torn".into(),
        },
        Event::CheckpointCorruptTail { .. } => Event::WardenSpawn {
            id,
            pid: 2,
            attempt: 1,
        },
        Event::WardenSpawn { .. } => Event::WardenCrash {
            id,
            pid: 2,
            reason: "stall".into(),
        },
        Event::WardenCrash { .. } => Event::WardenRestart {
            id,
            attempt: 2,
            delay_ms: 50,
        },
        Event::WardenRestart { .. } => Event::WardenResume {
            id,
            journal_bytes: 512,
        },
        Event::WardenResume { .. } => Event::WardenPoison {
            id,
            fingerprint: "abc".into(),
            crashes: 3,
        },
        Event::WardenPoison { .. } => Event::Warn {
            message: "careful".into(),
        },
        Event::Warn { .. } => Event::Info {
            message: "note".into(),
        },
        Event::Info { .. } => return None,
    })
}

/// One value of every variant, in declaration order.
fn every_event() -> Vec<Event> {
    let mut events = vec![Event::JobStart {
        mode: "batch".into(),
    }];
    while let Some(event) = events.last().and_then(next) {
        events.push(event);
    }
    events
}

/// Payload field names `event_json` writes for one event: every key but
/// the stream metadata.
fn payload_fields(event: Event) -> BTreeSet<String> {
    let record = EventRecord {
        seq: 1,
        ts_us: 0,
        thread: "main".into(),
        trace: None,
        event,
    };
    let json = event_json(&record);
    json.as_object()
        .expect("events render as objects")
        .keys()
        .filter(|k| !matches!(k.as_str(), "seq" | "ts_us" | "thread" | "trace" | "event"))
        .cloned()
        .collect()
}

/// The backticked names in `cell`, outside parentheses (where the table
/// annotates fields with their values).
fn named(cell: &str) -> BTreeSet<String> {
    let mut depth = 0usize;
    let mut bare = String::new();
    for c in cell.chars() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if depth == 0 => bare.push(c),
            _ => {}
        }
    }
    bare.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The taxonomy table: kind → the payload fields its row names.
fn documented() -> BTreeMap<String, BTreeSet<String>> {
    let doc = include_str!("../../../docs/OBSERVABILITY.md");
    let start = doc
        .find("The taxonomy (kind → payload → emitted by):")
        .expect("taxonomy heading");
    let mut table = BTreeMap::new();
    for line in doc[start..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
    {
        // Escaped pipes (`\|`) separate values, not cells.
        let unescaped = line.replace("\\|", "/");
        let cells: Vec<&str> = unescaped.split('|').map(str::trim).collect();
        let (kinds, payload) = (cells[1], cells[2]);
        for kind in named(kinds) {
            let prior = table.insert(kind.clone(), named(payload));
            assert!(prior.is_none(), "{kind} has two rows");
        }
    }
    table
}

#[test]
fn every_event_kind_is_listed_once() {
    let events = every_event();
    let kinds: BTreeSet<&str> = events.iter().map(Event::kind).collect();
    assert_eq!(kinds.len(), events.len(), "each variant listed once");
}

#[test]
fn taxonomy_table_names_every_kind_with_its_payload_and_nothing_else() {
    let code: BTreeMap<String, BTreeSet<String>> = every_event()
        .into_iter()
        .map(|event| (event.kind().to_string(), payload_fields(event)))
        .collect();
    let doc = documented();
    let missing: Vec<&String> = code.keys().filter(|k| !doc.contains_key(*k)).collect();
    assert!(missing.is_empty(), "kinds missing from the table: {missing:?}");
    let unknown: Vec<&String> = doc.keys().filter(|k| !code.contains_key(*k)).collect();
    assert!(unknown.is_empty(), "the table names unknown kinds: {unknown:?}");
    for (kind, fields) in &code {
        assert_eq!(&doc[kind], fields, "payload of {kind}");
    }
}
