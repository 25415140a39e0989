//! The event taxonomy in `docs/OBSERVABILITY.md` is complete: its table
//! names every [`Event`] kind with exactly the payload fields
//! [`event_json`] writes, and names nothing else. The kind tags live only
//! in the variants' `#[serde(rename)]` attributes, so both are read back
//! from the serialized form.

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

/// The kind tag `event_json` writes for one event, and its payload
/// field names: every key but the stream metadata.
fn kind_and_payload(event: Event) -> (String, BTreeSet<String>) {
    let record = EventRecord {
        seq: 1,
        ts_us: 0,
        thread: "main".into(),
        trace: None,
        event,
    };
    let json = event_json(&record);
    let kind = json["event"].as_str().expect("every event has a kind tag");
    let fields = json
        .as_object()
        .expect("events render as objects")
        .keys()
        .filter(|k| !matches!(k.as_str(), "seq" | "ts_us" | "thread" | "trace" | "event"))
        .cloned()
        .collect();
    (kind.to_string(), fields)
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
    let kinds: BTreeSet<String> = events
        .iter()
        .map(|event| kind_and_payload(event.clone()).0)
        .collect();
    assert_eq!(kinds.len(), events.len(), "each variant listed once");
}

#[test]
fn taxonomy_table_names_every_kind_with_its_payload_and_nothing_else() {
    let code: BTreeMap<String, BTreeSet<String>> =
        every_event().into_iter().map(kind_and_payload).collect();
    let doc = documented();
    let missing: Vec<&String> = code.keys().filter(|k| !doc.contains_key(*k)).collect();
    assert!(
        missing.is_empty(),
        "kinds missing from the table: {missing:?}"
    );
    let unknown: Vec<&String> = doc.keys().filter(|k| !code.contains_key(*k)).collect();
    assert!(
        unknown.is_empty(),
        "the table names unknown kinds: {unknown:?}"
    );
    for (kind, fields) in &code {
        assert_eq!(&doc[kind], fields, "payload of {kind}");
    }
}

/// Every event kind, rendered without and then with a trace context,
/// one compact JSON object per line. The bytes are the wire contract of
/// `--events-out`: a change here is a format change, never a re-pin.
#[test]
fn event_records_serialize_to_pinned_bytes() {
    let trace = zenesis_obs::TraceId::from_u64(0xfeed);
    let mut lines = String::new();
    for trace in [None, trace] {
        for (seq, event) in every_event().into_iter().enumerate() {
            let record = EventRecord {
                seq: seq as u64 + 1,
                ts_us: 1_000 + seq as u64,
                thread: "main".into(),
                trace,
                event,
            };
            lines.push_str(&event_json(&record).to_string());
            lines.push('\n');
        }
    }
    assert_eq!(lines, PINNED_EVENT_LINES);
}

const PINNED_EVENT_LINES: &str = r#"{"seq":1,"ts_us":1000,"thread":"main","event":"job.start","mode":"batch"}
{"seq":2,"ts_us":1001,"thread":"main","event":"job.end","mode":"batch","ok":true,"dur_ms":1.0}
{"seq":3,"ts_us":1002,"thread":"main","event":"job.queued","id":1,"depth":1}
{"seq":4,"ts_us":1003,"thread":"main","event":"job.rejected","id":1,"capacity":8}
{"seq":5,"ts_us":1004,"thread":"main","event":"tenant.rejected","id":1,"tenant":"lab","limit":4}
{"seq":6,"ts_us":1005,"thread":"main","event":"job.closed","id":1}
{"seq":7,"ts_us":1006,"thread":"main","event":"job.timeout","id":1,"dur_ms":5.0}
{"seq":8,"ts_us":1007,"thread":"main","event":"job.panic","id":1,"message":"boom"}
{"seq":9,"ts_us":1008,"thread":"main","event":"job.retry","id":1,"attempt":1,"delay_ms":25}
{"seq":10,"ts_us":1009,"thread":"main","event":"slice.done","index":0,"done":1,"total":4,"lat_ms":2.0,"mask_pixels":10,"rate":0.5,"eta_s":null}
{"seq":11,"ts_us":1010,"thread":"main","event":"temporal.replace","slice":2,"had_detection":true}
{"seq":12,"ts_us":1011,"thread":"main","event":"rectify.pick","x":3,"y":4,"candidates":2,"picked_pixels":9}
{"seq":13,"ts_us":1012,"thread":"main","event":"cache.hit","cache":"sam.embed"}
{"seq":14,"ts_us":1013,"thread":"main","event":"cache.miss","cache":"sam.embed"}
{"seq":15,"ts_us":1014,"thread":"main","event":"fault.injected","site":"sam.decode","kind":"panic","unit":3}
{"seq":16,"ts_us":1015,"thread":"main","event":"slice.quarantined","slice":3,"reason":"decode"}
{"seq":17,"ts_us":1016,"thread":"main","event":"slice.degraded","slice":3,"reason":"decode"}
{"seq":18,"ts_us":1017,"thread":"main","event":"slice.failed","slice":3,"reason":"decode"}
{"seq":19,"ts_us":1018,"thread":"main","event":"checkpoint.write","slice":3,"record":"slice"}
{"seq":20,"ts_us":1019,"thread":"main","event":"checkpoint.replay","slices":2,"masks":1}
{"seq":21,"ts_us":1020,"thread":"main","event":"checkpoint.corrupt_tail","kept":4,"offset":128,"reason":"torn"}
{"seq":22,"ts_us":1021,"thread":"main","event":"warden.spawn","id":1,"pid":2,"attempt":1}
{"seq":23,"ts_us":1022,"thread":"main","event":"warden.crash","id":1,"pid":2,"reason":"stall"}
{"seq":24,"ts_us":1023,"thread":"main","event":"warden.restart","id":1,"attempt":2,"delay_ms":50}
{"seq":25,"ts_us":1024,"thread":"main","event":"warden.resume","id":1,"journal_bytes":512}
{"seq":26,"ts_us":1025,"thread":"main","event":"warden.poison","id":1,"fingerprint":"abc","crashes":3}
{"seq":27,"ts_us":1026,"thread":"main","event":"warn","message":"careful"}
{"seq":28,"ts_us":1027,"thread":"main","event":"info","message":"note"}
{"seq":1,"ts_us":1000,"thread":"main","trace":"000000000000feed","event":"job.start","mode":"batch"}
{"seq":2,"ts_us":1001,"thread":"main","trace":"000000000000feed","event":"job.end","mode":"batch","ok":true,"dur_ms":1.0}
{"seq":3,"ts_us":1002,"thread":"main","trace":"000000000000feed","event":"job.queued","id":1,"depth":1}
{"seq":4,"ts_us":1003,"thread":"main","trace":"000000000000feed","event":"job.rejected","id":1,"capacity":8}
{"seq":5,"ts_us":1004,"thread":"main","trace":"000000000000feed","event":"tenant.rejected","id":1,"tenant":"lab","limit":4}
{"seq":6,"ts_us":1005,"thread":"main","trace":"000000000000feed","event":"job.closed","id":1}
{"seq":7,"ts_us":1006,"thread":"main","trace":"000000000000feed","event":"job.timeout","id":1,"dur_ms":5.0}
{"seq":8,"ts_us":1007,"thread":"main","trace":"000000000000feed","event":"job.panic","id":1,"message":"boom"}
{"seq":9,"ts_us":1008,"thread":"main","trace":"000000000000feed","event":"job.retry","id":1,"attempt":1,"delay_ms":25}
{"seq":10,"ts_us":1009,"thread":"main","trace":"000000000000feed","event":"slice.done","index":0,"done":1,"total":4,"lat_ms":2.0,"mask_pixels":10,"rate":0.5,"eta_s":null}
{"seq":11,"ts_us":1010,"thread":"main","trace":"000000000000feed","event":"temporal.replace","slice":2,"had_detection":true}
{"seq":12,"ts_us":1011,"thread":"main","trace":"000000000000feed","event":"rectify.pick","x":3,"y":4,"candidates":2,"picked_pixels":9}
{"seq":13,"ts_us":1012,"thread":"main","trace":"000000000000feed","event":"cache.hit","cache":"sam.embed"}
{"seq":14,"ts_us":1013,"thread":"main","trace":"000000000000feed","event":"cache.miss","cache":"sam.embed"}
{"seq":15,"ts_us":1014,"thread":"main","trace":"000000000000feed","event":"fault.injected","site":"sam.decode","kind":"panic","unit":3}
{"seq":16,"ts_us":1015,"thread":"main","trace":"000000000000feed","event":"slice.quarantined","slice":3,"reason":"decode"}
{"seq":17,"ts_us":1016,"thread":"main","trace":"000000000000feed","event":"slice.degraded","slice":3,"reason":"decode"}
{"seq":18,"ts_us":1017,"thread":"main","trace":"000000000000feed","event":"slice.failed","slice":3,"reason":"decode"}
{"seq":19,"ts_us":1018,"thread":"main","trace":"000000000000feed","event":"checkpoint.write","slice":3,"record":"slice"}
{"seq":20,"ts_us":1019,"thread":"main","trace":"000000000000feed","event":"checkpoint.replay","slices":2,"masks":1}
{"seq":21,"ts_us":1020,"thread":"main","trace":"000000000000feed","event":"checkpoint.corrupt_tail","kept":4,"offset":128,"reason":"torn"}
{"seq":22,"ts_us":1021,"thread":"main","trace":"000000000000feed","event":"warden.spawn","id":1,"pid":2,"attempt":1}
{"seq":23,"ts_us":1022,"thread":"main","trace":"000000000000feed","event":"warden.crash","id":1,"pid":2,"reason":"stall"}
{"seq":24,"ts_us":1023,"thread":"main","trace":"000000000000feed","event":"warden.restart","id":1,"attempt":2,"delay_ms":50}
{"seq":25,"ts_us":1024,"thread":"main","trace":"000000000000feed","event":"warden.resume","id":1,"journal_bytes":512}
{"seq":26,"ts_us":1025,"thread":"main","trace":"000000000000feed","event":"warden.poison","id":1,"fingerprint":"abc","crashes":3}
{"seq":27,"ts_us":1026,"thread":"main","trace":"000000000000feed","event":"warn","message":"careful"}
{"seq":28,"ts_us":1027,"thread":"main","trace":"000000000000feed","event":"info","message":"note"}
"#;
