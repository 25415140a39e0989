//! Structured event stream: a bounded, lock-cheap JSONL log of typed
//! pipeline events.
//!
//! Spans answer *where time went*; events answer *what happened, in
//! order*. Long Mode B volume runs emit a [`Event::SliceDone`] per slice
//! (live progress with rate and ETA), the temporal heuristic reports each
//! box replacement, rectification reports what the user's click picked,
//! and the job layer brackets every run with `job.start` / `job.end`.
//! The serving layer (`zenesis-serve`) adds the queueing taxonomy:
//! `job.queued`, `job.rejected` (load shed), `job.timeout` (deadline),
//! `job.panic` (isolated panic), and `job.retry` (transient-input backoff).
//! The `repro` harness and `zenesis-cli` serialize the stream with
//! `--events-out events.jsonl` — one JSON object per line, ready for
//! `jq`/`grep` (see `docs/OBSERVABILITY.md` for the taxonomy).
//!
//! ## Gating and cost
//!
//! Recording obeys the same `ZENESIS_OBS` atomic as spans: [`emit`] is a
//! single relaxed load plus an early return when the level is `off`, so
//! hot paths may call it unconditionally. High-volume events
//! (`cache.{hit,miss}`) are emitted by their call sites only at level
//! `full`. The buffer is bounded ([`crate::RECORD_CAP`] records): when it
//! fills, the oldest events are discarded and counted in
//! [`dropped_events`], so an unbounded run can never exhaust memory.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use serde_json::{Map, Number, Value};
use std::sync::Mutex;

use crate::lock;

use crate::bounded::{push_bounded, Drops};

/// One typed pipeline event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job (no-code contract run) started.
    JobStart {
        /// Job mode (`interactive` | `batch` | `evaluate`).
        mode: Cow<'static, str>,
    },
    /// A job finished.
    JobEnd {
        /// Job mode (`interactive` | `batch` | `evaluate`).
        mode: Cow<'static, str>,
        /// False when the job returned a structured error.
        ok: bool,
        /// Wall-clock duration of the job, milliseconds.
        dur_ms: f64,
    },
    /// A served job was accepted into the service queue.
    JobQueued {
        /// Serving-layer job id (the request's line number or envelope id).
        id: u64,
        /// Queue depth immediately after enqueueing (this job included).
        depth: usize,
    },
    /// A served job was load-shed because the bounded queue was full.
    JobRejected {
        /// Serving-layer job id.
        id: u64,
        /// Queue capacity that was exhausted.
        capacity: usize,
    },
    /// A served job was refused because its tenant is over its
    /// outstanding-job quota.
    TenantRejected {
        /// Serving-layer job id.
        id: u64,
        /// The tenant that was over quota.
        tenant: String,
        /// The configured per-tenant outstanding-job limit.
        limit: usize,
    },
    /// A served job was refused because the service is shutting down
    /// (queue closed, drain in progress).
    JobClosed {
        /// Serving-layer job id.
        id: u64,
    },
    /// A served job hit its deadline and returned a partial/timeout result.
    JobTimeout {
        /// Serving-layer job id.
        id: u64,
        /// Wall-clock time from submit to the timeout result, milliseconds.
        dur_ms: f64,
    },
    /// A served job panicked; the worker survived and converted the panic
    /// into a structured error result.
    JobPanic {
        /// Serving-layer job id.
        id: u64,
        /// The panic payload, stringified.
        message: String,
    },
    /// A served job is being retried after a transient input failure.
    JobRetry {
        /// Serving-layer job id.
        id: u64,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// Backoff delay before this attempt, milliseconds.
        delay_ms: u64,
    },
    /// One slice of a Mode B batch volume finished its per-slice pipeline.
    SliceDone {
        /// Slice index within the volume.
        index: usize,
        /// Slices completed so far (including this one).
        done: usize,
        /// Total slices in the volume.
        total: usize,
        /// Per-slice pipeline latency, milliseconds.
        lat_ms: f64,
        /// Pixels in the slice's combined mask.
        mask_pixels: u64,
        /// Completed slices per second since the batch started.
        rate: f64,
        /// Estimated seconds to completion (`None` before any rate exists).
        eta_s: Option<f64>,
    },
    /// The temporal heuristic replaced (or synthesized) a slice's box.
    TemporalReplace {
        /// Slice index whose box was replaced.
        slice: usize,
        /// True when a raw detection existed and was judged an outlier;
        /// false when the detection was missing and the window filled it.
        had_detection: bool,
    },
    /// Rectification picked a candidate for a user click.
    RectifyPick {
        /// Click x coordinate.
        x: usize,
        /// Click y coordinate.
        y: usize,
        /// Number of candidate boxes generated.
        candidates: usize,
        /// Pixels of the picked candidate's mask (0 = nothing picked).
        picked_pixels: u64,
    },
    /// A cache hit (emitted at level `full` only).
    CacheHit {
        /// Cache name (e.g. `sam.embed`).
        cache: Cow<'static, str>,
    },
    /// A cache miss (emitted at level `full` only).
    CacheMiss {
        /// Cache name (e.g. `sam.embed`).
        cache: Cow<'static, str>,
    },
    /// A fault-injection site fired (`zenesis-fault`, armed runs only).
    FaultInjected {
        /// Site name (e.g. `sam.decode`).
        site: String,
        /// Fault kind (`error` | `panic` | `nan` | `slow`).
        kind: Cow<'static, str>,
        /// Deterministic unit index (slice) the fault was keyed on.
        unit: u64,
    },
    /// A slice failed its primary pipeline and entered quarantine
    /// (retry, then baseline fallback).
    SliceQuarantined {
        /// Slice index within the volume.
        slice: usize,
        /// Why the primary attempt failed.
        reason: String,
    },
    /// A quarantined slice completed via the degraded (fallback) path.
    SliceDegraded {
        /// Slice index within the volume.
        slice: usize,
        /// Why the slice was degraded.
        reason: String,
    },
    /// A quarantined slice failed even its fallback.
    SliceFailed {
        /// Slice index within the volume.
        slice: usize,
        /// Why the fallback failed too.
        reason: String,
    },
    /// A checkpoint journal record was durably written.
    CheckpointWrite {
        /// Slice index the record covers.
        slice: usize,
        /// Record kind (`header` | `slice` | `mask`).
        record: Cow<'static, str>,
    },
    /// A resumed run replayed completed work from the journal.
    CheckpointReplay {
        /// Number of stage-1 slice records replayed.
        slices: usize,
        /// Number of final mask records replayed.
        masks: usize,
    },
    /// The journal ended in a torn/corrupt record, which was discarded.
    CheckpointCorruptTail {
        /// Valid records kept before the corrupt tail.
        kept: usize,
        /// Byte offset the journal was truncated back to (= the length
        /// of the valid prefix; everything past it was dropped).
        offset: u64,
        /// Why the tail record was rejected.
        reason: String,
    },
    /// The warden spawned a worker process for a supervised job.
    WardenSpawn {
        /// Serving-layer job id.
        id: u64,
        /// The worker's OS pid.
        pid: u32,
        /// Worker attempt for this job (1 = first spawn).
        attempt: u32,
    },
    /// A supervised worker process died without delivering a result.
    WardenCrash {
        /// Serving-layer job id.
        id: u64,
        /// The dead worker's OS pid.
        pid: u32,
        /// How death was detected (`exit` | `heartbeat` | `stall`),
        /// plus detail.
        reason: String,
    },
    /// The warden is restarting a crashed worker after backoff.
    WardenRestart {
        /// Serving-layer job id.
        id: u64,
        /// Worker attempt about to be spawned (2 = first restart).
        attempt: u32,
        /// Backoff delay slept before this restart, milliseconds.
        delay_ms: u64,
    },
    /// A restarted worker is resuming the batch from the checkpoint
    /// journal left by its dead predecessor.
    WardenResume {
        /// Serving-layer job id.
        id: u64,
        /// Journal bytes surviving from the dead worker.
        journal_bytes: u64,
    },
    /// The poison breaker quarantined a job spec: N consecutive workers
    /// crashed on it without journal progress.
    WardenPoison {
        /// Serving-layer job id.
        id: u64,
        /// Spec fingerprint (hex) now quarantined.
        fingerprint: String,
        /// Consecutive progress-free crashes that tripped the breaker.
        crashes: u32,
    },
    /// A warning worth surfacing in the event stream.
    Warn {
        /// Human-readable message.
        message: String,
    },
    /// Informational narration (harness progress lines).
    Info {
        /// Human-readable message.
        message: String,
    },
}

impl Event {
    /// The stable dotted kind tag used in the JSONL output.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::JobStart { .. } => "job.start",
            Event::JobEnd { .. } => "job.end",
            Event::JobQueued { .. } => "job.queued",
            Event::JobRejected { .. } => "job.rejected",
            Event::TenantRejected { .. } => "tenant.rejected",
            Event::JobClosed { .. } => "job.closed",
            Event::JobTimeout { .. } => "job.timeout",
            Event::JobPanic { .. } => "job.panic",
            Event::JobRetry { .. } => "job.retry",
            Event::SliceDone { .. } => "slice.done",
            Event::TemporalReplace { .. } => "temporal.replace",
            Event::RectifyPick { .. } => "rectify.pick",
            Event::CacheHit { .. } => "cache.hit",
            Event::CacheMiss { .. } => "cache.miss",
            Event::FaultInjected { .. } => "fault.injected",
            Event::SliceQuarantined { .. } => "slice.quarantined",
            Event::SliceDegraded { .. } => "slice.degraded",
            Event::SliceFailed { .. } => "slice.failed",
            Event::CheckpointWrite { .. } => "checkpoint.write",
            Event::CheckpointReplay { .. } => "checkpoint.replay",
            Event::CheckpointCorruptTail { .. } => "checkpoint.corrupt_tail",
            Event::WardenSpawn { .. } => "warden.spawn",
            Event::WardenCrash { .. } => "warden.crash",
            Event::WardenRestart { .. } => "warden.restart",
            Event::WardenResume { .. } => "warden.resume",
            Event::WardenPoison { .. } => "warden.poison",
            Event::Warn { .. } => "warn",
            Event::Info { .. } => "info",
        }
    }
}

/// One recorded event with stream metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotonic sequence number (unique within the process, gap-free
    /// among *recorded* events even after the buffer drops old ones).
    pub seq: u64,
    /// Microseconds since the process observability epoch.
    pub ts_us: u64,
    /// Thread the event was emitted from.
    pub thread: String,
    /// The trace context installed on the emitting thread, if any —
    /// the served job's `trace_id` (see `crate::trace`).
    pub trace: Option<crate::trace::TraceId>,
    /// The event payload.
    pub event: Event,
}

static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static DROPPED: Drops = Drops::new("obs.events.dropped");

fn buffer() -> &'static Mutex<VecDeque<EventRecord>> {
    static BUF: OnceLock<Mutex<VecDeque<EventRecord>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Record one event. A no-op (one relaxed atomic load) when recording is
/// off, so call sites need no gating of their own — though sites that
/// must also *build* the event cheaply should still check
/// [`crate::enabled`] before computing payload fields.
pub fn emit(event: Event) {
    if !crate::enabled() {
        return;
    }
    let rec = EventRecord {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        ts_us: crate::span::epoch_elapsed_us(),
        thread: crate::span::current_thread_name(),
        trace: crate::trace::current_trace(),
        event,
    };
    push_bounded(&mut lock(buffer()), crate::RECORD_CAP, rec, &DROPPED);
}

/// Record an informational narration line.
pub fn info(message: impl Into<String>) {
    if crate::enabled() {
        emit(Event::Info {
            message: message.into(),
        });
    }
}

/// Record a warning.
pub fn warn(message: impl Into<String>) {
    if crate::enabled() {
        emit(Event::Warn {
            message: message.into(),
        });
    }
}

/// Copy of every buffered event in emission order.
pub fn events_snapshot() -> Vec<EventRecord> {
    lock(buffer()).iter().cloned().collect()
}

/// Number of events discarded because the buffer was full.
pub fn dropped_events() -> u64 {
    DROPPED.get()
}

/// Discard all buffered events and reset the dropped counter.
pub(crate) fn reset_events() {
    lock(buffer()).clear();
    DROPPED.reset();
}

fn field(m: &mut Map, key: &str, v: Value) {
    m.insert(key, v);
}

/// One event as a flat JSON object (`seq`, `ts_us`, `thread`, `event`,
/// then the payload fields).
pub fn event_json(rec: &EventRecord) -> Value {
    let mut m = Map::new();
    field(&mut m, "seq", Value::Number(Number::U(rec.seq)));
    field(&mut m, "ts_us", Value::Number(Number::U(rec.ts_us)));
    field(&mut m, "thread", Value::String(rec.thread.clone()));
    if let Some(t) = rec.trace {
        field(&mut m, "trace", Value::String(t.to_hex()));
    }
    field(&mut m, "event", Value::String(rec.event.kind().to_string()));
    match &rec.event {
        Event::JobStart { mode } => {
            field(&mut m, "mode", Value::String(mode.to_string()));
        }
        Event::JobEnd { mode, ok, dur_ms } => {
            field(&mut m, "mode", Value::String(mode.to_string()));
            field(&mut m, "ok", Value::Bool(*ok));
            field(&mut m, "dur_ms", Value::Number(Number::F(*dur_ms)));
        }
        Event::JobQueued { id, depth } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(&mut m, "depth", Value::Number(Number::U(*depth as u64)));
        }
        Event::JobRejected { id, capacity } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(
                &mut m,
                "capacity",
                Value::Number(Number::U(*capacity as u64)),
            );
        }
        Event::TenantRejected { id, tenant, limit } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(&mut m, "tenant", Value::String(tenant.clone()));
            field(&mut m, "limit", Value::Number(Number::U(*limit as u64)));
        }
        Event::JobClosed { id } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
        }
        Event::JobTimeout { id, dur_ms } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(&mut m, "dur_ms", Value::Number(Number::F(*dur_ms)));
        }
        Event::JobPanic { id, message } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(&mut m, "message", Value::String(message.clone()));
        }
        Event::JobRetry {
            id,
            attempt,
            delay_ms,
        } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(&mut m, "attempt", Value::Number(Number::U(*attempt as u64)));
            field(&mut m, "delay_ms", Value::Number(Number::U(*delay_ms)));
        }
        Event::SliceDone {
            index,
            done,
            total,
            lat_ms,
            mask_pixels,
            rate,
            eta_s,
        } => {
            field(&mut m, "index", Value::Number(Number::U(*index as u64)));
            field(&mut m, "done", Value::Number(Number::U(*done as u64)));
            field(&mut m, "total", Value::Number(Number::U(*total as u64)));
            field(&mut m, "lat_ms", Value::Number(Number::F(*lat_ms)));
            field(
                &mut m,
                "mask_pixels",
                Value::Number(Number::U(*mask_pixels)),
            );
            field(&mut m, "rate", Value::Number(Number::F(*rate)));
            field(
                &mut m,
                "eta_s",
                match eta_s {
                    Some(s) => Value::Number(Number::F(*s)),
                    None => Value::Null,
                },
            );
        }
        Event::TemporalReplace {
            slice,
            had_detection,
        } => {
            field(&mut m, "slice", Value::Number(Number::U(*slice as u64)));
            field(&mut m, "had_detection", Value::Bool(*had_detection));
        }
        Event::RectifyPick {
            x,
            y,
            candidates,
            picked_pixels,
        } => {
            field(&mut m, "x", Value::Number(Number::U(*x as u64)));
            field(&mut m, "y", Value::Number(Number::U(*y as u64)));
            field(
                &mut m,
                "candidates",
                Value::Number(Number::U(*candidates as u64)),
            );
            field(
                &mut m,
                "picked_pixels",
                Value::Number(Number::U(*picked_pixels)),
            );
        }
        Event::CacheHit { cache } | Event::CacheMiss { cache } => {
            field(&mut m, "cache", Value::String(cache.to_string()));
        }
        Event::FaultInjected { site, kind, unit } => {
            field(&mut m, "site", Value::String(site.clone()));
            field(&mut m, "kind", Value::String(kind.to_string()));
            field(&mut m, "unit", Value::Number(Number::U(*unit)));
        }
        Event::SliceQuarantined { slice, reason }
        | Event::SliceDegraded { slice, reason }
        | Event::SliceFailed { slice, reason } => {
            field(&mut m, "slice", Value::Number(Number::U(*slice as u64)));
            field(&mut m, "reason", Value::String(reason.clone()));
        }
        Event::CheckpointWrite { slice, record } => {
            field(&mut m, "slice", Value::Number(Number::U(*slice as u64)));
            field(&mut m, "record", Value::String(record.to_string()));
        }
        Event::CheckpointReplay { slices, masks } => {
            field(&mut m, "slices", Value::Number(Number::U(*slices as u64)));
            field(&mut m, "masks", Value::Number(Number::U(*masks as u64)));
        }
        Event::CheckpointCorruptTail {
            kept,
            offset,
            reason,
        } => {
            field(&mut m, "kept", Value::Number(Number::U(*kept as u64)));
            field(&mut m, "offset", Value::Number(Number::U(*offset)));
            field(&mut m, "reason", Value::String(reason.clone()));
        }
        Event::WardenSpawn { id, pid, attempt } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(&mut m, "pid", Value::Number(Number::U(*pid as u64)));
            field(&mut m, "attempt", Value::Number(Number::U(*attempt as u64)));
        }
        Event::WardenCrash { id, pid, reason } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(&mut m, "pid", Value::Number(Number::U(*pid as u64)));
            field(&mut m, "reason", Value::String(reason.clone()));
        }
        Event::WardenRestart {
            id,
            attempt,
            delay_ms,
        } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(&mut m, "attempt", Value::Number(Number::U(*attempt as u64)));
            field(&mut m, "delay_ms", Value::Number(Number::U(*delay_ms)));
        }
        Event::WardenResume { id, journal_bytes } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(
                &mut m,
                "journal_bytes",
                Value::Number(Number::U(*journal_bytes)),
            );
        }
        Event::WardenPoison {
            id,
            fingerprint,
            crashes,
        } => {
            field(&mut m, "id", Value::Number(Number::U(*id)));
            field(&mut m, "fingerprint", Value::String(fingerprint.clone()));
            field(&mut m, "crashes", Value::Number(Number::U(*crashes as u64)));
        }
        Event::Warn { message } | Event::Info { message } => {
            field(&mut m, "message", Value::String(message.clone()));
        }
    }
    Value::Object(m)
}

/// The whole buffer as JSONL: one compact JSON object per line, in
/// emission order. Empty string when nothing was recorded.
pub fn events_jsonl() -> String {
    let mut out = String::new();
    for rec in lock(buffer()).iter() {
        out.push_str(&event_json(rec).to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsLevel;
    use crate::TEST_LOCK as LOCK;

    #[test]
    fn off_level_records_nothing() {
        let _g = lock(&LOCK);
        let before = crate::level();
        crate::set_level(ObsLevel::Off);
        reset_events();
        emit(Event::Info {
            message: "invisible".into(),
        });
        info("also invisible");
        assert!(events_snapshot().is_empty());
        assert_eq!(events_jsonl(), "");
        crate::set_level(before);
    }

    #[test]
    fn jsonl_round_trips_payload_fields() {
        let _g = lock(&LOCK);
        let before = crate::level();
        crate::set_level(ObsLevel::Spans);
        reset_events();
        emit(Event::SliceDone {
            index: 3,
            done: 4,
            total: 12,
            lat_ms: 7.25,
            mask_pixels: 980,
            rate: 2.0,
            eta_s: Some(4.0),
        });
        emit(Event::TemporalReplace {
            slice: 5,
            had_detection: false,
        });
        warn("box replaced");
        let text = events_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let v: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(v["event"], "slice.done");
        assert_eq!(v["index"], 3);
        assert_eq!(v["total"], 12);
        assert_eq!(v["mask_pixels"], 980);
        assert_eq!(v["eta_s"], 4.0);
        let v: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(v["event"], "temporal.replace");
        assert_eq!(v["had_detection"], false);
        let v: serde_json::Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(v["event"], "warn");
        assert_eq!(v["message"], "box replaced");
        // Sequence numbers strictly increase; timestamps never decrease.
        let snap = events_snapshot();
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(snap.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        reset_events();
        crate::set_level(before);
    }

    #[test]
    fn buffer_is_bounded_and_counts_drops() {
        let _g = lock(&LOCK);
        let before = crate::level();
        crate::set_level(ObsLevel::Spans);
        reset_events();
        for i in 0..(crate::RECORD_CAP + 100) {
            emit(Event::Info {
                message: format!("e{i}"),
            });
        }
        let snap = events_snapshot();
        assert_eq!(snap.len(), crate::RECORD_CAP);
        assert_eq!(dropped_events(), 100);
        // The oldest records were the ones dropped.
        assert_eq!(
            snap.first().map(|r| r.event.clone()),
            Some(Event::Info {
                message: "e100".into()
            })
        );
        reset_events();
        assert_eq!(dropped_events(), 0);
        crate::set_level(before);
    }

    #[test]
    fn events_carry_the_installed_trace() {
        let _g = lock(&LOCK);
        let before = crate::level();
        crate::set_level(ObsLevel::Spans);
        reset_events();
        let t = crate::trace::TraceId::from_u64(0xfeed).unwrap();
        crate::trace::with_trace(Some(t), || info("traced"));
        info("no context");
        let snap = events_snapshot();
        let traced = snap
            .iter()
            .find(|r| matches!(&r.event, Event::Info { message } if message == "traced"))
            .expect("traced event recorded");
        assert_eq!(traced.trace, Some(t));
        let json = event_json(traced).to_string();
        assert!(json.contains(r#""trace":"000000000000feed""#), "{json}");
        let untraced = snap
            .iter()
            .find(|r| matches!(&r.event, Event::Info { message } if message == "no context"))
            .expect("second event recorded");
        assert_eq!(untraced.trace, None);
        assert!(!event_json(untraced).to_string().contains(r#""trace":"#));
        reset_events();
        crate::set_level(before);
    }

    #[test]
    fn warden_and_checkpoint_events_serialize_payload_fields() {
        let _g = lock(&LOCK);
        let before = crate::level();
        crate::set_level(ObsLevel::Spans);
        reset_events();
        emit(Event::CheckpointCorruptTail {
            kept: 4,
            offset: 1234,
            reason: "truncated final record".into(),
        });
        emit(Event::WardenSpawn {
            id: 7,
            pid: 4242,
            attempt: 1,
        });
        emit(Event::WardenCrash {
            id: 7,
            pid: 4242,
            reason: "exit: signal".into(),
        });
        emit(Event::WardenRestart {
            id: 7,
            attempt: 2,
            delay_ms: 100,
        });
        emit(Event::WardenResume {
            id: 7,
            journal_bytes: 9000,
        });
        emit(Event::WardenPoison {
            id: 8,
            fingerprint: "deadbeef".into(),
            crashes: 3,
        });
        let lines: Vec<serde_json::Value> = events_jsonl()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0]["event"], "checkpoint.corrupt_tail");
        assert_eq!(lines[0]["kept"], 4);
        assert_eq!(lines[0]["offset"], 1234);
        assert_eq!(lines[1]["event"], "warden.spawn");
        assert_eq!(lines[1]["pid"], 4242);
        assert_eq!(lines[1]["attempt"], 1);
        assert_eq!(lines[2]["event"], "warden.crash");
        assert_eq!(lines[2]["reason"], "exit: signal");
        assert_eq!(lines[3]["event"], "warden.restart");
        assert_eq!(lines[3]["delay_ms"], 100);
        assert_eq!(lines[4]["event"], "warden.resume");
        assert_eq!(lines[4]["journal_bytes"], 9000);
        assert_eq!(lines[5]["event"], "warden.poison");
        assert_eq!(lines[5]["fingerprint"], "deadbeef");
        assert_eq!(lines[5]["crashes"], 3);
        reset_events();
        crate::set_level(before);
    }

    #[test]
    fn serve_events_serialize_payload_fields() {
        let _g = lock(&LOCK);
        let before = crate::level();
        crate::set_level(ObsLevel::Spans);
        reset_events();
        emit(Event::JobQueued { id: 7, depth: 3 });
        emit(Event::JobRejected { id: 8, capacity: 4 });
        emit(Event::JobTimeout {
            id: 7,
            dur_ms: 120.5,
        });
        emit(Event::JobPanic {
            id: 9,
            message: "index out of bounds".into(),
        });
        emit(Event::JobRetry {
            id: 10,
            attempt: 2,
            delay_ms: 100,
        });
        emit(Event::TenantRejected {
            id: 11,
            tenant: "lab-a".into(),
            limit: 4,
        });
        emit(Event::JobClosed { id: 12 });
        let lines: Vec<serde_json::Value> = events_jsonl()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 7);
        assert_eq!(lines[0]["event"], "job.queued");
        assert_eq!(lines[0]["id"], 7);
        assert_eq!(lines[0]["depth"], 3);
        assert_eq!(lines[1]["event"], "job.rejected");
        assert_eq!(lines[1]["capacity"], 4);
        assert_eq!(lines[2]["event"], "job.timeout");
        assert_eq!(lines[2]["dur_ms"], 120.5);
        assert_eq!(lines[3]["event"], "job.panic");
        assert_eq!(lines[3]["message"], "index out of bounds");
        assert_eq!(lines[4]["event"], "job.retry");
        assert_eq!(lines[4]["attempt"], 2);
        assert_eq!(lines[4]["delay_ms"], 100);
        assert_eq!(lines[5]["event"], "tenant.rejected");
        assert_eq!(lines[5]["tenant"], "lab-a");
        assert_eq!(lines[5]["limit"], 4);
        assert_eq!(lines[6]["event"], "job.closed");
        assert_eq!(lines[6]["id"], 12);
        reset_events();
        crate::set_level(before);
    }
}
