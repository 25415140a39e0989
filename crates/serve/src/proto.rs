//! The JSONL wire protocol.
//!
//! One request per line, one response per line, in submission order is
//! *not* guaranteed (workers finish out of order) — responses carry the
//! request `id` so clients can correlate.
//!
//! A request line is either a bare [`JobSpec`] (exactly what
//! `run_job_json` accepts) or an **envelope** that wraps one with
//! serving metadata:
//!
//! ```json
//! {"id": 7, "deadline_ms": 2000, "spec": {"mode": "interactive", ...}}
//! ```
//!
//! The envelope is detected by the presence of a `"spec"` key (bare
//! specs never have one: their top-level keys are `mode`/`input`/...).
//! `id` defaults to the line number the server assigns; `deadline_ms`
//! defaults to the server's `--deadline-ms` (unlimited when neither is
//! set). The deadline clock starts at *submission*, so time spent queued
//! counts against it — a job that waited out its whole budget in the
//! queue reports `timeout` without occupying a worker for real work.
//!
//! An envelope may also carry `"trace_id"`: 1–16 hex digits naming the
//! caller's trace context. When present (and valid) the server adopts it;
//! otherwise it mints a fresh id at admission. Either way every response
//! echoes the 16-hex-digit `trace_id`, and every span and event the job
//! produces — across queue wait, worker threads, and the parallel
//! runtime — carries the same id (see `docs/OBSERVABILITY.md`).
//!
//! Two more optional envelope fields drive admission (see
//! `docs/SERVING.md`): `"tenant"` names the submitting tenant for
//! per-tenant quotas (absent = exempt), and `"lane"` picks the priority
//! lane (`"interactive"` | `"batch"`; absent or unrecognized = derived
//! from the spec's mode — interactive specs ride the interactive lane,
//! batch/evaluate specs the batch lane). Like `trace_id`, a malformed
//! `lane` degrades to the default rather than rejecting the job.
//!
//! Every response is one compact JSON object:
//!
//! ```json
//! {"id": 7, "status": "ok", "trace_id": "92d3f0a1c44be977",
//!  "attempts": 1, "queue_ms": 0.4, "run_ms": 113.0,
//!  "result": {"kind": "slice", ...}}
//! ```
//!
//! `status` is the four-way failure taxonomy: `ok` (completed work),
//! `error` (bad spec, bad input, or an isolated panic), `busy` (load
//! shed — resubmit later), `timeout` (deadline hit; `result` carries the
//! partial progress counts).

use serde_json::{Map, Number, Value};
use zenesis_core::job::{JobResult, JobSpec};
use zenesis_obs::TraceId;

use crate::queue::Lane;

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Correlation id (from the envelope, or assigned by the server).
    pub(crate) id: u64,
    /// Per-job deadline override in milliseconds.
    pub(crate) deadline_ms: Option<u64>,
    /// Trace context supplied by the caller (`"trace_id"` hex field in
    /// the envelope); `None` means the server mints one at admission.
    pub trace: Option<TraceId>,
    /// Tenant name for per-tenant admission quotas; `None` is exempt.
    pub(crate) tenant: Option<String>,
    /// Explicit priority-lane override; `None` derives the lane from
    /// the spec's mode.
    pub(crate) lane: Option<Lane>,
    /// The job to run.
    pub(crate) spec: JobSpec,
}

impl Request {
    /// The lane this request rides: the explicit envelope override, or
    /// the spec-derived default (interactive specs on the interactive
    /// lane, everything else on batch).
    pub(crate) fn effective_lane(&self) -> Lane {
        self.lane.unwrap_or(match self.spec {
            JobSpec::Interactive { .. } => Lane::Interactive,
            JobSpec::Batch { .. } | JobSpec::Evaluate { .. } => Lane::Batch,
        })
    }
}

/// Parse one request line. `fallback_id` (the server's line counter) is
/// used when the line is bare or the envelope omits `id`. A malformed
/// `trace_id` is treated as absent (the server mints a fresh one) — a
/// bad trace hint must not reject an otherwise valid job.
pub fn parse_request(line: &str, fallback_id: u64) -> Result<Request, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("invalid job spec: {e}"))?;
    let is_envelope = v.as_object().is_some_and(|o| o.contains_key("spec"));
    if is_envelope {
        let id = v.get("id").and_then(|x| x.as_u64()).unwrap_or(fallback_id);
        let deadline_ms = v.get("deadline_ms").and_then(|x| x.as_u64());
        let trace = v
            .get("trace_id")
            .and_then(|x| x.as_str())
            .and_then(TraceId::from_hex);
        let tenant = v
            .get("tenant")
            .and_then(|x| x.as_str())
            .filter(|t| !t.is_empty())
            .map(str::to_string);
        let lane = v
            .get("lane")
            .and_then(|x| x.as_str())
            .and_then(Lane::from_name);
        let spec_value = v.get("spec").expect("envelope has spec");
        let spec: JobSpec =
            serde_json::from_value(spec_value).map_err(|e| format!("invalid job spec: {e}"))?;
        Ok(Request {
            id,
            deadline_ms,
            trace,
            tenant,
            lane,
            spec,
        })
    } else {
        let spec: JobSpec =
            serde_json::from_value(&v).map_err(|e| format!("invalid job spec: {e}"))?;
        Ok(Request {
            id: fallback_id,
            deadline_ms: None,
            trace: None,
            tenant: None,
            lane: None,
            spec,
        })
    }
}

/// One response line.
#[derive(Debug, Clone)]
pub struct Response {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// Trace id of the request (caller-supplied or server-minted);
    /// echoed as 16 hex digits so clients can join their responses
    /// against the event stream and Chrome traces.
    pub trace: TraceId,
    /// Execution attempts (0 when the job never reached a worker:
    /// parse errors and load sheds).
    pub attempts: u32,
    /// Milliseconds spent queued before a worker picked the job up.
    pub queue_ms: f64,
    /// Milliseconds of worker execution (all attempts and backoff).
    pub run_ms: f64,
    /// Retry hint for `busy`/`timeout` responses: how long the client
    /// should wait before resubmitting, derived from the server's
    /// current queue depth and backoff state. Absent (`None`) on
    /// terminal statuses and on sheds where retrying is pointless
    /// (e.g. shutdown).
    pub retry_after_ms: Option<u64>,
    /// The job's structured result.
    pub result: JobResult,
}

impl Response {
    /// The response's `status` field, derived from the result variant.
    pub fn status(&self) -> &'static str {
        match &self.result {
            JobResult::Slice { .. } | JobResult::Volume { .. } | JobResult::Evaluation { .. } => {
                "ok"
            }
            JobResult::Error { .. } => "error",
            JobResult::Busy { .. } => "busy",
            JobResult::Timeout { .. } => "timeout",
        }
    }

    /// Serialize as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut m = Map::new();
        m.insert("id", Value::Number(Number::U(self.id)));
        m.insert("status", Value::String(self.status().to_string()));
        m.insert("trace_id", Value::String(self.trace.to_hex()));
        m.insert("attempts", Value::Number(Number::U(self.attempts as u64)));
        m.insert("queue_ms", Value::Number(Number::F(self.queue_ms)));
        m.insert("run_ms", Value::Number(Number::F(self.run_ms)));
        if let Some(ms) = self.retry_after_ms {
            m.insert("retry_after_ms", Value::Number(Number::U(ms)));
        }
        let result_json = serde_json::to_string(&self.result).expect("results serialize");
        let result_value: Value = serde_json::from_str(&result_json).expect("results round-trip");
        m.insert("result", result_value);
        Value::Object(m).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BARE: &str = r#"{"mode": "interactive",
        "input": {"source": "phantom_slice", "kind": "amorphous", "seed": 3},
        "prompt": "bright particles"}"#;

    #[test]
    fn bare_spec_gets_fallback_id_and_no_deadline() {
        let req = parse_request(BARE, 42).unwrap();
        assert_eq!(req.id, 42);
        assert_eq!(req.deadline_ms, None);
        assert!(matches!(req.spec, JobSpec::Interactive { .. }));
    }

    #[test]
    fn envelope_carries_id_and_deadline() {
        let line = format!(r#"{{"id": 9, "deadline_ms": 1500, "spec": {BARE}}}"#);
        let req = parse_request(&line, 42).unwrap();
        assert_eq!(req.id, 9);
        assert_eq!(req.deadline_ms, Some(1500));
        assert_eq!(req.trace, None);
    }

    #[test]
    fn envelope_trace_id_accepted_and_bad_hex_ignored() {
        let line = format!(r#"{{"id": 1, "trace_id": "00ab3F", "spec": {BARE}}}"#);
        let req = parse_request(&line, 0).unwrap();
        assert_eq!(req.trace.unwrap().to_hex(), "000000000000ab3f");
        // Malformed trace hints degrade to "mint one", never reject.
        for bad in [r#""zz""#, r#""""#, r#""00112233445566778899""#, "17"] {
            let line = format!(r#"{{"id": 1, "trace_id": {bad}, "spec": {BARE}}}"#);
            let req = parse_request(&line, 0).unwrap();
            assert_eq!(req.trace, None, "trace_id {bad} should be ignored");
        }
    }

    #[test]
    fn envelope_tenant_and_lane_parse_and_degrade() {
        let line = format!(r#"{{"id": 2, "tenant": "lab-7", "lane": "batch", "spec": {BARE}}}"#);
        let req = parse_request(&line, 0).unwrap();
        assert_eq!(req.tenant.as_deref(), Some("lab-7"));
        assert_eq!(req.lane, Some(Lane::Batch));
        assert_eq!(req.effective_lane(), Lane::Batch, "override wins");

        // Absent fields: no tenant, spec-derived lane (interactive spec).
        let req = parse_request(BARE, 0).unwrap();
        assert_eq!(req.tenant, None);
        assert_eq!(req.lane, None);
        assert_eq!(req.effective_lane(), Lane::Interactive);

        // Unknown lane strings and empty tenants degrade, never reject.
        let line = format!(r#"{{"id": 2, "tenant": "", "lane": "bulk", "spec": {BARE}}}"#);
        let req = parse_request(&line, 0).unwrap();
        assert_eq!(req.tenant, None, "empty tenant treated as absent");
        assert_eq!(req.lane, None, "unknown lane degrades to default");
        assert_eq!(req.effective_lane(), Lane::Interactive);
    }

    #[test]
    fn batch_and_evaluate_specs_default_to_the_batch_lane() {
        let batch = r#"{"mode": "batch",
            "input": {"source": "phantom_volume", "kind": "amorphous", "seed": 3, "depth": 4},
            "prompt": "bright particles"}"#;
        assert_eq!(
            parse_request(batch, 0).unwrap().effective_lane(),
            Lane::Batch
        );
        // An explicit interactive lane promotes a batch spec.
        let line = format!(r#"{{"lane": "interactive", "spec": {batch}}}"#);
        assert_eq!(
            parse_request(&line, 0).unwrap().effective_lane(),
            Lane::Interactive
        );
    }

    #[test]
    fn envelope_without_id_uses_fallback() {
        let line = format!(r#"{{"spec": {BARE}}}"#);
        let req = parse_request(&line, 7).unwrap();
        assert_eq!(req.id, 7);
    }

    #[test]
    fn batch_spec_carries_checkpoint_fields_through_the_wire() {
        // The checkpoint/resume contract is plain JobSpec serde, so an
        // envelope-wrapped batch spec with `checkpoint_dir` + `resume`
        // must survive parsing; `resume` defaults to true when omitted.
        let batch = r#"{"mode": "batch",
            "input": {"source": "phantom_volume", "kind": "amorphous", "seed": 3, "depth": 4},
            "prompt": "bright particles",
            "checkpoint_dir": "/tmp/ckpt", "resume": false}"#;
        let line = format!(r#"{{"id": 1, "spec": {batch}}}"#);
        let req = parse_request(&line, 0).unwrap();
        match req.spec {
            JobSpec::Batch {
                checkpoint_dir,
                resume,
                ..
            } => {
                assert_eq!(checkpoint_dir.as_deref(), Some("/tmp/ckpt"));
                assert!(!resume);
            }
            other => panic!("unexpected spec {other:?}"),
        }
        let bare = r#"{"mode": "batch",
            "input": {"source": "phantom_volume", "kind": "amorphous", "seed": 3, "depth": 4},
            "prompt": "bright particles"}"#;
        match parse_request(bare, 0).unwrap().spec {
            JobSpec::Batch {
                checkpoint_dir,
                resume,
                ..
            } => {
                assert_eq!(checkpoint_dir, None);
                assert!(resume, "resume defaults to true");
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn batch_spec_carries_tiff_volume_source_and_masks_out() {
        // The TIFF streaming contract rides the same serde: a batch spec
        // naming a `tiff_volume_file` source and a `masks_out` sink must
        // survive the wire; `masks_out` defaults to None when omitted.
        let batch = r#"{"mode": "batch",
            "input": {"source": "tiff_volume_file", "path": "/data/stack.tif"},
            "prompt": "bright particles",
            "masks_out": "/data/masks.tif"}"#;
        let line = format!(r#"{{"id": 2, "spec": {batch}}}"#);
        let req = parse_request(&line, 0).unwrap();
        match req.spec {
            JobSpec::Batch {
                input, masks_out, ..
            } => {
                match input {
                    zenesis_core::job::InputSpec::TiffVolumeFile { path } => {
                        assert_eq!(path, "/data/stack.tif");
                    }
                    other => panic!("unexpected input {other:?}"),
                }
                assert_eq!(masks_out.as_deref(), Some("/data/masks.tif"));
            }
            other => panic!("unexpected spec {other:?}"),
        }
        let bare = r#"{"mode": "batch",
            "input": {"source": "tiff_volume_file", "path": "/data/stack.tif"},
            "prompt": "bright particles"}"#;
        match parse_request(bare, 0).unwrap().spec {
            JobSpec::Batch { masks_out, .. } => {
                assert_eq!(masks_out, None, "masks_out defaults to None");
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        assert!(parse_request("{not json", 1).is_err());
        assert!(parse_request(r#"{"spec": {"mode": "nope"}}"#, 1).is_err());
        assert!(parse_request(r#"{"mode": "nope"}"#, 1).is_err());
    }

    #[test]
    fn response_line_is_one_json_object() {
        let resp = Response {
            id: 3,
            trace: TraceId::from_u64(0xfeed).unwrap(),
            attempts: 1,
            queue_ms: 0.5,
            run_ms: 12.0,
            retry_after_ms: None,
            result: JobResult::Error {
                message: "nope".into(),
            },
        };
        let line = resp.to_json_line();
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("id").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("status").and_then(|x| x.as_str()), Some("error"));
        assert!(
            v.get("retry_after_ms").is_none(),
            "no hint field on responses without one"
        );
        assert_eq!(
            v.get("trace_id").and_then(|x| x.as_str()),
            Some("000000000000feed")
        );
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("message"))
                .and_then(|x| x.as_str()),
            Some("nope")
        );
    }

    #[test]
    fn retry_hint_serializes_only_when_present() {
        let resp = Response {
            id: 8,
            trace: TraceId::from_u64(1).unwrap(),
            attempts: 0,
            queue_ms: 0.1,
            run_ms: 0.0,
            retry_after_ms: Some(250),
            result: JobResult::Busy {
                message: "queue full".into(),
                capacity: 4,
            },
        };
        let v: Value = serde_json::from_str(&resp.to_json_line()).unwrap();
        assert_eq!(v.get("status").and_then(|x| x.as_str()), Some("busy"));
        assert_eq!(v.get("retry_after_ms").and_then(|x| x.as_u64()), Some(250));
    }

    #[test]
    fn status_taxonomy_covers_all_variants() {
        let mk = |result| Response {
            id: 0,
            trace: TraceId::mint(),
            attempts: 0,
            queue_ms: 0.0,
            run_ms: 0.0,
            retry_after_ms: None,
            result,
        };
        assert_eq!(
            mk(JobResult::Busy {
                message: "full".into(),
                capacity: 4
            })
            .status(),
            "busy"
        );
        assert_eq!(
            mk(JobResult::Timeout {
                message: "late".into(),
                completed: 1,
                total: 4
            })
            .status(),
            "timeout"
        );
        assert_eq!(
            mk(JobResult::Volume {
                depth: 1,
                corrections: 0,
                per_slice_pixels: vec![9],
                degraded: vec![],
                failed: vec![]
            })
            .status(),
            "ok"
        );
    }
}
