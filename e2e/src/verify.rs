//! Answer verification, run after a timed window and never inside it.
//!
//! Every response is compared with an in-process
//! `zenesis_core::job::run_job` of the same spec. A request that got no
//! answer, a status other than `ok`, or an answer that differs is a failed
//! operation.

use std::path::PathBuf;

use zenesis_core::job::{run_job, JobResult, JobSpec};

use crate::loadgen::Record;

/// The reference answers of a workload's distinct specs, by key.
pub fn reference_answers(specs: &[JobSpec]) -> Vec<JobResult> {
    zenesis_par::par_map(specs, run_job)
}

/// Why `got` is not the answer `expected`, or `None` when it is. The
/// fields compared are the deterministic ones: boxes, pixel counts and
/// temporal corrections must match exactly; timings are not compared.
pub fn mismatch(expected: &JobResult, got: &JobResult) -> Option<String> {
    match (expected, got) {
        (
            JobResult::Slice {
                detections: ed,
                mask_pixels: ep,
                ..
            },
            JobResult::Slice {
                detections: gd,
                mask_pixels: gp,
                ..
            },
        ) => {
            if ed != gd {
                Some(format!("detections differ: expected {ed:?}, got {gd:?}"))
            } else if ep != gp {
                Some(format!("mask_pixels differ: expected {ep}, got {gp}"))
            } else {
                None
            }
        }
        (
            JobResult::Volume {
                depth: edepth,
                corrections: ec,
                per_slice_pixels: ep,
                ..
            },
            JobResult::Volume {
                depth: gdepth,
                corrections: gc,
                per_slice_pixels: gp,
                ..
            },
        ) => {
            if edepth != gdepth {
                Some(format!("depth differs: expected {edepth}, got {gdepth}"))
            } else if ec != gc {
                Some(format!("corrections differ: expected {ec}, got {gc}"))
            } else if ep != gp {
                Some("per_slice_pixels differ".to_string())
            } else {
                None
            }
        }
        (e, g) => Some(format!("expected {}, got {}", kind(e), kind(g))),
    }
}

fn kind(r: &JobResult) -> &'static str {
    match r {
        JobResult::Slice { .. } => "a slice result",
        JobResult::Volume { .. } => "a volume result",
        JobResult::Evaluation { .. } => "an evaluation result",
        JobResult::Error { .. } => "an error",
        JobResult::Busy { .. } => "busy",
        JobResult::Timeout { .. } => "a timeout",
    }
}

/// What one record's check found.
fn check_record(record: &Record, expected: &[JobResult]) -> Result<(), String> {
    let reply = record.reply.as_ref().ok_or("no response")?;
    if reply.status != "ok" {
        return Err(format!("status {}", reply.status));
    }
    let got: JobResult =
        serde_json::from_value(&reply.result).map_err(|e| format!("result does not parse: {e}"))?;
    mismatch(&expected[record.key], &got).map_or(Ok(()), Err)
}

/// Count the failed operations among `records`; each failure's reason goes
/// to `reasons` (the caller prints the first few).
pub fn count_failures(
    records: &[Record],
    expected: &[JobResult],
    reasons: &mut Vec<String>,
) -> usize {
    records
        .iter()
        .filter(|r| match check_record(r, expected) {
            Ok(()) => false,
            Err(why) => {
                reasons.push(format!("request with key {}: {why}", r.key));
                true
            }
        })
        .count()
}

/// Where one batch job was told to write.
#[derive(Debug, Clone)]
pub struct JobPaths {
    pub checkpoint_dir: PathBuf,
    pub masks_out: PathBuf,
}

/// Check what an answered batch job left on disk, then remove it: the mask
/// stack must hold one page per slice with the pixel counts the response
/// reported, and the journal must exist and be non-empty.
pub fn check_batch_artifacts(record: &Record, paths: &JobPaths) -> Result<(), String> {
    let result = (|| {
        let reply = record.reply.as_ref().ok_or("no response")?;
        let got: JobResult = serde_json::from_value(&reply.result)
            .map_err(|e| format!("result does not parse: {e}"))?;
        let JobResult::Volume {
            per_slice_pixels, ..
        } = got
        else {
            return Err(format!("expected a volume result, got {}", kind(&got)));
        };
        let bytes = std::fs::read(&paths.masks_out)
            .map_err(|e| format!("cannot read {}: {e}", paths.masks_out.display()))?;
        let masks = zenesis_tiff::read_mask_tiff(&bytes)
            .map_err(|e| format!("mask stack does not decode: {e}"))?;
        let on_disk: Vec<usize> = masks.iter().map(|m| m.count()).collect();
        if on_disk != per_slice_pixels {
            return Err(format!(
                "mask stack has {} pages whose pixel counts differ from the response's {}",
                on_disk.len(),
                per_slice_pixels.len()
            ));
        }
        if zenesis_core::checkpoint::journal_len(&paths.checkpoint_dir) == 0 {
            return Err(format!("no journal in {}", paths.checkpoint_dir.display()));
        }
        Ok(())
    })();
    remove_job_files(paths);
    result
}

/// Remove a batch job's outputs, whether or not it completed.
pub fn remove_job_files(paths: &JobPaths) {
    let _ = std::fs::remove_dir_all(&paths.checkpoint_dir);
    let _ = std::fs::remove_file(&paths.masks_out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{parse_reply, Record};
    use std::time::Instant;
    use zenesis_core::job::{InputSpec, PhantomKind};

    fn tiny_spec(seed: u64) -> JobSpec {
        JobSpec::Interactive {
            input: InputSpec::PhantomSlice {
                kind: PhantomKind::Amorphous,
                seed,
                side: 32,
            },
            prompt: "bright particles".into(),
            config: None,
        }
    }

    /// A record answered the way the server would answer `result`.
    fn answered(key: usize, status: &str, result: &JobResult) -> Record {
        let line = format!(
            r#"{{"id":1,"status":"{status}","trace_id":"00","attempts":1,"queue_ms":0.0,"run_ms":1.0,"result":{}}}"#,
            serde_json::to_string(result).unwrap()
        );
        let now = Instant::now();
        Record {
            key,
            due: now,
            sent: now,
            done: Some(now),
            reply: Some(parse_reply(&line).unwrap()),
        }
    }

    #[test]
    fn a_corrupted_expectation_is_counted_as_a_failed_operation() {
        let specs = [tiny_spec(1), tiny_spec(2)];
        let mut expected = reference_answers(&specs);
        let records = vec![
            answered(0, "ok", &expected[0]),
            answered(1, "ok", &expected[1]),
            answered(0, "ok", &expected[0]),
        ];
        let mut reasons = Vec::new();
        assert_eq!(
            count_failures(&records, &expected, &mut reasons),
            0,
            "{reasons:?}"
        );

        // Corrupt what key 0 must answer: both requests with key 0 fail.
        let JobResult::Slice { mask_pixels, .. } = &mut expected[0] else {
            panic!("interactive jobs answer with a slice result");
        };
        *mask_pixels += 1;
        assert_eq!(count_failures(&records, &expected, &mut reasons), 2);
        assert!(reasons[0].contains("mask_pixels differ"), "{reasons:?}");
    }

    #[test]
    fn missing_and_refused_answers_are_failed_operations() {
        let expected = reference_answers(&[tiny_spec(1)]);
        let now = Instant::now();
        let unanswered = Record {
            key: 0,
            due: now,
            sent: now,
            done: None,
            reply: None,
        };
        let busy = answered(
            0,
            "busy",
            &JobResult::Busy {
                message: "queue full".into(),
                capacity: 64,
            },
        );
        let wrong_kind = answered(
            0,
            "ok",
            &JobResult::Volume {
                depth: 1,
                corrections: 0,
                per_slice_pixels: vec![1],
                degraded: vec![],
                failed: vec![],
            },
        );
        let mut reasons = Vec::new();
        let records = [
            unanswered,
            busy,
            wrong_kind,
            answered(0, "ok", &expected[0]),
        ];
        assert_eq!(count_failures(&records, &expected, &mut reasons), 3);
        assert_eq!(reasons.len(), 3);
    }

    #[test]
    fn detections_must_match_exactly() {
        let expected = reference_answers(&[tiny_spec(1)]);
        let mut moved = expected[0].clone();
        if let JobResult::Slice { detections, .. } = &mut moved {
            match detections.first_mut() {
                Some(b) => b.x1 += 1,
                None => detections.push(zenesis_image::BoxRegion::new(0, 0, 1, 1)),
            }
        }
        assert!(mismatch(&expected[0], &moved)
            .unwrap()
            .contains("detections differ"));
        assert_eq!(mismatch(&expected[0], &expected[0]), None);
    }
}
