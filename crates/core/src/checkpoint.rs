//! Crash-safe checkpoint journal for Mode B volume runs.
//!
//! Long batch volumes are exactly the jobs that die to node preemption,
//! OOM kills, and power loss. The journal makes completed per-slice work
//! durable: each finished stage-1 slice (detections + stage-1 mask +
//! outcome) and each finished stage-3 mask is appended as one fsynced
//! JSONL record, and a restarted run replays the journal, recomputes
//! nothing that was journaled, and — because the temporal heuristic is a
//! deterministic function of the journaled detections — produces masks
//! **bit-identical** to an uninterrupted run.
//!
//! ## Record format
//!
//! One JSON object per line: `{"crc": <u32>, "body": "<record JSON>"}`.
//! The CRC-32 (IEEE) is computed over the exact bytes of the `body`
//! string, so replay never depends on re-serialization producing the
//! same bytes. A `kill -9` can tear at most the final line (records are
//! written with a single `write` + `fsync`); replay stops at the first
//! unparsable or checksum-failing record, truncates the file back to the
//! valid prefix, and resumes from there (`checkpoint.corrupt_tail`).
//!
//! The first record is a [`Header`] binding the journal to the volume
//! dimensions, prompt, and config fingerprint — a journal written for a
//! different run is ignored, not misapplied.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use zenesis_ground::Detection;
use zenesis_image::BitMask;
use zenesis_obs::output::AppendWriter;

use crate::temporal::SliceOutcome;

/// Journal file name inside the checkpoint directory.
pub const JOURNAL_FILE: &str = "volume.journal.jsonl";

/// Lease file name inside the checkpoint directory (see [`Lease`]).
pub const LEASE_FILE: &str = "volume.lease.json";

/// Where (and whether) a volume run checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory holding the journal (created if missing).
    pub dir: PathBuf,
    /// Replay an existing journal (`true`, the default) or discard it
    /// and start fresh (`false`).
    pub resume: bool,
}

impl CheckpointSpec {
    /// Checkpoint into `dir`, resuming any compatible journal found there.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            dir: dir.into(),
            resume: true,
        }
    }
}

/// Identity of the run a journal belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    /// Volume depth (slices).
    pub depth: usize,
    /// Slice width in pixels.
    pub width: usize,
    /// Slice height in pixels.
    pub height: usize,
    /// FNV-1a fingerprint of the prompt and serialized config.
    pub fingerprint: u64,
}

impl Header {
    /// Header for a run over a `depth x width x height` volume with the
    /// given prompt and serialized configuration.
    pub fn new(depth: usize, width: usize, height: usize, prompt: &str, config_json: &str) -> Self {
        let mut h = fnv64(prompt.as_bytes(), 0xcbf2_9ce4_8422_2325);
        h = fnv64(config_json.as_bytes(), h);
        Header {
            depth,
            width,
            height,
            fingerprint: h,
        }
    }
}

/// Stable 64-bit FNV-1a, continued from `seed`.
fn fnv64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CRC-32 (IEEE 802.3, reflected): the per-record checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A [`BitMask`] encoded for the journal: packed words as hex.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaskEnc {
    width: usize,
    height: usize,
    hex: String,
}

impl MaskEnc {
    /// Encode a mask word-for-word.
    pub fn encode(m: &BitMask) -> MaskEnc {
        let mut hex = String::with_capacity(m.words().len() * 16);
        for w in m.words() {
            hex.push_str(&format!("{w:016x}"));
        }
        MaskEnc {
            width: m.width(),
            height: m.height(),
            hex,
        }
    }

    /// Decode back into a mask; `None` when the payload is malformed
    /// (wrong word count, non-hex characters).
    pub fn decode(&self) -> Option<BitMask> {
        if self.width == 0 || self.height == 0 || !self.hex.len().is_multiple_of(16) {
            return None;
        }
        let expect = (self.width * self.height).div_ceil(64);
        if self.hex.len() / 16 != expect {
            return None;
        }
        let mut words = Vec::with_capacity(expect);
        for chunk in self.hex.as_bytes().chunks(16) {
            let s = std::str::from_utf8(chunk).ok()?;
            words.push(u64::from_str_radix(s, 16).ok()?);
        }
        Some(BitMask::from_words(self.width, self.height, words))
    }
}

/// One journal record. Internally tagged so every line is self-describing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "rec", rename_all = "snake_case")]
enum Record {
    Header {
        depth: usize,
        width: usize,
        height: usize,
        fingerprint: u64,
    },
    Slice {
        slice: usize,
        status: String,
        reason: String,
        detections: Vec<Detection>,
        combined: MaskEnc,
    },
    Mask {
        slice: usize,
        mask: MaskEnc,
        degraded_by_decode: bool,
    },
}

/// The CRC envelope around each record line.
#[derive(Debug, Serialize, Deserialize)]
struct Envelope {
    crc: u32,
    body: String,
}

fn encode_line(rec: &Record) -> String {
    let body = serde_json::to_string(rec).expect("journal records serialize");
    serde_json::to_string(&Envelope {
        crc: crc32(body.as_bytes()),
        body,
    })
    .expect("journal envelopes serialize")
}

fn decode_line(line: &[u8]) -> Result<Record, String> {
    let text = std::str::from_utf8(line).map_err(|_| "record is not UTF-8".to_string())?;
    let env: Envelope =
        serde_json::from_str(text).map_err(|e| format!("unparsable envelope: {e}"))?;
    let actual = crc32(env.body.as_bytes());
    if actual != env.crc {
        return Err(format!(
            "checksum mismatch (stored {:#010x}, computed {actual:#010x})",
            env.crc
        ));
    }
    serde_json::from_str(&env.body).map_err(|e| format!("unparsable record body: {e}"))
}

fn outcome_to_fields(o: &SliceOutcome) -> (String, String) {
    match o {
        SliceOutcome::Ok => ("ok".into(), String::new()),
        SliceOutcome::Degraded { reason } => ("degraded".into(), reason.clone()),
        SliceOutcome::Failed { reason } => ("failed".into(), reason.clone()),
    }
}

fn outcome_from_fields(status: &str, reason: &str) -> Option<SliceOutcome> {
    match status {
        "ok" => Some(SliceOutcome::Ok),
        "degraded" => Some(SliceOutcome::Degraded {
            reason: reason.to_string(),
        }),
        "failed" => Some(SliceOutcome::Failed {
            reason: reason.to_string(),
        }),
        _ => None,
    }
}

/// A replayed stage-1 slice record.
#[derive(Debug, Clone)]
pub struct ReplaySlice {
    /// The slice's journaled stage-1 outcome.
    pub outcome: SliceOutcome,
    /// Detections exactly as journaled (order preserved — the temporal
    /// heuristic and secondary-box decode depend on it).
    pub detections: Vec<Detection>,
    /// The stage-1 combined mask.
    pub combined: BitMask,
}

/// A replayed final (stage-3) mask record.
#[derive(Debug, Clone)]
pub struct ReplayMask {
    /// The final mask for the slice.
    pub mask: BitMask,
    /// Whether stage-3 decode had failed and the stage-1 mask was kept.
    pub degraded_by_decode: bool,
}

/// Everything a resumed run can skip, keyed by slice index.
#[derive(Debug, Default)]
pub struct Replay {
    /// Completed stage-1 slices.
    pub slices: HashMap<usize, ReplaySlice>,
    /// Completed stage-3 masks.
    pub masks: HashMap<usize, ReplayMask>,
}

/// An open journal plus whatever it replayed.
#[derive(Debug)]
pub struct Opened {
    /// The append handle for the continuing run.
    pub journal: Journal,
    /// Work recovered from the existing journal (empty on fresh runs).
    pub replay: Replay,
}

/// Append handle for the volume journal. Shared by the parallel slice
/// workers; appends are serialized internally.
#[derive(Debug)]
pub struct Journal {
    writer: Mutex<AppendWriter>,
}

impl Journal {
    /// Open (or create) the journal in `dir` for the run identified by
    /// `header`, replaying any compatible existing journal when `resume`.
    ///
    /// * A torn or checksum-failing tail is truncated away
    ///   (`checkpoint.corrupt_tail`); everything before it replays.
    /// * A journal whose header does not match `header` (different
    ///   volume, prompt, or config) is discarded entirely.
    /// * `resume = false` always starts fresh.
    pub fn open(dir: &Path, header: &Header, resume: bool) -> io::Result<Opened> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut replay = Replay::default();
        let mut fresh = true;
        if resume && path.exists() {
            let data = std::fs::read(&path)?;
            let (records, valid_bytes, corrupt) = scan(&data);
            if valid_bytes < data.len() {
                // Recovery papers over the data loss (the dropped records
                // are simply recomputed), so the loss itself must be loud:
                // a warn + counter with the exact byte offset, not just
                // the structured corrupt-tail event.
                let dropped = data.len() - valid_bytes;
                zenesis_obs::counter("checkpoint.truncated").inc();
                zenesis_obs::events::warn(format!(
                    "checkpoint journal truncated at byte {valid_bytes} \
                     ({dropped} corrupt/torn tail bytes dropped)"
                ));
                if let Some(reason) = corrupt {
                    zenesis_obs::counter("checkpoint.corrupt_tail").inc();
                    zenesis_obs::events::emit(
                        zenesis_obs::events::Event::CheckpointCorruptTail {
                            kept: records.len(),
                            offset: valid_bytes as u64,
                            reason,
                        },
                    );
                }
                let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_bytes as u64)?;
                f.sync_data()?;
            }
            match records.first() {
                Some(Record::Header {
                    depth,
                    width,
                    height,
                    fingerprint,
                }) if *depth == header.depth
                    && *width == header.width
                    && *height == header.height
                    && *fingerprint == header.fingerprint =>
                {
                    fresh = false;
                    for rec in records.into_iter().skip(1) {
                        match rec {
                            Record::Slice {
                                slice,
                                status,
                                reason,
                                detections,
                                combined,
                            } => {
                                if let (Some(outcome), Some(combined)) =
                                    (outcome_from_fields(&status, &reason), combined.decode())
                                {
                                    replay.slices.insert(
                                        slice,
                                        ReplaySlice {
                                            outcome,
                                            detections,
                                            combined,
                                        },
                                    );
                                }
                            }
                            Record::Mask {
                                slice,
                                mask,
                                degraded_by_decode,
                            } => {
                                if let Some(mask) = mask.decode() {
                                    replay.masks.insert(
                                        slice,
                                        ReplayMask {
                                            mask,
                                            degraded_by_decode,
                                        },
                                    );
                                }
                            }
                            // A second header mid-file means the journal
                            // was mixed; trust nothing after it.
                            Record::Header { .. } => break,
                        }
                    }
                    zenesis_obs::counter("checkpoint.replay").inc();
                    zenesis_obs::events::emit(zenesis_obs::events::Event::CheckpointReplay {
                        slices: replay.slices.len(),
                        masks: replay.masks.len(),
                    });
                }
                Some(_) => {
                    zenesis_obs::events::warn(
                        "checkpoint journal belongs to a different run; starting fresh",
                    );
                }
                None => {}
            }
        }
        if fresh {
            // Discard any incompatible/foreign journal before appending.
            let _ = std::fs::remove_file(&path);
        }
        let writer = AppendWriter::open(&path)?;
        let journal = Journal {
            writer: Mutex::new(writer),
        };
        if fresh {
            journal.append(
                &Record::Header {
                    depth: header.depth,
                    width: header.width,
                    height: header.height,
                    fingerprint: header.fingerprint,
                },
                0,
                "header",
            );
        }
        Ok(Opened { journal, replay })
    }

    /// Durably journal one completed stage-1 slice.
    pub fn record_slice(
        &self,
        slice: usize,
        outcome: &SliceOutcome,
        detections: &[Detection],
        combined: &BitMask,
    ) {
        let (status, reason) = outcome_to_fields(outcome);
        self.append(
            &Record::Slice {
                slice,
                status,
                reason,
                detections: detections.to_vec(),
                combined: MaskEnc::encode(combined),
            },
            slice,
            "slice",
        );
    }

    /// Durably journal one completed stage-3 (final) mask.
    pub fn record_mask(&self, slice: usize, mask: &BitMask, degraded_by_decode: bool) {
        self.append(
            &Record::Mask {
                slice,
                mask: MaskEnc::encode(mask),
                degraded_by_decode,
            },
            slice,
            "mask",
        );
    }

    /// Best-effort durable append: an I/O failure (or an armed `io.write`
    /// fault) loses this record's durability but never fails the run —
    /// the slice result lives on in memory and the record is simply
    /// recomputed on resume.
    fn append(&self, rec: &Record, slice: usize, kind: &'static str) {
        if zenesis_fault::trip("io.write").is_some() {
            zenesis_obs::counter("checkpoint.write.dropped").inc();
            zenesis_obs::events::warn(format!(
                "checkpoint {kind} record for slice {slice} dropped by injected io.write fault"
            ));
            return;
        }
        let line = encode_line(rec);
        let mut w = self.writer.lock().expect("journal writer lock");
        match w.append_line(&line) {
            Ok(()) => {
                zenesis_obs::counter("checkpoint.write").inc();
                zenesis_obs::events::emit(zenesis_obs::events::Event::CheckpointWrite {
                    slice,
                    record: kind.into(),
                });
            }
            Err(e) => {
                zenesis_obs::counter("checkpoint.write.error").inc();
                zenesis_obs::events::warn(format!(
                    "checkpoint {kind} record for slice {slice} failed to append: {e}"
                ));
            }
        }
    }
}

/// Walk the journal bytes line by line. Returns the records of the valid
/// prefix, the byte length of that prefix, and — when scanning stopped
/// early — the reason the next record was rejected.
fn scan(data: &[u8]) -> (Vec<Record>, usize, Option<String>) {
    let mut records = Vec::new();
    let mut valid = 0usize;
    let mut pos = 0usize;
    while pos < data.len() {
        let nl = match data[pos..].iter().position(|&b| b == b'\n') {
            Some(i) => pos + i,
            None => {
                return (
                    records,
                    valid,
                    Some("truncated final record (no newline)".into()),
                )
            }
        };
        match decode_line(&data[pos..nl]) {
            Ok(rec) => {
                records.push(rec);
                valid = nl + 1;
                pos = nl + 1;
            }
            Err(e) => return (records, valid, Some(e)),
        }
    }
    (records, valid, None)
}

/// Current byte length of the journal in `dir` (0 when absent). The
/// supervisor's poison breaker uses growth of this number as "the dead
/// worker made forward progress before it died".
pub fn journal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(JOURNAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0)
}

/// Read the [`Header`] of an existing journal in `dir` without opening
/// it for append: `None` when there is no journal, the file is
/// unreadable, or its first record is not an intact header.
pub fn discover(dir: &Path) -> Option<Header> {
    let data = std::fs::read(dir.join(JOURNAL_FILE)).ok()?;
    let (records, _, _) = scan(&data);
    match records.first() {
        Some(Record::Header {
            depth,
            width,
            height,
            fingerprint,
        }) => Some(Header {
            depth: *depth,
            width: *width,
            height: *height,
            fingerprint: *fingerprint,
        }),
        _ => None,
    }
}

/// Why a [`Lease`] could not be acquired.
#[derive(Debug)]
pub enum LeaseError {
    /// Another live process holds the lease.
    Held {
        /// The holder's pid, as recorded in the lease file.
        pid: u32,
    },
    /// The lease file could not be read or written.
    Io(io::Error),
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Held { pid } => {
                write!(f, "checkpoint directory leased by live process {pid}")
            }
            LeaseError::Io(e) => write!(f, "lease I/O failure: {e}"),
        }
    }
}

impl std::error::Error for LeaseError {}

/// What the lease file stores: which run the lease binds to and who
/// holds it.
#[derive(Debug, Serialize, Deserialize)]
struct LeaseRecord {
    fingerprint: u64,
    pid: u32,
}

/// Whether `pid` names a live process. Linux-only `/proc` probe (no
/// libc dependency); other platforms conservatively report dead, which
/// degrades the lease to advisory there.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        false
    }
}

/// A fingerprint-bound exclusive lease on a checkpoint directory.
///
/// The supervisor takes the lease before any worker touches the
/// journal, holds it across worker crashes and restarts (the lease
/// belongs to the *supervisor*, which survives them), and releases it
/// when the batch completes. A second resume attempt against the same
/// directory — a concurrent job, or another service instance — sees
/// [`LeaseError::Held`] instead of double-appending to the journal.
///
/// A lease whose recorded pid is dead is an **orphan** (its supervisor
/// was itself killed) and is reclaimed in place: stolen with a warning
/// and a `checkpoint.lease.steal` counter tick, never a refusal —
/// crash recovery must not be blocked by the crash's own debris.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    released: bool,
}

impl Lease {
    /// Acquire the lease on `dir` for the run identified by
    /// `fingerprint`. Re-acquiring a lease this process already holds
    /// succeeds (idempotent); a dead holder is reclaimed; a live holder
    /// is an error.
    pub fn acquire(dir: &Path, fingerprint: u64) -> Result<Lease, LeaseError> {
        std::fs::create_dir_all(dir).map_err(LeaseError::Io)?;
        let path = dir.join(LEASE_FILE);
        let me = std::process::id();
        if let Ok(data) = std::fs::read_to_string(&path) {
            if let Ok(prev) = serde_json::from_str::<LeaseRecord>(&data) {
                if prev.pid != me && pid_alive(prev.pid) {
                    return Err(LeaseError::Held { pid: prev.pid });
                }
                if prev.pid != me {
                    zenesis_obs::counter("checkpoint.lease.steal").inc();
                    zenesis_obs::events::warn(format!(
                        "reclaiming orphaned checkpoint lease in {} \
                         (holder {} is dead, fingerprint {})",
                        dir.display(),
                        prev.pid,
                        if prev.fingerprint == fingerprint {
                            "matches".to_string()
                        } else {
                            format!("differs: {:#x}", prev.fingerprint)
                        }
                    ));
                }
            }
            // An unparsable lease file is torn debris; overwrite it.
        }
        let rec = serde_json::to_string(&LeaseRecord {
            fingerprint,
            pid: me,
        })
        .expect("lease records serialize");
        // Atomic replace: a crash mid-write can never leave a lease file
        // that parses to someone else's claim.
        let tmp = dir.join(format!("{LEASE_FILE}.tmp.{me}"));
        std::fs::write(&tmp, rec).map_err(LeaseError::Io)?;
        std::fs::rename(&tmp, &path).map_err(LeaseError::Io)?;
        Ok(Lease {
            path,
            released: false,
        })
    }

    /// Release the lease now, reporting any unlink failure (Drop
    /// releases best-effort and silently).
    pub fn release(mut self) -> io::Result<()> {
        self.released = true;
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if !self.released {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zenesis_image::BoxRegion;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("zenesis-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn mask(seed: u64) -> BitMask {
        BitMask::from_fn(33, 17, |x, y| (x as u64 * 7 + y as u64 * 13 + seed).is_multiple_of(3))
    }

    fn det(i: usize) -> Detection {
        Detection {
            bbox: BoxRegion::new(i, i, i + 10, i + 12),
            score: 0.5 + i as f64 / 100.0,
            phrase: format!("obj{i}"),
        }
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn mask_enc_roundtrip() {
        let m = mask(5);
        let enc = MaskEnc::encode(&m);
        assert_eq!(enc.decode().unwrap(), m);
        // Malformed payloads decode to None, never panic.
        let bad = MaskEnc {
            width: 33,
            height: 17,
            hex: "zz".repeat(8),
        };
        assert!(bad.decode().is_none());
        let short = MaskEnc {
            width: 33,
            height: 17,
            hex: "0".repeat(16),
        };
        assert!(short.decode().is_none());
    }

    #[test]
    fn journal_roundtrip_replays_everything() {
        let dir = tmp_dir("roundtrip");
        let header = Header::new(4, 33, 17, "needles", "{\"cfg\":1}");
        let opened = Journal::open(&dir, &header, true).unwrap();
        assert!(opened.replay.slices.is_empty());
        opened.journal.record_slice(
            0,
            &SliceOutcome::Ok,
            &[det(1), det(2)],
            &mask(0),
        );
        opened.journal.record_slice(
            2,
            &SliceOutcome::Degraded {
                reason: "injected".into(),
            },
            &[],
            &mask(2),
        );
        opened.journal.record_mask(0, &mask(10), false);
        drop(opened);

        let back = Journal::open(&dir, &header, true).unwrap();
        assert_eq!(back.replay.slices.len(), 2);
        assert_eq!(back.replay.masks.len(), 1);
        let s0 = &back.replay.slices[&0];
        assert_eq!(s0.outcome, SliceOutcome::Ok);
        assert_eq!(s0.detections, vec![det(1), det(2)]);
        assert_eq!(s0.combined, mask(0));
        assert_eq!(
            back.replay.slices[&2].outcome,
            SliceOutcome::Degraded {
                reason: "injected".into()
            }
        );
        assert_eq!(back.replay.masks[&0].mask, mask(10));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_replays() {
        let dir = tmp_dir("torn");
        let header = Header::new(3, 33, 17, "p", "c");
        let opened = Journal::open(&dir, &header, true).unwrap();
        opened.journal.record_slice(0, &SliceOutcome::Ok, &[det(1)], &mask(0));
        opened.journal.record_slice(1, &SliceOutcome::Ok, &[], &mask(1));
        drop(opened);
        // Simulate a kill -9 mid-append: chop the last record in half.
        let path = dir.join(JOURNAL_FILE);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 40]).unwrap();

        let back = Journal::open(&dir, &header, true).unwrap();
        assert_eq!(back.replay.slices.len(), 1, "only the intact record survives");
        assert!(back.replay.slices.contains_key(&0));
        // The file itself was truncated back to the valid prefix, so the
        // next append produces a well-formed journal.
        back.journal.record_slice(1, &SliceOutcome::Ok, &[], &mask(1));
        drop(back);
        let again = Journal::open(&dir, &header, true).unwrap();
        assert_eq!(again.replay.slices.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_corruption_stops_replay_at_the_bad_record() {
        let dir = tmp_dir("crc");
        let header = Header::new(3, 33, 17, "p", "c");
        let opened = Journal::open(&dir, &header, true).unwrap();
        opened.journal.record_slice(0, &SliceOutcome::Ok, &[], &mask(0));
        opened.journal.record_slice(1, &SliceOutcome::Ok, &[], &mask(1));
        drop(opened);
        // Flip one hex digit inside the LAST record's body.
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let corrupted = lines[lines.len() - 1].replacen("0", "1", 1);
        let mut out: Vec<String> = lines[..lines.len() - 1].iter().map(|s| s.to_string()).collect();
        out.push(corrupted);
        std::fs::write(&path, out.join("\n") + "\n").unwrap();

        let back = Journal::open(&dir, &header, true).unwrap();
        assert_eq!(back.replay.slices.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_header_starts_fresh() {
        let dir = tmp_dir("mismatch");
        let h1 = Header::new(4, 33, 17, "needles", "cfg-a");
        let opened = Journal::open(&dir, &h1, true).unwrap();
        opened.journal.record_slice(0, &SliceOutcome::Ok, &[], &mask(0));
        drop(opened);
        // Different prompt -> different fingerprint -> journal discarded.
        let h2 = Header::new(4, 33, 17, "particles", "cfg-a");
        assert_ne!(h1.fingerprint, h2.fingerprint);
        let back = Journal::open(&dir, &h2, true).unwrap();
        assert!(back.replay.slices.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discover_reads_the_header_without_appending() {
        let dir = tmp_dir("discover");
        assert!(discover(&dir).is_none(), "no journal yet");
        assert_eq!(journal_len(&dir), 0);
        let header = Header::new(4, 33, 17, "needles", "cfg");
        let opened = Journal::open(&dir, &header, true).unwrap();
        opened.journal.record_slice(0, &SliceOutcome::Ok, &[], &mask(0));
        drop(opened);
        let found = discover(&dir).expect("journal has a header");
        assert_eq!(found, header);
        assert!(journal_len(&dir) > 0);
        // Discovery replays nothing and appends nothing: a second open
        // still sees exactly one slice.
        let back = Journal::open(&dir, &header, true).unwrap();
        assert_eq!(back.replay.slices.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_excludes_live_holders_and_reclaims_dead_ones() {
        let dir = tmp_dir("lease");
        std::fs::create_dir_all(&dir).unwrap();
        // Fresh acquire, idempotent re-acquire by the same process.
        let a = Lease::acquire(&dir, 7).expect("fresh acquire");
        let b = Lease::acquire(&dir, 7).expect("same-process re-acquire");
        drop(b);
        // Write a lease held by a live foreign process (pid 1 is always
        // alive on Linux): acquire must refuse.
        let path = dir.join(LEASE_FILE);
        std::fs::write(&path, r#"{"fingerprint":7,"pid":1}"#).unwrap();
        match Lease::acquire(&dir, 7) {
            Err(LeaseError::Held { pid: 1 }) => {}
            other => panic!("expected Held by pid 1, got {other:?}"),
        }
        // A dead holder (no such pid) is an orphan: stolen, not refused.
        std::fs::write(&path, r#"{"fingerprint":9,"pid":4294967294}"#).unwrap();
        let stolen = Lease::acquire(&dir, 7).expect("orphan lease reclaimed");
        stolen.release().unwrap();
        assert!(!path.exists(), "release removes the lease file");
        // Torn lease debris is overwritten, not fatal.
        std::fs::write(&path, "{not json").unwrap();
        let c = Lease::acquire(&dir, 7).expect("torn lease overwritten");
        drop(c);
        assert!(!path.exists(), "drop releases too");
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_reports_the_byte_offset() {
        let dir = tmp_dir("truncoffset");
        let header = Header::new(3, 33, 17, "p", "c");
        let opened = Journal::open(&dir, &header, true).unwrap();
        opened.journal.record_slice(0, &SliceOutcome::Ok, &[], &mask(0));
        drop(opened);
        let path = dir.join(JOURNAL_FILE);
        let data = std::fs::read(&path).unwrap();
        let valid = data.len();
        let mut torn = data.clone();
        torn.extend_from_slice(&data[..40]); // torn duplicate tail, no newline
        std::fs::write(&path, &torn).unwrap();

        zenesis_obs::set_level(zenesis_obs::ObsLevel::Full);
        zenesis_obs::reset();
        let back = Journal::open(&dir, &header, true).unwrap();
        assert_eq!(back.replay.slices.len(), 1);
        drop(back);
        let events = zenesis_obs::events::events_snapshot();
        let warned = events.iter().any(|e| {
            e.event.kind() == "warn"
                && format!("{:?}", e.event).contains(&format!("truncated at byte {valid}"))
        });
        assert!(warned, "no truncation warn with the byte offset: {events:?}");
        // Other tests in this binary tear journals concurrently while the
        // level is `Full`, so look for this journal's event, not the first.
        let corrupt = events.iter().any(|e| {
            matches!(&e.event, zenesis_obs::events::Event::CheckpointCorruptTail { offset, .. }
                if *offset == valid as u64)
        });
        assert!(
            corrupt,
            "no corrupt-tail event at offset {valid}: {events:?}"
        );
        zenesis_obs::set_level(zenesis_obs::ObsLevel::Off);
        zenesis_obs::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_false_discards_existing_journal() {
        let dir = tmp_dir("noresume");
        let header = Header::new(2, 33, 17, "p", "c");
        let opened = Journal::open(&dir, &header, true).unwrap();
        opened.journal.record_slice(0, &SliceOutcome::Ok, &[], &mask(0));
        drop(opened);
        let back = Journal::open(&dir, &header, false).unwrap();
        assert!(back.replay.slices.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
