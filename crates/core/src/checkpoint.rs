//! Crash-safe checkpoint journal for Mode B volume runs.
//!
//! Long batch volumes are exactly the jobs that die to node preemption,
//! OOM kills, and power loss. The journal makes completed per-slice work
//! durable: each finished stage-1 slice (detections + stage-1 mask +
//! outcome) and each finished stage-3 mask is appended as one JSONL
//! record, and a restarted run replays the journal, recomputes nothing
//! that was journaled, and — because the temporal heuristic is a
//! deterministic function of the journaled detections — produces masks
//! **bit-identical** to an uninterrupted run.
//!
//! ## Group commit
//!
//! A worker's append encodes its record and `write`s it before the worker
//! moves on, so a `kill -9`, an OOM kill or a panic loses no record, and
//! [`journal_len`] grows at once. Making records survive a power loss is
//! left to `Journal::commit`: one `fsync` covers every record written
//! since the last, and runs on a thread no worker waits for — the volume
//! run's caller, which commits every `COMMIT_PERIOD` while its workers
//! run and once more before it returns. A power loss therefore loses at
//! most the records since the last commit, which a resumed run recomputes.
//!
//! ## Record format
//!
//! One JSON object per line: `{"crc": <u32>, "body": "<record JSON>"}`.
//! The CRC-32 (IEEE) is computed over the exact bytes of the `body`
//! string, so replay never depends on re-serialization producing the
//! same bytes. A crash can tear at most the final line (each record is
//! written with a single `write`); replay stops at the first
//! unparsable or checksum-failing record, truncates the file back to the
//! valid prefix, and resumes from there (`checkpoint.corrupt_tail`).
//!
//! The first record is a [`Header`] binding the journal to the volume
//! dimensions, prompt, and config fingerprint — a journal written for a
//! different run is ignored, not misapplied.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use zenesis_ground::Detection;
use zenesis_image::BitMask;
use zenesis_obs::output::{AppendWriter, Syncer};

use crate::temporal::SliceOutcome;

/// Journal file name inside the checkpoint directory.
pub const JOURNAL_FILE: &str = "volume.journal.jsonl";

/// How often a volume run's caller commits the journal while its workers
/// run: the most a power loss can cost is the records of this long.
pub(crate) const COMMIT_PERIOD: Duration = Duration::from_millis(10);

/// Lease file name inside the checkpoint directory (see [`Lease`]).
pub(crate) const LEASE_FILE: &str = "volume.lease.json";

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
    pub(crate) depth: usize,
    /// Slice width in pixels.
    pub(crate) width: usize,
    /// Slice height in pixels.
    pub(crate) height: usize,
    /// FNV-1a fingerprint of the prompt and serialized config.
    pub(crate) fingerprint: u64,
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

/// The reflected CRC-32 register after shifting each byte value through
/// eight rounds of the polynomial: one lookup replaces a byte's rounds.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected): the per-record checksum.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let crc = data.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
        CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
    });
    !crc
}

/// Lower-case hex digit of each nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// A [`BitMask`] encoded for the journal: packed words as hex.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct MaskEnc {
    width: usize,
    height: usize,
    hex: String,
}

impl MaskEnc {
    /// Encode a mask word-for-word.
    pub(crate) fn encode(m: &BitMask) -> MaskEnc {
        let mut hex = Vec::with_capacity(m.words().len() * 16);
        for &w in m.words() {
            hex.extend(
                (0..16)
                    .rev()
                    .map(|i| HEX_DIGITS[(w >> (4 * i)) as usize & 0xF]),
            );
        }
        MaskEnc {
            width: m.width(),
            height: m.height(),
            hex: String::from_utf8(hex).expect("hex digits are ASCII"),
        }
    }

    /// Decode back into a mask; `None` when the payload is malformed
    /// (wrong word count, non-hex characters).
    pub(crate) fn decode(&self) -> Option<BitMask> {
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
pub(crate) struct ReplaySlice {
    /// The slice's journaled stage-1 outcome.
    pub(crate) outcome: SliceOutcome,
    /// Detections exactly as journaled (order preserved — the temporal
    /// heuristic and secondary-box decode depend on it).
    pub(crate) detections: Vec<Detection>,
    /// The stage-1 combined mask.
    pub(crate) combined: BitMask,
}

/// A replayed final (stage-3) mask record.
#[derive(Debug, Clone)]
pub(crate) struct ReplayMask {
    /// The final mask for the slice.
    pub mask: BitMask,
    /// Whether stage-3 decode had failed and the stage-1 mask was kept.
    pub(crate) degraded_by_decode: bool,
}

/// Everything a resumed run can skip, keyed by slice index.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// Completed stage-1 slices.
    pub(crate) slices: HashMap<usize, ReplaySlice>,
    /// Completed stage-3 masks.
    pub(crate) masks: HashMap<usize, ReplayMask>,
}

/// An open journal plus whatever it replayed.
#[derive(Debug)]
pub struct Opened {
    /// The append handle for the continuing run.
    pub journal: Journal,
    /// Work recovered from the existing journal (empty on fresh runs).
    pub(crate) replay: Replay,
}

/// Append handle for the volume journal. Shared by the parallel slice
/// workers; appends are serialized internally, and `Journal::commit`
/// makes them durable without holding up an append. Dropping the journal
/// commits it.
#[derive(Debug)]
pub struct Journal {
    writer: Mutex<AppendWriter>,
    syncer: Syncer,
    /// Records written so far.
    written: AtomicU64,
    /// Records made durable so far; held across a commit's `fsync`.
    committed: Mutex<u64>,
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
                    zenesis_obs::events::emit(zenesis_obs::events::Event::CheckpointCorruptTail {
                        kept: records.len(),
                        offset: valid_bytes as u64,
                        reason,
                    });
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
            syncer: writer.syncer()?,
            writer: Mutex::new(writer),
            written: AtomicU64::new(0),
            committed: Mutex::new(0),
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
            journal.commit();
        }
        Ok(Opened { journal, replay })
    }

    /// Journal one completed stage-1 slice: written when this returns,
    /// durable after the next `Journal::commit`.
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

    /// Journal one completed stage-3 (final) mask: written when this
    /// returns, durable after the next `Journal::commit`.
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

    /// Best-effort append: an I/O failure (or an armed `io.write` fault)
    /// loses this record but never fails the run — the slice result lives
    /// on in memory and the record is simply recomputed on resume.
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
        match w.write_line(&line) {
            Ok(()) => {
                self.written.fetch_add(1, Ordering::Release);
                drop(w);
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

    /// Make every record written so far durable with one `fsync`
    /// (`checkpoint.sync`), unless none was written since the last
    /// commit. Best-effort like the appends: a failed sync
    /// (`checkpoint.sync.error`) leaves those records to be recomputed
    /// after a power loss, and the next commit tries again.
    pub(crate) fn commit(&self) {
        let mut committed = self.committed.lock().unwrap_or_else(|e| e.into_inner());
        let written = self.written.load(Ordering::Acquire);
        if written == *committed {
            return;
        }
        zenesis_obs::counter("checkpoint.sync").inc();
        match self.syncer.sync() {
            Ok(()) => *committed = written,
            Err(e) => {
                zenesis_obs::counter("checkpoint.sync.error").inc();
                zenesis_obs::events::warn(format!("checkpoint journal failed to sync: {e}"));
            }
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.commit();
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

/// Why a [`Lease`] could not be acquired.
#[derive(Debug)]
pub enum LeaseError {
    /// Another job in this process, or another live process, holds
    /// the lease.
    Held {
        /// The holder's pid: this process's own for a holder inside it,
        /// else as recorded in the lease file.
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
/// The serving worker takes the lease before any job touches the
/// journal, holds it for the whole job — across process-worker crashes
/// and restarts — and releases it when the batch completes. A second
/// resume attempt against the same directory — a concurrent job in this
/// process, or another service instance — sees [`LeaseError::Held`]
/// instead of double-appending to the journal.
///
/// A lease whose recorded pid is dead is an **orphan** (its holder was
/// itself killed) and is reclaimed in place: stolen with a warning and a
/// `checkpoint.lease.steal` counter tick, never a refusal — crash
/// recovery must not be blocked by the crash's own debris.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
}

/// Lease files this process holds, by canonical path: the pid in a lease
/// file cannot tell two holders inside one process apart.
static HELD: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());

/// The held set. Every update is one insert or remove, so the set stays
/// valid even if a holder panicked while holding the lock.
fn held() -> std::sync::MutexGuard<'static, BTreeSet<PathBuf>> {
    HELD.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Lease {
    /// Acquire the lease on `dir` for the run identified by
    /// `fingerprint`. A live holder — another lease in this process or
    /// another live process — is an error; a dead holder is reclaimed.
    pub fn acquire(dir: &Path, fingerprint: u64) -> Result<Lease, LeaseError> {
        std::fs::create_dir_all(dir).map_err(LeaseError::Io)?;
        let path = dir.canonicalize().map_err(LeaseError::Io)?.join(LEASE_FILE);
        let me = std::process::id();
        if !held().insert(path.clone()) {
            return Err(LeaseError::Held { pid: me });
        }
        match claim(dir, &path, fingerprint, me) {
            Ok(()) => Ok(Lease { path }),
            Err(e) => {
                held().remove(&path);
                Err(e)
            }
        }
    }
}

/// Write this process's claim to the lease file at `path`, unless a
/// live foreign process holds it.
fn claim(dir: &Path, path: &Path, fingerprint: u64, me: u32) -> Result<(), LeaseError> {
    if let Ok(data) = std::fs::read_to_string(path) {
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
    std::fs::rename(&tmp, path).map_err(LeaseError::Io)
}

impl Drop for Lease {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        // Only after the file is gone: a job in this process that
        // acquires next must not have its fresh file unlinked by us.
        held().remove(&self.path);
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
        BitMask::from_fn(33, 17, |x, y| {
            (x as u64 * 7 + y as u64 * 13 + seed).is_multiple_of(3)
        })
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

    /// The bit-at-a-time CRC the table replaced.
    fn crc32_bitwise(data: &[u8]) -> u32 {
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

    #[test]
    fn crc32_table_matches_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        for len in [0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 16_600] {
            for _ in 0..4 {
                let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255)).collect();
                assert_eq!(crc32(&data), crc32_bitwise(&data), "len {len}");
            }
        }
    }

    #[test]
    fn mask_enc_matches_format_hex() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for (w, h) in [(1, 1), (33, 17), (64, 1), (65, 3), (256, 256)] {
            let bits: Vec<bool> = (0..w * h).map(|_| rng.gen_bool(0.3)).collect();
            let m = BitMask::from_fn(w, h, |x, y| bits[y * w + x]);
            let want: String = m.words().iter().map(|w| format!("{w:016x}")).collect();
            let enc = MaskEnc::encode(&m);
            assert_eq!(enc.hex, want, "{w}x{h}");
            assert_eq!(enc.decode().unwrap(), m);
        }
        // Every nibble value in every position.
        let words = vec![0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, u64::MAX, 0];
        let m = BitMask::from_words(256, 1, words.clone());
        let want: String = words.iter().map(|w| format!("{w:016x}")).collect();
        assert_eq!(MaskEnc::encode(&m).hex, want);
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
        assert_eq!(journal_len(&dir), 0, "no journal yet");
        let header = Header::new(4, 33, 17, "needles", "{\"cfg\":1}");
        let opened = Journal::open(&dir, &header, true).unwrap();
        assert!(opened.replay.slices.is_empty());
        opened
            .journal
            .record_slice(0, &SliceOutcome::Ok, &[det(1), det(2)], &mask(0));
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
        let written = journal_len(&dir);
        assert!(written > 0);

        let back = Journal::open(&dir, &header, true).unwrap();
        // Replay appends nothing.
        assert_eq!(journal_len(&dir), written);
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

    /// An append is written, though not yet committed, when it returns:
    /// the file has grown by exactly the record's line, which is what the
    /// warden's poison breaker and a killed worker's restart read.
    #[test]
    fn a_record_is_in_the_file_when_its_append_returns() {
        let dir = tmp_dir("written");
        let header = Header::new(2, 33, 17, "p", "c");
        let opened = Journal::open(&dir, &header, true).unwrap();
        let before = journal_len(&dir);
        opened
            .journal
            .record_slice(0, &SliceOutcome::Ok, &[det(1)], &mask(0));
        let line = encode_line(&Record::Slice {
            slice: 0,
            status: "ok".into(),
            reason: String::new(),
            detections: vec![det(1)],
            combined: MaskEnc::encode(&mask(0)),
        });
        assert_eq!(journal_len(&dir), before + line.len() as u64 + 1);
        let before = journal_len(&dir);
        opened.journal.record_mask(0, &mask(3), true);
        let line = encode_line(&Record::Mask {
            slice: 0,
            mask: MaskEnc::encode(&mask(3)),
            degraded_by_decode: true,
        });
        assert_eq!(journal_len(&dir), before + line.len() as u64 + 1);
        // Nothing was committed after the header, yet a reopen (what a
        // restarted process does) replays both records.
        let back = Journal::open(&dir, &header, true).unwrap();
        assert_eq!(back.replay.slices.len(), 1);
        assert!(back.replay.masks[&0].degraded_by_decode);
        drop(opened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_replays() {
        let dir = tmp_dir("torn");
        let header = Header::new(3, 33, 17, "p", "c");
        let opened = Journal::open(&dir, &header, true).unwrap();
        opened
            .journal
            .record_slice(0, &SliceOutcome::Ok, &[det(1)], &mask(0));
        opened
            .journal
            .record_slice(1, &SliceOutcome::Ok, &[], &mask(1));
        drop(opened);
        // Simulate a kill -9 mid-append: chop the last record in half.
        let path = dir.join(JOURNAL_FILE);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 40]).unwrap();

        let back = Journal::open(&dir, &header, true).unwrap();
        assert_eq!(
            back.replay.slices.len(),
            1,
            "only the intact record survives"
        );
        assert!(back.replay.slices.contains_key(&0));
        // The file itself was truncated back to the valid prefix, so the
        // next append produces a well-formed journal.
        back.journal
            .record_slice(1, &SliceOutcome::Ok, &[], &mask(1));
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
        opened
            .journal
            .record_slice(0, &SliceOutcome::Ok, &[], &mask(0));
        opened
            .journal
            .record_slice(1, &SliceOutcome::Ok, &[], &mask(1));
        drop(opened);
        // Flip one hex digit inside the LAST record's body.
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let corrupted = lines[lines.len() - 1].replacen("0", "1", 1);
        let mut out: Vec<String> = lines[..lines.len() - 1]
            .iter()
            .map(|s| s.to_string())
            .collect();
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
        opened
            .journal
            .record_slice(0, &SliceOutcome::Ok, &[], &mask(0));
        drop(opened);
        // Different prompt -> different fingerprint -> journal discarded.
        let h2 = Header::new(4, 33, 17, "particles", "cfg-a");
        assert_ne!(h1.fingerprint, h2.fingerprint);
        let back = Journal::open(&dir, &h2, true).unwrap();
        assert!(back.replay.slices.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_excludes_live_holders_and_reclaims_dead_ones() {
        let dir = tmp_dir("lease");
        std::fs::create_dir_all(&dir).unwrap();
        let a = Lease::acquire(&dir, 7).expect("fresh acquire");
        // A second holder in this process is refused like a foreign one,
        // also when it names the directory by another path.
        let me = std::process::id();
        match Lease::acquire(&dir.join("."), 7) {
            Err(LeaseError::Held { pid }) if pid == me => {}
            other => panic!("expected Held by this process, got {other:?}"),
        }
        drop(a);
        let b = Lease::acquire(&dir, 7).expect("re-acquire once the holder is gone");
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
        drop(stolen);
        assert!(!path.exists(), "dropping the lease removes its file");
        // Torn lease debris is overwritten, not fatal.
        std::fs::write(&path, "{not json").unwrap();
        let c = Lease::acquire(&dir, 7).expect("torn lease overwritten");
        drop(c);
        assert!(!path.exists(), "drop releases too");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_reports_the_byte_offset() {
        let dir = tmp_dir("truncoffset");
        let header = Header::new(3, 33, 17, "p", "c");
        let opened = Journal::open(&dir, &header, true).unwrap();
        opened
            .journal
            .record_slice(0, &SliceOutcome::Ok, &[], &mask(0));
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
        assert!(
            warned,
            "no truncation warn with the byte offset: {events:?}"
        );
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
        opened
            .journal
            .record_slice(0, &SliceOutcome::Ok, &[], &mask(0));
        drop(opened);
        let back = Journal::open(&dir, &header, false).unwrap();
        assert!(back.replay.slices.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
