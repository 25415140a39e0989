//! Counted, not timed: how often the volume executor reads and encodes a
//! slice. A fresh run reads each slice once and encodes each slice with
//! pixels once — stage 3 decodes from the embedding stage 1 built — with
//! and without the memory bank. A resume re-reads only the slices its
//! journal replays without a final mask.
//!
//! Tests serialize on one mutex: they flip the process-global
//! observability level to count `sam.encode` spans.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use zenesis_core::{CheckpointSpec, SliceSource, VolumeResult, Zenesis, ZenesisConfig};
use zenesis_data::{generate_volume, SampleKind};
use zenesis_image::Image;
use zenesis_obs::ObsLevel;
use zenesis_par::CancelToken;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const PROMPT: &str = "needle-like crystalline catalyst";
const DEPTH: usize = 48;

/// A slice source that counts `read_slice` calls per slice.
struct Counting<'a> {
    inner: &'a dyn SliceSource,
    reads: Vec<AtomicUsize>,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn SliceSource) -> Self {
        let reads = (0..inner.depth()).map(|_| AtomicUsize::new(0)).collect();
        Counting { inner, reads }
    }

    fn reads(&self) -> Vec<usize> {
        self.reads
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect()
    }
}

impl SliceSource for Counting<'_> {
    fn depth(&self) -> usize {
        self.inner.depth()
    }

    fn dims(&self) -> (usize, usize) {
        self.inner.dims()
    }

    fn read_slice(&self, z: usize) -> Result<Image<f32>, String> {
        self.reads[z].fetch_add(1, Ordering::Relaxed);
        self.inner.read_slice(z)
    }
}

/// Run `src` through the executor with spans on; return the result and
/// the number of SAM encodes it made.
fn run_counting_encodes(
    z: &Zenesis,
    src: &dyn SliceSource,
    checkpoint: Option<&CheckpointSpec>,
) -> (VolumeResult, usize) {
    zenesis_obs::set_level(ObsLevel::Spans);
    zenesis_obs::reset();
    let r = z
        .segment_volume_streamed(src, PROMPT, &CancelToken::new(), checkpoint)
        .expect("healthy volume completes");
    let encodes = zenesis_obs::snapshot()
        .iter()
        .filter(|s| s.name == "sam.encode")
        .count();
    zenesis_obs::set_level(ObsLevel::Off);
    zenesis_obs::reset();
    (r, encodes)
}

#[test]
fn a_fresh_run_reads_and_encodes_each_slice_once() {
    let _g = lock();
    let v = generate_volume(SampleKind::Crystalline, 64, DEPTH, 7, &[5, 30]);
    for use_memory in [false, true] {
        let z = Zenesis::new(ZenesisConfig {
            use_memory,
            ..ZenesisConfig::default()
        });
        let src = Counting::new(&v.volume);
        let (r, encodes) = run_counting_encodes(&z, &src, None);
        assert!(
            r.outcomes.iter().all(|o| o.is_ok()),
            "use_memory {use_memory}"
        );
        assert_eq!(src.reads(), vec![1; DEPTH], "use_memory {use_memory}");
        assert_eq!(encodes, DEPTH, "use_memory {use_memory}");
    }
}

#[test]
fn a_resume_rereads_only_slices_without_a_mask_record() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("zenesis-reads-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let v = generate_volume(SampleKind::Crystalline, 64, DEPTH, 7, &[5, 30]);
    let z = Zenesis::new(ZenesisConfig::default());
    let spec = CheckpointSpec::new(&dir);
    let (first, _) = run_counting_encodes(&z, &v.volume, Some(&spec));
    assert!(first.outcomes.iter().all(|o| o.is_ok()));

    // Keep every stage-1 row, and the final-mask rows of the first half
    // of the volume only.
    let journal = dir.join(zenesis_core::checkpoint::JOURNAL_FILE);
    let text = std::fs::read_to_string(&journal).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|line| {
            let Some(at) = line.find(r#"\"rec\":\"mask\",\"slice\":"#) else {
                return true;
            };
            let digits = &line[at + r#"\"rec\":\"mask\",\"slice\":"#.len()..];
            let slice: usize = digits[..digits.find(',').unwrap()].parse().unwrap();
            slice < DEPTH / 2
        })
        .collect();
    assert_eq!(
        kept.len(),
        1 + DEPTH + DEPTH / 2,
        "header, stage-1 rows, half the masks"
    );
    std::fs::write(&journal, kept.join("\n") + "\n").unwrap();

    let src = Counting::new(&v.volume);
    let (resumed, encodes) = run_counting_encodes(&z, &src, Some(&spec));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.masks, first.masks, "resume is bit-identical");
    let expect: Vec<usize> = (0..DEPTH).map(|i| usize::from(i >= DEPTH / 2)).collect();
    assert_eq!(
        src.reads(),
        expect,
        "only slices without a mask record are re-read"
    );
    assert_eq!(encodes, DEPTH / 2);
}
