//! Counted, not timed: how often the volume executor reads, encodes and
//! decodes a slice. A fresh run reads each slice once and encodes each
//! slice with pixels once — stage 3 decodes from the embedding stage 1
//! built — with and without the memory bank. It decodes each box once:
//! stage 3 reuses the per-box masks stage 1 decoded from that embedding
//! and sends only the boxes stage 1 never saw (temporal mean boxes)
//! through SAM. A resume re-reads only the slices its journal replays
//! without a final mask, and those decode every box they use, because
//! the journal keeps no per-box masks. The counts are the same at one
//! and two threads.
//!
//! Tests serialize on one mutex: they flip the process-global
//! observability level to count `sam.encode` and `sam.decode` spans, and
//! the global thread count.

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

/// SAM decodes of the crystalline seed-7 volume's stage 1 alone: one per
/// detection box.
const STAGE_ONE_DECODES: usize = 47;
/// SAM decodes of a fresh run: stage 1's, plus the mean box of the one
/// slice the temporal heuristic corrects.
const FRESH_DECODES: usize = 48;
/// SAM decodes of a fresh `use_memory` run: stage 1's only. The bank's
/// cold start on slice 0 reuses that slice's stage-1 mask, and later
/// slices propagate the bank's consensus, which decodes no box.
const FRESH_MEMORY_DECODES: usize = 47;
/// SAM decodes of the resume below: every box the replayed slices
/// without a mask record use, since the journal keeps no per-box masks.
const RESUME_DECODES: usize = 24;

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

/// SAM work one volume run did, counted from its spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sam {
    encodes: usize,
    decodes: usize,
}

/// Run `src` through the executor with spans on; return the result and
/// the SAM encodes and decodes it made.
fn run_counting_sam(
    z: &Zenesis,
    src: &dyn SliceSource,
    checkpoint: Option<&CheckpointSpec>,
) -> (VolumeResult, Sam) {
    zenesis_obs::set_level(ObsLevel::Spans);
    zenesis_obs::reset();
    let r = z
        .segment_volume_streamed(src, PROMPT, &CancelToken::new(), checkpoint)
        .expect("healthy volume completes");
    let spans = zenesis_obs::snapshot();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    let sam = Sam {
        encodes: count("sam.encode"),
        decodes: count("sam.decode"),
    };
    zenesis_obs::set_level(ObsLevel::Off);
    zenesis_obs::reset();
    (r, sam)
}

/// SAM decodes stage 1 makes on the volume: one per detection box of
/// every slice, counted on `segment_slice`, which runs the same route.
fn stage_one_decodes(z: &Zenesis, v: &zenesis_image::Volume<u16>) -> usize {
    zenesis_obs::set_level(ObsLevel::Spans);
    zenesis_obs::reset();
    let boxes: usize = (0..v.depth())
        .map(|i| z.segment_slice(v.slice(i), PROMPT).detections.len())
        .sum();
    let decodes = zenesis_obs::snapshot()
        .iter()
        .filter(|s| s.name == "sam.decode")
        .count();
    zenesis_obs::set_level(ObsLevel::Off);
    zenesis_obs::reset();
    assert_eq!(decodes, boxes, "segment_slice decodes each detection once");
    decodes
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
        let (r, sam) = run_counting_sam(&z, &src, None);
        assert!(
            r.outcomes.iter().all(|o| o.is_ok()),
            "use_memory {use_memory}"
        );
        assert_eq!(src.reads(), vec![1; DEPTH], "use_memory {use_memory}");
        assert_eq!(sam.encodes, DEPTH, "use_memory {use_memory}");
    }
}

#[test]
fn a_fresh_run_decodes_each_box_once() {
    let _g = lock();
    let v = generate_volume(SampleKind::Crystalline, 64, DEPTH, 7, &[5, 30]);
    let stage_one = stage_one_decodes(&Zenesis::new(ZenesisConfig::default()), &v.volume);
    assert_eq!(stage_one, STAGE_ONE_DECODES);
    for (use_memory, expect) in [(false, FRESH_DECODES), (true, FRESH_MEMORY_DECODES)] {
        let z = Zenesis::new(ZenesisConfig {
            use_memory,
            ..ZenesisConfig::default()
        });
        for threads in [1, 2] {
            let _threads = zenesis_par::ThreadsGuard::new(threads);
            let (r, sam) = run_counting_sam(&z, &v.volume, None);
            let case = format!("use_memory {use_memory}, {threads} threads");
            assert!(r.outcomes.iter().all(|o| o.is_ok()), "{case}");
            assert_eq!(sam.decodes, expect, "{case}");
            if !use_memory {
                // Stage 3 decodes only each corrected slice's mean box.
                assert_eq!(sam.decodes, stage_one + r.corrections(), "{case}");
            }
        }
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
    let (first, _) = run_counting_sam(&z, &v.volume, Some(&spec));
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
    let (resumed, sam) = run_counting_sam(&z, &src, Some(&spec));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.masks, first.masks, "resume is bit-identical");
    let expect: Vec<usize> = (0..DEPTH).map(|i| usize::from(i >= DEPTH / 2)).collect();
    assert_eq!(
        src.reads(),
        expect,
        "only slices without a mask record are re-read"
    );
    assert_eq!(sam.encodes, DEPTH / 2);
    // A replayed slice has no stage-1 masks in hand, so each re-read
    // slice decodes every box it uses: at least its primary.
    let primaries = resumed.events[DEPTH / 2..]
        .iter()
        .filter(|e| e.used_box.is_some())
        .count();
    assert!(sam.decodes >= primaries, "{} < {primaries}", sam.decodes);
    assert_eq!(sam.decodes, RESUME_DECODES);
}
