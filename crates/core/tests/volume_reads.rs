//! Counted, not timed: how often the volume executor reads, encodes and
//! decodes a slice. A fresh run reads each slice once and encodes each
//! slice with pixels once — stage 3 decodes from the embedding stage 1
//! built — and a slice whose read failed not at all. It decodes each box
//! once: stage 3 reuses the per-box masks stage 1 decoded from that
//! embedding and sends only the boxes stage 1 never saw (temporal mean
//! boxes) through SAM. A resume re-reads only the slices its journal
//! replays without a final mask, and those decode every box they use,
//! because the journal keeps no per-box masks. The counts are the same
//! at one, two and four threads.
//!
//! Tests serialize on one mutex: they flip the process-global
//! observability level to count `sam.encode` and `sam.decode` spans, the
//! global thread count and the fault plan.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use zenesis_core::{CheckpointSpec, SliceSource, VolumeResult, Zenesis, ZenesisConfig};
use zenesis_data::{generate_volume, SampleKind};
use zenesis_fault::{FaultKind, FaultPlan};
use zenesis_image::Image;
use zenesis_obs::ObsLevel;
use zenesis_par::{CancelToken, ThreadsGuard};
use zenesis_tiff::VolumeReader;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const PROMPT: &str = "needle-like crystalline catalyst";
const DEPTH: usize = 48;
/// 4 oversubscribes a 2-vCPU host, so slices finish stage 1 out of order.
const THREADS: [usize; 3] = [1, 2, 4];

/// SAM decodes of the crystalline seed-7 volume's stage 1 alone: one per
/// detection box.
const STAGE_ONE_DECODES: usize = 47;
/// SAM decodes of a fresh run: stage 1's, plus the mean box of the one
/// slice the temporal heuristic corrects.
const FRESH_DECODES: usize = 48;
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
    let z = Zenesis::new(ZenesisConfig::default());
    for threads in THREADS {
        let _threads = ThreadsGuard::new(threads);
        let src = Counting::new(&v.volume);
        let (r, sam) = run_counting_sam(&z, &src, None);
        assert!(r.outcomes.iter().all(|o| o.is_ok()), "{threads} threads");
        assert_eq!(src.reads(), vec![1; DEPTH], "{threads} threads");
        assert_eq!(sam.encodes, DEPTH, "{threads} threads");
    }
}

/// A slice source that reads slice `flat` as a constant image, in which
/// the Otsu fallback finds no threshold.
struct Flattened<'a> {
    inner: &'a dyn SliceSource,
    flat: usize,
}

impl SliceSource for Flattened<'_> {
    fn depth(&self) -> usize {
        self.inner.depth()
    }

    fn dims(&self) -> (usize, usize) {
        self.inner.dims()
    }

    fn read_slice(&self, z: usize) -> Result<Image<f32>, String> {
        let img = self.inner.read_slice(z)?;
        if z != self.flat {
            return Ok(img);
        }
        let (w, h) = img.dims();
        Ok(Image::from_fn(w, h, |_, _| 0.5))
    }
}

/// Stage 1 encodes every slice but the failed ones, once each. With
/// grounding always failing, every slice that reads falls back to Otsu.
/// A slice whose read fails has no pixels to encode; the flat slice's
/// fallback finds no threshold, so it fails and is not encoded either.
/// The rest degrade and are still encoded, since a temporal mean box may
/// decode against them.
#[test]
fn failed_slices_are_never_encoded() {
    let _g = lock();
    const FAULT_DEPTH: usize = 8;
    let v = generate_volume(SampleKind::Crystalline, 64, FAULT_DEPTH, 7, &[]);
    let path = std::env::temp_dir().join(format!("zenesis-reads-chaos-{}.tif", std::process::id()));
    zenesis_tiff::save_tiff_volume_u16(&v.volume, &path).unwrap();
    let reader = VolumeReader::open(&path).unwrap();
    let src = Flattened {
        inner: &reader,
        flat: 6,
    };
    let z = Zenesis::new(ZenesisConfig::default());
    let _armed = FaultPlan::new()
        .site("io.tiff", FaultKind::Error, 0.3, 41)
        .site("ground.dino", FaultKind::Error, 1.0, 5)
        .arm();
    for threads in THREADS {
        let _threads = ThreadsGuard::new(threads);
        let (r, sam) = run_counting_sam(&z, &src, None);
        let case = format!("{threads} threads");
        // Slices 0 and 2 fail their reads; slice 6 fails its fallback.
        assert_eq!(r.failed_slices(), vec![0, 2, 6], "{case}");
        assert_eq!(r.degraded_slices(), vec![1, 3, 4, 5, 7], "{case}");
        assert_eq!(sam.encodes, FAULT_DEPTH - 3, "{case}");
    }
    drop(reader);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_fresh_run_decodes_each_box_once() {
    let _g = lock();
    let v = generate_volume(SampleKind::Crystalline, 64, DEPTH, 7, &[5, 30]);
    let z = Zenesis::new(ZenesisConfig::default());
    let stage_one = stage_one_decodes(&z, &v.volume);
    assert_eq!(stage_one, STAGE_ONE_DECODES);
    for threads in THREADS {
        let _threads = ThreadsGuard::new(threads);
        let (r, sam) = run_counting_sam(&z, &v.volume, None);
        assert!(r.outcomes.iter().all(|o| o.is_ok()), "{threads} threads");
        assert_eq!(sam.decodes, FRESH_DECODES, "{threads} threads");
        // Stage 3 decodes only each corrected slice's mean box.
        assert_eq!(
            sam.decodes,
            stage_one + r.corrections(),
            "{threads} threads"
        );
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
    let expect: Vec<usize> = (0..DEPTH).map(|i| usize::from(i >= DEPTH / 2)).collect();
    for threads in THREADS {
        let _threads = ThreadsGuard::new(threads);
        std::fs::write(&journal, kept.join("\n") + "\n").unwrap();
        let src = Counting::new(&v.volume);
        let (resumed, sam) = run_counting_sam(&z, &src, Some(&spec));
        let case = format!("{threads} threads");
        assert_eq!(
            resumed.masks, first.masks,
            "resume is bit-identical ({case})"
        );
        assert_eq!(
            src.reads(),
            expect,
            "only slices without a mask record are re-read ({case})"
        );
        assert_eq!(sam.encodes, DEPTH / 2, "{case}");
        // A replayed slice has no stage-1 masks in hand, so each re-read
        // slice decodes every box it uses: at least its primary.
        let primaries = resumed.events[DEPTH / 2..]
            .iter()
            .filter(|e| e.used_box.is_some())
            .count();
        assert!(
            sam.decodes >= primaries,
            "{} < {primaries} ({case})",
            sam.decodes
        );
        assert_eq!(sam.decodes, RESUME_DECODES, "{case}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
