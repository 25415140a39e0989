//! Mode B: segment a volume slice by slice.
//!
//! [`Zenesis::segment_volume_streamed`] is the one volume executor. It
//! pulls slices on demand from a [`SliceSource`] — a streaming TIFF
//! stack, or an in-memory `Volume<T>` — and runs them through one
//! pipelined pass. Each slice is read, adapted and encoded once:
//!
//! 1. **Stage 1.** Workers claim slices one at a time in z order, read,
//!    adapt and ground each through the quarantine ladder, and keep the
//!    SAM embedding stage 1 built (for a quarantined slice, the encode of
//!    the sanitized minimal adaptation its Otsu fallback ran).
//! 2. **Refinement.** The temporal heuristic is causal — slice z is
//!    judged only against slices before it — so a cursor judges each
//!    slice as soon as every slice up to it has finished stage 1.
//! 3. **Decode.** A judged slice assembles its mask from its refined
//!    boxes, then drops the embedding it kept. A box stage 1 already
//!    decoded against that embedding — every detection the heuristic
//!    kept — reuses stage 1's mask; only the boxes stage 1 did not
//!    decode (temporal mean boxes) go through SAM. The worker that
//!    completes the prefix decodes its own slice at once, then any
//!    parked successors; decodes of different slices run concurrently.
//!
//! Slices that finish stage 1 ahead of the prefix park in a ring of
//! `threads + 1` slots; a worker that would overflow it decodes or waits
//! instead of claiming. So at most threads + ring capacity embeddings,
//! with their stage-1 bit masks, are resident, and only per-slice *bit*
//! masks and detections — 32x smaller than the pixels — accumulate
//! across the run.
//!
//! A slice replayed from the checkpoint journal without a mask record
//! has no pixels in hand and is re-read and re-encoded before it
//! decodes (`reencode`); the journal keeps no per-box masks, so such a
//! slice decodes every box it uses. That is safe under fault injection
//! because an injection decision is a pure function of `(seed, site,
//! slice index)` and adaptation is deterministic, so the replay decodes
//! from the pixels the original run saw.
//!
//! The slice workers run on the parallel team's background lane
//! ([`zenesis_par::par_background`]), at lowered CPU priority, so an
//! interactive request that arrives mid-sweep is not queued behind them
//! for a core. The calling thread runs no slice: it is the checkpoint
//! journal's group committer.
//!
//! The executor carries the whole fault-tolerance contract of
//! docs/ROBUSTNESS.md: the quarantine/retry/Otsu ladder, temporal box
//! refinement, CRC-journaled checkpoint/resume, cancellation, and the
//! too-many-failures floor.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use zenesis_image::{BitMask, BoxRegion, Image, Pixel, Volume};
use zenesis_par::{CancelToken, Progress};
use zenesis_sam::{ImageEmbedding, Polarity};

use crate::checkpoint::{self, CheckpointSpec, Journal, Replay};
use crate::pipeline::Zenesis;
use crate::temporal::{
    Refiner, SliceOutcome, StageOne, VolumeCancelled, VolumeError, VolumeResult,
};

/// A volume whose slices are produced on demand, normalized to f32.
///
/// Implementations must be cheap to query for shape and must tolerate
/// concurrent `read_slice` calls from parallel slice workers.
pub trait SliceSource: Sync {
    /// Number of slices.
    fn depth(&self) -> usize;

    /// `(width, height)` of every slice.
    fn dims(&self) -> (usize, usize);

    /// Produce slice `z` in the `Image<f32>` substrate. Errors are
    /// surfaced as strings because the pipeline quarantines them per
    /// slice rather than propagating a typed failure.
    fn read_slice(&self, z: usize) -> Result<Image<f32>, String>;
}

/// A materialized volume streams by converting one slice at a time, so
/// stage 1 sees exactly the pixels `segment_slice` would.
impl<T: Pixel> SliceSource for Volume<T> {
    fn depth(&self) -> usize {
        Volume::depth(self)
    }

    fn dims(&self) -> (usize, usize) {
        self.slices().first().map_or((0, 0), |s| s.dims())
    }

    fn read_slice(&self, z: usize) -> Result<Image<f32>, String> {
        Ok(self.slice(z).to_f32())
    }
}

/// A TIFF stack on disk streams pages through the codec, with its
/// `io.tiff` fault site and `io.tiff.*` instrumentation in the path.
impl SliceSource for zenesis_tiff::VolumeReader {
    fn depth(&self) -> usize {
        zenesis_tiff::VolumeReader::depth(self)
    }

    fn dims(&self) -> (usize, usize) {
        (self.width(), self.height())
    }

    fn read_slice(&self, z: usize) -> Result<Image<f32>, String> {
        zenesis_tiff::VolumeReader::read_slice(self, z).map_err(|e| e.to_string())
    }
}

/// Where a slice's decode gets its embedding.
enum Source {
    /// The embedding stage 1 built in this run, and the per-box masks
    /// stage 1 decoded from it, aligned with the slice's detections.
    Encoded(ImageEmbedding, Vec<BitMask>),
    /// Stage 1 was replayed from the journal: re-read and encode the
    /// slice if it decodes.
    Replayed,
    /// No pixels: the read failed, or the slice failed and keeps its
    /// stage-1 mask, so it never decodes.
    NoPixels,
}

/// A slice that has finished stage 1 and not yet decoded.
struct Parked {
    z: usize,
    s1: StageOne,
    source: Source,
}

/// A judged slice handed to one worker to decode.
struct Job {
    slice: Parked,
    used: Option<BoxRegion>,
    window: Option<(f64, f64)>,
}

/// Everything the workers of one run share read-only.
struct Run<'a> {
    src: &'a dyn SliceSource,
    prompt: &'a str,
    cancel: &'a CancelToken,
    journal: Option<&'a Journal>,
    replay: &'a Replay,
    progress: Progress,
    polarity: Polarity,
    depth: usize,
    dims: (usize, usize),
    ring_cap: usize,
}

/// The pipeline's schedule, behind one mutex.
struct State {
    /// Next slice to claim for stage 1.
    next: usize,
    /// Claimed slices whose stage 1 has not finished.
    in_flight: usize,
    /// Finished slices not yet handed to a decode: every one past the
    /// refiner's cursor, and judged ones no worker has taken yet. Claims
    /// keep `ring.len() + in_flight` within the ring capacity.
    ring: Vec<Parked>,
    /// The temporal heuristic over the finished prefix.
    refiner: Refiner,
    /// Slices whose stage 1 failed outright.
    failed: usize,
    /// Final outcome and mask of each decoded slice.
    done: Vec<Option<(SliceOutcome, BitMask)>>,
    /// A worker saw cancellation or unwound: nobody claims or decodes.
    halted: bool,
}

impl State {
    /// Judge every parked slice the finished prefix now reaches.
    fn advance(&mut self) {
        let _span = zenesis_obs::span("temporal.refine");
        while let Some(p) = self.ring.iter().find(|p| p.z == self.refiner.cursor()) {
            let event = self.refiner.push(p.s1.detections.first().map(|d| d.bbox));
            if event.corrected && zenesis_obs::enabled() {
                zenesis_obs::events::emit(zenesis_obs::events::Event::TemporalReplace {
                    slice: event.slice,
                    had_detection: event.raw_box.is_some(),
                });
            }
        }
    }

    /// Take parked slice `z` off the ring for decoding, if it can decode
    /// now: the refiner has judged it.
    fn take(&mut self, z: usize) -> Option<Job> {
        if z >= self.refiner.cursor() {
            return None;
        }
        let slice = self
            .ring
            .swap_remove(self.ring.iter().position(|p| p.z == z)?);
        let (used, window) = self.refiner.judged(z);
        Some(Job {
            slice,
            used,
            window,
        })
    }

    /// Take any parked slice that can decode now.
    fn take_ready(&mut self) -> Option<Job> {
        let cursor = self.refiner.cursor();
        let z = self.ring.iter().map(|p| p.z).find(|&z| z < cursor)?;
        self.take(z)
    }
}

/// The schedule and the condition workers wait on for ring space.
struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

impl Shared {
    /// The lock is poisoned only when a worker unwound while holding it;
    /// that halts the run and re-raises the panic on the caller, so the
    /// peers only read `halted` from a poisoned state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Halts the run when a worker unwinds, so no peer waits on it.
struct HaltOnUnwind<'a>(&'a Shared);

impl Drop for HaltOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().halted = true;
            self.0.wake.notify_all();
        }
    }
}

/// The run was cancelled: report how many slices finished.
fn cancelled<'a>(total: usize, done: impl Iterator<Item = &'a BitMask>) -> VolumeError {
    VolumeError::Cancelled(VolumeCancelled {
        completed: done.count(),
        total,
    })
}

impl Zenesis {
    /// Mode B batch processing of an in-memory volume with temporal
    /// refinement: [`Zenesis::segment_volume_streamed`] with no deadline
    /// and no journal.
    pub fn segment_volume<T: Pixel>(&self, vol: &Volume<T>, prompt: &str) -> VolumeResult {
        self.segment_volume_streamed(vol, prompt, &CancelToken::new(), None)
            .expect("a fresh token never cancels and a healthy volume never aborts")
    }

    /// Mode B over a [`SliceSource`]: the full fault-tolerant volume
    /// pipeline without ever holding more than O(threads) slices of
    /// pixel data or embeddings in memory.
    ///
    /// Stage 1 reads, adapts and grounds every slice in parallel, with
    /// per-slice quarantine and Otsu fallback; the (sequential, windowed)
    /// box heuristic judges each slice once every slice before it has
    /// finished stage 1; the slice then assembles its mask from the
    /// refined boxes, reusing stage 1's per-box masks and decoding only
    /// the boxes stage 1 did not, from the embedding stage 1 built.
    ///
    /// `cancel` is polled before each slice's stage 1 and decode, so a
    /// deadline or an explicit stop yields [`VolumeError::Cancelled`]
    /// with the decoded slices' pixel counts. When `checkpoint` is
    /// given, a crash-safe journal makes a killed run resumable without
    /// recomputing finished slices, bit-identically.
    ///
    /// A slice whose *read* fails (after one retry) is recorded as
    /// [`SliceOutcome::Failed`] with an empty mask: with no pixels
    /// there is nothing for the Otsu fallback to threshold. Read
    /// failures count toward the same >50% abort floor as pipeline
    /// failures.
    pub fn segment_volume_streamed(
        &self,
        src: &dyn SliceSource,
        prompt: &str,
        cancel: &CancelToken,
        checkpoint: Option<&CheckpointSpec>,
    ) -> Result<VolumeResult, VolumeError> {
        let _root = zenesis_obs::span("pipeline.segment_volume");
        let depth = src.depth();
        let (w, h) = src.dims();
        let (journal, replay) = match checkpoint {
            Some(spec) => {
                let config_json = serde_json::to_string(&self.config)
                    .map_err(|e| VolumeError::Checkpoint(format!("config fingerprint: {e}")))?;
                let header = checkpoint::Header::new(depth, w, h, prompt, &config_json);
                let opened =
                    checkpoint::Journal::open(&spec.dir, &header, spec.resume).map_err(|e| {
                        VolumeError::Checkpoint(format!(
                            "cannot open journal in {}: {e}",
                            spec.dir.display()
                        ))
                    })?;
                (Some(opened.journal), opened.replay)
            }
            None => (None, Replay::default()),
        };
        let threads = zenesis_par::current_threads();
        let run = Run {
            src,
            prompt,
            cancel,
            journal: journal.as_ref(),
            replay: &replay,
            progress: Progress::new(depth),
            polarity: self.prompt_polarity(prompt),
            depth,
            dims: (w, h),
            ring_cap: threads + 1,
        };
        let shared = Shared {
            state: Mutex::new(State {
                next: 0,
                in_flight: 0,
                ring: Vec::with_capacity(run.ring_cap),
                refiner: Refiner::new(self.config.temporal, depth),
                failed: 0,
                done: (0..depth).map(|_| None).collect(),
                halted: false,
            }),
            wake: Condvar::new(),
        };
        // One worker per thread; with one thread the only worker, claiming
        // in z order, never parks or waits. This thread commits the
        // journal while they run, and once more before any result, error
        // or cancellation is returned.
        let commit = || {
            if let Some(j) = &journal {
                j.commit();
            }
        };
        zenesis_par::par_background(
            threads.min(depth),
            checkpoint::COMMIT_PERIOD,
            commit,
            |_| self.work(&run, &shared),
        );
        commit();
        let state = shared
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        // Graceful degradation has a floor: a volume where most slices
        // produced nothing is not a result, it is a lie with a mask
        // format. Abort rather than hand back mostly-empty garbage.
        if state.refiner.cursor() == depth && state.failed * 2 > depth {
            let failed = state.failed;
            zenesis_obs::events::warn(format!("volume abandoned: {failed}/{depth} slices failed"));
            return Err(VolumeError::TooManyFailures {
                failed,
                total: depth,
            });
        }
        if state.done.iter().any(Option::is_none) {
            return Err(cancelled(
                depth,
                state.done.iter().flatten().map(|(_, m)| m),
            ));
        }
        let (outcomes, masks) = state.done.into_iter().flatten().unzip();
        Ok(VolumeResult {
            masks,
            events: state.refiner.finish().1,
            outcomes,
        })
    }

    /// One worker's part of the pipeline: decode whatever can decode,
    /// else claim the next slice for stage 1 while the ring has room,
    /// else wait for a peer to free some. Returns once nothing is left
    /// to claim, or the run halts.
    ///
    /// A wait always has a running peer to end it: a full ring holds a
    /// parked slice, and one that cannot decode is past the cursor,
    /// whose slice a peer is still running through stage 1.
    fn work(&self, run: &Run<'_>, shared: &Shared) {
        let _halt = HaltOnUnwind(shared);
        let mut own = None;
        let mut st = shared.lock();
        loop {
            if st.halted || run.cancel.is_cancelled() {
                st.halted = true;
                break;
            }
            if let Some(job) = own.take().or_else(|| st.take_ready()) {
                drop(st);
                let z = job.slice.z;
                let decoded = self.decode_slice(run, job);
                st = shared.lock();
                st.done[z] = Some(decoded);
                shared.wake.notify_all();
                continue;
            }
            if st.next == run.depth {
                break;
            }
            if st.ring.len() + st.in_flight >= run.ring_cap {
                st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let z = st.next;
            st.next += 1;
            st.in_flight += 1;
            drop(st);
            let finished = self.stage_one(run, z);
            st = shared.lock();
            st.in_flight -= 1;
            let Some((s1, source)) = finished else {
                st.halted = true;
                break;
            };
            st.failed += usize::from(s1.outcome.is_failed());
            st.ring.push(Parked { z, s1, source });
            st.advance();
            own = st.take(z);
            shared.wake.notify_all();
        }
        drop(st);
        shared.wake.notify_all();
    }

    /// Stage 1 of slice `z`: replay it from the journal, or read, adapt
    /// and ground it through the quarantine ladder and journal the
    /// result. `None` when `cancel` fired mid-slice.
    fn stage_one(&self, run: &Run<'_>, z: usize) -> Option<(StageOne, Source)> {
        if let Some(rep) = run.replay.slices.get(&z) {
            run.progress.tick();
            let s1 = StageOne {
                detections: rep.detections.clone(),
                combined: rep.combined.clone(),
                outcome: rep.outcome.clone(),
            };
            return Some((s1, Source::Replayed));
        }
        // The timing clock and mask count are only computed when
        // recording, so `ZENESIS_OBS=off` adds a single atomic add per
        // slice to the live `slice.done` progress feed.
        let t0 = zenesis_obs::enabled().then(std::time::Instant::now);
        let (one, source) = match self.read_slice_guarded(run.src, z) {
            Ok(raw) => {
                let (r, outcome, emb) = self.run_slice_guarded(&raw, z, run.prompt, run.cancel)?;
                let source = match emb {
                    Some(emb) => Source::Encoded(emb, r.masks),
                    // A fallback has no detections, so no masks either.
                    None if !outcome.is_failed() => {
                        Source::Encoded(self.sam().encode(&r.adapted), Vec::new())
                    }
                    None => Source::NoPixels,
                };
                let one = StageOne {
                    detections: r.detections,
                    combined: r.combined,
                    outcome,
                };
                (one, source)
            }
            Err(reason) => {
                let (w, h) = run.dims;
                (self.failed_read_slice(z, w, h, reason), Source::NoPixels)
            }
        };
        if let Some(j) = run.journal {
            j.record_slice(z, &one.outcome, &one.detections, &one.combined);
        }
        // Post-journal death sites: the slice's record is already
        // written, so a kill/hang here costs at most this worker's life —
        // the restarted worker replays it and trips nothing, guaranteeing
        // forward progress per worker generation.
        zenesis_fault::with_unit(z as u64, || {
            let _ = zenesis_fault::trip("worker.kill");
            let _ = zenesis_fault::trip("worker.hang");
        });
        run.progress.tick();
        if let Some(t0) = t0 {
            zenesis_obs::events::emit(zenesis_obs::events::Event::SliceDone {
                index: z,
                done: run.progress.done_clamped(),
                total: run.depth,
                lat_ms: t0.elapsed().as_secs_f64() * 1e3,
                mask_pixels: one.combined.count() as u64,
                rate: run.progress.rate(),
                eta_s: run.progress.eta_secs(),
            });
        }
        Some((one, source))
    }

    /// Decode a judged slice with its refined primary box plus the
    /// secondary boxes that pass the same size screen, every box with the
    /// prompt's polarity, and return its final outcome and mask. Only the
    /// boxes stage 1 did not decode go through SAM: the rest reuse the
    /// masks stage 1 kept. A decode that panics or trips a fault keeps
    /// the slice's stage-1 mask instead (Otsu fallback for degraded
    /// slices, empty for failed ones).
    fn decode_slice(&self, run: &Run<'_>, job: Job) -> (SliceOutcome, BitMask) {
        let _span = zenesis_obs::span("temporal.decode");
        let Job {
            slice: Parked { z, s1, source },
            used,
            window,
        } = job;
        // A final mask the journal already holds is neither recomputed
        // nor journaled again.
        let (mask, degraded) = if let Some(rep) = run.replay.masks.get(&z) {
            (rep.mask.clone(), rep.degraded_by_decode)
        } else {
            let (mask, degraded) = if s1.outcome.keeps_stage1_mask(used) {
                (s1.combined.clone(), false)
            } else {
                let embedding = match source {
                    Source::Encoded(emb, masks) => Ok((emb, masks)),
                    Source::Replayed => self
                        .reencode(run.src, z, &s1.outcome)
                        .map(|emb| (emb, Vec::new())),
                    Source::NoPixels => Err("the slice has no pixels".to_string()),
                };
                match embedding {
                    Ok((emb, masks)) => self.decode_slice_guarded(z, &s1, || {
                        self.decode_with_box(
                            &emb,
                            run.polarity,
                            used,
                            &s1.detections,
                            &masks,
                            window,
                        )
                    }),
                    Err(reason) => {
                        self.report_decode_degraded(z, &reason);
                        (s1.combined.clone(), true)
                    }
                }
            };
            if let Some(j) = run.journal {
                j.record_mask(z, &mask, degraded);
            }
            (mask, degraded)
        };
        let outcome = if degraded && s1.outcome.is_ok() {
            SliceOutcome::Degraded {
                reason: "mask decode failed; stage-1 mask used".into(),
            }
        } else {
            s1.outcome
        };
        (outcome, mask)
    }

    /// Read slice `z` with one retry, under the slice's fault unit so
    /// an `io.tiff` injection decision is reproducible across runs.
    fn read_slice_guarded(&self, src: &dyn SliceSource, z: usize) -> Result<Image<f32>, String> {
        zenesis_fault::with_unit(z as u64, || {
            let mut reason = String::new();
            for _attempt in 0..2 {
                match src.read_slice(z) {
                    Ok(img) => return Ok(img),
                    Err(e) => reason = e,
                }
            }
            Err(reason)
        })
    }

    /// Stage-1 record for a slice whose pixels never arrived.
    fn failed_read_slice(&self, z: usize, w: usize, h: usize, reason: String) -> StageOne {
        let why = format!("slice read failed ({reason})");
        zenesis_obs::counter("slice.failed").inc();
        zenesis_obs::events::emit(zenesis_obs::events::Event::SliceFailed {
            slice: z,
            reason: why.clone(),
        });
        StageOne {
            detections: Vec::new(),
            combined: BitMask::new(w, h),
            outcome: SliceOutcome::Failed { reason: why },
        }
    }

    /// Re-read, re-adapt and encode a slice whose stage 1 was replayed
    /// from the journal, so no pixels of it are in hand: healthy slices
    /// re-run the full (deterministic) adaptation, quarantined slices
    /// the sanitized minimal one — the adaptation the original stage 1
    /// used, so the decode sees the pixels it saw. The adapted pixels
    /// are dropped once encoded.
    fn reencode(
        &self,
        src: &dyn SliceSource,
        z: usize,
        outcome: &SliceOutcome,
    ) -> Result<ImageEmbedding, String> {
        let raw = self.read_slice_guarded(src, z)?;
        let adapted = match outcome {
            SliceOutcome::Ok => self.adapt(&raw).0,
            _ => self.sanitized_minimal_adapt(&raw),
        };
        Ok(self.sam().encode(&adapted))
    }
}
