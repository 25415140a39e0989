//! # zenesis-core
//!
//! The Zenesis platform (paper contribution 2): the no-code interactive
//! segmentation system tying together the adaptation layer, the
//! GroundingDINO surrogate, the SAM surrogate, the human-in-the-loop
//! corrections, and the evaluation framework.
//!
//! * [`pipeline`] — the core flow: raw image → adaptation →
//!   text-conditioned grounding → box-prompted mask decoding → combined
//!   segmentation, with a full provenance trace (Fig. 2).
//! * [`temporal`] — the heuristic box refinement for volumes (Fig. 7):
//!   sliding-window mean box width/height, factor-thresholded outlier
//!   replacement, causal so the volume executor applies it over the
//!   finished prefix; the per-slice quarantine and decode steps the
//!   volume executor calls, and its outcome, error and result types.
//! * [`rectify`] — human-in-the-loop Rectify Segmentation (Fig. 6):
//!   random candidate boxes (full-width / full-height per the paper) and
//!   nearest-segment selection from a user click.
//! * [`hierarchy`] — Further Segment (Fig. 5): hierarchical
//!   re-segmentation of a selected subregion.
//! * [`modes`] — the platform's three modes: A (interactive single
//!   slice), B (batch volume processing), C (evaluation dashboard).
//! * [`multi`] — multi-object segmentation (several named prompts per
//!   image with relevance-based conflict resolution; paper future work).
//! * [`method`] — the unified method interface used by evaluation:
//!   Otsu / SAM-only / Zenesis (Tables 1-3).
//! * [`job`] — the serde JSON job contract a web UI submits ("no-code"),
//!   and the [`job::JobEngine`] a server keeps resident to run it.
//! * [`slice_cache`] — the engine's content-keyed cache of prepared
//!   slices (Mode A re-prompts skip adapt, grounding's image side and
//!   the SAM encode).
//! * [`session`] — interactive session state with undo history.
//! * [`checkpoint`] — the crash-safe per-slice journal behind Mode B's
//!   checkpoint/resume (CRC-guarded JSONL, torn-tail tolerant).
//! * [`stream`] — the one Mode B volume executor: the fault-tolerant
//!   volume pipeline over a [`stream::SliceSource`] (a streaming TIFF
//!   stack or an in-memory `Volume<T>`), one pipelined pass that reads
//!   and encodes each slice once and holds O(threads) slices of pixels
//!   and embeddings (see docs/DATA.md).

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod hierarchy;
pub mod job;
pub mod method;
pub mod modes;
pub mod multi;
pub mod pipeline;
pub mod rectify;
pub mod session;
pub mod slice_cache;
pub mod stream;
pub mod temporal;

pub use checkpoint::CheckpointSpec;
pub use config::ZenesisConfig;
pub use method::Method;
pub use multi::{MultiResult, ObjectSpec};
pub use pipeline::{Prepared, Segmentation, SliceError, SliceResult, Zenesis};
pub use stream::SliceSource;
pub use temporal::{
    panic_message, SliceOutcome, TemporalConfig, VolumeCancelled, VolumeError, VolumeResult,
};
