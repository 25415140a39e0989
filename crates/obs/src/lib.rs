//! # zenesis-obs
//!
//! Structured observability for the Zenesis pipeline: hierarchical spans,
//! a process-wide metrics registry, and profiling hooks for the parallel
//! runtime. Every compute layer (adapt, ground, sam, core, par) reports
//! through this crate; the bench harness and CLIs export the result as a
//! human-readable tree or machine-readable JSON (see
//! `docs/OBSERVABILITY.md` at the repository root).
//!
//! ## Design
//!
//! * **Spans** ([`span`], [`SpanGuard`]) are RAII wall-time measurements
//!   with parent/child structure. Each thread keeps a span stack; a new
//!   span becomes a child of the innermost open span on its thread. The
//!   parallel runtime propagates the caller's span across thread
//!   boundaries with [`with_parent`], so work executed on pool or scoped
//!   worker threads still attributes to the pipeline stage that spawned
//!   it. Completed spans are kept in a bounded store (the newest
//!   [`RECORD_CAP`]), so a long-lived server never grows.
//! * **Metrics** ([`counter`], [`gauge`], [`histogram`]) are named,
//!   process-global instruments. Histograms are log-scale (8 sub-buckets
//!   per power of two, ≤ ~6% representative error) and report
//!   p50/p90/p99 without storing individual samples.
//! * **Events** ([`events`]) are a bounded stream of typed records
//!   (`job.start/end`, `slice.done`, `temporal.replace`, `rectify.pick`,
//!   `cache.{hit,miss}`, `warn`, `info`) exported as JSONL — the live
//!   telemetry of long batch runs.
//! * **Zero cost when off.** The recording level comes from the
//!   `ZENESIS_OBS` environment variable (`off` | `spans` | `full`,
//!   default `off`) and is gated behind one relaxed atomic load. With
//!   observability off, [`span`] returns an inert guard, [`timed`] still
//!   returns wall-clock milliseconds (callers need timings for their own
//!   traces) but records nothing, and the profiling hooks in
//!   `zenesis-par` reduce to a branch.
//!
//! ## Example
//!
//! ```
//! zenesis_obs::set_level(zenesis_obs::ObsLevel::Spans);
//! let (value, ms) = zenesis_obs::timed("example.outer", || {
//!     let _inner = zenesis_obs::span("example.inner");
//!     21 * 2
//! });
//! assert_eq!(value, 42);
//! assert!(ms >= 0.0);
//! let spans = zenesis_obs::snapshot();
//! let outer = spans.iter().find(|s| s.name == "example.outer").unwrap();
//! let inner = spans.iter().find(|s| s.name == "example.inner").unwrap();
//! assert_eq!(inner.parent, Some(outer.id));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bounded;
mod config;
pub mod events;
pub mod export;
pub mod flight;
mod metrics;
pub mod output;
pub(crate) mod prom;
mod span;
pub(crate) mod trace;

pub use bounded::RECORD_CAP;
pub use config::{enabled, full, level, set_level, ObsLevel};
use metrics::reset_metrics;
pub use metrics::{
    counter, gauge, histogram, latency_rows, metrics_snapshot, record_ms, Counter, Gauge,
    Histogram, HistogramStats, LatencyRow, MetricsSnapshot,
};
pub use prom::prometheus_text;
use span::reset_spans;
pub use span::{current, snapshot, span, timed, with_parent, SpanGuard, SpanId, SpanRecord};
pub use trace::{current_trace, trace_guard, with_trace, TraceId, TraceScope};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, keeping its guard even if a holder panicked. A panic under
/// the lock is caught and reported by its caller; it must not turn every
/// later lock of the same state into a second panic.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serializes this crate's unit tests that flip the process-global level
/// or clear the process-global stores.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Clear all recorded spans, all registered metrics, and all buffered
/// events (test isolation, or between independent benchmark runs).
pub fn reset() {
    reset_spans();
    reset_metrics();
    events::reset_events();
}
