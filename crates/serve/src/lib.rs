//! # zenesis-serve
//!
//! A panic-safe concurrent job service over the no-code contract
//! (`zenesis-core::job`). The paper's platform is a web application; this
//! crate is its backend serving layer: JSONL requests in, JSONL results
//! out, with the failure modes a shared service must make explicit —
//!
//! * a **bounded two-lane queue** (interactive ahead of batch) that
//!   sheds load with typed `busy` responses instead of growing without
//!   bound (`queue`);
//! * **per-tenant admission control** bounding each tenant's
//!   outstanding work so one aggressive client cannot starve the rest
//!   (`admission`);
//! * **per-job deadlines** enforced cooperatively through
//!   [`zenesis_par::CancelToken`], counting queue wait against the
//!   budget and returning partial progress on expiry;
//! * **panic isolation** so one malformed job can never take down the
//!   worker pool;
//! * **retry with exponential backoff** for transient file-input
//!   failures;
//! * **graceful shutdown** that drains accepted jobs before exiting;
//! * **process-isolated batch workers** (`--process-workers`): the
//!   `warden` supervisor runs each volume job in a child worker
//!   process with a heartbeat channel, restarts crashed workers from
//!   the checkpoint journal (bit-identical resume), and quarantines
//!   poison jobs — a SIGKILL/OOM/abort costs one worker generation,
//!   never the service or the batch (see `docs/ROBUSTNESS.md`).
//!
//! The telemetry plane rides alongside: every request carries a trace
//! id (caller-supplied or minted at admission) that tags all spans and
//! events the job produces; the `http` sidecar exposes `/metrics`,
//! `/healthz`, and `/readyz`; and a crash flight recorder dumps the
//! last moments of a failing job to disk (see `docs/OBSERVABILITY.md`).
//!
//! The `zenesis-serve` binary speaks the protocol over stdin/stdout
//! (pipe mode) and over TCP (`--tcp ADDR`), where a readiness-driven
//! `mux` serves every connection from one reactor thread; see
//! `docs/SERVING.md`.

#![warn(unreachable_pub)]

pub(crate) mod admission;
#[cfg(unix)]
pub(crate) mod conn;
pub(crate) mod http;
#[cfg(unix)]
pub(crate) mod mux;
pub(crate) mod proto;
pub(crate) mod queue;
pub(crate) mod server;
pub(crate) mod warden;
pub(crate) mod worker;

pub use admission::Admission;
pub use http::start_metrics_http;
#[cfg(unix)]
pub use mux::{Mux, MuxConfig};
pub use proto::{parse_request, Response};
pub use queue::{BoundedQueue, Lane, PushError, QueueDepths};
pub use server::{JobRunner, ResponseSink, ServeConfig, Server};
pub use warden::Warden;
pub use worker::worker_main;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, keeping its guard even if a holder panicked. A panic under
/// the lock is caught and reported by its caller; it must not turn every
/// later lock of the same state into a second panic.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
