//! # zenesis-par
//!
//! A small, from-scratch parallel runtime used by every compute stage of the
//! Zenesis pipeline (image kernels, the attention softmax, batch slice
//! processing).
//!
//! One engine: data-parallel chunked self-scheduling, and a two-way
//! [`join`], on a resident fork-join team (`team.rs`). The team is
//! process-wide and has two lanes. The foreground lane has
//! `current_threads() - 1` helper threads, and its calling thread always
//! takes part, so a call whose helpers are busy elsewhere runs on the
//! caller alone instead of waiting. The background lane, reached only
//! through [`par_background`], has `current_threads()` helpers at lowered
//! CPU priority, and its caller takes no item. Each lane starts with its
//! first fan-out, grows when `set_threads` asks for more and never
//! shrinks, so no call creates a thread once the lanes are grown. Chunk
//! boundaries depend only on the item count and the thread count, and
//! outputs are disjoint, so parallel results are guaranteed to equal
//! their sequential counterparts.
//!
//! The entry points most code uses are the free functions:
//!
//! * [`par_map`] — map a slice to a new `Vec` in parallel, preserving order.
//! * [`par_map_range`] — map an index range `0..n` to a `Vec` in parallel;
//!   [`par_map_range_min`] is its per-pixel form with a grain threshold.
//! * [`par_reduce_range`] — map-reduce over an index range, combined in
//!   index order.
//! * [`par_rows`] — process disjoint row-chunks of a flat 2-D buffer.
//! * [`join`] — run two coarse stages side by side.
//! * [`par_background`] — run a few long workers at background priority
//!   while the caller tends to something else (a volume sweep's slice
//!   workers, with the caller committing their journal).
//!
//! Grain rule: a fan-out wakes a helper and waits for it, a few
//! microseconds, so per-element work below [`SMALL_WORK_ELEMS`] runs
//! inline (`par_rows`, `par_map_range_min`); `par_map` / `par_map_range`
//! are for few heavy items and fan out from two.
//!
//! Thread count is controlled globally via `set_threads` (or the
//! `ZENESIS_THREADS` environment variable) so benchmarks can sweep scaling.
//!
//! Long-running work (batch volumes, evaluation sweeps, served jobs) can
//! be interrupted cooperatively through a [`CancelToken`], which also
//! carries optional deadlines for the serving layer.

#![warn(unreachable_pub)]

mod cancel;
mod config;
mod join;
mod progress;
mod scope;
mod team;

pub use cancel::CancelToken;
pub use config::{available_parallelism, current_threads, ThreadsGuard};
pub use join::join;
pub use progress::{progress_pulse, Progress};
pub use scope::{
    in_worker, par_background, par_map, par_map_range, par_map_range_min, par_reduce_range,
    par_rows, par_rows_min, SMALL_WORK_ELEMS,
};
pub use team::team_dispatches;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, keeping its guard even if a holder panicked. A panic under
/// the lock is caught and reported by its caller; it must not turn every
/// later lock of the same state into a second panic.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_map_matches_sequential() {
        let v: Vec<u64> = (0..10_000).collect();
        let seq: Vec<u64> = v.iter().map(|x| x * x + 1).collect();
        let par = par_map(&v, |x| x * x + 1);
        assert_eq!(seq, par);
    }
}
