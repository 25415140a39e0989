//! The bounded append shared by the span store and the event buffer.
//!
//! Both stores keep their newest records: once a store is full, each
//! append drops its oldest record and counts the drop, so a process
//! that records for its whole life holds a fixed amount of telemetry.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Most records one store keeps: spans and events each hold at most
/// this many, oldest dropped first.
pub const RECORD_CAP: usize = 32_768;

/// Drop accounting for one bounded store: an authoritative atomic count
/// plus the name of the registry counter it mirrors into, so drops show
/// up in ledgers, `/metrics` and the serve self-report.
pub(crate) struct Drops {
    count: AtomicU64,
    metric: &'static str,
}

impl Drops {
    pub(crate) const fn new(metric: &'static str) -> Drops {
        Drops {
            count: AtomicU64::new(0),
            metric,
        }
    }

    /// Records dropped since the last [`Drops::reset`].
    pub(crate) fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Append `rec` to `buf`, first dropping the oldest record (and
/// counting it in `drops`) when `buf` already holds `cap`. The metrics
/// registry never takes a store's lock, so bumping the mirror counter
/// under the caller's lock cannot invert lock order.
pub(crate) fn push_bounded<T>(buf: &mut VecDeque<T>, cap: usize, rec: T, drops: &Drops) {
    if buf.len() >= cap {
        buf.pop_front();
        drops.count.fetch_add(1, Ordering::Relaxed);
        crate::metrics::counter(drops.metric).inc();
    }
    buf.push_back(rec);
}
