//! Lock-free progress reporting for long batch jobs (Mode B).
//!
//! Workers bump a relaxed atomic counter; an observer thread (or the UI
//! layer in the paper's platform) reads a consistent completion count,
//! rate, and ETA without any synchronization cost on the hot path.
//!
//! ## Counting contract
//!
//! [`Progress::add`]/[`Progress::tick`] are *not* clamped: if workers
//! report more units than `total` (double counting, or a total that was
//! only an estimate), [`Progress::done`] returns the raw overshooting
//! count. Every derived accessor saturates instead — [`remaining`]
//! saturates to `0`, and [`eta_secs`] never goes negative — so ETA/rate
//! consumers can use them directly.
//!
//! [`remaining`]: Progress::remaining
//! [`eta_secs`]: Progress::eta_secs

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Process-global liveness pulse: bumped on every [`Progress::tick`],
/// regardless of which `Progress` instance ticked. A supervisor
/// heartbeat thread samples it to distinguish "worker is slow" from
/// "worker stopped making progress" without any wiring into the job.
static PULSE: AtomicU64 = AtomicU64::new(0);

/// Current value of the global progress pulse (monotonic within a
/// process; the absolute value is meaningless — only change matters).
pub fn progress_pulse() -> u64 {
    PULSE.load(Ordering::Relaxed)
}

/// Shared work-completion counter with a known total, a monotonic start
/// time, and derived rate/ETA.
#[derive(Debug)]
pub struct Progress {
    done: AtomicUsize,
    total: usize,
    start: Instant,
}

impl Progress {
    /// Create a tracker expecting `total` units of work. The rate/ETA
    /// clock starts now.
    pub fn new(total: usize) -> Self {
        Progress {
            done: AtomicUsize::new(0),
            total,
            start: Instant::now(),
        }
    }

    /// Record `n` completed units. Relaxed: only the count matters, no data
    /// is published through this counter.
    pub(crate) fn add(&self, n: usize) {
        self.done.fetch_add(n, Ordering::Relaxed);
        PULSE.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one completed unit.
    pub fn tick(&self) {
        self.add(1);
    }

    /// Raw units completed so far. May exceed [`Progress::total`] when
    /// workers over-report (see the module-level counting contract); use
    /// [`Progress::done_clamped`] for display math.
    pub(crate) fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Units completed, saturated at `total` — the safe numerator for
    /// percentage/ETA math.
    pub fn done_clamped(&self) -> usize {
        self.done().min(self.total)
    }

    /// Units still outstanding, saturating at zero even if `done`
    /// overshoots `total`.
    pub(crate) fn remaining(&self) -> usize {
        self.total.saturating_sub(self.done())
    }

    /// Seconds elapsed since the tracker was created (monotonic clock).
    pub(crate) fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Completed units per second since the start. Zero until the first
    /// unit completes.
    pub fn rate(&self) -> f64 {
        let done = self.done_clamped();
        if done == 0 {
            return 0.0;
        }
        let secs = self.elapsed_secs();
        if secs <= 0.0 {
            // Sub-resolution elapsed time: report an effectively-infinite
            // finite rate rather than dividing by zero.
            return done as f64 / f64::EPSILON;
        }
        done as f64 / secs
    }

    /// Estimated seconds until completion, extrapolated from the average
    /// rate so far. `Some(0.0)` once complete; `None` while no unit has
    /// finished (no rate to extrapolate from). Never negative: the
    /// estimate is built from `Progress::remaining`, which saturates.
    pub fn eta_secs(&self) -> Option<f64> {
        if self.is_complete() {
            return Some(0.0);
        }
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        Some(self.remaining() as f64 / rate)
    }

    /// True once `done >= total`.
    pub(crate) fn is_complete(&self) -> bool {
        self.done() >= self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zero_total_is_complete() {
        let p = Progress::new(0);
        assert!(p.is_complete());
        assert_eq!(p.remaining(), 0);
        assert_eq!(p.eta_secs(), Some(0.0));
    }

    #[test]
    fn remaining_saturates_on_overshoot() {
        let p = Progress::new(4);
        assert_eq!(p.remaining(), 4);
        p.add(3);
        assert_eq!(p.remaining(), 1);
        p.add(5); // done = 8 > total = 4
        assert_eq!(p.done(), 8, "raw count is not clamped");
        assert_eq!(p.done_clamped(), 4);
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn eta_never_negative_and_none_before_first_unit() {
        let p = Progress::new(100);
        assert_eq!(p.eta_secs(), None, "no rate yet");
        p.add(150); // heavy overshoot
        let eta = p.eta_secs().unwrap();
        assert!(eta >= 0.0, "eta must not go negative, got {eta}");
        assert_eq!(eta, 0.0, "complete job has zero eta");
    }

    #[test]
    fn rate_and_eta_track_work() {
        let p = Progress::new(10);
        assert_eq!(p.rate(), 0.0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        p.add(5);
        let rate = p.rate();
        assert!(rate > 0.0 && rate.is_finite(), "rate {rate}");
        let eta = p.eta_secs().expect("rate exists");
        assert!(eta > 0.0 && eta.is_finite(), "eta {eta}");
        // Half done after ~20 ms: the extrapolated remainder is on the
        // same order as the elapsed time (loose bounds; CI machines lag).
        assert!(eta < 60.0, "eta {eta} implausibly large");
        assert!(p.elapsed_secs() > 0.0);
    }

    #[test]
    fn ticks_advance_the_global_pulse() {
        let before = progress_pulse();
        let p = Progress::new(3);
        p.tick();
        p.add(2);
        assert!(progress_pulse() >= before + 2, "pulse must move with ticks");
    }

    #[test]
    fn concurrent_ticks_all_counted() {
        let p = Arc::new(Progress::new(8 * 1000));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..1000 {
                        p.tick();
                    }
                });
            }
        });
        assert_eq!(p.done(), 8000);
        assert!(p.is_complete());
        assert_eq!(p.remaining(), 0);
    }
}
