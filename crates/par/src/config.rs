//! Global thread-count configuration.
//!
//! All parallel entry points in this crate consult [`current_threads`] at
//! call time, so a probe or a test can switch thread counts with
//! [`ThreadsGuard`]: the resident team grows to the largest count asked
//! for, and a call uses only as many helpers as the count current when it
//! starts. The initial value comes from the `ZENESIS_THREADS` environment
//! variable, falling back to the machine's available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};

static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of hardware threads reported by the OS (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn initial_threads() -> usize {
    match std::env::var("ZENESIS_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => available_parallelism(),
    }
}

/// The number of worker threads parallel operations will use.
///
/// A value of 1 makes every `par_*` function run inline on the caller's
/// thread (useful for debugging and as the scaling baseline).
pub fn current_threads() -> usize {
    let n = THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let init = initial_threads();
    // Benign race: all initializers compute the same value.
    THREADS.store(init, Ordering::Relaxed);
    init
}

/// Set the global worker-thread count. Clamped below by 1.
pub(crate) fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// RAII guard that sets the thread count and restores the previous value on
/// drop. Used by e2e's one- versus two-thread probes and by tests.
pub struct ThreadsGuard {
    prev: usize,
}

impl ThreadsGuard {
    /// Set the global thread count to `n` until the guard is dropped.
    pub fn new(n: usize) -> Self {
        let prev = current_threads();
        set_threads(n);
        ThreadsGuard { prev }
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        set_threads(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_positive() {
        assert!(current_threads() >= 1);
    }

    #[test]
    fn guard_restores() {
        let before = current_threads();
        {
            let _g = ThreadsGuard::new(3);
            assert_eq!(current_threads(), 3);
        }
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn set_clamps_to_one() {
        let _g = ThreadsGuard::new(4);
        set_threads(0);
        assert_eq!(current_threads(), 1);
    }
}
