//! The global recording level, initialized from `ZENESIS_OBS`.

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the observability layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsLevel {
    /// Record nothing. Every hook reduces to a relaxed atomic load.
    Off = 0,
    /// Record spans and pipeline metrics.
    Spans = 1,
    /// Additionally record runtime profiling: pool queue depth, task
    /// wait/run latency, per-worker utilization, chunk sizes.
    Full = 2,
}

/// Sentinel meaning "not yet read from the environment".
const UNINIT: u8 = 0xFF;

static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

fn init_level() -> u8 {
    let lvl = match std::env::var("ZENESIS_OBS").ok().as_deref() {
        Some("spans") | Some("1") => ObsLevel::Spans,
        Some("full") | Some("2") => ObsLevel::Full,
        // `off`, unset, and anything unrecognized: record nothing.
        _ => ObsLevel::Off,
    } as u8;
    // Benign race: concurrent initializers compute the same value.
    LEVEL.store(lvl, Ordering::Relaxed);
    lvl
}

/// The current recording level.
#[inline]
pub fn level() -> ObsLevel {
    let v = LEVEL.load(Ordering::Relaxed);
    let v = if v == UNINIT { init_level() } else { v };
    match v {
        1 => ObsLevel::Spans,
        2 => ObsLevel::Full,
        _ => ObsLevel::Off,
    }
}

/// True when spans and pipeline metrics are recorded (`spans` or `full`).
#[inline]
pub fn enabled() -> bool {
    level() >= ObsLevel::Spans
}

/// True when the runtime profiling hooks also record (`full` only).
#[inline]
pub fn full() -> bool {
    level() == ObsLevel::Full
}

/// Override the level at runtime. Takes precedence over `ZENESIS_OBS`
/// from the moment it is called; used by tests and by CLIs honoring
/// trace flags.
pub fn set_level(l: ObsLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_level_round_trips() {
        let _g = crate::TEST_LOCK.lock();
        let before = level();
        set_level(ObsLevel::Full);
        assert!(enabled() && full());
        set_level(ObsLevel::Spans);
        assert!(enabled() && !full());
        set_level(ObsLevel::Off);
        assert!(!enabled() && !full());
        set_level(before);
    }

    #[test]
    fn ordering_matches_verbosity() {
        assert!(ObsLevel::Off < ObsLevel::Spans);
        assert!(ObsLevel::Spans < ObsLevel::Full);
    }
}
