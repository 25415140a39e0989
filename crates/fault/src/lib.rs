//! # zenesis-fault
//!
//! Deterministic, seeded fault injection for the Zenesis pipeline.
//!
//! Production fault-tolerance code is only as trustworthy as the failures
//! it has actually seen. This crate lets tests, CI chaos jobs, and manual
//! debugging arm *named fault sites* inside the pipeline — the pipeline
//! calls [`trip`] at each site, and an armed site injects a typed fault:
//!
//! * **error** — the site reports a structured, recoverable failure
//!   ([`Injection::Error`]); the caller converts it to its own error type.
//! * **panic** — [`trip`] panics, exercising `catch_unwind` isolation.
//! * **nan** — the site poisons its floating-point output
//!   ([`Injection::Nan`]), exercising the NaN/Inf boundary guards.
//! * **slow** — [`trip`] sleeps for the configured latency and returns
//!   `None`; the work still succeeds, just late (deadline testing).
//! * **kill** — [`trip`] aborts the whole process (`std::process::abort`,
//!   untrappable by `catch_unwind`), standing in for SIGKILL/OOM/segfault
//!   in process-supervision chaos runs.
//! * **hang** — [`trip`] parks effectively forever, exercising
//!   heartbeat-based liveness detection in the supervisor.
//!
//! ## Arming
//!
//! Via the environment (read once, on first use):
//!
//! ```text
//! ZENESIS_FAULT=site:kind:prob:seed[,site:kind:prob:seed...]
//! ZENESIS_FAULT=sam.decode:panic:0.1:7,adapt.denoise:nan:0.05:11
//! ZENESIS_FAULT=slice.slow:slow250:1.0:1      # 250 ms per slice
//! ```
//!
//! or programmatically (tests):
//!
//! ```
//! use zenesis_fault::{FaultKind, FaultPlan};
//! let _g = FaultPlan::new()
//!     .site("sam.decode", FaultKind::Panic, 1.0, 42)
//!     .arm();
//! assert!(zenesis_fault::armed());
//! // dropping the guard disarms again
//! ```
//!
//! ## Determinism
//!
//! Whether a site fires is a pure function of `(site seed, unit index)`:
//! the decision hash is `splitmix64(seed ^ fnv(site) ^ index)` compared
//! against `prob`. The *unit index* is the stable identity of the work
//! item — the volume pipeline scopes each slice with [`with_unit`], so
//! slice 7 of a seeded run fails on every machine, every run, regardless
//! of thread scheduling. Sites reached outside a unit scope fall back to
//! a per-site invocation counter (deterministic for sequential callers).
//!
//! ## Cost when disarmed
//!
//! [`trip`] starts with one relaxed atomic load (the same pattern as the
//! `ZENESIS_OBS` level gate) and returns immediately when no plan is
//! armed. Pipelines may therefore call it unconditionally on hot paths.
//!
//! The canonical site names wired through the pipeline are documented in
//! `docs/ROBUSTNESS.md`: `adapt.denoise`, `ground.dino`, `sam.decode`,
//! `io.write`, `io.tiff`, `slice.slow`, `worker.kill`, `worker.kill.pre`,
//! `worker.hang`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// What an armed site injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The site reports a structured, recoverable error.
    Error,
    /// The site panics (exercises `catch_unwind` isolation).
    Panic,
    /// The site poisons its floating-point output with NaN.
    Nan,
    /// The site sleeps this many milliseconds, then succeeds.
    Slow(u64),
    /// The site aborts the process: `std::process::abort()` raises
    /// SIGABRT, which `catch_unwind` cannot intercept — the closest
    /// portable, dependency-free stand-in for SIGKILL/OOM/segfault.
    Kill,
    /// The site parks the calling thread effectively forever (a worker
    /// that stops making progress without dying).
    Hang,
}

impl FaultKind {
    /// Stable name used in `ZENESIS_FAULT` and in emitted events.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Panic => "panic",
            FaultKind::Nan => "nan",
            FaultKind::Slow(_) => "slow",
            FaultKind::Kill => "kill",
            FaultKind::Hang => "hang",
        }
    }
}

/// What [`trip`] asks the call site to do (panic and latency are handled
/// inside [`trip`] itself and never reach the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Return a structured error for this unit of work.
    Error,
    /// Poison the stage's floating-point output with NaN.
    Nan,
}

#[derive(Debug, Clone)]
struct Site {
    kind: FaultKind,
    prob: f64,
    seed: u64,
    /// Fallback draw counter for sites reached outside a unit scope.
    counter: Arc<AtomicU64>,
}

/// An armed set of fault sites.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    sites: HashMap<String, Site>,
}

impl FaultPlan {
    /// An empty plan (arms nothing until sites are added).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a site: `kind` fires with probability `prob` (clamped to
    /// `[0, 1]`), decided deterministically from `seed` and the unit
    /// index (builder style).
    pub fn site(mut self, name: &str, kind: FaultKind, prob: f64, seed: u64) -> Self {
        self.sites.insert(
            name.to_string(),
            Site {
                kind,
                prob: prob.clamp(0.0, 1.0),
                seed,
                counter: Arc::new(AtomicU64::new(0)),
            },
        );
        self
    }

    /// True when no sites are configured.
    pub(crate) fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Parse the `ZENESIS_FAULT` syntax:
    /// `site:kind:prob:seed[,site:kind:prob:seed...]` where `kind` is
    /// `error` | `panic` | `nan` | `slow[MS]` (default 100 ms) |
    /// `kill` | `hang`.
    pub(crate) fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let parts: Vec<&str> = entry.trim().split(':').collect();
            if parts.len() != 4 {
                return Err(format!("fault entry {entry:?} must be site:kind:prob:seed"));
            }
            let kind = match parts[1] {
                "error" => FaultKind::Error,
                "panic" => FaultKind::Panic,
                "nan" => FaultKind::Nan,
                "kill" => FaultKind::Kill,
                "hang" => FaultKind::Hang,
                k if k.starts_with("slow") => {
                    let ms = &k["slow".len()..];
                    if ms.is_empty() {
                        FaultKind::Slow(100)
                    } else {
                        FaultKind::Slow(
                            ms.parse()
                                .map_err(|_| format!("bad latency in fault kind {k:?}"))?,
                        )
                    }
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            let prob: f64 = parts[2]
                .parse()
                .map_err(|_| format!("bad probability {:?} in {entry:?}", parts[2]))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("probability {prob} not in [0, 1] in {entry:?}"));
            }
            let seed: u64 = parts[3]
                .parse()
                .map_err(|_| format!("bad seed {:?} in {entry:?}", parts[3]))?;
            plan = plan.site(parts[0], kind, prob, seed);
        }
        Ok(plan)
    }

    /// Install this plan globally and return a guard that disarms it (and
    /// restores the previous plan) when dropped. Tests hold the guard for
    /// the armed section; binaries may `std::mem::forget` it.
    pub fn arm(self) -> ArmedGuard {
        let prev = install(if self.is_empty() { None } else { Some(self) });
        ArmedGuard { prev }
    }
}

/// Disarms the plan installed by [`FaultPlan::arm`] on drop, restoring
/// whatever was armed before.
pub struct ArmedGuard {
    prev: Option<FaultPlan>,
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        install(self.prev.take());
    }
}

/// `ARMED` states: like the `ZENESIS_OBS` gate, `UNINIT` means the
/// environment has not been consulted yet.
const UNINIT: u8 = 0xFF;
const OFF: u8 = 0;
const ON: u8 = 1;

static ARMED: AtomicU8 = AtomicU8::new(UNINIT);

fn plan_slot() -> &'static RwLock<Option<FaultPlan>> {
    static SLOT: std::sync::OnceLock<RwLock<Option<FaultPlan>>> = std::sync::OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Replace the global plan, returning the previous one.
fn install(plan: Option<FaultPlan>) -> Option<FaultPlan> {
    let mut slot = plan_slot().write().unwrap_or_else(PoisonError::into_inner);
    let prev = slot.take();
    let armed = plan.is_some();
    *slot = plan;
    ARMED.store(if armed { ON } else { OFF }, Ordering::Relaxed);
    prev
}

fn init_from_env() -> u8 {
    let plan = match std::env::var("ZENESIS_FAULT") {
        Ok(spec) if !spec.trim().is_empty() => match FaultPlan::parse(&spec) {
            Ok(p) if !p.is_empty() => Some(p),
            Ok(_) => None,
            Err(e) => {
                eprintln!("ZENESIS_FAULT ignored: {e}");
                None
            }
        },
        _ => None,
    };
    let armed = plan.is_some();
    // Benign race: concurrent initializers parse the same environment.
    *plan_slot().write().unwrap_or_else(PoisonError::into_inner) = plan;
    let v = if armed { ON } else { OFF };
    ARMED.store(v, Ordering::Relaxed);
    v
}

/// True when any fault site is armed. One relaxed atomic load on the hot
/// path (after the first call, which may read `ZENESIS_FAULT`).
#[inline]
pub fn armed() -> bool {
    let v = ARMED.load(Ordering::Relaxed);
    let v = if v == UNINIT { init_from_env() } else { v };
    v == ON
}

thread_local! {
    /// The stable identity of the current unit of work (slice index),
    /// set by [`with_unit`] around per-unit pipeline sections.
    static UNIT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Run `f` with `index` as the deterministic fault unit for every site
/// tripped inside it (nesting restores the outer unit on exit).
pub fn with_unit<R>(index: u64, f: impl FnOnce() -> R) -> R {
    UNIT.with(|u| {
        let prev = u.replace(Some(index));
        // Restore on unwind too: injected panics must not leak the unit
        // index into unrelated work on this (pooled) thread.
        struct Restore<'a>(&'a Cell<Option<u64>>, Option<u64>);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _restore = Restore(u, prev);
        f()
    })
}

/// The unit index [`trip`] will use on this thread, if one is in scope.
pub(crate) fn current_unit() -> Option<u64> {
    UNIT.with(|u| u.get())
}

/// FNV-1a of the site name: folds the site into the decision hash so two
/// sites with the same seed fire on different units.
fn fnv(site: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: turns the combined seed into a uniform draw.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn decide(site: &Site, name: &str, index: u64) -> bool {
    let draw = splitmix64(site.seed ^ fnv(name) ^ index);
    // prob of 1.0 must always fire; compare in f64 (53-bit draw).
    (draw >> 11) as f64 / (1u64 << 53) as f64 <= site.prob && site.prob > 0.0
}

/// Check the named fault site for the current unit of work.
///
/// Disarmed (the overwhelmingly common case): one relaxed atomic load,
/// returns `None`. Armed: decides deterministically from the site seed
/// and unit index; a firing `panic` site panics here, a `slow` site
/// sleeps here, a `kill` site aborts the process, a `hang` site parks
/// forever, and `error` / `nan` return an [`Injection`] for the caller
/// to apply. Every firing is recorded as a `fault.injected` event and
/// counted in the `fault.injected` counter.
pub fn trip(site_name: &str) -> Option<Injection> {
    if !armed() {
        return None;
    }
    let site = {
        let slot = plan_slot().read().unwrap_or_else(PoisonError::into_inner);
        let plan = slot.as_ref()?;
        plan.sites.get(site_name)?.clone()
    };
    let index = current_unit().unwrap_or_else(|| site.counter.fetch_add(1, Ordering::Relaxed));
    if !decide(&site, site_name, index) {
        return None;
    }
    zenesis_obs::counter("fault.injected").inc();
    zenesis_obs::events::emit(zenesis_obs::events::Event::FaultInjected {
        site: site_name.to_string(),
        kind: site.kind.name().into(),
        unit: index,
    });
    match site.kind {
        FaultKind::Error => Some(Injection::Error),
        FaultKind::Nan => Some(Injection::Nan),
        FaultKind::Panic => panic!("injected fault at {site_name} (unit {index})"),
        FaultKind::Slow(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        FaultKind::Kill => {
            // SIGABRT: skips destructors, unwinding, and atexit hooks —
            // the process dies here, exactly like an OOM kill would.
            eprintln!("injected worker kill at {site_name} (unit {index})");
            std::process::abort();
        }
        FaultKind::Hang => {
            eprintln!("injected worker hang at {site_name} (unit {index})");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Arming mutates process-global state; serialize the tests touching it.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_trips_nothing() {
        let _g = serial();
        let _armed = FaultPlan::new().arm(); // empty plan = disarmed
        assert!(!armed());
        assert_eq!(trip("sam.decode"), None);
    }

    #[test]
    fn parse_env_syntax() {
        let p = FaultPlan::parse("sam.decode:panic:0.1:7,adapt.denoise:nan:0.05:11").unwrap();
        assert_eq!(p.sites.len(), 2);
        let p = FaultPlan::parse("slice.slow:slow250:1.0:1").unwrap();
        assert_eq!(p.sites["slice.slow"].kind, FaultKind::Slow(250));
        let p = FaultPlan::parse("io.write:slow:0.5:3").unwrap();
        assert_eq!(p.sites["io.write"].kind, FaultKind::Slow(100));
        let p = FaultPlan::parse("worker.kill:kill:1.0:2,worker.hang:hang:0.5:3").unwrap();
        assert_eq!(p.sites["worker.kill"].kind, FaultKind::Kill);
        assert_eq!(p.sites["worker.hang"].kind, FaultKind::Hang);
        assert!(FaultPlan::parse("bad").is_err());
        assert!(FaultPlan::parse("a:explode:0.1:1").is_err());
        assert!(FaultPlan::parse("a:error:1.5:1").is_err());
        assert!(FaultPlan::parse("a:error:0.5:x").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn error_and_nan_injections_surface() {
        let _g = serial();
        let _armed = FaultPlan::new()
            .site("a", FaultKind::Error, 1.0, 1)
            .site("b", FaultKind::Nan, 1.0, 2)
            .arm();
        assert_eq!(trip("a"), Some(Injection::Error));
        assert_eq!(trip("b"), Some(Injection::Nan));
        assert_eq!(trip("unknown.site"), None);
    }

    #[test]
    fn panic_kind_panics_at_the_site() {
        let _g = serial();
        let _armed = FaultPlan::new().site("p", FaultKind::Panic, 1.0, 1).arm();
        let err = std::panic::catch_unwind(|| trip("p")).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected fault at p"), "{msg}");
    }

    #[test]
    fn decisions_are_deterministic_per_unit() {
        let _g = serial();
        let _armed = FaultPlan::new().site("d", FaultKind::Error, 0.3, 42).arm();
        let run = || -> Vec<bool> {
            (0..64)
                .map(|i| with_unit(i, || trip("d").is_some()))
                .collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed + units must fire identically");
        let fired = a.iter().filter(|f| **f).count();
        assert!(fired > 2 && fired < 40, "p=0.3 over 64 units fired {fired}");
    }

    #[test]
    fn different_seeds_fire_differently() {
        let _g = serial();
        let pattern = |seed| {
            let _armed = FaultPlan::new()
                .site("s", FaultKind::Error, 0.5, seed)
                .arm();
            (0..64u64)
                .map(|i| with_unit(i, || trip("s").is_some()))
                .collect::<Vec<_>>()
        };
        assert_ne!(pattern(1), pattern(2));
    }

    #[test]
    fn prob_bounds() {
        let _g = serial();
        let _armed = FaultPlan::new()
            .site("never", FaultKind::Error, 0.0, 9)
            .site("always", FaultKind::Error, 1.0, 9)
            .arm();
        for i in 0..32 {
            with_unit(i, || {
                assert_eq!(trip("never"), None);
                assert_eq!(trip("always"), Some(Injection::Error));
            });
        }
    }

    #[test]
    fn unit_scope_nests_and_restores() {
        assert_eq!(current_unit(), None);
        with_unit(3, || {
            assert_eq!(current_unit(), Some(3));
            with_unit(9, || assert_eq!(current_unit(), Some(9)));
            assert_eq!(current_unit(), Some(3));
        });
        assert_eq!(current_unit(), None);
    }

    #[test]
    fn unit_restored_after_injected_panic() {
        let _g = serial();
        let _armed = FaultPlan::new().site("p", FaultKind::Panic, 1.0, 1).arm();
        let _ = std::panic::catch_unwind(|| with_unit(5, || trip("p")));
        assert_eq!(current_unit(), None, "panic must not leak the unit");
    }

    #[test]
    fn arm_guard_restores_previous_plan() {
        let _g = serial();
        let _outer = FaultPlan::new()
            .site("outer", FaultKind::Error, 1.0, 1)
            .arm();
        {
            let _inner = FaultPlan::new()
                .site("inner", FaultKind::Error, 1.0, 1)
                .arm();
            assert_eq!(with_unit(0, || trip("inner")), Some(Injection::Error));
            assert_eq!(with_unit(0, || trip("outer")), None);
        }
        assert_eq!(with_unit(0, || trip("outer")), Some(Injection::Error));
        assert_eq!(with_unit(0, || trip("inner")), None);
    }
}
