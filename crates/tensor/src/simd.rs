//! Runtime SIMD dispatch for the kernel hot loops.
//!
//! The micro-kernels in this crate (and the convolution bands in
//! `zenesis-image`) are written as plain safe Rust with fixed-width
//! independent accumulator lanes — the exact shape LLVM's autovectorizer
//! maps onto whatever vector width the target allows. The portable build
//! targets baseline x86-64 (SSE2, 4 lanes); the one [`simd_dispatch!`](crate::simd_dispatch) macro
//! compiles the same source a *second* time inside an
//! `#[target_feature(enable = "avx2")]` wrapper, where the identical lane
//! structure widens to 256-bit ops, and picks the widest supported body
//! at runtime. Every kernel `unsafe` block in the workspace is that
//! macro's one call of its AVX2 body.
//!
//! **Bit-stability contract.** The dispatched bodies are the *same Rust
//! code* as the scalar fallback — no fused multiply-add, no reassociated
//! reductions, no approximate instructions — so every per-element IEEE
//! operation happens in the same order at either width. SIMD-on and
//! forced-scalar results are bit-identical by construction, and the
//! parity and golden suites (`crates/tensor/tests/parity.rs`,
//! `crates/nn/tests/attention_golden.rs`) pin it.
//!
//! Forcing the fallback for debugging or A/B timing:
//!
//! * `ZENESIS_SIMD=scalar` (or `off`) in the environment disables
//!   dispatch process-wide, read once at first use.
//! * [`ScalarGuard`] forces the fallback for a scope at runtime (used by
//!   the parity and golden tests to cover both paths in one process;
//!   nesting is counted, and concurrent guards compose safely because
//!   both paths produce identical bits).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Instruction-set level a kernel body was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable baseline: whatever the build target allows (SSE2 on the
    /// default x86-64 target).
    Scalar,
    /// 256-bit AVX2 re-compilation of the same kernel body.
    Avx2,
}

/// Define `$name`, a runtime-dispatched wrapper of the kernel body
/// `$body`: the body compiles twice — portable baseline and an AVX2
/// re-compilation of the identical code — and each call picks the level
/// [`simd_level`] reports. The body must be `#[inline(always)]` plain
/// safe Rust with a fixed per-element operation order, so both
/// compilations produce bit-identical results (see the module docs).
#[macro_export]
macro_rules! simd_dispatch {
    ($vis:vis $name:ident => $body:ident ( $($arg:ident : $ty:ty),* $(,)? )) => {
        $vis fn $name($($arg: $ty),*) {
            /// # Safety
            /// The CPU must support AVX2.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2($($arg: $ty),*) {
                $body($($arg),*)
            }
            match $crate::simd_level() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `simd_level()` only reports Avx2 when the CPU
                // supports it.
                $crate::SimdLevel::Avx2 => unsafe { avx2($($arg),*) },
                #[cfg(not(target_arch = "x86_64"))]
                $crate::SimdLevel::Avx2 => $body($($arg),*),
                $crate::SimdLevel::Scalar => $body($($arg),*),
            }
        }
    };
}

/// Depth of active [`ScalarGuard`]s (0 = dispatch enabled).
static FORCE_SCALAR: AtomicUsize = AtomicUsize::new(0);

fn detected() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let env_off = std::env::var("ZENESIS_SIMD")
            .map(|v| {
                let v = v.to_ascii_lowercase();
                v == "scalar" || v == "off" || v == "0"
            })
            .unwrap_or(false);
        if env_off {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// The level kernel call sites should dispatch to *right now*: the
/// detected CPU level, unless a [`ScalarGuard`] or `ZENESIS_SIMD=scalar`
/// forces the fallback.
#[inline]
pub fn simd_level() -> SimdLevel {
    if FORCE_SCALAR.load(Ordering::Relaxed) != 0 {
        SimdLevel::Scalar
    } else {
        detected()
    }
}

/// RAII guard forcing the scalar fallback until dropped. Guards nest and
/// may be held concurrently from several threads (a counter, not a flag);
/// because the dispatched and fallback bodies are bit-identical, a guard
/// held by one test never changes another's results — only its speed.
#[derive(Debug)]
pub struct ScalarGuard(());

impl ScalarGuard {
    pub fn new() -> Self {
        FORCE_SCALAR.fetch_add(1, Ordering::Relaxed);
        ScalarGuard(())
    }
}

impl Default for ScalarGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ScalarGuard {
    fn drop(&mut self) {
        FORCE_SCALAR.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_forces_scalar_and_restores() {
        let base = simd_level();
        {
            let _g = ScalarGuard::new();
            assert_eq!(simd_level(), SimdLevel::Scalar);
            {
                let _inner = ScalarGuard::new();
                assert_eq!(simd_level(), SimdLevel::Scalar);
            }
            // Still forced: outer guard alive.
            assert_eq!(simd_level(), SimdLevel::Scalar);
        }
        assert_eq!(simd_level(), base);
    }
}
