//! # zenesis-tensor
//!
//! The minimal dense-linear-algebra substrate under the grounding
//! surrogate's Eq. 1 attention: a row-major [`Matrix`] with panel-packed,
//! cache-blocked matrix multiplication (the patch projection and
//! `Q Kᵀ`), the row softmax that normalizes the scores, and the runtime
//! SIMD dispatch ([`simd_dispatch!`]) that this crate's and
//! `zenesis-image`'s kernels compile through.
//!
//! Everything is `f32` and CPU-side; the softmax fans out over
//! `zenesis-par` above its grain gate, and everything follows the Rust
//! Performance Book's advice: flat buffers, a per-thread pool that keeps
//! matmul's packing buffers off the allocator, no per-element
//! allocation, inner loops over contiguous memory shaped for the
//! autovectorizer. See `docs/PERFORMANCE.md` for the kernel design.

mod matmul;
mod matrix;
mod ops;
mod simd;
mod workspace;

pub use matmul::{MR, NR};
pub use matrix::Matrix;
pub use ops::{fast_exp, softmax_rows};
pub use simd::{simd_level, ScalarGuard, SimdLevel};
