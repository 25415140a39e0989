//! # zenesis-tensor
//!
//! The minimal dense-linear-algebra substrate under the Zenesis
//! transformer stack: a row-major [`Matrix`] with panel-packed,
//! cache-blocked matrix multiplication, zero-copy strided views
//! ([`MatView`] / [`MatViewMut`]) for slicing attention heads without
//! copies, a reusable scratch arena ([`Workspace`]) that keeps the
//! transformer hot loops allocation-free, plus the handful of pointwise
//! and row-wise kernels attention needs (softmax, layer norm, GELU).
//!
//! Everything is `f32` and CPU-side; the row-wise kernels fan out over
//! `zenesis-par` above its grain gate, and everything follows the Rust
//! Performance Book's advice: flat buffers, preallocated (and recycled)
//! outputs, no per-element allocation, inner loops over contiguous
//! memory shaped for the autovectorizer. See `docs/PERFORMANCE.md` for
//! the kernel design.

mod matmul;
mod matrix;
mod ops;
mod simd;
mod view;
mod workspace;

#[doc(hidden)]
pub use matmul::{micro_rx1, micro_rx2};
pub use matmul::{MR, NR};
pub use matrix::Matrix;
pub use ops::{
    fast_exp, fast_tanh, gelu, gelu_inplace, layernorm_rows, layernorm_rows_into, softmax_row,
    softmax_rows, softmax_rows_inplace,
};
pub use simd::{simd_level, ScalarGuard, SimdLevel};
pub use view::{MatView, MatViewMut};
pub use workspace::Workspace;
