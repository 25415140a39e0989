//! Reusable scratch-buffer pool for the matmul kernels.
//!
//! Every product packs its right-hand side into a scratch buffer and
//! writes a fresh output; the pipeline issues the same few shapes for
//! every slice. A [`Workspace`] is a small pool of `f32` buffers that the
//! kernels check out and return, so a steady stream of products reuses
//! its packing buffers instead of round-tripping them through the
//! allocator. The largest, the packed patch keys of `Q Kᵀ` at a 256²
//! slice, is 128 KiB: glibc's default mmap threshold, so without the
//! pool whether each product maps and faults in a fresh buffer would
//! depend on glibc's dynamic threshold.
//!
//! [`Workspace::with`] hands out the calling thread's pool; the public
//! `Matrix::matmul` and `Matrix::matmul_transposed` route through it.
//!
//! The `tensor.alloc.reuse` / `tensor.alloc.fresh` counters record every
//! checkout, so `ZENESIS_OBS=full` runs can prove the reuse rate.

use std::cell::RefCell;

use crate::matrix::Matrix;

/// Maximum buffers kept in one arena; beyond this, returned buffers are
/// dropped (bounds worst-case memory to ~pool_cap × largest buffer).
const POOL_CAP: usize = 32;

/// A pool of reusable `f32` buffers.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    pool: Vec<Vec<f32>>,
}

fn count_reuse() {
    use std::sync::OnceLock;
    static C: OnceLock<std::sync::Arc<zenesis_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| zenesis_obs::counter("tensor.alloc.reuse"))
        .add(1);
}

fn count_fresh() {
    use std::sync::OnceLock;
    static C: OnceLock<std::sync::Arc<zenesis_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| zenesis_obs::counter("tensor.alloc.fresh"))
        .add(1);
}

impl Workspace {
    pub(crate) fn new() -> Self {
        Workspace::default()
    }

    /// Check out a buffer of exactly `len` elements with **unspecified
    /// contents** (callers must fully overwrite it). Reuses a pooled
    /// buffer when one with sufficient capacity exists.
    pub(crate) fn take(&mut self, len: usize) -> Vec<f32> {
        // Best-fit scan: smallest pooled buffer whose capacity suffices,
        // so a small checkout doesn't consume the big packed-keys buffer.
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.pool.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        if let Some((i, _)) = best {
            count_reuse();
            let mut v = self.pool.swap_remove(i);
            // Preserve-don't-zero: shrinking keeps old (initialized)
            // contents; growing within capacity zero-extends only the
            // tail. Either way no full memset on the steady-state path.
            if v.len() >= len {
                v.truncate(len);
            } else {
                v.resize(len, 0.0);
            }
            v
        } else {
            count_fresh();
            vec![0.0; len]
        }
    }

    /// Check out a `rows x cols` matrix with unspecified contents.
    pub(crate) fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take(rows * cols))
    }

    /// Return a buffer to the pool for reuse.
    pub(crate) fn recycle_vec(&mut self, v: Vec<f32>) {
        if v.capacity() == 0 {
            return;
        }
        if self.pool.len() >= POOL_CAP {
            // Evict the smallest pooled buffer (keep the big ones: they
            // are the expensive allocations worth holding onto).
            if let Some((i, _)) = self
                .pool
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
            {
                if self.pool[i].capacity() < v.capacity() {
                    self.pool.swap_remove(i);
                } else {
                    return;
                }
            }
        }
        self.pool.push(v);
    }

    /// Run `f` with the calling thread's arena. Nested calls on the same
    /// thread (a `with` inside a `with`) degrade to a fresh temporary
    /// arena rather than panicking.
    pub(crate) fn with<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
        thread_local! {
            static WS: RefCell<Workspace> = RefCell::new(Workspace::new());
        }
        WS.with(|w| match w.try_borrow_mut() {
            Ok(mut ws) => f(&mut ws),
            Err(_) => f(&mut Workspace::new()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_reuses_allocation() {
        let mut ws = Workspace::new();
        let b = ws.take(128);
        let ptr = b.as_ptr();
        ws.recycle_vec(b);
        let b2 = ws.take(100);
        assert_eq!(b2.as_ptr(), ptr, "shrinking take must reuse the buffer");
        assert_eq!(b2.len(), 100);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        let big = ws.take(1024);
        let small = ws.take(64);
        let big_ptr = big.as_ptr();
        let small_ptr = small.as_ptr();
        ws.recycle_vec(big);
        ws.recycle_vec(small);
        let got = ws.take(32);
        assert_eq!(got.as_ptr(), small_ptr);
        let got2 = ws.take(512);
        assert_eq!(got2.as_ptr(), big_ptr);
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for i in 0..2 * POOL_CAP {
            ws.recycle_vec(vec![0.0; i + 1]);
        }
        assert!(ws.pool.len() <= POOL_CAP);
    }

    #[test]
    fn nested_with_does_not_panic() {
        let out = Workspace::with(|outer| {
            let b = outer.take(8);
            let inner_val = Workspace::with(|inner| inner.take(4).len());
            outer.recycle_vec(b);
            inner_val
        });
        assert_eq!(out, 4);
    }
}
