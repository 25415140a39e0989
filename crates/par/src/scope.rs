//! Chunked, self-scheduling data parallelism on the resident team.
//!
//! Every function here follows the same pattern: the index space `0..n` is
//! split into chunks whose boundaries depend only on `(n,
//! current_threads())`; the caller and the team's helpers claim chunks by
//! bumping a shared atomic counter (dynamic scheduling, so uneven per-item
//! cost balances out); output is written through disjoint `&mut` slices so
//! results are identical to the sequential order whoever ran which chunk.
//! [`run_chunks`] is the one skeleton; [`crate::team`] is what it runs on.

use std::cell::Cell;
use std::mem::MaybeUninit;
use std::time::Duration;

use std::sync::Mutex;

use crate::lock;

use crate::config::current_threads;
use crate::team;

thread_local! {
    /// Set while this thread runs a chunk of a data-parallel call.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on a thread currently executing a chunk of a data-parallel call
/// (`par_map*`, `par_rows*`), be it a helper or the participating caller.
/// Every parallel entry point in this crate checks it and runs inline when
/// set, so nested data parallelism (a parallel matmul called from a
/// per-head attention chunk, say) degrades to sequential execution instead
/// of fanning out again. The two arms of a [`crate::join`] are
/// deliberately *not* marked: they are coarse stages that may legitimately
/// fan out into data parallelism.
///
/// Because every parallel result is bit-identical to its sequential
/// counterpart (disjoint `&mut` bands, sequential order within a band),
/// running inline never changes results — only scheduling.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Mark the current thread as a worker for the duration of `f`. Helpers
/// and the caller both outlive the call, so the previous value is restored
/// on return and on unwind.
#[inline]
fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|flag| flag.replace(true)));
    f()
}

/// Element count below which [`par_rows`] and the per-pixel callers of
/// [`par_map_range_min`] run inline on the caller thread: waking a helper
/// and waiting for it costs a few microseconds, which dwarfs the work
/// itself for small buffers (a 3x256 attention score matrix, a handful of
/// layer-norm rows, a 16×16 slice). Callers whose per-element cost is far
/// from O(1) should pass their own threshold to the `_min` variants.
pub const SMALL_WORK_ELEMS: usize = 4096;

/// Chunk length heuristic: enough chunks for dynamic load balancing
/// (~4 per worker) but not so many that the atomic counter contends.
pub(crate) fn chunk_len(n: usize, workers: usize) -> usize {
    if n == 0 {
        return 1;
    }
    let target_chunks = workers.max(1) * 4;
    (n.div_ceil(target_chunks)).max(1)
}

/// The chunk length for `n` items, or `None` when the call must run
/// inline: one thread, fewer than two items, or already inside a chunk.
///
/// With `ZENESIS_OBS=full` the decision is reported to the profiler:
/// `par.chunk.items` is the items-per-chunk distribution and
/// `par.chunk.count` the chunks-per-call distribution, together showing
/// whether the heuristic keeps workers busy without counter contention.
fn plan(n: usize) -> Option<usize> {
    let workers = current_threads();
    if workers <= 1 || n < 2 || in_worker() {
        return None;
    }
    let chunk = chunk_len(n, workers);
    if zenesis_obs::full() {
        zenesis_obs::histogram("par.chunk.items").record(chunk as u64);
        zenesis_obs::histogram("par.chunk.count").record(n.div_ceil(chunk) as u64);
    }
    Some(chunk)
}

/// Hand each item of `chunks` — pre-split, disjoint pieces of the output —
/// to `f(chunk_index, piece)` exactly once, on the team.
fn run_chunks<C, F>(chunks: impl Iterator<Item = C>, f: F)
where
    C: Send,
    F: Fn(usize, C) + Sync,
{
    let slots: Vec<Mutex<Option<C>>> = chunks.map(|c| Mutex::new(Some(c))).collect();
    team::fan_out(slots.len(), &|c| {
        let piece = lock(&slots[c]).take().expect("chunk claimed twice");
        as_worker(|| f(c, piece));
    });
}

/// Run `f(i)` once for every `i` in `0..n` on the team's background lane:
/// long, low-priority work such as a volume sweep's slice workers, which
/// must not hold the cores an interactive request needs.
///
/// Each `f(i)` runs on a background helper at nice 10, which gets about a
/// tenth of the CPU share of a foreground (nice 0) thread it competes
/// with and the whole core when it competes with none; nested `par_*`
/// calls inside it run inline. The calling thread takes no item. It calls `tend` every
/// `period` until the last item has finished — a volume run commits its
/// checkpoint journal there — and returns once they all have. Inside a
/// chunk of another call, every item runs inline on the caller and
/// `tend` is not called. A panic in `f` is re-raised here, once.
pub fn par_background<F, T>(n: usize, period: Duration, mut tend: T, f: F)
where
    F: Fn(usize) + Sync,
    T: FnMut(),
{
    if n == 0 {
        return;
    }
    if in_worker() {
        return (0..n).for_each(f);
    }
    team::fan_out_background(n, &|i| as_worker(|| f(i)), period, &mut tend);
}

/// Map `items` to a new `Vec`, preserving order, in parallel.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_range(items.len(), |i| f(&items[i]))
}

/// Map the index range `0..n` to a `Vec` in parallel, preserving order.
///
/// This is the workhorse primitive: slices of a volume, tiles, windows,
/// attention heads, seeds — anything indexable with few heavy items maps
/// through here and fans out from `n = 2`. Per-pixel maps, whose items are
/// cheap, go through [`par_map_range_min`] instead.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_range_min(n, 0, f)
}

/// [`par_map_range`] with an explicit inline threshold: ranges shorter
/// than `min_elems` are mapped on the caller thread. Per-pixel maps pass
/// [`SMALL_WORK_ELEMS`], the rule [`par_rows`] applies to its buffers.
pub fn par_map_range_min<U, F>(n: usize, min_elems: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let Some(chunk) = (n >= min_elems).then(|| plan(n)).flatten() else {
        return (0..n).map(f).collect();
    };
    let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(n);
    // SAFETY: every slot is written exactly once below before assume_init.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(n);
    }
    // If a chunk panics, `run_chunks` re-raises it here and the
    // MaybeUninit buffer drops without dropping initialized elements: they
    // leak rather than double-drop — safe, and acceptable because a
    // propagated panic is already fatal to the computation.
    run_chunks(out.chunks_mut(chunk), |c, slice| {
        for (off, slot) in slice.iter_mut().enumerate() {
            slot.write(f(c * chunk + off));
        }
    });
    // SAFETY: all elements initialized (`run_chunks` returned, so each
    // chunk was fully written by exactly one thread).
    unsafe {
        let mut out = std::mem::ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr() as *mut U, n, out.capacity())
    }
}

/// Process a flat row-major 2-D buffer (`rows` rows of `row_len` elements)
/// in parallel, handing each worker call a disjoint band of full rows.
///
/// `f(row_start, band)` where `band` covers rows `row_start..row_start+k`.
///
/// Buffers smaller than [`SMALL_WORK_ELEMS`] elements run inline on the
/// caller thread — fan-out overhead beats any parallel win there.
/// Use [`par_rows_min`] to supply a custom threshold when per-element
/// cost is unusual (e.g. a matmul row costs O(k), not O(1)).
pub fn par_rows<T, F>(data: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_rows_min(data, row_len, SMALL_WORK_ELEMS, f)
}

/// Rows per band for a `len`-element buffer of `row_len`-element rows, or
/// `None` when it must be processed inline as one band.
fn plan_rows(len: usize, row_len: usize, min_elems: usize) -> Option<usize> {
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(len % row_len, 0, "buffer not a whole number of rows");
    if len < min_elems {
        return None;
    }
    plan(len / row_len)
}

/// [`par_rows`] with an explicit inline threshold: buffers with fewer
/// than `min_elems` elements are processed on the caller thread.
pub fn par_rows_min<T, F>(data: &mut [T], row_len: usize, min_elems: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let Some(rows_per_band) = plan_rows(data.len(), row_len, min_elems) else {
        return f(0, data);
    };
    run_chunks(data.chunks_mut(rows_per_band * row_len), |b, band| {
        f(b * rows_per_band, band)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThreadsGuard;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_range_order_preserved() {
        let v = par_map_range(1000, |i| i * 3);
        assert_eq!(v, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_and_single() {
        assert!(par_map_range(0, |i| i).is_empty());
        assert_eq!(par_map_range(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn small_buffer_runs_inline() {
        let _g = ThreadsGuard::new(4);
        let main_id = std::thread::current().id();
        // Under the threshold: processed on the caller thread in one call.
        let mut small = vec![0u8; 64];
        let calls = AtomicUsize::new(0);
        par_rows(&mut small, 8, |_, _| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!(std::thread::current().id(), main_id);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn zero_min_forces_banding() {
        let _g = ThreadsGuard::new(4);
        // min_elems 0: even a tiny buffer is split into bands.
        let mut buf = vec![0u32; 64];
        par_rows_min(&mut buf, 8, 0, |row_start, band| {
            for (r, row) in band.chunks_mut(8).enumerate() {
                row.fill((row_start + r) as u32);
            }
        });
        for (r, row) in buf.chunks(8).enumerate() {
            assert!(row.iter().all(|&v| v == r as u32));
        }
    }

    #[test]
    fn rows_bands_are_disjoint_and_complete() {
        let row_len = 17;
        let rows = 57;
        let mut buf = vec![0u8; row_len * rows];
        par_rows_min(&mut buf, row_len, 0, |row_start, band| {
            for (r, row) in band.chunks_mut(row_len).enumerate() {
                for v in row.iter_mut() {
                    *v = ((row_start + r) % 251) as u8;
                }
            }
        });
        for (r, row) in buf.chunks(row_len).enumerate() {
            assert!(row.iter().all(|&v| v == (r % 251) as u8));
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let _g = ThreadsGuard::new(1);
        let main_id = std::thread::current().id();
        let ids = par_map_range(8, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == main_id));
    }

    #[test]
    fn nested_parallelism_runs_inline_in_workers() {
        let _g = ThreadsGuard::new(4);
        assert!(!in_worker());
        let mut buf = vec![0u32; 64];
        par_rows_min(&mut buf, 8, 0, |_, band| {
            assert!(in_worker());
            // A nested parallel call from inside a worker stays on the
            // worker thread instead of fanning out again.
            let tid = std::thread::current().id();
            let ids = par_map_range(8, |_| std::thread::current().id());
            assert!(ids.iter().all(|id| *id == tid));
            band.fill(1);
        });
        assert!(!in_worker());
        assert!(buf.iter().all(|&v| v == 1));
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = par_map_range(64, |i| {
            if i == 33 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn drop_types_do_not_leak_or_double_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(#[allow(dead_code)] usize);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let _v = par_map_range(100, D);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn chunk_len_sane() {
        assert_eq!(chunk_len(0, 8), 1);
        assert!(chunk_len(1, 8) >= 1);
        assert!(chunk_len(1_000_000, 8) >= 1);
        // at most ~4*workers chunks
        let n: usize = 1000;
        let w: usize = 4;
        assert!(n.div_ceil(chunk_len(n, w)) <= 4 * w + 1);
    }
}
