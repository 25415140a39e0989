//! Two-way fork-join, the primitive rayon calls `join`.
//!
//! `join(a, b)` posts `b` to the resident team, runs `a` on the caller,
//! then takes `b` back if no helper claimed it, and returns both results.
//! With the global thread count at 1, or inside a data-parallel chunk, it
//! degrades to sequential calls.

use std::sync::{Mutex, PoisonError};

use crate::lock;

use crate::config::current_threads;
use crate::scope::in_worker;
use crate::team;

/// Run two independent closures, in parallel when a helper is free.
///
/// Spans opened inside `b` on a helper attribute to the span that called
/// `join`, not to a detached root, and carry the caller's trace context.
/// A panic in either closure is re-raised here with its own payload.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_threads() <= 1 || in_worker() {
        return (a(), b());
    }
    // `fan_out` wants one `Fn(usize)`: the slots let a shared closure
    // take each `FnOnce` out and put its result in.
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    team::fan_out(2, &|arm| {
        if arm == 0 {
            let a = lock(&a).take().expect("arm claimed twice");
            *lock(&ra) = Some(a());
        } else {
            let b = lock(&b).take().expect("arm claimed twice");
            *lock(&rb) = Some(b());
        }
    });
    let done = "fan_out returned, so both arms ran";
    let ra = ra.into_inner().unwrap_or_else(PoisonError::into_inner);
    let rb = rb.into_inner().unwrap_or_else(PoisonError::into_inner);
    (ra.expect(done), rb.expect(done))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThreadsGuard;

    #[test]
    fn returns_both_results() {
        let (a, b) = join(|| 6 * 7, || "hi".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "hi");
    }

    #[test]
    fn borrows_from_caller() {
        let data = [1, 2, 3, 4];
        let (sum, max) = join(|| data.iter().sum::<i32>(), || *data.iter().max().unwrap());
        assert_eq!(sum, 10);
        assert_eq!(max, 4);
    }

    #[test]
    fn sequential_at_one_thread() {
        let _g = ThreadsGuard::new(1);
        let main_id = std::thread::current().id();
        let (ida, idb) = join(
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(ida, main_id);
        assert_eq!(idb, main_id);
    }

    #[test]
    #[should_panic]
    fn panic_propagates() {
        let _g = ThreadsGuard::new(4);
        let _ = join(|| 1, || panic!("boom"));
    }
}
