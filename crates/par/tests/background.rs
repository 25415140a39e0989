//! The team's background lane behind `par_background`: every item runs
//! on a background helper at lowered CPU priority, never on the caller,
//! which tends to its own work until the last item is done — at one
//! thread too, where a lane that waited on its caller would hang.
//!
//! Every test takes `SERIAL`, because the thread count is process-wide.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

use zenesis_par::{in_worker, par_background, par_map_range, ThreadsGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const PERIOD: Duration = Duration::from_millis(1);

/// Run `f` over `0..n` on the background lane; return the thread each
/// item ran on.
fn threads_of(n: usize, f: impl Fn(usize) + Sync) -> Vec<ThreadId> {
    let ids = Mutex::new(vec![None; n]);
    par_background(
        n,
        PERIOD,
        || {},
        |i| {
            f(i);
            ids.lock().unwrap()[i] = Some(std::thread::current().id());
        },
    );
    let ids = ids.into_inner().unwrap();
    ids.into_iter().map(|id| id.expect("item ran")).collect()
}

#[test]
fn no_item_runs_on_the_caller() {
    let _s = serial();
    let me = std::thread::current().id();
    for threads in [1, 2, 4] {
        let _g = ThreadsGuard::new(threads);
        for n in [1, 2, 3, 8] {
            let ids = threads_of(n, |_| {});
            assert!(
                ids.iter().all(|id| *id != me),
                "{threads} threads, {n} items"
            );
        }
    }
}

#[test]
fn the_caller_tends_while_the_items_run() {
    let _s = serial();
    for threads in [1, 2] {
        let _g = ThreadsGuard::new(threads);
        let (tx, rx) = channel::<()>();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let tends = AtomicUsize::new(0);
        // The item cannot finish before the caller has tended once, so a
        // caller that only waited for it would hang here.
        par_background(
            1,
            PERIOD,
            || {
                tends.fetch_add(1, Ordering::SeqCst);
                let _ = tx.lock().unwrap().send(());
            },
            |_| {
                rx.lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(30))
                    .expect("the caller tended");
            },
        );
        assert!(tends.load(Ordering::SeqCst) >= 1, "{threads} threads");
    }
}

/// Field 19 of `/proc/thread-self/stat`, the calling thread's nice value.
#[cfg(target_os = "linux")]
fn own_nice() -> i64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
    // Field 2, the command, is parenthesized and may hold spaces: count
    // from the last `)`, after which field 3 comes first.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[19 - 3].parse().expect("nice is a number")
}

#[cfg(target_os = "linux")]
#[test]
fn items_run_at_nice_ten_or_lower_priority() {
    let _s = serial();
    let _g = ThreadsGuard::new(2);
    let caller_nice = own_nice();
    let nices = Mutex::new(Vec::new());
    par_background(4, PERIOD, || {}, |_| nices.lock().unwrap().push(own_nice()));
    let nices = nices.into_inner().unwrap();
    assert_eq!(nices.len(), 4);
    assert!(nices.iter().all(|&n| n >= 10), "{nices:?}");
    assert_eq!(own_nice(), caller_nice, "the caller's priority changed");
    // Foreground helpers keep their priority.
    let fg = par_map_range(8, |_| own_nice());
    assert!(fg.iter().all(|&n| n == caller_nice), "{fg:?}");
}

#[test]
fn nested_parallel_calls_inside_an_item_run_inline() {
    let _s = serial();
    let _g = ThreadsGuard::new(2);
    assert!(!in_worker());
    par_background(
        2,
        PERIOD,
        || {},
        |_| {
            assert!(in_worker(), "an item runs marked as a worker");
            let me = std::thread::current().id();
            let ids = par_map_range(16, |_| std::thread::current().id());
            assert!(ids.iter().all(|id| *id == me), "a nested call fanned out");
            // A nested background call runs its items inline too.
            let nested = threads_of(3, |_| {});
            assert!(
                nested.iter().all(|id| *id == me),
                "a nested sweep left the item"
            );
        },
    );
    assert!(!in_worker());
}

#[test]
fn an_item_panic_reaches_the_caller_once_and_the_lane_survives() {
    let _s = serial();
    for threads in [1, 2] {
        let _g = ThreadsGuard::new(threads);
        let ran = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            par_background(
                2,
                PERIOD,
                || {},
                |i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 0 {
                        panic!("background item");
                    }
                },
            )
        }));
        let payload = r.expect_err("the fan-out must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("payload of the item's own panic, not a wrapper");
        assert_eq!(msg, "background item");
        assert!(ran.load(Ordering::SeqCst) >= 1);
        assert!(!in_worker());
        // The lane still serves the next call, every item exactly once.
        let count = AtomicUsize::new(0);
        par_background(
            5,
            PERIOD,
            || {},
            |_| {
                count.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(count.load(Ordering::SeqCst), 5, "{threads} threads");
    }
}

#[test]
fn zero_items_return_without_tending() {
    let _s = serial();
    let tends = AtomicUsize::new(0);
    par_background(
        0,
        PERIOD,
        || {
            tends.fetch_add(1, Ordering::SeqCst);
        },
        |_| unreachable!("no items"),
    );
    assert_eq!(tends.load(Ordering::SeqCst), 0);
}
