//! The resident team behind `par_*` and `join`: helpers and the
//! participating caller outlive a call, so what a call leaves behind on
//! them — thread-locals, a panic, a half-claimed job — must not leak into
//! the next one.
//!
//! Interleavings are forced with channels, never sleeps. A two-item
//! `par_map_range` at two threads is two chunks: item 0 always runs on the
//! caller, and item 1 on a helper if the caller is held inside item 0
//! until a helper has picked it up. Every test takes `SERIAL`, because the
//! thread count is process-wide.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

use zenesis_par::{in_worker, join, par_for_each_indexed, par_map_range, ThreadsGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const PATIENCE: Duration = Duration::from_secs(30);

/// A channel both ends of which a `Fn + Sync` closure can use.
struct Signal<T>(Mutex<Sender<T>>, Mutex<Receiver<T>>);

impl<T> Signal<T> {
    fn new() -> Self {
        let (tx, rx) = channel();
        Signal(Mutex::new(tx), Mutex::new(rx))
    }
    fn send(&self, v: T) {
        self.0.lock().unwrap().send(v).expect("receiver alive");
    }
    fn wait(&self, what: &str) -> T {
        let rx = self.1.lock().unwrap();
        rx.recv_timeout(PATIENCE)
            .unwrap_or_else(|_| panic!("timed out waiting for {what}"))
    }
}

/// Sends when dropped: lets a chunk announce that it is unwinding.
struct SendOnDrop<'a>(&'a Signal<()>);

impl Drop for SendOnDrop<'_> {
    fn drop(&mut self) {
        self.0.send(());
    }
}

/// Fan out two items and hold the caller in item 0 until another thread
/// has started item 1; returns that thread's id.
fn helper_thread_of_a_fan_out() -> ThreadId {
    let started = Signal::new();
    let ids = par_map_range(2, |i| {
        if i == 0 {
            started.wait("a helper to take item 1")
        } else {
            let id = std::thread::current().id();
            started.send(id);
            id
        }
    });
    assert_eq!(ids[0], ids[1]);
    assert_ne!(
        ids[1],
        std::thread::current().id(),
        "item 1 ran on the caller"
    );
    ids[1]
}

fn panic_message(r: std::thread::Result<Vec<()>>) -> String {
    let payload = r.expect_err("the fan-out must panic");
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("payload of the chunk's own panic, not a wrapper")
}

#[test]
fn thread_locals_are_restored_and_helpers_keep_serving() {
    let _s = serial();
    let _g = ThreadsGuard::new(2);
    assert!(!in_worker());
    let marks = par_map_range(2, |_| in_worker());
    assert_eq!(
        marks,
        [true, true],
        "caller and helper are both workers inside a chunk"
    );
    assert!(!in_worker(), "the participating caller stays marked");
    helper_thread_of_a_fan_out();
    // The helper's mark is cleared too: an unmarked `join` arm on it may
    // fan out again.
    let started = Signal::new();
    let (_, helper_marked) = join(
        || started.wait("a helper to take the second arm"),
        || {
            started.send(());
            in_worker()
        },
    );
    assert!(!helper_marked, "a helper stays marked between jobs");
    assert!(!in_worker());
}

#[test]
fn helper_panic_reaches_the_caller_once_and_the_team_survives() {
    let _s = serial();
    let _g = ThreadsGuard::new(2);
    let started = Signal::new();
    let r = catch_unwind(AssertUnwindSafe(|| {
        par_map_range(2, |i| {
            if i == 0 {
                started.wait("a helper to take item 1");
            } else {
                started.send(());
                panic!("helper chunk");
            }
        })
    }));
    assert_eq!(panic_message(r), "helper chunk");
    assert!(!in_worker());
    helper_thread_of_a_fan_out();
}

#[test]
fn caller_panic_waits_for_the_helper_and_claims_nothing_more() {
    let _s = serial();
    let _g = ThreadsGuard::new(2);
    let (started, unwinding) = (Signal::new(), Signal::new());
    let caller = std::thread::current().id();
    let items_on_caller = AtomicU32::new(0);
    let helper_finished = AtomicBool::new(false);
    // 64 items at 2 threads are 8 chunks of 8: item 0 opens the caller's
    // chunk, item 8 the first one a helper can claim.
    let r = catch_unwind(AssertUnwindSafe(|| {
        par_map_range(64, |i| {
            if std::thread::current().id() == caller {
                items_on_caller.fetch_add(1, Ordering::SeqCst);
            }
            if i == 0 {
                started.wait("a helper to take the second chunk");
                let _announce = SendOnDrop(&unwinding);
                panic!("caller chunk");
            } else if i == 8 {
                started.send(());
                unwinding.wait("the caller's chunk to unwind");
                helper_finished.store(true, Ordering::SeqCst);
            }
        })
    }));
    assert_eq!(panic_message(r), "caller chunk");
    assert!(
        helper_finished.load(Ordering::SeqCst),
        "the call returned while a helper was still inside its closure"
    );
    assert_eq!(
        items_on_caller.load(Ordering::SeqCst),
        1,
        "the caller went on claiming chunks after its panic"
    );
    assert!(!in_worker(), "the mark must be restored on unwind");
    helper_thread_of_a_fan_out();
}

#[test]
fn panics_in_both_chunks_at_once_propagate_once() {
    let _s = serial();
    let _g = ThreadsGuard::new(2);
    let (to_caller, to_helper) = (Signal::new(), Signal::new());
    let r = catch_unwind(AssertUnwindSafe(|| {
        par_map_range(2, |i| {
            if i == 0 {
                to_caller.wait("a helper to take item 1");
                to_helper.send(());
                panic!("caller chunk");
            } else {
                to_caller.send(());
                to_helper.wait("the caller's chunk");
                panic!("helper chunk");
            }
        })
    }));
    let msg = panic_message(r);
    assert!(msg == "caller chunk" || msg == "helper chunk", "{msg}");
    helper_thread_of_a_fan_out();
}

#[test]
fn concurrent_tiny_fan_outs_run_every_chunk_exactly_once() {
    let _s = serial();
    let _g = ThreadsGuard::new(4);
    const CALLERS: usize = 8;
    const ROUNDS: u32 = 10_000;
    std::thread::scope(|s| {
        for _ in 0..CALLERS {
            s.spawn(|| {
                // 8 items at 4 threads: 8 one-item chunks.
                let mut hits = [0u32; 8];
                for round in 1..=ROUNDS {
                    par_for_each_indexed(&mut hits, |_, h| *h += 1);
                    assert!(hits.iter().all(|&h| h == round), "round {round}: {hits:?}");
                }
            });
        }
    });
}

#[test]
fn team_never_exceeds_the_thread_count_it_was_asked_for() {
    let _s = serial();
    let _g = ThreadsGuard::new(3);
    // Whatever other tests grew the team to, a job at 3 threads is worked
    // on by the caller and at most 2 helpers.
    let (arrived, release) = (Signal::new(), Signal::new());
    let ids = par_map_range(16, |i| {
        if i == 0 {
            // Hold the caller until two helpers are inside a chunk, then
            // let everyone run to the end.
            arrived.wait("first helper");
            arrived.wait("second helper");
            release.send(());
            release.send(());
        } else if i % 2 == 0 && i <= 4 {
            // 16 items at 3 threads are 8 chunks of 2: items 2 and 4 open
            // the first two chunks helpers can claim.
            arrived.send(());
            release.wait("the caller");
        }
        std::thread::current().id()
    });
    let mut distinct = ids.clone();
    distinct.sort_by_key(|id| format!("{id:?}"));
    distinct.dedup();
    assert!(
        distinct.len() <= 3,
        "{} threads worked on one job",
        distinct.len()
    );
}
