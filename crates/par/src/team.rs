//! The resident fork-join team every `par_*` primitive and [`crate::join`]
//! fans out on.
//!
//! Creating an OS thread costs tens of microseconds, which a 16×16 job or
//! one 256² filter pass never earns back, so helpers are created once and
//! kept. The team has two lanes, each a queue of jobs and a set of helpers
//! that serve only it; both are started by their first fan-out, grown
//! when [`crate::set_threads`] asks for more, and never shrunk:
//!
//! * the **foreground** lane, `current_threads() - 1` helpers, runs every
//!   `par_*` call and [`crate::join`]. Its caller takes part.
//! * the **background** lane, `current_threads()` helpers, runs
//!   [`crate::par_background`]: a volume sweep's slice workers. Each of
//!   its helpers lowers its own CPU priority once, when it starts, so a
//!   sweep yields the cores to foreground work (an interactive request)
//!   and keeps them when it runs alone. Its caller takes no chunk.
//!
//! Protocol ([`fan_out`]): the caller posts a job — a chunk counter plus a
//! lifetime-erased `&(dyn Fn(usize) + Sync)` — with one ticket for each
//! helper it can use, `min(current_threads() - 1, n_chunks - 1)`, wakes
//! that many idle helpers, runs chunk 0 itself and then claims further
//! chunks off the counter like everyone else. It returns once every chunk
//! has finished. A caller whose helpers are all busy (another server
//! worker's job, a batch slice) therefore runs all its chunks itself and
//! never waits for a thread to become free; the only wait is for chunks a
//! helper has already started. [`fan_out_background`] posts all its
//! chunks to the background lane and, while they run, calls its `tend`
//! closure every `period`.
//!
//! Helpers are detached and live until the process exits: there is nothing
//! to join. A panic in a chunk is caught where it happens, cancels the
//! chunks nobody has claimed yet, and is re-raised on the caller once the
//! chunks in flight have finished, so it never kills a helper.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

use std::sync::{Condvar, Mutex, PoisonError};

use crate::lock;
use zenesis_obs::{SpanId, TraceId};

type Body<'a> = dyn Fn(usize) + Sync + 'a;

/// One fan-out. Helpers reach it through an `Arc`, so the counters
/// outlive the call; `body` does not, see [`fan_out`].
struct Job {
    body: &'static Body<'static>,
    n_chunks: usize,
    /// Next unclaimed chunk; values `>= n_chunks` mean none is left.
    next: AtomicUsize,
    /// Chunks neither finished nor cancelled. Decrements are `AcqRel` and
    /// the caller's wait loads `Acquire`, so what a chunk wrote is visible
    /// to the caller when it sees zero.
    unfinished: AtomicUsize,
    caller: Thread,
    /// First panic payload raised by a chunk.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The caller's span and trace context, installed on a helper for as
    /// long as it works on this job.
    parent: Option<SpanId>,
    trace: Option<TraceId>,
}

impl Job {
    /// Claiming needs atomicity only: the job's fields and the data the
    /// body borrows were published by the team mutex a helper found the
    /// job under.
    fn claim(&self) -> Option<usize> {
        let c = self.next.fetch_add(1, Ordering::Relaxed);
        (c < self.n_chunks).then_some(c)
    }

    /// Run claimed chunk `c`, recording a panic instead of unwinding.
    fn run(&self, c: usize) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(c))) {
            self.cancel_unclaimed();
            lock(&self.panic).get_or_insert(payload);
        }
        self.finish(1);
    }

    fn finish(&self, chunks: usize) {
        if chunks > 0 && self.unfinished.fetch_sub(chunks, Ordering::AcqRel) == chunks {
            self.caller.unpark();
        }
    }

    /// Make every chunk nobody has claimed yet count as finished, so that
    /// nobody runs it. A no-op once the counter is exhausted.
    fn cancel_unclaimed(&self) {
        let claimed = self.next.swap(self.n_chunks, Ordering::Relaxed);
        self.finish(self.n_chunks.saturating_sub(claimed));
    }

    /// A helper's whole participation: chunks until none is left, under
    /// the caller's span and trace, both restored on the way out.
    fn help(&self) {
        zenesis_obs::with_trace(self.trace, || {
            zenesis_obs::with_parent(self.parent, || {
                while let Some(c) = self.claim() {
                    self.run(c);
                }
            })
        })
    }
}

/// Takes the job off its lane and waits for the chunks in flight when
/// dropped — at the end of [`dispatch`] and on any unwind through it.
struct Retire<'a>(&'a Arc<Job>, &'static Lane);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let Retire(job, lane) = *self;
        job.cancel_unclaimed();
        lock(&lane.state)
            .queue
            .retain(|p| !Arc::ptr_eq(&p.job, job));
        while job.unfinished.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
    }
}

struct Posted {
    job: Arc<Job>,
    /// Helpers that may still join this job.
    tickets: usize,
}

struct State {
    /// Jobs with tickets left, oldest first.
    queue: VecDeque<Posted>,
    helpers: usize,
    idle: usize,
}

/// One lane of the team: a queue and the helpers that serve it.
struct Lane {
    state: Mutex<State>,
    wake: Condvar,
    /// Helper thread names are `{name}-{index}`.
    name: &'static str,
    /// Helpers lower their CPU priority when they start.
    background: bool,
}

impl Lane {
    const fn new(name: &'static str, background: bool) -> Lane {
        Lane {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                helpers: 0,
                idle: 0,
            }),
            wake: Condvar::new(),
            name,
            background,
        }
    }

    /// Queue `job` for up to `size` helpers, one ticket per unclaimed
    /// chunk they can take, starting the helpers the lane is short of.
    /// Returns the number of tickets.
    fn post(&'static self, job: &Arc<Job>, size: usize) -> usize {
        let mut st = lock(&self.state);
        while st.helpers < size {
            let name = format!("{}-{}", self.name, st.helpers);
            let spawned = std::thread::Builder::new()
                .name(name)
                .spawn(move || self.serve());
            // Out of threads: carry on with the lane there is.
            if spawned.is_err() {
                break;
            }
            st.helpers += 1;
        }
        // No tickets (a foreground job at a concurrent `set_threads(1)`,
        // no helper could be started): the caller runs every chunk.
        let unclaimed = job.n_chunks - job.next.load(Ordering::Relaxed);
        let tickets = size.min(st.helpers).min(unclaimed);
        if tickets > 0 {
            st.queue.push_back(Posted {
                job: Arc::clone(job),
                tickets,
            });
        }
        let wake = tickets.min(st.idle);
        drop(st);
        for _ in 0..wake {
            self.wake.notify_one();
        }
        tickets
    }

    fn serve(&self) -> ! {
        if self.background {
            lower_priority();
        }
        loop {
            let job = {
                let mut st = lock(&self.state);
                loop {
                    if let Some(front) = st.queue.front_mut() {
                        front.tickets -= 1;
                        let job = Arc::clone(&front.job);
                        if front.tickets == 0 {
                            st.queue.pop_front();
                        }
                        break job;
                    }
                    st.idle += 1;
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                    st.idle -= 1;
                }
            };
            job.help();
        }
    }
}

static FOREGROUND: Lane = Lane::new("zenesis-par", false);
static BACKGROUND: Lane = Lane::new("zenesis-par-bg", true);

static DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Jobs posted to the team since the process started: a count, free of
/// timing noise, for tests that pin how often a code path fans out.
#[doc(hidden)]
pub fn team_dispatches() -> u64 {
    DISPATCHES.load(Ordering::Relaxed)
}

/// Run `body(c)` once for every `c` in `0..n_chunks`, chunk 0 on the
/// calling thread and the rest on whoever claims them first: the caller or
/// up to `current_threads() - 1` foreground helpers. Returns when all have
/// finished; a chunk's panic is re-raised here, once.
///
/// Callers decide *whether* to fan out (thread count, nesting, grain);
/// `n_chunks` must be at least 1.
pub(crate) fn fan_out(n_chunks: usize, body: &Body<'_>) {
    let size = crate::current_threads().saturating_sub(1);
    dispatch(&FOREGROUND, size, 1, n_chunks, body, |job, _| {
        job.run(0);
        while let Some(c) = job.claim() {
            job.run(c);
        }
    });
}

/// Run `body(c)` once for every `c` in `0..n_chunks` on up to
/// `current_threads()` background helpers. The caller takes no chunk: it
/// calls `tend` every `period` until the last chunk has finished, and
/// runs the chunks itself only if the lane has no helper at all (none
/// could be started). Returns when all have finished; a chunk's panic is
/// re-raised here, once.
///
/// `n_chunks` must be at least 1.
pub(crate) fn fan_out_background(
    n_chunks: usize,
    body: &Body<'_>,
    period: Duration,
    tend: &mut dyn FnMut(),
) {
    let size = crate::current_threads();
    dispatch(&BACKGROUND, size, 0, n_chunks, body, |job, tickets| {
        if tickets == 0 {
            while let Some(c) = job.claim() {
                job.run(c);
            }
        }
        while job.unfinished.load(Ordering::Acquire) != 0 {
            tend();
            // The last chunk to finish unparks the caller.
            std::thread::park_timeout(period);
        }
    });
}

/// Post a job of `n_chunks` chunks, the first `first` of them kept for
/// the caller, to `size` helpers of `lane`; run `on_caller(job,
/// tickets)` on the calling thread; wait for every chunk; re-raise the
/// first chunk panic.
fn dispatch(
    lane: &'static Lane,
    size: usize,
    first: usize,
    n_chunks: usize,
    body: &Body<'_>,
    on_caller: impl FnOnce(&Job, usize),
) {
    // SAFETY: only the lifetime changes. `body` is called by `Job::run`
    // alone, for a chunk that is claimed and not yet counted off
    // `unfinished`; the `Retire` guard below is created before the job is
    // posted and, when this frame is left by return or by unwind, blocks
    // until `unfinished` is zero. So no call through this reference
    // outlives the borrow it was made from.
    let body = unsafe { std::mem::transmute::<&Body<'_>, &'static Body<'static>>(body) };
    let job = Arc::new(Job {
        body,
        n_chunks,
        next: AtomicUsize::new(first),
        unfinished: AtomicUsize::new(n_chunks),
        caller: std::thread::current(),
        panic: Mutex::new(None),
        parent: zenesis_obs::current(),
        trace: zenesis_obs::current_trace(),
    });
    let retire = Retire(&job, lane);
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    let tickets = lane.post(&job, size);
    on_caller(&job, tickets);
    drop(retire);
    let panicked = lock(&job.panic).take();
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
}

/// Lower the calling thread's CPU priority to nice 10: against a nice-0
/// thread it gets about a tenth of the share, alone it gets the whole
/// core. Failure (a sandbox that forbids the call) leaves the thread at
/// its priority.
#[cfg(target_os = "linux")]
fn lower_priority() {
    const PRIO_PROCESS: i32 = 0;
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    // SAFETY: setpriority(2) takes three integers and touches no memory
    // of ours. On Linux the nice value is per thread, and `who` 0 with
    // `PRIO_PROCESS` names the calling thread alone.
    let _ = unsafe { setpriority(PRIO_PROCESS, 0, 10) };
}

#[cfg(not(target_os = "linux"))]
fn lower_priority() {}
