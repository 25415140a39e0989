//! Hierarchical wall-time spans with thread attribution.
//!
//! A span is opened with [`span`] and recorded when its guard drops.
//! Parenthood comes from a thread-local stack: the innermost open span on
//! the current thread is the parent. Cross-thread structure (pool jobs,
//! scoped workers) is preserved by capturing [`current`] on the
//! submitting thread and re-installing it on the worker with
//! [`with_parent`] — `zenesis-par` does this for every task it runs, so
//! user code never has to.
//!
//! Completed spans land in a sharded store (16 mutex-guarded queues,
//! sharded by span id) to keep contention negligible even when many
//! workers finish spans simultaneously. The store is bounded like the
//! event buffer: each shard keeps its newest `RECORD_CAP / 16` spans and
//! counts every older one it drops in `obs.spans.dropped`. Span ids are
//! dealt to shards round-robin, so the store as a whole holds at most
//! [`crate::RECORD_CAP`] spans, the newest ones, and a server that
//! records for its whole life stays the same size.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use std::sync::Mutex;

use crate::lock;

use crate::bounded::{push_bounded, Drops};

/// Identifier of a span, unique within the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id.
    pub id: SpanId,
    /// Parent span; `None` for roots.
    pub parent: Option<SpanId>,
    /// Dotted span name (`layer.operation`, e.g. `ground.attention`).
    pub name: Cow<'static, str>,
    /// Name of the thread the span ran on.
    pub thread: String,
    /// Start offset from the process observability epoch, nanoseconds.
    pub(crate) start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// The trace context installed on the opening thread, if any — the
    /// served job's `trace_id` (see `crate::trace`).
    pub trace: Option<crate::trace::TraceId>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process observability epoch (shared by
/// spans and the event stream, so their timestamps line up).
pub(crate) fn epoch_elapsed_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// The cached name of the current thread (shared with the event stream).
pub(crate) fn current_thread_name() -> String {
    thread_name()
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

const SHARDS: usize = 16;

static DROPPED: Drops = Drops::new("obs.spans.dropped");

fn registry() -> &'static [Mutex<VecDeque<SpanRecord>>; SHARDS] {
    static REG: OnceLock<[Mutex<VecDeque<SpanRecord>>; SHARDS]> = OnceLock::new();
    REG.get_or_init(|| std::array::from_fn(|_| Mutex::new(VecDeque::new())))
}

thread_local! {
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

fn thread_name() -> String {
    thread_local! {
        static NAME: String = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("{:?}", std::thread::current().id()));
    }
    NAME.with(Clone::clone)
}

fn stack_remove(id: SpanId) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if s.last() == Some(&id) {
            s.pop();
        } else if let Some(pos) = s.iter().rposition(|x| *x == id) {
            // Out-of-order drop (guards held across other guards' drops);
            // keep the stack consistent rather than corrupting parents.
            s.remove(pos);
        }
    });
}

/// The innermost open span on this thread, if recording is enabled.
#[inline]
pub fn current() -> Option<SpanId> {
    if !crate::enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().copied())
}

/// RAII guard: the span runs from creation until the guard drops.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    state: Option<GuardState>,
}

struct GuardState {
    id: SpanId,
    parent: Option<SpanId>,
    name: Cow<'static, str>,
    start: Instant,
    trace: Option<crate::trace::TraceId>,
}

impl SpanGuard {
    /// The id of the span being recorded; `None` when recording is off.
    pub fn id(&self) -> Option<SpanId> {
        self.state.as_ref().map(|s| s.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(st) = self.state.take() else {
            return;
        };
        let dur_ns = st.start.elapsed().as_nanos() as u64;
        stack_remove(st.id);
        let rec = SpanRecord {
            id: st.id,
            parent: st.parent,
            name: st.name,
            thread: thread_name(),
            start_ns: st.start.saturating_duration_since(epoch()).as_nanos() as u64,
            dur_ns,
            trace: st.trace,
        };
        push_bounded(
            &mut lock(&registry()[st.id.0 as usize % SHARDS]),
            crate::RECORD_CAP / SHARDS,
            rec,
            &DROPPED,
        );
    }
}

/// Open a span under this thread's current span (an inert guard when
/// recording is off).
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { state: None };
    }
    let id = SpanId(NEXT_ID.fetch_add(1, Ordering::Relaxed));
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    SpanGuard {
        state: Some(GuardState {
            id,
            parent,
            name: name.into(),
            start: Instant::now(),
            trace: crate::trace::current_trace(),
        }),
    }
}

/// Run `f` with `parent` installed at the top of this thread's span
/// stack, so spans opened inside `f` attribute to `parent` even though
/// it was opened on another thread. No-op wrapper when recording is off
/// or `parent` is `None`.
pub fn with_parent<R>(parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
    if !crate::enabled() {
        return f();
    }
    let Some(p) = parent else {
        return f();
    };
    STACK.with(|s| s.borrow_mut().push(p));
    // Pop on unwind too, so a panicking task doesn't poison the worker
    // thread's stack for subsequent tasks.
    struct Pop(SpanId);
    impl Drop for Pop {
        fn drop(&mut self) {
            stack_remove(self.0);
        }
    }
    let _pop = Pop(p);
    f()
}

/// Time `f` under a span named `name`.
///
/// The measured milliseconds are returned **regardless of the recording
/// level** — pipeline traces carry wall times even with observability
/// off — but the span itself is only recorded when enabled, so the off
/// path allocates and locks nothing.
pub fn timed<R>(name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let guard = span(name);
    let r = f();
    drop(guard);
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Copy of every retained span (the newest [`crate::RECORD_CAP`]),
/// ordered by start time.
pub fn snapshot() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for shard in registry() {
        out.extend(lock(shard).iter().cloned());
    }
    out.sort_by_key(|r| (r.start_ns, r.id));
    out
}

/// Number of spans dropped because the store was full.
pub(crate) fn dropped_spans() -> u64 {
    DROPPED.get()
}

/// Discard all recorded spans and reset the dropped counter.
pub(crate) fn reset_spans() {
    for shard in registry() {
        lock(shard).clear();
    }
    DROPPED.reset();
}
