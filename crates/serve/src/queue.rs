//! A bounded MPMC job queue with two priority lanes, load shedding, and
//! graceful close.
//!
//! The service's admission control lives here: [`BoundedQueue::try_push`]
//! never blocks — when the queue is at capacity the job is handed back to
//! the caller, which turns it into a typed `busy` response (load
//! shedding, the behavior a saturated service owes its clients: a fast
//! honest "no" instead of unbounded memory growth or head-of-line
//! latency). Workers block in [`BoundedQueue::pop`]; `BoundedQueue::close`
//! starts a graceful drain: no new pushes are admitted, pops keep
//! returning queued jobs until the queue is empty, then return `None` so
//! workers exit.
//!
//! ## Lanes
//!
//! The queue is two FIFOs sharing one capacity: an **interactive** lane
//! (a user is watching — Mode A clicks, rectification) and a **batch**
//! lane (volume sweeps, evaluations). [`BoundedQueue::pop`] always
//! serves the interactive lane first, so a wall of queued batch volumes
//! cannot put minutes of head-of-line latency in front of a click.
//! Within a lane, order is FIFO. Starvation of the batch lane is bounded
//! by the interactive lane's own arrival rate — interactive jobs are
//! short by construction, and per-tenant quotas (see
//! [`crate::admission`]) keep one tenant from monopolizing either lane.
//!
//! ## Depth accounting
//!
//! Both [`try_push`](BoundedQueue::try_push) and
//! [`pop`](BoundedQueue::pop) return the queue depths *as of that
//! transition*, taken under the queue lock. Gauges must be set from
//! these returned values only: a separate `len()` read races with
//! concurrent pushes/pops and can publish a depth that never existed at
//! any transition (the pre-PR-8 `serve.queue_depth` bug).

use std::collections::VecDeque;
use std::sync::Arc;

use std::sync::{Condvar, Mutex, PoisonError};

use crate::lock;

/// Which priority lane a job rides. Interactive jobs are always popped
/// before batch jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// A user is waiting on the result (Mode A, rectification).
    Interactive,
    /// Throughput work (Mode B volumes, Mode C evaluations).
    Batch,
}

impl Lane {
    /// Parse an envelope `lane` value; unknown strings are `None` so a
    /// bad hint degrades to the spec-derived default, never an error.
    pub(crate) fn from_name(name: &str) -> Option<Lane> {
        match name {
            "interactive" => Some(Lane::Interactive),
            "batch" => Some(Lane::Batch),
            _ => None,
        }
    }
}

/// Per-lane queue depths captured atomically at one push/pop transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueDepths {
    /// Jobs waiting in the interactive lane.
    pub(crate) interactive: usize,
    /// Jobs waiting in the batch lane.
    pub(crate) batch: usize,
}

impl QueueDepths {
    /// Total queued jobs across both lanes.
    pub(crate) fn total(&self) -> usize {
        self.interactive + self.batch
    }
}

/// Why [`BoundedQueue::try_push`] refused a job; carries the job back.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — shed load.
    Full(T),
    /// The queue is closed (shutdown in progress) — no new admissions.
    Closed(T),
}

struct State<T> {
    interactive: VecDeque<T>,
    batch: VecDeque<T>,
    closed: bool,
}

impl<T> State<T> {
    fn depths(&self) -> QueueDepths {
        QueueDepths {
            interactive: self.interactive.len(),
            batch: self.batch.len(),
        }
    }

    fn len(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

/// The bounded two-lane queue; clones share the same underlying channel.
pub struct BoundedQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for BoundedQueue<T> {
    fn clone(&self) -> Self {
        BoundedQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> BoundedQueue<T> {
    /// Create a queue admitting at most `capacity` jobs across both
    /// lanes (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    interactive: VecDeque::new(),
                    batch: VecDeque::new(),
                    closed: false,
                }),
                not_empty: Condvar::new(),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Admission capacity (shared across lanes).
    pub(crate) fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Jobs currently queued across both lanes.
    pub(crate) fn len(&self) -> usize {
        lock(&self.inner.state).len()
    }

    /// Non-blocking push into `lane`. Returns the depths after
    /// insertion, or the job back if the queue is full or closed.
    pub fn try_push(&self, job: T, lane: Lane) -> Result<QueueDepths, PushError<T>> {
        let mut s = lock(&self.inner.state);
        if s.closed {
            return Err(PushError::Closed(job));
        }
        if s.len() >= self.inner.capacity {
            return Err(PushError::Full(job));
        }
        match lane {
            Lane::Interactive => s.interactive.push_back(job),
            Lane::Batch => s.batch.push_back(job),
        }
        let depths = s.depths();
        drop(s);
        self.inner.not_empty.notify_one();
        Ok(depths)
    }

    /// Blocking pop, interactive lane first. Returns the job and the
    /// post-pop depths, or `None` once the queue is closed *and* drained
    /// — the worker-exit signal.
    pub fn pop(&self) -> Option<(T, QueueDepths)> {
        let mut s = lock(&self.inner.state);
        loop {
            if let Some(job) = s.interactive.pop_front().or_else(|| s.batch.pop_front()) {
                let depths = s.depths();
                return Some((job, depths));
            }
            if s.closed {
                return None;
            }
            s = self
                .inner
                .not_empty
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Begin a graceful drain: refuse new pushes, let pops empty the
    /// queue, then release every blocked worker.
    pub(crate) fn close(&self) {
        let mut s = lock(&self.inner.state);
        s.closed = true;
        drop(s);
        self.inner.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_a_lane() {
        let q = BoundedQueue::new(4);
        q.try_push(1, Lane::Batch).unwrap();
        q.try_push(2, Lane::Batch).unwrap();
        assert_eq!(q.pop().map(|(j, _)| j), Some(1));
        assert_eq!(q.pop().map(|(j, _)| j), Some(2));
    }

    #[test]
    fn interactive_lane_pops_ahead_of_batch() {
        let q = BoundedQueue::new(8);
        q.try_push(10, Lane::Batch).unwrap();
        q.try_push(11, Lane::Batch).unwrap();
        q.try_push(1, Lane::Interactive).unwrap();
        q.try_push(2, Lane::Interactive).unwrap();
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(j, _)| j))
            .take(4)
            .collect();
        assert_eq!(order, vec![1, 2, 10, 11]);
    }

    #[test]
    fn push_and_pop_report_transition_depths() {
        let q = BoundedQueue::new(8);
        let d = q.try_push(1, Lane::Interactive).unwrap();
        assert_eq!((d.interactive, d.batch, d.total()), (1, 0, 1));
        let d = q.try_push(2, Lane::Batch).unwrap();
        assert_eq!((d.interactive, d.batch, d.total()), (1, 1, 2));
        let (job, d) = q.pop().unwrap();
        assert_eq!(job, 1);
        assert_eq!((d.interactive, d.batch, d.total()), (0, 1, 1));
        let (job, d) = q.pop().unwrap();
        assert_eq!(job, 2);
        assert_eq!(d.total(), 0);
    }

    #[test]
    fn capacity_is_shared_across_lanes() {
        let q = BoundedQueue::new(2);
        q.try_push(1, Lane::Interactive).unwrap();
        q.try_push(2, Lane::Batch).unwrap();
        // Both lanes count against the one capacity.
        match q.try_push(3, Lane::Interactive) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        match q.try_push(4, Lane::Batch) {
            Err(PushError::Full(4)) => {}
            other => panic!("expected Full(4), got {other:?}"),
        }
        // Popping frees a slot for either lane.
        assert_eq!(q.pop().map(|(j, _)| j), Some(1));
        q.try_push(3, Lane::Batch).unwrap();
    }

    #[test]
    fn close_drains_then_releases_workers() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i, Lane::Batch).unwrap();
        }
        q.close();
        match q.try_push(99, Lane::Batch) {
            Err(PushError::Closed(99)) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        // Every queued job still comes out, then None.
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(j, _)| j)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q = BoundedQueue::<u32>::new(1);
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1, Lane::Batch).unwrap();
        assert!(matches!(
            q.try_push(2, Lane::Batch),
            Err(PushError::Full(2))
        ));
    }

    #[test]
    fn lane_names_round_trip() {
        assert_eq!(Lane::from_name("interactive"), Some(Lane::Interactive));
        assert_eq!(Lane::from_name("batch"), Some(Lane::Batch));
        assert_eq!(Lane::from_name("bulk"), None);
    }
}
