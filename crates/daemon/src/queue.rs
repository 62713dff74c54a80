//! Admission control: a capacity-bounded request queue with explicit
//! load-shedding and deadline-aware dequeue.
//!
//! The daemon's reader threads parse each line and *offer* ECO
//! requests to the queue, each tagged with where its answer goes (the
//! connection it came in on). When the queue is full the offer is refused
//! on the spot — the caller answers `"status":"overloaded"` with a
//! `retry_after_ms` hint instead of letting work pile up without
//! bound. Workers *take* requests in FIFO order; a request whose
//! `deadline_ms` already expired while it sat in the queue is reported
//! by [`QueuedRequest::expired_in_queue`] and must be rejected before
//! any solver work is spent on it.
//!
//! Closing the queue ([`RequestQueue::close`]) stops admission while
//! letting workers drain what was already accepted — the building
//! block for graceful drain: stop admission, drain in-flight work,
//! exit.

use crate::protocol::EcoRequest;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Per-queued-request base of the `retry_after_ms` hint: a shed
/// response suggests waiting long enough for the current backlog to
/// plausibly clear, scaled by how much work is already admitted.
const RETRY_HINT_BASE_MS: u64 = 100;

/// An admitted ECO request, stamped with its admission time so the
/// dequeue side can detect deadlines that expired while queued.
#[derive(Debug)]
pub struct QueuedRequest<R = ()> {
    /// The parsed request.
    pub request: Box<EcoRequest>,
    /// Where the answer goes: the write half of the request's
    /// connection.
    pub reply: R,
    /// When the request was admitted to the queue.
    pub enqueued_at: Instant,
}

impl<R> QueuedRequest<R> {
    /// Milliseconds this request has waited since admission.
    pub fn queued_ms(&self) -> u64 {
        self.enqueued_at.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    /// Time this request has waited since admission, at full
    /// resolution (the telemetry queue-wait stage records
    /// microseconds).
    pub fn queued_duration(&self) -> std::time::Duration {
        self.enqueued_at.elapsed()
    }

    /// If the request carried a `deadline_ms` and that deadline has
    /// already passed while the request was queued, returns the queue
    /// wait in milliseconds. Such a request must be rejected without
    /// spending any solver work — its caller has already given up.
    pub fn expired_in_queue(&self) -> Option<u64> {
        let deadline = self.request.options.deadline_ms?;
        let waited = self.queued_ms();
        (waited >= deadline).then_some(waited)
    }
}

/// The verdict of offering a request to the queue.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted; a worker will take it in FIFO order.
    Queued,
    /// Refused: the queue is at capacity. The caller should answer
    /// `overloaded` with this retry hint.
    Shed {
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Refused: the queue is closed (the daemon is draining).
    Draining,
}

#[derive(Debug)]
struct QueueState<R> {
    queue: VecDeque<QueuedRequest<R>>,
    in_flight: usize,
    peak_depth: usize,
    closed: bool,
}

/// A capacity-bounded FIFO of admitted ECO requests shared between the
/// readers (producers) and the worker pool (consumers). Each request
/// carries a reply handle of type `R`.
#[derive(Debug)]
pub struct RequestQueue<R = ()> {
    state: Mutex<QueueState<R>>,
    ready: Condvar,
    capacity: usize,
}

impl<R> RequestQueue<R> {
    /// Creates a queue admitting at most `capacity` waiting requests
    /// (clamped to at least one); requests being worked on do not
    /// count against the capacity.
    pub fn new(capacity: usize) -> RequestQueue<R> {
        RequestQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                in_flight: 0,
                peak_depth: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offers a request, answered through `reply`, for admission. Never
    /// blocks: a full queue sheds immediately and a closed queue
    /// reports draining.
    pub fn offer(&self, request: Box<EcoRequest>, reply: R) -> Admission {
        let mut state = self.lock();
        if state.closed {
            return Admission::Draining;
        }
        if state.queue.len() >= self.capacity {
            // The hint scales with the work ahead of a retry: every
            // queued and in-flight request is assumed to take at least
            // the base service time.
            let backlog = (state.queue.len() + state.in_flight) as u64;
            return Admission::Shed {
                retry_after_ms: RETRY_HINT_BASE_MS * (backlog + 1),
            };
        }
        state.queue.push_back(QueuedRequest {
            request,
            reply,
            enqueued_at: Instant::now(),
        });
        state.peak_depth = state.peak_depth.max(state.queue.len());
        drop(state);
        self.ready.notify_one();
        Admission::Queued
    }

    /// Takes the next request in FIFO order, blocking while the queue
    /// is empty and open. Returns `None` once the queue is closed
    /// *and* empty — workers drain accepted work, then stop.
    pub fn take(&self) -> Option<QueuedRequest<R>> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.queue.pop_front() {
                state.in_flight += 1;
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks one taken request finished (success or failure alike).
    pub fn finish(&self) {
        let mut state = self.lock();
        state.in_flight = state.in_flight.saturating_sub(1);
        drop(state);
        // Wake close()/drain waiters watching for in_flight to reach 0.
        self.ready.notify_all();
    }

    /// Closes admission: subsequent offers report
    /// [`Admission::Draining`], and workers stop once the backlog is
    /// drained.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Requests waiting in the queue right now.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Requests currently being worked on.
    pub fn in_flight(&self) -> usize {
        self.lock().in_flight
    }

    /// High-water mark of the queue depth since creation.
    pub fn peak_depth(&self) -> usize {
        self.lock().peak_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RequestOptions;
    use std::time::Duration;

    fn request(id: &str, deadline_ms: Option<u64>) -> Box<EcoRequest> {
        Box::new(EcoRequest {
            id: id.to_string(),
            impl_verilog: "i".to_string(),
            spec_verilog: "s".to_string(),
            targets: vec!["t".to_string()],
            weights: Vec::new(),
            default_weight: 1,
            options: RequestOptions {
                deadline_ms,
                ..RequestOptions::default()
            },
        })
    }

    #[test]
    fn sheds_at_capacity_with_a_growing_retry_hint() {
        let queue: RequestQueue = RequestQueue::new(2);
        assert_eq!(queue.offer(request("a", None), ()), Admission::Queued);
        assert_eq!(queue.offer(request("b", None), ()), Admission::Queued);
        let Admission::Shed { retry_after_ms } = queue.offer(request("c", None), ()) else {
            panic!("third offer must shed at capacity 2");
        };
        assert_eq!(retry_after_ms, RETRY_HINT_BASE_MS * 3);
        assert_eq!(queue.depth(), 2);
        // Taking one (now in flight) frees a slot but keeps the
        // backlog in the hint.
        let taken = queue.take().expect("fifo head");
        assert_eq!(taken.request.id, "a");
        assert_eq!(queue.in_flight(), 1);
        assert_eq!(queue.offer(request("c", None), ()), Admission::Queued);
        let Admission::Shed { retry_after_ms } = queue.offer(request("d", None), ()) else {
            panic!("queue is full again");
        };
        assert_eq!(retry_after_ms, RETRY_HINT_BASE_MS * 4, "in-flight counts");
        queue.finish();
        assert_eq!(queue.in_flight(), 0);
        assert_eq!(
            queue.peak_depth(),
            2,
            "peak tracks the deepest backlog, not the current one"
        );
    }

    #[test]
    fn take_drains_fifo_and_stops_after_close() {
        let queue: RequestQueue = RequestQueue::new(8);
        for id in ["a", "b", "c"] {
            assert_eq!(queue.offer(request(id, None), ()), Admission::Queued);
        }
        queue.close();
        assert_eq!(queue.offer(request("late", None), ()), Admission::Draining);
        let order: Vec<String> = std::iter::from_fn(|| queue.take())
            .map(|q| q.request.id.clone())
            .collect();
        assert_eq!(order, ["a", "b", "c"], "accepted work drains in order");
        assert!(queue.take().is_none(), "closed and empty");
    }

    #[test]
    fn expired_in_queue_detects_deadlines_spent_waiting() {
        let queue: RequestQueue = RequestQueue::new(2);
        queue.offer(request("instant", Some(0)), ());
        queue.offer(request("patient", Some(60_000)), ());
        let instant = queue.take().expect("queued");
        assert!(
            instant.expired_in_queue().is_some(),
            "a zero deadline is expired by the time it is dequeued"
        );
        let patient = queue.take().expect("queued");
        assert_eq!(patient.expired_in_queue(), None);
        // No deadline: never expires in queue.
        queue.offer(request("unbounded", None), ());
        let unbounded = queue.take().expect("queued");
        assert_eq!(unbounded.expired_in_queue(), None);
    }

    #[test]
    fn blocked_take_wakes_on_offer_and_on_close() {
        let queue = std::sync::Arc::new(RequestQueue::<()>::new(2));
        let taker = {
            let queue = queue.clone();
            std::thread::spawn(move || {
                let first = queue.take().map(|q| q.request.id.clone());
                let second = queue.take().map(|q| q.request.id.clone());
                (first, second)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.offer(request("wake", None), ());
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        let (first, second) = taker.join().expect("taker joins");
        assert_eq!(first.as_deref(), Some("wake"));
        assert_eq!(second, None, "close wakes the blocked taker");
    }
}
