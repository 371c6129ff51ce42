//! A bounded MPMC work queue with explicit overload semantics.
//!
//! `reserve` never blocks: a full queue is a [`QueueFull`] error the HTTP
//! layer turns into `429 Too Many Requests` + `Retry-After` — shedding
//! load at the front door instead of letting latency collapse. Admission
//! is two-step: the [`Slot`] a submission reserves counts toward the bound
//! while its acceptance artifacts are made durable, and only
//! [`Slot::publish`] shows the item to a worker; a dropped slot is simply
//! released. `requeue` bypasses the bound: a job the service *already
//! accepted* (a retry after a panicking attempt, a drain-interrupted
//! resume) must never be shed, or acceptance would be a lie.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// The queue is at capacity; the caller should retry later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull {
    /// How long the client is told to wait (`Retry-After`, seconds).
    pub retry_after_s: u64,
}

struct Inner<T> {
    items: VecDeque<T>,
    /// Slots reserved but not yet published or dropped.
    reserved: usize,
    closed: bool,
}

/// One unit of queue capacity, held between admission's decision and the
/// moment the item may run. Dropping it unpublished gives the capacity
/// back.
pub struct Slot<'q, T> {
    queue: &'q BoundedQueue<T>,
}

impl<T> Slot<'_, T> {
    /// Turns the reservation into a queued item and wakes a worker.
    pub fn publish(self, item: T) {
        let mut q = self.queue.lock();
        q.items.push_back(item);
        q.reserved -= 1;
        drop(q);
        self.queue.ready.notify_one();
        // The item took over the reservation; nothing is left to release.
        std::mem::forget(self);
    }
}

impl<T> Drop for Slot<'_, T> {
    fn drop(&mut self) {
        self.queue.lock().reserved -= 1;
    }
}

/// Bounded FIFO connecting the acceptor to the worker pool.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(cap: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                reserved: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Reserves capacity for a newly accepted item, or sheds it if the
    /// queue (items plus outstanding reservations) is full or the service
    /// is draining (callers distinguish draining beforehand).
    pub fn reserve(&self) -> Result<Slot<'_, T>, QueueFull> {
        let mut q = self.lock();
        if q.closed || q.items.len() + q.reserved >= self.cap {
            return Err(QueueFull { retry_after_s: 1 });
        }
        q.reserved += 1;
        Ok(Slot { queue: self })
    }

    /// Re-enqueues an item the service already owns. Exempt from the bound
    /// and from `closed` (a drain still parks the item for the journal).
    pub fn requeue(&self, item: T) {
        self.lock().items.push_back(item);
        self.ready.notify_one();
    }

    /// Blocks up to `patience` for an item. `None` means "closed" or
    /// "timed out with nothing available" — workers loop on this, checking
    /// their own shutdown condition between calls.
    pub fn pop(&self, patience: Duration) -> Option<T> {
        let mut q = self.lock();
        loop {
            if q.closed {
                return None;
            }
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            let (guard, timeout) = self
                .ready
                .wait_timeout(q, patience)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q = guard;
            if timeout.timed_out() {
                return q.items.pop_front();
            }
        }
    }

    /// Closes the queue: `reserve` sheds, `pop` returns `None` without
    /// draining the backlog — undispatched items stay journaled as QUEUED
    /// and are re-adopted on the next boot.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_sheds_but_requeue_is_exempt() {
        let q = BoundedQueue::new(2);
        q.reserve().unwrap().publish(1);
        q.reserve().unwrap().publish(2);
        let err = q.reserve().err().expect("full");
        assert!(err.retry_after_s >= 1);
        q.requeue(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(Duration::from_millis(1)), Some(1));
        assert_eq!(q.pop(Duration::from_millis(1)), Some(2));
        assert_eq!(q.pop(Duration::from_millis(1)), Some(3));
        // A reserved-but-unpublished slot counts toward the bound and is
        // invisible to workers...
        let a = q.reserve().unwrap();
        let b = q.reserve().unwrap();
        assert!(q.reserve().is_err(), "reservations fill the queue");
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(Duration::from_millis(1)), None);
        // ...until it is published, and is released when dropped.
        a.publish(4);
        assert!(q.reserve().is_err(), "a published item keeps its unit");
        assert_eq!(q.pop(Duration::from_millis(1)), Some(4));
        drop(b);
        let c = q.reserve().unwrap();
        q.close();
        assert!(q.reserve().is_err(), "closed queue sheds reservations");
        drop(c);
    }

    #[test]
    fn close_wakes_blocked_workers_and_sheds_new_work() {
        let q = std::sync::Arc::new(BoundedQueue::<u32>::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop(Duration::from_secs(30)));
        // Give the worker a moment to block, then close.
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
        assert!(q.reserve().is_err(), "closed queue sheds");
    }

    #[test]
    fn pop_times_out_empty_handed() {
        let q = BoundedQueue::<u32>::new(1);
        assert_eq!(q.pop(Duration::from_millis(5)), None);
    }
}
