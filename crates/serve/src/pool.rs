//! Fixed worker pool with a bounded queue and load shedding.
//!
//! `mcd_bench::parallel` fans a *known* batch across scoped threads; a
//! server instead needs long-lived workers pulling from a queue that
//! outlives any one batch. This pool supplies that layer: a fixed set of
//! named OS threads running one shared handler, a bounded `VecDeque` of
//! work items, and a submit path that **refuses** work when the queue is
//! full rather than growing without bound. Refusal hands the item back
//! to the caller — which is what lets the accept loop write a 503 with
//! `Retry-After` onto the very connection it could not enqueue.
//!
//! Per-job isolation (panic capture, wall-clock budgets, retry) stays
//! where it already lives: the run path wraps each execution in
//! [`mcd_bench::parallel::isolated`] on the worker that claimed it, so a
//! run over budget stops on that worker rather than on a thread of its
//! own. This pool stays separate from the run executor
//! (`mcd_bench::parallel::par_map`, which `RunSet::par` runs under its
//! run permits) on purpose: its submit never blocks and refuses work
//! when full (the 503 path), while a `RunSet::par` submitter blocks
//! until its batch is done.
//!
//! Shutdown is a drain, not an abort: [`Pool::close_and_drain`] stops
//! accepting, lets workers finish everything already queued (every
//! accepted request completes), and joins them.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — shed the request (503).
    Full,
    /// The pool is draining for shutdown — reject new work.
    Closed,
}

struct Queue<T> {
    items: VecDeque<T>,
    open: bool,
    in_flight: usize,
}

struct Shared<T> {
    state: Mutex<Queue<T>>,
    wake: Condvar,
    cap: usize,
    handler: Box<dyn Fn(T) + Send + Sync>,
}

/// A cheap handle onto the pool's queue: submit work and read gauges.
/// Clonable so the accept loop and the metrics endpoint can each hold
/// one while the [`Pool`] itself retains the worker join handles.
pub struct PoolHandle<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for PoolHandle<T> {
    fn clone(&self) -> Self {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> PoolHandle<T> {
    /// Enqueues `item`, refusing (never blocking, never growing past the
    /// bound) when the queue is full or the pool is draining. On refusal
    /// the item comes back so the caller can answer it directly.
    pub fn submit(&self, item: T) -> Result<(), (SubmitError, T)> {
        let mut q = self.shared.state.lock().expect("pool queue poisoned");
        if !q.open {
            return Err((SubmitError::Closed, item));
        }
        if q.items.len() >= self.shared.cap {
            return Err((SubmitError::Full, item));
        }
        q.items.push_back(item);
        drop(q);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Items queued but not yet claimed by a worker.
    pub fn depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool queue poisoned")
            .items
            .len()
    }

    /// Items currently executing on a worker.
    pub fn in_flight(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool queue poisoned")
            .in_flight
    }
}

/// The pool itself: owns the worker threads. Submission goes through
/// [`Pool::handle`].
pub struct Pool<T> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> Pool<T> {
    /// Spawns `workers` threads over a queue bounded at `queue_cap`,
    /// each running `handler` on the items it claims.
    pub fn new(
        workers: usize,
        queue_cap: usize,
        handler: impl Fn(T) + Send + Sync + 'static,
    ) -> Pool<T> {
        let shared = Arc::new(Shared {
            state: Mutex::new(Queue {
                items: VecDeque::new(),
                open: true,
                in_flight: 0,
            }),
            wake: Condvar::new(),
            cap: queue_cap.max(1),
            handler: Box::new(handler),
        });
        let workers = (0..workers.max(1))
            .map(|n| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mcd-serve-worker-{n}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// A submit/gauge handle sharing this pool's queue.
    pub fn handle(&self) -> PoolHandle<T> {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting work, runs everything already queued to
    /// completion, and joins the workers.
    pub fn close_and_drain(self) {
        {
            let mut q = self.shared.state.lock().expect("pool queue poisoned");
            q.open = false;
        }
        self.shared.wake.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop<T>(shared: &Shared<T>) {
    loop {
        let item = {
            let mut q = shared.state.lock().expect("pool queue poisoned");
            loop {
                if let Some(item) = q.items.pop_front() {
                    q.in_flight += 1;
                    break Some(item);
                }
                if !q.open {
                    break None;
                }
                q = shared.wake.wait(q).expect("pool queue poisoned");
            }
        };
        let Some(item) = item else { return };
        // Connection handlers answer their own errors; the catch here
        // only keeps a worker alive if one slips a panic through.
        let _ = catch_unwind(AssertUnwindSafe(|| (shared.handler)(item)));
        let mut q = shared.state.lock().expect("pool queue poisoned");
        q.in_flight -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc;

    #[test]
    fn items_run_and_drain_on_close() {
        let counter = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&counter);
        let pool = Pool::new(2, 16, move |n: u32| {
            c.fetch_add(n, Ordering::Relaxed);
        });
        let h = pool.handle();
        for n in 1..=10u32 {
            h.submit(n).expect("queue has room");
        }
        pool.close_and_drain();
        assert_eq!(counter.load(Ordering::Relaxed), 55, "drain runs the queue");
        assert_eq!(h.submit(99), Err((SubmitError::Closed, 99)));
    }

    #[test]
    fn full_queue_sheds_and_returns_the_item() {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let started_tx = Mutex::new(started_tx);
        let release_rx = Mutex::new(release_rx);
        let pool = Pool::new(1, 2, move |n: u32| {
            if n == 0 {
                started_tx.lock().unwrap().send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
        });
        let h = pool.handle();
        h.submit(0).expect("blocker queues");
        started_rx.recv().expect("worker picked up the blocker");
        // Worker busy; the queue holds exactly `cap` more before shedding.
        assert_eq!(h.submit(1), Ok(()));
        assert_eq!(h.submit(2), Ok(()));
        assert_eq!(h.submit(3), Err((SubmitError::Full, 3)), "item handed back");
        assert_eq!(h.depth(), 2);
        assert_eq!(h.in_flight(), 1);
        release_tx.send(()).unwrap();
        pool.close_and_drain();
    }

    #[test]
    fn a_panicking_item_does_not_kill_the_worker() {
        let counter = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&counter);
        let pool = Pool::new(1, 8, move |n: u32| {
            if n == 0 {
                panic!("job exploded");
            }
            c.fetch_add(1, Ordering::Relaxed);
        });
        let h = pool.handle();
        h.submit(0).unwrap();
        h.submit(1).unwrap();
        pool.close_and_drain();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }
}
