//! Run-granularity work stealing shared by every experiment.
//!
//! The old layout gave each experiment its own scoped-thread batch
//! ([`crate::parallel::par_map`]): workers belonged to the batch that
//! spawned them, so a long tail run — the 4.8 M-instruction wavelength
//! points dominate `ablate-wavelength` — left every other core idle
//! until its batch drained, and two experiments running at once could
//! oversubscribe the machine with two full worker sets. The
//! [`StealPool`] replaces per-batch threads with one process-wide set of
//! workers that claim individual *items* from whichever submitted batch
//! has work left, front to back: an experiment's runs never wait on an
//! unrelated batch finishing, and the number of concurrently executing
//! simulations never exceeds the pool's worker count no matter how many
//! experiments are in flight.
//!
//! Submitters block until their batch completes, so a batch closure may
//! borrow from the submitting stack — the same guarantee scoped threads
//! give. A batch also carries its submitter's context — the experiment
//! tag its runs are charged to and the [`Deadline`] they stop at — and
//! each worker wears that context for the duration of every item it
//! claims, so a budget installed by [`crate::parallel::isolated`] on the
//! submitting thread reaches every simulation the batch fans out. The
//! lifetime erasure that makes this expressible across a long-lived pool
//! is the one use of `unsafe` in this crate; the soundness argument
//! lives on [`StealPool::scope`].

#![allow(unsafe_code)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::RunError;

/// The wall-clock instant a run attempt must stop by, and the budget it
/// was derived from (reported in [`RunError::Timeout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// When the attempt's budget runs out.
    pub at: Instant,
    /// The budget, in milliseconds.
    pub limit_ms: u64,
}

impl Deadline {
    /// The deadline `budget` from now, or `None` when that instant is
    /// beyond what the clock can represent (a budget that large never
    /// expires).
    pub fn after(budget: Duration) -> Option<Deadline> {
        Some(Deadline {
            at: Instant::now().checked_add(budget)?,
            limit_ms: budget.as_millis().min(u64::MAX as u128) as u64,
        })
    }

    /// `Err(Timeout)` once the deadline has passed.
    pub fn check(&self) -> Result<(), RunError> {
        if Instant::now() >= self.at {
            Err(RunError::Timeout {
                limit_ms: self.limit_ms,
            })
        } else {
            Ok(())
        }
    }
}

/// What a batch inherits from its submitter and every worker wears
/// while running one of its items.
#[derive(Debug, Clone, Copy)]
struct Context {
    tag: Option<&'static str>,
    deadline: Option<Deadline>,
}

thread_local! {
    /// Whether this thread is a pool worker (see [`on_worker`]).
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    /// The tag and deadline for work started from this thread (see
    /// [`current_tag`] and [`current_deadline`]).
    static CONTEXT: Cell<Context> = const {
        Cell::new(Context {
            tag: None,
            deadline: None,
        })
    };
}

/// Whether the current thread is a pool worker. Fan-out *inside* a batch
/// item must run inline — a worker blocking on its own pool could wait
/// on the very slot it occupies — so [`StealPool::scope`] (and
/// everything built on it) degrades to a serial loop on workers.
pub fn on_worker() -> bool {
    IS_WORKER.with(Cell::get)
}

/// The experiment tag attributed to simulations started from this
/// thread. Set by `RunSet::with_tag` on submitter threads and inherited
/// by workers per claimed item.
pub fn current_tag() -> Option<&'static str> {
    CONTEXT.with(Cell::get).tag
}

/// Runs `f` with `tag` as this thread's experiment tag, restoring the
/// previous tag afterwards, even if `f` panics.
pub fn with_tag<R>(tag: Option<&'static str>, f: impl FnOnce() -> R) -> R {
    with_context(|c| c.tag = tag, f)
}

/// The deadline simulations started from this thread stop at. Installed
/// by [`crate::parallel::isolated`] on the submitter and inherited by
/// workers per claimed item.
pub fn current_deadline() -> Option<Deadline> {
    CONTEXT.with(Cell::get).deadline
}

/// Runs `f` with `deadline` installed on this thread — or the deadline
/// already installed, if that one is earlier — restoring the previous
/// deadline afterwards, even if `f` panics.
pub(crate) fn with_deadline<R>(deadline: Option<Deadline>, f: impl FnOnce() -> R) -> R {
    with_context(
        |c| c.deadline = c.deadline.into_iter().chain(deadline).min_by_key(|d| d.at),
        f,
    )
}

/// Runs `f` with this thread's context edited by `edit`, restoring the
/// previous context afterwards, even if `f` panics.
fn with_context<R>(edit: impl FnOnce(&mut Context), f: impl FnOnce() -> R) -> R {
    struct Restore(Context);
    impl Drop for Restore {
        fn drop(&mut self) {
            CONTEXT.with(|c| c.set(self.0));
        }
    }
    let prev = CONTEXT.with(Cell::get);
    let mut next = prev;
    edit(&mut next);
    CONTEXT.with(|c| c.set(next));
    let _restore = Restore(prev);
    f()
}

/// A pointer to the submitter's `&(dyn Fn(usize) + Sync)` with its
/// lifetime erased so it can sit in the pool queue.
///
/// SAFETY: the pointee is `Sync`, so calling it from several workers at
/// once is fine, and the pointer is only dereferenced while the
/// submitting stack frame is pinned by the blocking wait in
/// [`StealPool::scope`] (see the invariant documented there).
struct ErasedRun(*const (dyn Fn(usize) + Sync));

unsafe impl Send for ErasedRun {}
unsafe impl Sync for ErasedRun {}

/// Completion bookkeeping for one batch, guarded by the batch mutex.
struct Completion {
    /// Items not yet finished (claimed-and-running items count).
    remaining: usize,
    /// First panic payload raised by an item, replayed to the submitter
    /// once the whole batch has completed (matching
    /// [`crate::parallel::par_map`]'s propagate-after-everyone-stops).
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

/// One submitted batch: the type-erased item runner plus claim and
/// completion state.
struct Batch {
    run: ErasedRun,
    len: usize,
    /// Next unclaimed item index. Claims happen under the pool lock, so
    /// the atomic is really a Cell the borrow checker accepts in an
    /// `Arc`.
    next: AtomicUsize,
    /// The submitter's tag and deadline, worn by whichever worker runs
    /// an item.
    context: Context,
    done: Mutex<Completion>,
    finished: Condvar,
}

/// Queue state shared by workers and submitters.
struct PoolState {
    queue: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

/// A process-wide pool of workers claiming items across every submitted
/// batch. Dropping the pool shuts the workers down and joins them.
pub struct StealPool {
    state: Arc<(Mutex<PoolState>, Condvar)>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for StealPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StealPool({} workers)", self.workers.len())
    }
}

impl StealPool {
    /// Spawns a pool with `workers` threads (minimum one).
    pub fn new(workers: usize) -> StealPool {
        let state = Arc::new((
            Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let workers = (0..workers.max(1))
            .map(|n| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("mcd-steal-{n}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn steal worker")
            })
            .collect();
        StealPool { state, workers }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f(0..len)` on the pool, blocking until every item finishes.
    /// Workers run each item under the calling thread's tag and deadline.
    /// Item panics are replayed to the caller (first one wins) only
    /// after the whole batch completes. Called from a pool worker, the
    /// batch runs inline instead (see [`on_worker`]).
    ///
    /// SAFETY argument for the lifetime erasure below: workers only call
    /// through the erased pointer between claiming an index and
    /// decrementing `remaining`, and this function does not return until
    /// `remaining == 0` — so every dereference happens while `f` (and
    /// everything it borrows) is still pinned on this stack frame.
    pub fn scope(&self, len: usize, f: &(dyn Fn(usize) + Sync)) {
        if len == 0 {
            return;
        }
        if on_worker() {
            for i in 0..len {
                f(i);
            }
            return;
        }
        let run = ErasedRun(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        let batch = Arc::new(Batch {
            run,
            len,
            next: AtomicUsize::new(0),
            context: CONTEXT.with(Cell::get),
            done: Mutex::new(Completion {
                remaining: len,
                panic: None,
            }),
            finished: Condvar::new(),
        });
        {
            let (lock, wake) = &*self.state;
            lock.lock()
                .expect("steal pool poisoned")
                .queue
                .push_back(Arc::clone(&batch));
            wake.notify_all();
        }
        let mut done = batch.done.lock().expect("batch completion poisoned");
        while done.remaining > 0 {
            done = batch
                .finished
                .wait(done)
                .expect("batch completion poisoned");
        }
        if let Some(payload) = done.panic.take() {
            drop(done);
            resume_unwind(payload);
        }
    }
}

impl Drop for StealPool {
    fn drop(&mut self) {
        {
            let (lock, wake) = &*self.state;
            lock.lock().expect("steal pool poisoned").shutdown = true;
            wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(state: &(Mutex<PoolState>, Condvar)) {
    IS_WORKER.with(|w| w.set(true));
    loop {
        let (batch, index) = {
            let (lock, wake) = state;
            let mut st = lock.lock().expect("steal pool poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                // Claim from the *front* batch with unclaimed items:
                // FIFO across batches keeps an early experiment's tail
                // from starving behind later arrivals. The claimer of a
                // batch's last item retires it from the queue; its
                // in-flight items finish on the workers running them.
                let mut claimed = None;
                while let Some(front) = st.queue.front() {
                    let i = front.next.fetch_add(1, Ordering::Relaxed);
                    if i < front.len {
                        claimed = Some((Arc::clone(front), i));
                        if i + 1 == front.len {
                            st.queue.pop_front();
                        }
                        break;
                    }
                    st.queue.pop_front();
                }
                match claimed {
                    Some(c) => break c,
                    None => st = wake.wait(st).expect("steal pool poisoned"),
                }
            }
        };
        // SAFETY: see `StealPool::scope` — the submitter is blocked
        // until we decrement `remaining` below, so the pointee is alive.
        let outcome = with_context(
            |c| *c = batch.context,
            || catch_unwind(AssertUnwindSafe(|| (unsafe { &*batch.run.0 })(index))),
        );
        let mut done = batch.done.lock().expect("batch completion poisoned");
        if let Err(payload) = outcome {
            if done.panic.is_none() {
                done.panic = Some(payload);
            }
        }
        done.remaining -= 1;
        if done.remaining == 0 {
            batch.finished.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn scope_runs_every_index_exactly_once() {
        let pool = StealPool::new(4);
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        pool.scope(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn empty_batches_return_immediately() {
        let pool = StealPool::new(2);
        pool.scope(0, &|_| panic!("no items, no calls"));
    }

    #[test]
    fn item_panics_surface_after_the_batch_completes() {
        let pool = StealPool::new(2);
        let completed = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&completed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(8, &|i| {
                if i == 3 {
                    panic!("item three exploded");
                }
                c.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "the panic must propagate");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            7,
            "every other item still ran"
        );
    }

    #[test]
    fn nested_scope_from_a_worker_runs_inline() {
        let pool = StealPool::new(1);
        let inner = Arc::new(AtomicU32::new(0));
        let i2 = Arc::clone(&inner);
        // One worker: a blocking nested submit would deadlock; inline
        // execution must finish instead.
        pool.scope(1, &|_| {
            assert!(on_worker());
            pool.scope(5, &|_| {
                i2.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn concurrent_submitters_share_one_worker_set() {
        let pool = Arc::new(StealPool::new(2));
        let ran = Arc::new(AtomicU32::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let ran = Arc::clone(&ran);
                s.spawn(move || {
                    pool.scope(10, &|_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(ran.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn workers_carry_the_submitters_tag_and_deadline() {
        let pool = StealPool::new(2);
        let deadline = Deadline::after(Duration::from_secs(60));
        let seen = Mutex::new(Vec::new());
        with_tag(Some("exp-a"), || {
            with_deadline(deadline, || {
                pool.scope(4, &|_| {
                    seen.lock()
                        .unwrap()
                        .push((current_tag(), current_deadline()));
                });
            })
        });
        assert_eq!(*seen.lock().unwrap(), vec![(Some("exp-a"), deadline); 4]);
        assert_eq!(current_tag(), None, "the submitter's tag is restored");
        assert_eq!(
            current_deadline(),
            None,
            "the submitter's deadline is restored"
        );
        // A worker's next item wears that item's batch context, not the
        // previous one's.
        pool.scope(4, &|_| {
            assert_eq!((current_tag(), current_deadline()), (None, None));
        });
    }

    #[test]
    fn the_earlier_deadline_wins_and_huge_budgets_never_expire() {
        let near = Deadline::after(Duration::from_millis(10));
        let far = Deadline::after(Duration::from_secs(60));
        with_deadline(near, || {
            with_deadline(far, || assert_eq!(current_deadline(), near));
        });
        with_deadline(far, || {
            with_deadline(near, || assert_eq!(current_deadline(), near));
            assert_eq!(current_deadline(), far);
        });
        assert_eq!(Deadline::after(Duration::MAX), None);
        let expired = Deadline::after(Duration::ZERO).expect("representable");
        assert_eq!(expired.check(), Err(RunError::Timeout { limit_ms: 0 }));
    }
}
