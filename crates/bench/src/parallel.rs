//! Deterministic fan-out of independent work across OS threads, and the
//! run-isolation policy that wraps it.
//!
//! Every simulation *run* is single-threaded and deterministic (a core
//! invariant of this reproduction — see DESIGN.md §5); what the
//! experiment harness parallelizes is the *set* of independent runs a
//! figure or table needs. [`par_map`] is the one fan-out: it applies a
//! function to every item using named scoped threads from `std` (no
//! external runtime, no long-lived pool), with results returned **in
//! input order** regardless of which thread finished first or when. A
//! parallel experiment therefore renders byte-identical reports to a
//! serial one. `RunSet::par` is the same fan-out with one of the set's
//! `jobs` run permits held around each item, which caps the simulations
//! running at once at `jobs`, however many threads submit batches.
//!
//! Each batch carries its submitter's context — the experiment tag its
//! runs are charged to and the [`Deadline`] they stop at — and every
//! thread it starts wears that context, so a budget installed by
//! [`isolated`] on the submitting thread reaches every simulation the
//! batch fans out.
//!
//! [`isolated`] is the one run-isolation policy: it wraps a unit of
//! work on the caller's thread with panic capture, an optional
//! wall-clock budget and one retry for transient failures, and turns
//! every outcome into a typed [`RunError`] (DESIGN.md §7). It spawns no
//! thread: the budget travels as a [`Deadline`] that simulations check
//! between chunks, so a timed-out run stops instead of running on.
//! A sweep that must survive individual failures composes the two:
//! `par_map(jobs, items, |item| isolated(budget, || work(item)))`.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{panic_message, RunError};

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

/// What a batch inherits from its submitter and every thread it starts
/// wears.
#[derive(Debug, Clone, Copy)]
struct Context {
    tag: Option<&'static str>,
    deadline: Option<Deadline>,
}

thread_local! {
    /// Whether this thread holds a run permit (see [`holds_permit`]).
    static HOLDS_PERMIT: Cell<bool> = const { Cell::new(false) };
    /// The tag and deadline for work started from this thread (see
    /// [`current_tag`] and [`current_deadline`]).
    static CONTEXT: Cell<Context> = const {
        Cell::new(Context {
            tag: None,
            deadline: None,
        })
    };
}

/// Whether the current thread holds a run permit, from any run set.
/// Fan-out *inside* a permitted item runs inline: the item already
/// counts against `jobs`, and waiting for a second permit while holding
/// one could wait on itself.
pub(crate) fn holds_permit() -> bool {
    HOLDS_PERMIT.with(Cell::get)
}

/// The experiment tag attributed to simulations started from this
/// thread. Set by `RunSet::with_tag` on submitter threads and inherited
/// by every thread a batch starts.
pub fn current_tag() -> Option<&'static str> {
    CONTEXT.with(Cell::get).tag
}

/// Runs `f` with `tag` as this thread's experiment tag, restoring the
/// previous tag afterwards, even if `f` panics.
pub fn with_tag<R>(tag: Option<&'static str>, f: impl FnOnce() -> R) -> R {
    with_context(|c| c.tag = tag, f)
}

/// The deadline simulations started from this thread stop at. Installed
/// by [`isolated`] on the submitter and inherited by every thread a
/// batch starts.
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

/// The worker count used when the caller does not specify one.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on up to `jobs` threads; results come back
/// in input order.
///
/// Work is claimed dynamically (an atomic cursor), so uneven item costs —
/// a 600 k-instruction `mcf` next to a 40 k `gzip` — still balance. The
/// threads are scoped, named `mcd-run-N`, and wear the caller's tag and
/// deadline. With `jobs <= 1` or a single item this degenerates to a
/// plain serial map on the caller with no thread or lock traffic.
///
/// # Panics
///
/// Every item runs, even after another panics; then the panic of the
/// lowest-indexed item that panicked is re-raised with its own payload.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    fan_out(jobs, items, f, None)
}

/// [`par_map`], with one of `permits` held around each item when given.
fn fan_out<T, R, F>(jobs: usize, items: Vec<T>, f: F, permits: Option<&Permits>) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items
            .into_iter()
            .map(|item| {
                let _held = permits.map(Permits::acquire);
                f(item)
            })
            .collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<std::thread::Result<R>>>> =
        inputs.iter().map(|_| Mutex::new(None)).collect();
    run_indices(jobs, inputs.len(), permits, &|i| {
        let item = inputs[i]
            .lock()
            .expect("input slot poisoned")
            .take()
            .expect("each index is claimed exactly once");
        let outcome = catch_unwind(AssertUnwindSafe(|| f(item)));
        *outputs[i].lock().expect("output slot poisoned") = Some(outcome);
    });
    // In input order, so the first `Err` is the lowest-indexed panic.
    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("output slot poisoned")
                .expect("every index was claimed")
        })
        .collect::<std::thread::Result<Vec<R>>>()
        .unwrap_or_else(|payload| resume_unwind(payload))
}

/// Calls `run(i)` once for each `i` in `0..len` on `jobs` scoped threads
/// named `mcd-run-N`, each wearing the caller's context and claiming
/// indices from a shared cursor; with `permits`, a thread takes a permit
/// before it claims an index and gives it back after the item (or on
/// finding none left). Not generic, so one copy of the thread code
/// serves every batch type.
fn run_indices(jobs: usize, len: usize, permits: Option<&Permits>, run: &(dyn Fn(usize) + Sync)) {
    let cursor = AtomicUsize::new(0);
    let context = CONTEXT.with(Cell::get);
    let claim = || {
        CONTEXT.with(|c| c.set(context));
        loop {
            let _held = permits.map(Permits::acquire);
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            run(i);
        }
    };
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..jobs)
            .map(|n| {
                std::thread::Builder::new()
                    .name(format!("mcd-run-{n}"))
                    .spawn_scoped(scope, claim)
                    .expect("spawn run thread")
            })
            .collect();
        // Join each thread, not just its closure: the scope alone may
        // return before the threads have exited, and no thread a batch
        // started may outlive it.
        for t in threads {
            t.join().unwrap_or_else(|payload| resume_unwind(payload));
        }
    });
}

/// A counting permit that caps how many simulations run at once: a run
/// set holds `jobs` of them, and [`Permits::par_map`] holds one around
/// each item it runs. The count is valid after every single update, so
/// a poisoned lock is recovered rather than propagated (a permit is also
/// given back while unwinding, where a second panic would abort).
#[derive(Debug)]
pub(crate) struct Permits {
    jobs: usize,
    free: Mutex<usize>,
    freed: Condvar,
}

/// One held permit. Dropping it — also while unwinding from a panicking
/// item — gives it back and clears this thread's [`holds_permit`] flag.
struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        HOLDS_PERMIT.with(|h| h.set(false));
        *self.0.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.freed.notify_one();
    }
}

impl Permits {
    /// `jobs` permits (minimum one).
    pub(crate) fn new(jobs: usize) -> Permits {
        let jobs = jobs.max(1);
        Permits {
            jobs,
            free: Mutex::new(jobs),
            freed: Condvar::new(),
        }
    }

    /// The number of permits.
    pub(crate) fn jobs(&self) -> usize {
        self.jobs
    }

    /// Blocks until a permit is free and takes it for this thread.
    fn acquire(&self) -> Permit<'_> {
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        while *free == 0 {
            free = self
                .freed
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *free -= 1;
        HOLDS_PERMIT.with(|h| h.set(true));
        Permit(self)
    }

    /// [`par_map`] over `jobs` threads with one permit held around each
    /// item, so items from every batch submitted to these permits never
    /// run more than `jobs` at a time. From a thread that already holds
    /// a permit the batch runs inline; a one-item batch runs on the
    /// caller once it has a permit.
    pub(crate) fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if holds_permit() {
            return items.into_iter().map(f).collect();
        }
        fan_out(self.jobs, items, f, Some(self))
    }
}

/// Attempts [`isolated`] makes at one unit of work whose failures are
/// transient: the first, plus one retry.
pub const ATTEMPTS: u32 = 2;

/// Runs `f` on the calling thread as one isolated unit of work — an
/// experiment in a `repro` sweep, a request in `mcd-serve`.
///
/// * **Isolation** — a panic in `f` is caught and becomes
///   [`RunError::Panicked`].
/// * **Budget** — with `budget = Some(d)`, each *attempt* runs under a
///   [`Deadline`] `d` from its start (an earlier deadline already
///   installed on this thread still wins; a budget too large for the
///   clock means none). Every simulation the attempt starts, here or on
///   a thread its batches start, stops at its next chunk boundary past the deadline
///   and returns [`RunError::Timeout`]; nothing is left running.
/// * **Retry** — a transient failure ([`RunError::is_transient`]:
///   panics and timeouts) is retried with a fresh deadline, up to
///   [`ATTEMPTS`] attempts in all; typed errors are deterministic and
///   fail immediately.
pub fn isolated<R>(
    budget: Option<Duration>,
    f: impl Fn() -> Result<R, RunError>,
) -> Result<R, RunError> {
    let once = || {
        with_deadline(budget.and_then(Deadline::after), || {
            catch_unwind(AssertUnwindSafe(&f))
                .unwrap_or_else(|p| Err(RunError::Panicked(panic_message(&*p))))
        })
    };
    let mut attempt = 1;
    loop {
        match once() {
            Err(e) if e.is_transient() && attempt < ATTEMPTS => attempt += 1,
            done => return done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_are_in_input_order() {
        // Make early items the slowest so out-of-order completion is
        // guaranteed, then check order anyway.
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(8, items, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 10
        });
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: u64| -> u64 {
            // A little arithmetic with a data-dependent trip count.
            (0..i % 97).fold(i, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        let serial = par_map(1, (0..200).collect(), work);
        let parallel = par_map(7, (0..200).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicU32::new(0);
        let out = par_map(4, (0..100).collect::<Vec<u32>>(), |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u8> = par_map(8, Vec::<u8>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(8, vec![5u8], |x| x + 1), vec![6]);
    }

    #[test]
    fn an_item_panic_is_re_raised_with_its_own_payload_after_every_item_ran() {
        let completed = AtomicU32::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_map(4, (0u32..8).collect(), |i| {
                if i == 3 {
                    panic!("item three exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            })
        }))
        .expect_err("the panic must propagate");
        assert_eq!(panic_message(&*payload), "item three exploded");
        assert_eq!(completed.load(Ordering::Relaxed), 7, "every other item ran");
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

    #[test]
    fn isolated_passes_results_through() {
        assert_eq!(isolated(None, || Ok(7)), Ok(7));
        assert_eq!(isolated(Some(Duration::from_secs(60)), || Ok(7)), Ok(7));
        // A budget past the clock's range means no deadline, not a panic.
        assert_eq!(isolated(Some(Duration::MAX), || Ok(7)), Ok(7));
    }

    #[test]
    fn a_panic_becomes_a_typed_failure() {
        let out = par_map(4, (0u32..8).collect(), |i| {
            isolated(None, || {
                if i == 3 {
                    panic!("item three exploded");
                }
                Ok(i)
            })
        });
        for (i, slot) in out.iter().enumerate() {
            if i == 3 {
                assert_eq!(slot, &Err(RunError::Panicked("item three exploded".into())));
            } else {
                assert_eq!(slot, &Ok(i as u32));
            }
        }
    }

    #[test]
    fn transient_failures_are_retried_once() {
        // Panics on the first attempt, succeeds on the retry.
        let attempts = AtomicU32::new(0);
        let out = isolated(None, || {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("first attempt");
            }
            Ok(10)
        });
        assert_eq!(out, Ok(10));
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        // A second transient failure is final.
        let attempts = AtomicU32::new(0);
        let out = isolated(None, || -> Result<(), RunError> {
            attempts.fetch_add(1, Ordering::Relaxed);
            panic!("every attempt");
        });
        assert_eq!(out, Err(RunError::Panicked("every attempt".into())));
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let attempts = AtomicU32::new(0);
        let out = isolated(None, || -> Result<(), RunError> {
            attempts.fetch_add(1, Ordering::Relaxed);
            Err(RunError::Config("structurally broken".into()))
        });
        assert_eq!(out, Err(RunError::Config("structurally broken".into())));
        assert_eq!(attempts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn overrunning_items_time_out_while_others_finish() {
        // Item 2 polls the installed deadline the way a simulation does
        // between chunks; each of its attempts gets its own 50 ms.
        let attempts = AtomicU32::new(0);
        let start = std::time::Instant::now();
        let out = par_map(3, vec![1u32, 2, 3], |i| {
            isolated(Some(Duration::from_millis(50)), || {
                if i == 2 {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    let deadline = current_deadline().expect("installed");
                    loop {
                        deadline.check()?;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Ok(i)
            })
        });
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Err(RunError::Timeout { limit_ms: 50 }));
        assert_eq!(out[2], Ok(3));
        assert_eq!(attempts.load(Ordering::Relaxed), 2, "retried once");
        assert!(start.elapsed() >= Duration::from_millis(100));
        assert_eq!(current_deadline(), None, "the deadline is removed");
    }
}
