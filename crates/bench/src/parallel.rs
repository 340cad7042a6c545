//! Deterministic fan-out of independent work across OS threads.
//!
//! Every simulation *run* is single-threaded and deterministic (a core
//! invariant of this reproduction — see DESIGN.md §5); what the
//! experiment harness parallelizes is the *set* of independent runs a
//! figure or table needs. [`par_map`] is the fast-path primitive: it
//! applies a function to every item using scoped threads from `std` (no
//! external runtime), with results returned **in input order** regardless
//! of which worker finished first or when. A parallel experiment
//! therefore renders byte-identical reports to a serial one.
//!
//! [`isolated`] is the one run-isolation policy: it wraps a unit of
//! work on the caller's thread with panic capture, an optional
//! wall-clock budget and one retry for transient failures, and turns
//! every outcome into a typed [`RunError`] (DESIGN.md §7). It spawns no
//! thread: the budget travels as a [`Deadline`] that simulations check
//! between chunks, so a timed-out run stops instead of running on.
//! A sweep that must survive individual failures composes the two:
//! `par_map(jobs, items, |item| isolated(budget, || work(item)))`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::error::{panic_message, RunError};
use crate::steal::{self, Deadline};

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
/// a 600 k-instruction `mcf` next to a 40 k `gzip` — still balance. With
/// `jobs <= 1` or a single item this degenerates to a plain serial map
/// with no thread or lock traffic.
///
/// # Panics
///
/// Propagates the first panic raised by `f` (after all workers stop).
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..inputs.len()).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = inputs.get(i) else { break };
                let item = slot
                    .lock()
                    .expect("input slot poisoned")
                    .take()
                    .expect("each index is claimed exactly once");
                let result = f(item);
                *outputs[i].lock().expect("output slot poisoned") = Some(result);
            });
        }
    });
    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("output slot poisoned")
                .expect("every claimed item produces a result")
        })
        .collect()
}

/// Runs `f` on the calling thread as one isolated unit of work — an
/// experiment in a `repro` sweep, a request in `mcd-serve`.
///
/// * **Isolation** — a panic in `f` is caught and becomes
///   [`RunError::Panicked`].
/// * **Budget** — with `budget = Some(d)`, each *attempt* runs under a
///   [`Deadline`] `d` from its start (an earlier deadline already
///   installed on this thread still wins; a budget too large for the
///   clock means none). Every simulation the attempt starts, here or on
///   a pool worker, stops at its next chunk boundary past the deadline
///   and returns [`RunError::Timeout`]; nothing is left running.
/// * **Retry** — a transient first failure ([`RunError::is_transient`]:
///   panics and timeouts) is retried exactly once, with a fresh
///   deadline; typed errors are deterministic and fail immediately.
pub fn isolated<R>(
    budget: Option<Duration>,
    f: impl Fn() -> Result<R, RunError>,
) -> Result<R, RunError> {
    let once = || {
        steal::with_deadline(budget.and_then(Deadline::after), || {
            catch_unwind(AssertUnwindSafe(&f))
                .unwrap_or_else(|p| Err(RunError::Panicked(panic_message(&*p))))
        })
    };
    match once() {
        Err(e) if e.is_transient() => once(),
        done => done,
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
                    let deadline = steal::current_deadline().expect("installed");
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
        assert_eq!(steal::current_deadline(), None, "the deadline is removed");
    }
}
