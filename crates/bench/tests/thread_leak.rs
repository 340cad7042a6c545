//! Thread-count contract of the run-isolation path.
//!
//! `parallel::isolated` runs its work on the caller's thread and enforces
//! a wall-clock budget with a deadline that every simulation checks
//! between fixed-length chunks, on whichever thread runs it: the caller
//! for a single run, a scoped thread of a `RunSet::par` batch otherwise.
//! A run over budget therefore *stops* — it is not abandoned on a thread
//! of its own — and returns `RunError::Timeout` within about one chunk of
//! the deadline, per attempt.
//!
//! This suite pins both halves via `/proc/self/task`: the call returns
//! `Timeout` within the stated bound, and at the moment it returns the
//! process has exactly the threads it had before the call — checked with
//! no waiting. Everything lives in ONE `#[test]` function (its own
//! integration binary) so no concurrent test perturbs the count.

use std::time::{Duration, Instant};

use mcd_bench::error::RunError;
use mcd_bench::parallel::isolated;
use mcd_bench::runner::{RunConfig, RunSet, Scheme};

/// Threads currently alive in this process (Linux).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|entries| entries.count())
        .expect("/proc/self/task readable on Linux")
}

/// The per-attempt budget under test.
const BUDGET: Duration = Duration::from_millis(50);

/// Time allowed past the deadline before a simulation notices it: one
/// chunk of a few thousand instructions (a few ms optimised, well under
/// this unoptimised) plus the check that precedes it.
const CHUNK_SLACK: Duration = Duration::from_millis(250);

/// Runs `work` under `isolated(Some(budget))` and checks the contract:
/// a `Timeout` within two attempts of budget plus chunk slack, and the
/// thread count back at its pre-call value the moment the call returns.
fn assert_stops_in_time<R: std::fmt::Debug>(
    what: &str,
    budget: Duration,
    work: impl Fn() -> Result<R, RunError>,
) {
    let before = thread_count();
    let start = Instant::now();
    let result = isolated(Some(budget), work);
    let elapsed = start.elapsed();
    let after = thread_count();
    assert_eq!(
        result.unwrap_err(),
        RunError::Timeout {
            limit_ms: budget.as_millis() as u64
        },
        "{what}: the overrun must time out"
    );
    let bound = 2 * (budget + CHUNK_SLACK);
    assert!(
        elapsed <= bound,
        "{what}: took {elapsed:?}, bound {bound:?} — the run was not stopped"
    );
    assert_eq!(
        after, before,
        "{what}: a thread started for the timed-out call is still alive"
    );
}

#[test]
fn a_timed_out_run_stops_and_no_thread_outlives_the_call() {
    // A run set starts no thread until a batch has work for one.
    let before = thread_count();
    let rs = RunSet::new(4);
    assert_eq!(thread_count(), before, "RunSet::new started a thread");

    // A single run stays on the caller; a batch fans out to scoped
    // threads, all of which must have ended by the time the call returns.
    let long = RunConfig::quick().with_ops(50_000_000);
    assert_stops_in_time("single simulation", BUDGET, || {
        rs.run("swim", Scheme::Adaptive, &long)
    });
    assert_stops_in_time("two-run batch", BUDGET, || {
        rs.par(vec!["swim", "gzip"], |b| rs.run(b, Scheme::Adaptive, &long))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    });
    assert_eq!(rs.stats().runs, 0, "a stopped run is not counted");

    // The same contract with the failure injected through the harness's
    // own MCD_FAULTS hook, end to end through a real experiment: the
    // injected delay sleeps only until the deadline. Only compiled under
    // the `faults` CI job.
    #[cfg(feature = "fault-inject")]
    {
        use mcd_bench::experiments;

        std::env::set_var("MCD_FAULTS", "fig8=delay:300");
        let cfg = RunConfig::quick().with_ops(4000);
        assert_stops_in_time(
            "fault-injected experiment",
            Duration::from_millis(60),
            || experiments::run_on(&rs, "fig8", &cfg),
        );
        std::env::remove_var("MCD_FAULTS");
    }
}
