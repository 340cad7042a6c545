//! The measuring loop shared by the workloads: timed set-ups, passes
//! within a time budget, pool occupancy, and the host-accounting rule.

use std::time::{Duration, Instant};

use crate::host;

/// Set-ups timed per run; the median is reported as `setup_s`.
const SETUP_REPEATS: usize = 15;

/// Times [`SETUP_REPEATS`] set-ups with `setup`, keeping the last and
/// handing each earlier one to `teardown` before the next starts.
pub fn timed_setups<S>(mut setup: impl FnMut() -> S, mut teardown: impl FnMut(S)) -> (S, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = kept.take() {
            teardown(s);
        }
        let t = Instant::now();
        let s = setup();
        times.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    (kept.expect("at least one set-up"), times)
}

/// Runs `pass(i)` for i = 0, 1, … until another pass would overrun
/// `budget` (at least one pass).
pub fn passes<P>(budget: Duration, mut pass: impl FnMut(usize) -> P) -> Vec<P> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        out.push(pass(out.len()));
        longest = longest.max(t.elapsed());
        if start.elapsed() + longest > budget {
            return out;
        }
    }
}

/// Pool occupancy of one batch of tasks `(thread id, start s, end s)`
/// that ended at `end` s: the workers' busy share, and the
/// worker-seconds each sat idle after its last task.
pub fn pool_stats(tasks: &[(u64, f64, f64)], end: f64, jobs: usize) -> (f64, f64) {
    let busy: f64 = tasks.iter().map(|t| t.2 - t.1).sum();
    let mut last: Vec<(u64, f64)> = Vec::new();
    for &(tid, _, e) in tasks {
        match last.iter_mut().find(|l| l.0 == tid) {
            Some(l) => l.1 = l.1.max(e),
            None => last.push((tid, e)),
        }
    }
    let idle =
        last.iter().map(|l| end - l.1).sum::<f64>() + jobs.saturating_sub(last.len()) as f64 * end;
    (busy / (jobs as f64 * end), idle)
}

/// Refuses to run with more load threads or connections than cores:
/// oversubscribed numbers measure the scheduler, not the program.
/// Returns the note line every result carries.
pub fn check_host(threads: usize, connections: usize) -> Result<String, String> {
    let nproc = host::nproc();
    if threads > nproc || connections > nproc {
        return Err(format!(
            "refusing to run: {threads} threads / {connections} connections on {nproc} cores"
        ));
    }
    Ok(format!(
        "host nproc {nproc} threads {threads} connections {connections}"
    ))
}
