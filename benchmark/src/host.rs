//! Host accounting: core count, per-thread and per-process CPU time, and
//! peak resident memory, all read from the kernel without extra crates.
//!
//! Per-thread CPU time comes from `/proc/thread-self/schedstat` (first
//! field: nanoseconds on a CPU), so a descheduled or preempted thread is
//! never charged for time a neighbour used. Process CPU time — which,
//! unlike the per-thread files, still counts threads that have exited —
//! comes from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.

#![allow(unsafe_code)]

use std::os::raw::{c_int, c_long};

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn schedstat_ns(path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// CPU time the calling thread has consumed, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat").expect("/proc/thread-self/schedstat is readable")
}

/// The calling thread's kernel thread id.
pub fn thread_id() -> u64 {
    let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self resolves");
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .expect("/proc/thread-self ends in the thread id")
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// `PR_SET_TIMERSLACK` from <linux/prctl.h>.
const PR_SET_TIMERSLACK: c_int = 29;

/// Makes the calling thread's sleeps end on time: the default 50 us
/// timer slack would otherwise let every scheduled send start late.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches only the calling thread's timer slack.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong) };
    assert_eq!(rc, 0, "prctl(PR_SET_TIMERSLACK) failed");
}

/// `CLOCK_PROCESS_CPUTIME_ID` from <time.h> on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time of the whole process so far, including exited threads,
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two C longs on every Linux target) for the duration of the call,
    // and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM line in /proc/self/status")
}
