//! Fault-injection suite (`--features fault-inject`): drives the
//! harness's deterministic MCD_FAULTS hook through the full service
//! stack and checks that failures are typed, shared across a coalesced
//! flight, never cached, and never poison the server.

#![cfg(feature = "fault-inject")]

mod util;

use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use mcd_serve::{ServeConfig, Server};
use util::{json_at, metric, request, run};

/// Simulation fan-out threads alive in this process, by thread name.
/// Each run attempt owns a private run set whose batches run on scoped
/// threads named `mcd-run-N`; the server starts no other thread per
/// request.
fn simulation_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task readable on Linux")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("mcd-run"))
        .count()
}

/// MCD_FAULTS and the thread census are process-global, so the tests in
/// this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// One test function: sequencing within a single `#[test]` keeps the
/// fault environment deterministic.
#[test]
fn injected_timeouts_surface_as_504_and_the_server_recovers() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A 500 ms injected delay against a 100 ms budget: both the attempt
    // and its retry time out, so the leader answers 504.
    std::env::set_var("MCD_FAULTS", "fig8=delay:500");

    let server = Server::start(ServeConfig {
        workers: 4,
        queue_cap: 16,
        run_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    const CLIENTS: usize = 3;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                run(
                    addr,
                    "{\"experiment\": \"fig8\", \"ops\": 4000, \"seed\": 11}",
                )
                .expect("answered even under injected faults")
            })
        })
        .collect();
    let replies: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client survives"))
        .collect();

    for r in &replies {
        assert_eq!(r.status, 504, "injected delay must map to 504: {}", r.body);
        assert_eq!(json_at(&r.body, "error").as_str(), Some("timeout"));
        assert_eq!(
            r.body, replies[0].body,
            "a coalesced flight shares one failure body"
        );
    }
    // The timed-out attempts were stopped, not abandoned: no thread
    // started for them is still running once the 504s are in hand.
    assert_eq!(simulation_threads(), 0, "a timed-out run outlived its 504");
    let failures = metric(addr, "service.run_failures");
    assert_eq!(
        metric(addr, "service.runs_executed"),
        failures,
        "every execution under the fault failed"
    );
    assert!(failures >= 1, "at least the leader executed and failed");
    assert_eq!(
        metric(addr, "service.cache_hits"),
        0,
        "failures are never cached"
    );

    // The server itself stays healthy while the experiment is faulty.
    let health = request(addr, "GET", "/healthz", b"").expect("healthz answers");
    assert_eq!(health.status, 200);

    // Lift the fault: the same request now re-executes (no poisoned
    // cache entry, no stuck flight) and succeeds.
    std::env::remove_var("MCD_FAULTS");
    let recovered = run(
        addr,
        "{\"experiment\": \"fig8\", \"ops\": 4000, \"seed\": 11}",
    )
    .expect("answered after recovery");
    assert_eq!(
        recovered.status, 200,
        "the fingerprint must not be poisoned by earlier failures: {}",
        recovered.body
    );
    assert_eq!(
        metric(addr, "service.run_failures"),
        failures,
        "no new failures"
    );

    server.shutdown().expect("clean shutdown");
}

/// No injected fault: a multi-run experiment fanned out over two inner
/// jobs overruns its budget in the middle of simulating. Its `mcd-run`
/// threads exist while the request is in flight, and the deadline stops
/// every one of them before the 504 is sent.
#[test]
fn a_budget_overrun_mid_simulation_stops_every_run_thread() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var("MCD_FAULTS");
    let server = Server::start(ServeConfig {
        workers: 2,
        inner_jobs: 2,
        run_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // The fig9 grid at 200 k instructions per run takes seconds, far past
    // two 300 ms attempts.
    let client = std::thread::spawn(move || {
        run(
            addr,
            "{\"experiment\": \"fig9\", \"ops\": 200000, \"seed\": 23}",
        )
        .expect("answered")
    });
    let mut most_seen = 0;
    while !client.is_finished() {
        most_seen = most_seen.max(simulation_threads());
        std::thread::sleep(Duration::from_millis(2));
    }
    let reply = client.join().expect("client survives");
    assert_eq!(
        reply.status, 504,
        "the budget must stop the run: {}",
        reply.body
    );
    assert_eq!(json_at(&reply.body, "error").as_str(), Some("timeout"));
    assert!(
        most_seen > 0,
        "the run fanned out on mcd-run threads while in flight"
    );
    assert_eq!(simulation_threads(), 0, "a timed-out run outlived its 504");

    server.shutdown().expect("clean shutdown");
}

/// A failed run is never cached, so an identical request after it
/// executes again: two sequential `/run`s of a permanently panicking
/// experiment are two leader executions and two failures.
#[test]
fn a_failed_fingerprint_executes_again_on_the_next_request() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("MCD_FAULTS", "fig8=panic");
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    for _ in 0..2 {
        let reply = run(
            addr,
            "{\"experiment\": \"fig8\", \"ops\": 4000, \"seed\": 12}",
        )
        .expect("answered");
        assert_eq!(reply.status, 500, "a panic maps to 500: {}", reply.body);
        assert_eq!(json_at(&reply.body, "error").as_str(), Some("panicked"));
    }
    std::env::remove_var("MCD_FAULTS");
    assert_eq!(metric(addr, "service.runs_executed"), 2);
    assert_eq!(metric(addr, "service.run_failures"), 2);

    server.shutdown().expect("clean shutdown");
}
