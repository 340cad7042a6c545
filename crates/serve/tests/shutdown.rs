//! Graceful-shutdown suite: drain semantics, connection refusal, cache
//! flush, warm restart, and rejection of stale warm directories.

mod util;

use std::net::TcpStream;
use std::time::Duration;

use mcd_bench::checkpoint::{code_fingerprint_for, CheckpointDir, CompletedRun};
use mcd_serve::cache::WarmReport;
use mcd_serve::{ServeConfig, Server};
use util::{json_at, metric, request, run};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mcd-serve-shutdown-{tag}-{}", std::process::id()))
}

/// The full lifecycle: a populated server shuts down while a request is
/// in flight — the in-flight request completes, new connections are
/// refused, the cache flushes — and a restarted server on the same warm
/// directory answers the same request from cache, byte-identically.
#[test]
fn drain_completes_in_flight_work_and_restart_is_warm() {
    let dir = scratch_dir("lifecycle");
    std::fs::remove_dir_all(&dir).ok();

    let server = Server::start(ServeConfig {
        workers: 4,
        queue_cap: 16,
        warm_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    assert_eq!(
        server.warm(),
        WarmReport::default(),
        "nothing to warm-load yet"
    );

    let first = run(
        addr,
        "{\"experiment\": \"fig8\", \"ops\": 6000, \"seed\": 3}",
    )
    .expect("first run answered");
    assert_eq!(first.status, 200, "{}", first.body);

    // Put a heavier run in flight, then shut down under it.
    let in_flight = std::thread::spawn(move || {
        run(
            addr,
            "{\"experiment\": \"fig8\", \"ops\": 300000, \"seed\": 4}",
        )
        .expect("in-flight run answered")
    });
    std::thread::sleep(Duration::from_millis(200));
    let report = server.shutdown().expect("graceful shutdown");
    let in_flight = in_flight.join().expect("client thread survives");
    assert_eq!(
        in_flight.status, 200,
        "a request accepted before shutdown completes during the drain: {}",
        in_flight.body
    );
    assert!(
        report.flushed >= 2,
        "both completed runs flush to the warm dir, got {}",
        report.flushed
    );

    // The listener is gone: new connections are refused outright.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).is_err(),
        "connections must be refused after shutdown"
    );

    // Restart on the same directory: warm, and the repeated request is
    // a cache hit with the exact bytes the first server produced.
    let restarted = Server::start(ServeConfig {
        warm_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("warm restart");
    let warm = restarted.warm();
    assert!(
        !warm.stale_rejected,
        "same binary version: nothing is stale"
    );
    assert_eq!(warm.loaded, report.flushed, "every flushed entry loads");

    let addr2 = restarted.addr();
    let replay = run(
        addr2,
        "{\"experiment\": \"fig8\", \"ops\": 6000, \"seed\": 3}",
    )
    .expect("replayed run answered");
    assert_eq!(replay.status, 200);
    assert_eq!(
        replay.body, first.body,
        "a warm cache hit reproduces the original response bytes"
    );
    assert_eq!(
        metric(addr2, "service.cache_hits"),
        1,
        "answered from the warm cache"
    );
    assert_eq!(
        metric(addr2, "service.runs_executed"),
        0,
        "no re-simulation"
    );

    restarted.shutdown().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// `POST /shutdown` triggers the same graceful path over HTTP.
#[test]
fn http_shutdown_endpoint_drains_and_refuses() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    let healthy = request(addr, "GET", "/healthz", b"").expect("healthz answers");
    assert_eq!(healthy.status, 200);
    assert_eq!(json_at(&healthy.body, "status").as_str(), Some("ok"));

    let reply = request(addr, "POST", "/shutdown", b"").expect("shutdown answers");
    assert_eq!(reply.status, 200);
    assert_eq!(json_at(&reply.body, "status").as_str(), Some("draining"));

    let report = server.finish().expect("drain completes");
    assert_eq!(report.flushed, 0, "no warm dir configured");
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).is_err(),
        "connections must be refused after shutdown"
    );
}

/// The version-flip regression, end to end: a warm directory written by
/// an older binary is discarded at startup — a stale result is a miss
/// and a fresh execution, never a hit.
#[test]
fn stale_warm_dir_from_an_older_binary_is_discarded() {
    let dir = scratch_dir("stale");
    std::fs::remove_dir_all(&dir).ok();

    // Forge an old binary's flush: the same record layout, but a
    // manifest pinned to a different code fingerprint.
    let old = CheckpointDir::open(&dir, &code_fingerprint_for("0.0.0-old")).expect("old dir");
    old.store(
        "00000000deadbeef",
        &CompletedRun {
            report: "stale report\n".to_string(),
            kind: "simulation".to_string(),
            wall_s: 0.5,
            runs: 1,
            instructions: 1000,
            baseline_requests: 0,
            events_processed: 200,
            cycles_skipped: 800,
            run_wall_p50_s: 0.5,
            run_wall_p99_s: 0.5,
        },
    )
    .expect("store stale entry");
    std::fs::write(dir.join("00000000deadbeef.key.txt"), "fig8\nforged-key\n")
        .expect("write key file");

    let server = Server::start(ServeConfig {
        warm_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("server starts despite the stale dir");
    assert_eq!(
        server.warm(),
        WarmReport {
            loaded: 0,
            stale_rejected: true
        },
        "stale entries must be rejected wholesale"
    );

    let addr = server.addr();
    let reply = run(
        addr,
        "{\"experiment\": \"fig8\", \"ops\": 6000, \"seed\": 5}",
    )
    .expect("run answered");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        metric(addr, "service.cache_hits"),
        0,
        "nothing stale is served"
    );
    assert_eq!(
        metric(addr, "service.runs_executed"),
        1,
        "the run executed fresh"
    );

    let report = server.shutdown().expect("clean shutdown");
    assert_eq!(
        report.flushed, 1,
        "the fresh result flushes under the current version"
    );

    // And the re-flushed directory is valid for the *current* binary.
    let reopened = Server::start(ServeConfig {
        warm_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("restart");
    assert_eq!(
        reopened.warm(),
        WarmReport {
            loaded: 1,
            stale_rejected: false
        }
    );
    reopened.shutdown().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}
