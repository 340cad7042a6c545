//! Concurrency stress suite for request coalescing and load shedding.
//!
//! The central claims of DESIGN.md §8, proven over real sockets:
//!
//! 1. N concurrent *identical* requests execute **exactly one**
//!    simulation per distinct fingerprint, and every duplicate receives
//!    **byte-identical** response bytes.
//! 2. A burst past the bounded queue sheds the excess with immediate
//!    503 + `Retry-After` — while **every accepted request still
//!    completes** with a full, valid response.

mod util;

use std::sync::{Arc, Barrier};

use mcd_serve::{ServeConfig, Server};
use util::{json_at, metric, run, Reply};

/// 32 clients — 8 distinct fig8 configurations, each requested by 4
/// threads simultaneously — must cost exactly 8 simulations, with the
/// 24 duplicates answered from a flight or the cache, byte-identically.
#[test]
fn duplicates_coalesce_to_one_run_per_fingerprint() {
    const DISTINCT: usize = 8;
    const DUPLICATES: usize = 4;

    let server = Server::start(ServeConfig {
        workers: 8,
        queue_cap: 64,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(DISTINCT * DUPLICATES));
    let mut clients = Vec::new();
    for d in 0..DISTINCT {
        for _ in 0..DUPLICATES {
            let barrier = Arc::clone(&barrier);
            clients.push(std::thread::spawn(move || {
                let body = format!(
                    "{{\"experiment\": \"fig8\", \"ops\": 6000, \"seed\": {}}}",
                    100 + d
                );
                barrier.wait();
                (d, run(addr, &body).expect("every client gets a response"))
            }));
        }
    }
    let mut by_config: Vec<Vec<Reply>> = vec![Vec::new(); DISTINCT];
    for c in clients {
        let (d, reply) = c.join().expect("client thread survives");
        by_config[d].push(reply);
    }

    for (d, replies) in by_config.iter().enumerate() {
        for r in replies {
            assert_eq!(r.status, 200, "config {d} must succeed: {}", r.body);
        }
        let first = &replies[0].body;
        for r in &replies[1..] {
            assert_eq!(
                &r.body, first,
                "duplicates of config {d} must be byte-identical"
            );
        }
        assert_eq!(
            json_at(first, "experiment").as_str(),
            Some("fig8"),
            "run response carries the experiment id"
        );
    }
    // Distinct seeds land in the fingerprint, so configs must not share
    // responses.
    for d in 1..DISTINCT {
        assert_ne!(
            by_config[0][0].body, by_config[d][0].body,
            "distinct configs must not coalesce"
        );
    }

    // Exactly one execution per fingerprint; every duplicate was either
    // a follower on the flight or a cache hit — never a re-run.
    assert_eq!(metric(addr, "service.runs_executed"), DISTINCT as u64);
    assert_eq!(
        metric(addr, "service.cache_hits") + metric(addr, "service.coalesced"),
        (DISTINCT * (DUPLICATES - 1)) as u64
    );
    assert_eq!(metric(addr, "service.run_failures"), 0);
    assert_eq!(
        metric(addr, "service.shed"),
        0,
        "queue was large enough: nothing shed"
    );

    server.shutdown().expect("clean shutdown");
}

/// One worker, a queue of two, and a 32-connection burst: the excess is
/// shed with 503 + `Retry-After`, nothing hangs, nothing is dropped
/// without an answer, and every accepted request completes with the
/// same 200 bytes.
#[test]
fn full_queue_burst_sheds_while_accepted_requests_complete() {
    const CLIENTS: usize = 32;

    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 2,
        retry_after_s: 7,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // One shared fingerprint: a deliberately heavy run so the
                // single worker is still busy when the burst lands.
                run(
                    addr,
                    "{\"experiment\": \"fig8\", \"ops\": 400000, \"seed\": 41}",
                )
                .expect("every connection is answered, shed or not")
            })
        })
        .collect();
    let replies: Vec<Reply> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread survives"))
        .collect();

    let ok: Vec<&Reply> = replies.iter().filter(|r| r.status == 200).collect();
    let shed: Vec<&Reply> = replies.iter().filter(|r| r.status == 503).collect();
    assert_eq!(
        ok.len() + shed.len(),
        CLIENTS,
        "only 200 or 503 may appear in a healthy overload: {replies:?}"
    );
    assert!(!ok.is_empty(), "the leader's run must complete");
    assert!(
        !shed.is_empty(),
        "a 32-burst against one worker and a 2-deep queue must shed"
    );
    for r in &shed {
        assert_eq!(
            r.retry_after,
            Some(7),
            "shed responses advertise Retry-After"
        );
        assert_eq!(json_at(&r.body, "error").as_str(), Some("overloaded"));
    }
    let first = &ok[0].body;
    for r in &ok[1..] {
        assert_eq!(&r.body, first, "accepted duplicates stay byte-identical");
    }

    assert_eq!(metric(addr, "service.shed"), shed.len() as u64);
    assert_eq!(metric(addr, "service.run_failures"), 0);
    assert!(
        metric(addr, "service.runs_executed") >= 1,
        "at least the leader executed"
    );
    // Every /run was parsed, shed or not, and so was each of the three
    // metric reads above and the one answering this.
    assert_eq!(metric(addr, "service.requests"), CLIENTS as u64 + 4);

    server.shutdown().expect("clean shutdown");
}

/// A `run_timeout` too large for the clock means no budget: coalesced
/// followers wait for the leader instead of overflowing their own wait
/// bound, and the leader's run is not cut short.
#[test]
fn a_run_timeout_past_the_clocks_range_still_coalesces() {
    const CLIENTS: usize = 4;

    let server = Server::start(ServeConfig {
        workers: CLIENTS,
        run_timeout: std::time::Duration::from_secs(10_000_000_000_000_000_000),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Heavy enough that the duplicates join the leader's flight.
                run(
                    addr,
                    "{\"experiment\": \"fig8\", \"ops\": 100000, \"seed\": 43}",
                )
                .expect("every client gets a response")
            })
        })
        .collect();
    let replies: Vec<Reply> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread survives"))
        .collect();

    for r in &replies {
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body, replies[0].body, "one shared response");
    }
    assert_eq!(metric(addr, "service.runs_executed"), 1);
    assert!(
        metric(addr, "service.coalesced") >= 1,
        "at least one duplicate took the follower path"
    );

    server.shutdown().expect("clean shutdown");
}
