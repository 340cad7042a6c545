//! Connection-path suite for the readiness-based event loop
//! (DESIGN.md §11): keep-alive reuse, pipelining, partial reads,
//! header bounds, deadlines, and the shed-under-keep-alive contract.

mod util;

use std::io::Read;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use mcd_serve::{ServeConfig, Server};
use util::{json_at, metric, KeepAlive};

/// One connection, many requests: HTTP/1.1 defaults to keep-alive, the
/// server honors it, and the reuse counter proves the requests really
/// shared the socket. 10 requests over 1 connection is a 10x reuse
/// ratio — well past the 5x the load gate demands.
#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    let mut conn = KeepAlive::connect(addr).expect("connect");
    for i in 0..10 {
        let reply = conn
            .exchange("GET", "/healthz", b"")
            .unwrap_or_else(|e| panic!("request {i} on a reused connection: {e}"));
        assert_eq!(reply.status, 200);
        assert!(!reply.closing, "keep-alive responses must not close");
        assert_eq!(json_at(&reply.body, "status").as_str(), Some("ok"));
    }
    // A second endpoint on the same socket, for good measure.
    let reply = conn.exchange("GET", "/experiments", b"").expect("reused");
    assert_eq!(reply.status, 200);

    // The scrape connection counts itself, so 10 requests cost 2
    // accepts total: this keep-alive socket plus the metrics probe.
    assert_eq!(
        metric(addr, "service.accepted"),
        2,
        "one connection besides the scrape"
    );
    assert!(
        metric(addr, "event_loop.keepalive_reuses") >= 10,
        "reuse counter tracks second-and-later requests"
    );

    // An explicit Connection: close is honored: response says close,
    // then the socket drains to EOF.
    conn.send_raw(
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    )
    .expect("send");
    let last = conn.read_reply().expect("final reply");
    assert!(last.closing, "Connection: close must be echoed");
    let mut rest = Vec::new();
    conn.stream()
        .try_clone()
        .unwrap()
        .read_to_end(&mut rest)
        .expect("EOF");
    assert!(rest.is_empty(), "no bytes after the closing response");

    server.shutdown().expect("clean shutdown");
}

/// Several requests written in one TCP segment come back as several
/// responses, in order — pipelining over the single read buffer.
#[test]
fn pipelined_requests_in_one_segment_answer_in_order() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    let mut conn = KeepAlive::connect(addr).expect("connect");
    let one = b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n";
    let two = b"GET /experiments HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n";
    let run_body = "{\"experiment\": \"table1\", \"ops\": 9}";
    let run = format!(
        "POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{run_body}",
        run_body.len()
    );
    let mut wire = Vec::new();
    wire.extend_from_slice(one);
    wire.extend_from_slice(run.as_bytes());
    wire.extend_from_slice(two);
    conn.send_raw(&wire).expect("pipelined write");

    let first = conn.read_reply().expect("healthz");
    assert_eq!(first.status, 200);
    assert_eq!(json_at(&first.body, "status").as_str(), Some("ok"));
    let second = conn.read_reply().expect("run");
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(
        json_at(&second.body, "experiment").as_str(),
        Some("table1"),
        "pipelined run answers in position two"
    );
    let third = conn.read_reply().expect("experiments");
    assert_eq!(third.status, 200);
    json_at(&third.body, "0.kind");

    // This socket plus the metrics scrape itself.
    assert_eq!(metric(addr, "service.accepted"), 2);
    server.shutdown().expect("clean shutdown");
}

/// A request trickled in byte-sized writes across many readiness events
/// still parses into exactly one request with one response.
#[test]
fn partial_reads_across_readiness_events_reassemble() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    let mut conn = KeepAlive::connect(addr).expect("connect");
    let wire =
        b"POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: 24\r\n\r\n{\"experiment\": \"table1\"}";
    for piece in wire.chunks(7) {
        conn.send_raw(piece).expect("trickled write");
        std::thread::sleep(Duration::from_millis(5));
    }
    let reply = conn.read_reply().expect("reassembled request answers");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(json_at(&reply.body, "experiment").as_str(), Some("table1"));
    assert_eq!(
        metric(addr, "service.run_requests"),
        1,
        "one request, not one per fragment"
    );
    server.shutdown().expect("clean shutdown");
}

/// A header section past the bound answers 431 and closes; the
/// connection is not left parsing garbage.
#[test]
fn oversized_headers_answer_431_and_close() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    let mut conn = KeepAlive::connect(addr).expect("connect");
    let mut wire = b"GET /healthz HTTP/1.1\r\nHost: t\r\n".to_vec();
    // One colossal header line blows the per-line bound.
    wire.extend_from_slice(b"X-Padding: ");
    wire.extend(std::iter::repeat_n(b'a', 64 * 1024));
    wire.extend_from_slice(b"\r\n\r\n");
    conn.send_raw(&wire).expect("oversized send");
    let reply = conn.read_reply().expect("431 still arrives");
    assert_eq!(reply.status, 431, "{}", reply.body);
    assert!(reply.closing, "parse errors close the connection");
    server.shutdown().expect("clean shutdown");
}

/// An idle keep-alive connection is closed by the idle deadline, and the
/// close is silent (no response bytes — there was no request).
#[test]
fn idle_deadline_closes_quiet_connections() {
    let server = Server::start(ServeConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let mut conn = KeepAlive::connect(addr).expect("connect");
    // Prove the connection works, then go quiet.
    let reply = conn
        .exchange("GET", "/healthz", b"")
        .expect("first request");
    assert_eq!(reply.status, 200);

    let mut rest = Vec::new();
    conn.stream()
        .try_clone()
        .unwrap()
        .read_to_end(&mut rest)
        .expect("server closes the idle connection");
    assert!(
        rest.is_empty(),
        "idle close is silent, got {:?}",
        String::from_utf8_lossy(&rest)
    );
    assert!(metric(addr, "event_loop.deadline_closes") >= 1);
    server.shutdown().expect("clean shutdown");
}

/// A request that stalls mid-headers hits the read deadline and is
/// answered 408 — the slow-loris defense pays a buffer and a timer,
/// never a thread.
#[test]
fn stalled_request_answers_408_on_the_read_deadline() {
    let server = Server::start(ServeConfig {
        read_timeout: Duration::from_millis(150),
        idle_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let mut conn = KeepAlive::connect(addr).expect("connect");
    conn.send_raw(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
        .expect("partial request");
    let reply = conn.read_reply().expect("408 arrives despite the stall");
    assert_eq!(reply.status, 408, "{}", reply.body);
    assert!(reply.closing);
    assert!(metric(addr, "event_loop.deadline_closes") >= 1);
    server.shutdown().expect("clean shutdown");
}

/// The PR 4 regression, on the nonblocking path: a shed (503) issued on
/// a keep-alive connection must advertise `Connection: close`, the full
/// response must survive (no RST eating it), and the connection must
/// actually close afterwards.
#[test]
fn shed_under_keep_alive_closes_and_the_503_survives() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        retry_after_s: 3,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // The keep-alive client first proves its connection is reusable.
    let mut conn = KeepAlive::connect(addr).expect("connect");
    let probe = conn.exchange("GET", "/healthz", b"").expect("probe");
    assert_eq!(probe.status, 200);
    assert!(!probe.closing, "connection starts out reusable");

    // A flood of one identical heavy run saturates the server: the
    // single worker leads the flight for its whole (long) execution,
    // one follower occupies the only queue slot, and everything else
    // is refused — so the queue stays full for the entire run.
    let barrier = Arc::new(Barrier::new(17));
    let busy: Vec<_> = (0..16)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                util::run(
                    addr,
                    "{\"experiment\": \"fig8\", \"ops\": 2000000, \"seed\": 41}",
                )
                .expect("flood run answered")
            })
        })
        .collect();
    barrier.wait();
    // Give the flood a head start so the worker and queue slot are
    // taken before the probe arrives.
    std::thread::sleep(Duration::from_millis(50));

    // The keep-alive client now gets shed — over a connection it
    // expected to reuse. (A retry loop with distinct seeds covers a
    // tardy flood; during the leader's run every attempt must shed.)
    let mut shed = None;
    for i in 0..20 {
        let reply = conn
            .exchange(
                "POST",
                "/run",
                format!(
                    "{{\"experiment\": \"fig8\", \"ops\": 6000, \"seed\": {}}}",
                    100 + i
                )
                .as_bytes(),
            )
            .expect("shed response must arrive intact — the RST trap");
        if reply.status == 503 {
            shed = Some(reply);
            break;
        }
        assert_eq!(reply.status, 200);
        std::thread::sleep(Duration::from_millis(10));
    }
    let shed = shed.expect("a saturated 1-deep queue must shed the probe");
    assert_eq!(shed.retry_after, Some(3), "Retry-After advertised");
    assert_eq!(json_at(&shed.body, "error").as_str(), Some("overloaded"));
    assert!(
        shed.closing,
        "shed on a keep-alive connection must answer Connection: close"
    );
    // And the close is real: the socket drains to EOF, no further
    // requests are served on it.
    let mut rest = Vec::new();
    conn.stream()
        .try_clone()
        .unwrap()
        .read_to_end(&mut rest)
        .expect("socket closes after shed");
    assert!(rest.is_empty(), "nothing after the 503");

    let mut ok = 0;
    for b in busy {
        let reply = b.join().expect("flood thread");
        match reply.status {
            200 => ok += 1,
            503 => assert_eq!(reply.retry_after, Some(3), "{}", reply.body),
            other => panic!("flood reply {other}: {}", reply.body),
        }
    }
    assert!(ok >= 1, "the admitted flight completes for its clients");
    assert!(metric(addr, "service.shed") >= 1);
    server.shutdown().expect("clean shutdown");
}
