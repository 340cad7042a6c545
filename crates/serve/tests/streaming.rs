//! Live trace streaming: `POST /run?stream=1` and `GET
//! /watch/<fingerprint>` fan the leader's §6 trace events out as
//! chunked NDJSON, and the stream's final line is byte-for-byte the
//! plain `/run` response — streamed-equals-unstreamed is the contract.

mod util;

use std::time::Duration;

use mcd_bench::checkpoint::CheckpointDir;
use mcd_bench::runner::RunConfig;
use mcd_serve::{ServeConfig, Server};
use util::{json_at, metric, run, KeepAlive};

/// The fan-out key a `/run` body maps to, computed the way the router
/// computes it. The final assertion in each test cross-checks this
/// against the `fingerprint` field the server actually reports, so the
/// two derivations cannot drift silently.
fn key_for(id: &str, ops: u64, seed: u64) -> String {
    let mut cfg = RunConfig::quick();
    cfg.ops = ops;
    cfg.seed = seed;
    format!("{};experiment={id}", CheckpointDir::fingerprint(&cfg))
}

/// A fresh streamed run emits event lines and ends with exactly the
/// body a plain `/run` returns; the cached replay of the same request
/// streams the identical final line again.
#[test]
fn streamed_final_line_equals_unstreamed_body() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let body = "{\"experiment\": \"fig8\", \"ops\": 60000, \"seed\": 11}";

    // Stream the *first* execution: the connection is its own flight's
    // leader, so trace events flow into the room it subscribed to.
    let mut conn = KeepAlive::connect(addr).expect("connect");
    conn.send("POST", "/run?stream=1", body.as_bytes())
        .expect("send");
    let (status, lines) = conn.read_stream().expect("stream completes");
    assert_eq!(status, 200);
    assert!(
        lines.len() > 1,
        "a fresh run streams trace events before the final line, got {lines:?}"
    );
    for event in &lines[..lines.len() - 1] {
        // Event lines carry a label and the trace event.
        json_at(event, "label");
        json_at(event, "event");
    }
    let final_line = lines.last().expect("final line").clone();

    // The plain run replays from cache and must be the same bytes.
    let plain = run(addr, body).expect("plain run");
    assert_eq!(plain.status, 200);
    assert_eq!(
        final_line, plain.body,
        "streamed final line is the exact /run body"
    );

    // Streaming the now-cached request again still ends with those
    // bytes — a hit streams no events, just the final line.
    let mut replay = KeepAlive::connect(addr).expect("connect");
    replay
        .send("POST", "/run?stream=1", body.as_bytes())
        .expect("send");
    let (status, lines) = replay.read_stream().expect("replay stream");
    assert_eq!(status, 200);
    assert_eq!(lines.last(), Some(&plain.body), "cached replay, same bytes");

    let reported = json_at(&plain.body, "fingerprint");
    assert_eq!(reported.as_str(), Some(key_for("fig8", 60000, 11).as_str()));
    assert!(metric(addr, "streaming.streams_opened") >= 2);
    assert!(metric(addr, "streaming.stream_events") >= 1);
    assert_eq!(
        metric(addr, "service.runs_executed"),
        1,
        "one execution fed both streams"
    );
    server.shutdown().expect("clean shutdown");
}

/// A watcher attaches to an in-flight run by fingerprint and tails it
/// to the end: events, then a final line equal to the runner's own
/// response body.
#[test]
fn watcher_tails_an_in_flight_run_to_the_same_final_line() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let body = "{\"experiment\": \"fig8\", \"ops\": 800000, \"seed\": 42}";
    let key = key_for("fig8", 800000, 42);

    // Launch the run but do not read its reply yet — it is in flight.
    let mut runner = KeepAlive::connect(addr).expect("runner connect");
    runner
        .send("POST", "/run", body.as_bytes())
        .expect("launch");

    // Attach by fingerprint. 404 means the flight has not opened its
    // room yet (the job may still be in the queue); keep knocking.
    let mut watcher = KeepAlive::connect(addr).expect("watcher connect");
    let mut tail = None;
    for _ in 0..4000 {
        watcher
            .send("GET", &format!("/watch/{key}"), b"")
            .expect("watch");
        let (status, lines) = watcher.read_stream().expect("watch reply");
        if status == 200 {
            tail = Some(lines);
            break;
        }
        assert_eq!(status, 404, "watch either attaches or 404s");
        std::thread::sleep(Duration::from_millis(5));
    }
    let tail = tail.expect("watcher attaches while the run is in flight");

    let reply = runner.read_reply().expect("runner reply");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        tail.last(),
        Some(&reply.body),
        "watcher's final line is the runner's exact response body"
    );
    for event in &tail[..tail.len() - 1] {
        // Tailed lines are labeled trace events.
        json_at(event, "label");
        json_at(event, "event");
    }
    assert_eq!(
        json_at(&reply.body, "fingerprint").as_str(),
        Some(key.as_str()),
        "the advertised fingerprint is the watchable key"
    );
    assert!(metric(addr, "streaming.streams_opened") >= 1);
    server.shutdown().expect("clean shutdown");
}

/// A subscriber that negotiates `Accept: application/x-mcdt` receives
/// the same stream as CRC'd binary frames: decodable event frames, then
/// a meta frame whose text is byte-for-byte the plain `/run` body.
#[test]
fn binary_stream_decodes_to_the_same_final_body() {
    use mcd_trace::{decode_frame, StreamFrame};

    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let body = "{\"experiment\": \"fig8\", \"ops\": 60000, \"seed\": 12}";

    let mut conn = KeepAlive::connect(addr).expect("connect");
    conn.send_accept(
        "POST",
        "/run?stream=1",
        "application/x-mcdt",
        body.as_bytes(),
    )
    .expect("send");
    let (status, wire, content_type) = conn.read_stream_raw().expect("stream completes");
    assert_eq!(status, 200);
    assert_eq!(
        content_type.as_deref(),
        Some("application/x-mcdt"),
        "binary streams advertise their media type"
    );

    // The wire is a concatenation of self-contained frames; walk it.
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < wire.len() {
        let (frame, used) = decode_frame(&wire[pos..])
            .unwrap_or_else(|e| panic!("undecodable frame at offset {pos}: {e}"));
        frames.push(frame);
        pos += used;
    }
    assert_eq!(pos, wire.len(), "no trailing garbage after the frames");
    assert!(frames.len() > 1, "a fresh run streams event frames");
    let (events, metas): (Vec<_>, Vec<_>) = frames
        .iter()
        .partition(|f| matches!(f, StreamFrame::Event { .. }));
    assert!(!events.is_empty(), "event frames precede the final meta");
    for f in &events {
        let StreamFrame::Event { label, .. } = f else {
            unreachable!()
        };
        assert!(!label.is_empty(), "event frames carry the run label");
    }
    assert_eq!(metas.len(), 1, "exactly one final meta frame");
    let StreamFrame::Meta { line } = metas[0] else {
        unreachable!()
    };

    // The meta frame's text is the exact plain /run body.
    let plain = run(addr, body).expect("plain run");
    assert_eq!(plain.status, 200);
    assert_eq!(format!("{line}\n"), plain.body, "meta frame is the body");

    assert!(
        metric(addr, "streaming.stream_frames") >= 1,
        "frame counter moved"
    );
    assert_eq!(metric(addr, "service.runs_executed"), 1);
    server.shutdown().expect("clean shutdown");
}

/// Watching a fingerprint with no active flight answers 404 without
/// giving up the connection.
#[test]
fn watching_an_inactive_fingerprint_answers_404() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    let mut conn = KeepAlive::connect(addr).expect("connect");
    conn.send("GET", "/watch/no-such-fingerprint", b"")
        .expect("watch");
    let (status, lines) = conn.read_stream().expect("404 reply");
    assert_eq!(status, 404);
    assert!(lines.concat().contains("no-active-flight"), "got {lines:?}");
    // The connection survives the miss.
    let reply = conn
        .exchange("GET", "/healthz", b"")
        .expect("reuse after 404");
    assert_eq!(reply.status, 200);
    server.shutdown().expect("clean shutdown");
}

/// A subscriber that disconnects mid-stream is unregistered by the
/// event loop's teardown: the run completes for everyone else and no
/// fan-out registration leaks.
#[test]
fn mid_stream_disconnect_leaks_no_registrations() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let body = "{\"experiment\": \"fig8\", \"ops\": 800000, \"seed\": 43}";

    // A streaming runner that walks away: send the request, give the
    // flight a moment to start, then drop the socket mid-stream.
    {
        let mut quitter = KeepAlive::connect(addr).expect("connect");
        quitter
            .send("POST", "/run?stream=1", body.as_bytes())
            .expect("launch streamed run");
        std::thread::sleep(Duration::from_millis(150));
    } // socket closed here, stream still in flight

    // The flight itself is unaffected: a plain request for the same
    // work joins it (or replays the cache) and completes normally.
    let reply = run(addr, body).expect("flight survives the disconnect");
    assert_eq!(reply.status, 200, "{}", reply.body);

    // Give the event loop a beat to process the EOF, then confirm the
    // registry gauges drained to zero.
    let mut cleaned = false;
    for _ in 0..100 {
        if metric(addr, "streaming.stream_subscribers") == 0
            && metric(addr, "streaming.stream_rooms") == 0
        {
            cleaned = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(cleaned, "disconnected subscriber must be unregistered");
    assert_eq!(metric(addr, "service.runs_executed"), 1);
    server.shutdown().expect("clean shutdown");
}
