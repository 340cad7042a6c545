//! The telemetry surface end to end: `GET /metrics` serves a
//! lint-clean Prometheus page by default, `?format=json` preserves the
//! JSON schema, and `GET /healthz` reports uptime, the code
//! fingerprint, and worker-pool load.

mod util;

use mcd_bench::checkpoint::code_fingerprint;
use mcd_serve::{ServeConfig, Server};
use mcd_telemetry::prometheus::{lint, CONTENT_TYPE};
use util::{json_at, metric, request, run};

#[test]
fn metrics_page_is_lint_clean_prometheus_with_latency_series() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    // Generate one of each interesting outcome: a miss (leader
    // execution), a cache hit, and some plain GETs.
    let body = "{\"experiment\": \"table1\", \"seed\": 3}";
    assert_eq!(run(addr, body).expect("run").status, 200);
    assert_eq!(run(addr, body).expect("run").status, 200);
    assert_eq!(
        request(addr, "GET", "/healthz", b"").expect("ok").status,
        200
    );

    let reply = request(addr, "GET", "/metrics", b"").expect("metrics answers");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.content_type.as_deref(), Some(CONTENT_TYPE));
    lint(reply.body.as_bytes()).unwrap_or_else(|e| panic!("lint failed: {e}\n{}", reply.body));

    assert!(reply
        .body
        .contains("# TYPE mcd_serve_request_seconds histogram"));
    assert!(
        reply
            .body
            .contains("mcd_serve_request_seconds_count{endpoint=\"run\",outcome=\"miss\"} 1"),
        "one leader execution recorded:\n{}",
        reply.body
    );
    assert!(
        reply
            .body
            .contains("mcd_serve_request_seconds_count{endpoint=\"run\",outcome=\"hit\"} 1"),
        "one cache hit recorded:\n{}",
        reply.body
    );
    assert!(reply.body.contains("mcd_serve_cache_hits_total 1"));
    assert!(reply.body.contains("mcd_serve_shed_total 0"));
    assert!(reply
        .body
        .contains("mcd_ctrl_relay_arms_total{domain=\"INT\"}"));

    server.shutdown().expect("clean shutdown");
}

#[test]
fn format_json_preserves_the_json_schema() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    assert_eq!(
        run(addr, "{\"experiment\": \"table1\", \"seed\": 4}")
            .expect("run")
            .status,
        200
    );

    let reply = request(addr, "GET", "/metrics?format=json", b"").expect("metrics answers");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.content_type.as_deref(), Some("application/json"));
    for field in [
        "accepted",
        "shed",
        "requests",
        "run_requests",
        "queue_depth",
    ] {
        assert!(
            json_at(&reply.body, &format!("service.{field}"))
                .as_u64()
                .is_some(),
            "field {field} missing from {}",
            reply.body
        );
    }
    // The other sections are there too (`json_at` panics on a missing path).
    json_at(&reply.body, "simulation.runs");
    json_at(&reply.body, "controller_activity.0.relay_fires");
    // The util helper reads the same JSON view; both agree.
    assert_eq!(metric(addr, "service.runs_executed"), 1);

    server.shutdown().expect("clean shutdown");
}

#[test]
fn healthz_reports_uptime_fingerprint_and_pool_load() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    let reply = request(addr, "GET", "/healthz", b"").expect("healthz answers");
    assert_eq!(reply.status, 200);
    assert_eq!(json_at(&reply.body, "status").as_str(), Some("ok"));
    assert_eq!(
        json_at(&reply.body, "code_fingerprint").as_str(),
        Some(code_fingerprint().as_str()),
        "healthz names the running binary"
    );
    let uptime = json_at(&reply.body, "uptime_s")
        .as_f64()
        .expect("uptime is a number");
    assert!(uptime >= 0.0, "uptime is non-negative: {uptime}");
    assert!(json_at(&reply.body, "queue_depth").as_u64().is_some());
    assert!(json_at(&reply.body, "in_flight").as_u64().is_some());

    server.shutdown().expect("clean shutdown");
}
