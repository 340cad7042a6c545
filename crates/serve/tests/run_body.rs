//! `/run` bodies are read by the strict JSON reader: each class of body
//! the strict rules refuse gets a 400 `config-invalid` over a real
//! socket, and the server keeps answering afterwards; a `\u` escape is
//! decoded, so an escaped id runs the experiment it spells.

mod util;

use mcd_serve::http::MAX_BODY;
use mcd_serve::{ServeConfig, Server};
use util::{json_at, metric, request, run};

/// Sends `body` to `/run`, expects a 400 `config-invalid` whose message
/// contains `why`, then checks the same server still runs a request.
fn refused(body: &[u8], why: &str) {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    let reply = request(addr, "POST", "/run", body).expect("bad body answered");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert_eq!(
        json_at(&reply.body, "error").as_str(),
        Some("config-invalid")
    );
    let message = json_at(&reply.body, "message");
    let message = message.as_str().expect("message is a string");
    assert!(message.contains(why), "{message:?} does not say {why:?}");

    let ok = run(addr, "{\"experiment\": \"table1\"}").expect("server still answers");
    assert_eq!(ok.status, 200, "{}", ok.body);
    assert_eq!(metric(addr, "service.runs_executed"), 1);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn a_duplicate_key_is_refused() {
    refused(
        br#"{"experiment": "fig9", "seed": 1, "seed": 2}"#,
        "duplicate key \"seed\"",
    );
}

#[test]
fn a_nested_value_is_refused() {
    refused(
        br#"{"experiment": "fig9", "opts": {"seed": 5}}"#,
        "unknown key \"opts\"",
    );
    refused(
        br#"{"experiment": "fig9", "seed": {"v": 5}}"#,
        "seed must be an unsigned integer",
    );
}

#[test]
fn trailing_bytes_are_refused() {
    refused(
        br#"{"experiment": "fig9"} trailing garbage"#,
        "trailing bytes",
    );
}

#[test]
fn a_number_outside_the_json_grammar_is_refused() {
    refused(
        br#"{"experiment": "fig9", "seed": +5}"#,
        "expected a JSON value",
    );
}

#[test]
fn an_unknown_key_is_refused_by_name() {
    refused(
        br#"{"experiment": "fig9", "sede": 5}"#,
        "unknown key \"sede\"",
    );
}

#[test]
fn a_max_body_of_open_brackets_is_refused() {
    refused(&[b'['; MAX_BODY], "nesting deeper than");
}

#[test]
fn a_unicode_escape_is_decoded() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    let escaped = run(addr, r#"{"experiment": "fig\u0039", "ops": 4000}"#).expect("run");
    assert_eq!(escaped.status, 200, "{}", escaped.body);
    assert_eq!(json_at(&escaped.body, "experiment").as_str(), Some("fig9"));
    // The same configuration spelled plainly is a cache hit on the same
    // fingerprint, with the same bytes.
    let plain = run(addr, r#"{"experiment": "fig9", "ops": 4000}"#).expect("run");
    assert_eq!(plain.body, escaped.body);
    assert_eq!(metric(addr, "service.runs_executed"), 1);
    assert_eq!(metric(addr, "service.cache_hits"), 1);
    server.shutdown().expect("clean shutdown");
}
