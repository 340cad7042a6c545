//! Soak test: sustained mixed traffic against one server instance.
//!
//! Ignored by default (CI's `serve` job runs it explicitly with
//! `-- --ignored`); `MCD_SOAK_SECS` overrides the 30 s default. The
//! invariants, held for the whole soak:
//!
//! - every response is 200 or 503 (shed) — anything else fails the run;
//! - for each distinct run configuration, every 200 body observed over
//!   the soak carries identical simulation content (coalescing, cache
//!   and deterministic simulation end to end). Only the wall-clock
//!   fields (`wall_s`, `simulated_mips`, `run_wall_p50_s`,
//!   `run_wall_p99_s`) are dropped before comparing: the small cache
//!   forces evicted fingerprints to re-execute, and a re-execution
//!   legitimately takes a different wall time;
//! - the server still drains cleanly afterwards.

mod util;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mcd_serve::{ServeConfig, Server};
use mcd_trace::json::{self, Value};
use util::request;

/// Tiny deterministic generator so client schedules are reproducible
/// without a rand dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The deterministic portion of a `/run` response body: the parsed
/// body with the record's wall-clock measurements removed.
fn canonical_body(body: &str) -> Value {
    const WALL: [&str; 4] = [
        "wall_s",
        "simulated_mips",
        "run_wall_p50_s",
        "run_wall_p99_s",
    ];
    let Ok(Value::Obj(mut members)) = json::parse(body) else {
        panic!("a /run body is a JSON object: {body}");
    };
    if let Some((_, Value::Obj(record))) = members.iter_mut().find(|(k, _)| k == "record") {
        record.retain(|(k, _)| !WALL.contains(&k.as_str()));
    }
    Value::Obj(members)
}

#[test]
#[ignore = "soak: run explicitly via CI's serve job (-- --ignored)"]
fn sustained_mixed_traffic_stays_sound() {
    let secs: u64 = std::env::var("MCD_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);

    let server = Server::start(ServeConfig {
        workers: 4,
        queue_cap: 8,
        cache_cap: 6, // small: force eviction + re-execution during the soak
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // The run pool: enough distinct fingerprints to overflow the cache,
    // cheap enough to cycle many times in 30 s.
    let run_bodies: Vec<String> = (0..10)
        .map(|i| {
            format!(
                "{{\"experiment\": \"fig8\", \"ops\": {}, \"seed\": {i}}}",
                4000 + 500 * i
            )
        })
        .collect();
    let canonical: Arc<Mutex<HashMap<String, Value>>> = Arc::new(Mutex::new(HashMap::new()));
    let deadline = Instant::now() + Duration::from_secs(secs);

    let clients: Vec<_> = (0..8u64)
        .map(|c| {
            let run_bodies = run_bodies.clone();
            let canonical = Arc::clone(&canonical);
            std::thread::spawn(move || {
                let mut rng = Lcg(0x9E3779B97F4A7C15 ^ c);
                let mut sent = 0u64;
                while Instant::now() < deadline {
                    match rng.next() % 10 {
                        // Mostly runs, with observability endpoints mixed in.
                        0 => {
                            let r = request(addr, "GET", "/metrics", b"").expect("metrics");
                            assert_eq!(r.status, 200, "{}", r.body);
                        }
                        1 => {
                            let r = request(addr, "GET", "/healthz", b"").expect("healthz");
                            assert_eq!(r.status, 200, "{}", r.body);
                        }
                        2 => {
                            let r = request(addr, "GET", "/experiments", b"").expect("registry");
                            assert_eq!(r.status, 200, "{}", r.body);
                        }
                        _ => {
                            let body = &run_bodies[(rng.next() % run_bodies.len() as u64) as usize];
                            let r = request(addr, "POST", "/run", body.as_bytes()).expect("run");
                            assert!(
                                r.status == 200 || r.status == 503,
                                "soak saw status {} for {body}: {}",
                                r.status,
                                r.body
                            );
                            if r.status == 200 {
                                let content = canonical_body(&r.body);
                                let mut seen = canonical.lock().expect("canon poisoned");
                                match seen.get(body) {
                                    None => {
                                        seen.insert(body.clone(), content);
                                    }
                                    Some(first) => assert_eq!(
                                        &content, first,
                                        "response divergence for {body} after {sent} requests"
                                    ),
                                }
                            }
                        }
                    }
                    sent += 1;
                }
                sent
            })
        })
        .collect();

    let total: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("soak client survives"))
        .sum();
    assert!(total > 0, "the soak must actually exercise the server");
    println!("soak: {total} requests over {secs}s");

    server
        .shutdown()
        .expect("server drains cleanly after the soak");
}
