//! Request routing and the `/run` execution path.
//!
//! The `/run` pipeline, in order:
//!
//! 1. **Validate** the JSON body against the experiment registry and the
//!    [`RunError`] taxonomy (unknown ids and bad knobs are 400s before
//!    any work happens).
//! 2. **Cache**: the request fingerprint ([`CheckpointDir::fingerprint`]
//!    + experiment id) is looked up in the bounded result cache.
//! 3. **Coalesce**: on a miss, join the flight for the fingerprint. One
//!    request leads and executes; concurrent duplicates follow and wait
//!    for the leader's bytes.
//! 4. **Execute** (leader only): the run goes through
//!    [`mcd_bench::parallel::isolated`] on the pool worker itself —
//!    panic isolation, a per-attempt wall-clock budget that stops the
//!    simulations at their next chunk, one retry for transient failures
//!    — on a fresh per-request [`RunSet`], so its totals attribute
//!    cleanly under concurrency and reports stay deterministic. The
//!    record is [`experiments::complete`]'s, exactly as `repro` builds
//!    it.
//! 5. **Publish**: the leader fills the cache, then publishes one shared
//!    response to every follower. Duplicates are byte-identical because
//!    they are literally the same buffer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcd_bench::checkpoint::{code_fingerprint, CheckpointDir, CompletedRun};
use mcd_bench::error::RunError;
use mcd_bench::experiments;
use mcd_bench::parallel::isolated;
use mcd_bench::runner::{ControllerActivity, EventTap, RunConfig, RunSet, RunStats};
use mcd_sim::trace::TraceEvent;
use mcd_telemetry::prometheus::CONTENT_TYPE;
use mcd_trace::json::{self, Value};
use mcd_trace::{encode_event_frame, encode_meta_frame};

use crate::cache::{CachedRun, ResultCache};
use crate::coalesce::{Coalescer, Ticket};
use crate::http::{json_escape, Request, Response};
use crate::metrics::{Endpoint, Outcome, ServeMetrics};
use crate::pool::PoolHandle;
use crate::stream::{Broadcast, LoopMsg, LoopSender, Room};

/// One dispatched `POST /run`: the parsed request plus the event-loop
/// token of the connection awaiting the answer. Workers pull these off
/// the bounded pool and reply with [`LoopMsg`]s.
pub struct Job {
    /// Event-loop token of the requesting connection.
    pub token: u64,
    /// The parsed request (body and query intact).
    pub request: Request,
}

/// Shared application state: everything a worker needs to answer a
/// request. Lives behind an `Arc`, one instance per server.
pub struct App {
    /// Service counters (`GET /metrics`).
    pub metrics: ServeMetrics,
    pub(crate) cache: ResultCache,
    coalescer: Coalescer<Response>,
    pool: PoolHandle<Job>,
    broadcast: Arc<Broadcast>,
    loop_tx: LoopSender,
    base_cfg: RunConfig,
    run_timeout: Duration,
    inner_jobs: usize,
    draining: AtomicBool,
    started: Instant,
}

impl App {
    /// Builds the application state around the worker pool and the
    /// worker→loop channel.
    pub(crate) fn new(
        cache_cap: usize,
        base_cfg: RunConfig,
        run_timeout: Duration,
        inner_jobs: usize,
        pool: PoolHandle<Job>,
        loop_tx: LoopSender,
    ) -> App {
        App {
            metrics: ServeMetrics::default(),
            cache: ResultCache::new(cache_cap),
            coalescer: Coalescer::default(),
            pool,
            broadcast: Arc::new(Broadcast::new(loop_tx.clone())),
            loop_tx,
            base_cfg,
            run_timeout,
            inner_jobs: inner_jobs.max(1),
            draining: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// Whether shutdown has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins graceful shutdown: flips the draining flag and tells the
    /// event loop to drop the listener and drain.
    pub fn trigger_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.loop_tx.send(LoopMsg::Shutdown);
    }

    /// The room registry (event-loop side: watch + teardown cleanup).
    pub(crate) fn broadcast(&self) -> &Broadcast {
        &self.broadcast
    }

    /// Attaches a watcher connection to an active flight's room.
    /// `binary` selects frame delivery (`Accept: application/x-mcdt`).
    pub(crate) fn watch(&self, key: &str, token: u64, binary: bool) -> bool {
        self.broadcast.watch(key, token, binary)
    }

    /// Queues a `/run` job on the worker pool. `Err(())` is the shed
    /// signal: queue full, or the pool is already draining.
    pub(crate) fn submit(&self, job: Job) -> Result<(), ()> {
        self.pool.submit(job).map_err(|_| ())
    }

    /// Answers the endpoints cheap enough to serve on the event-loop
    /// thread itself — everything except `POST /run`, which dispatches
    /// to the worker pool before this is ever consulted. Records wall
    /// time and outcome into the endpoint × outcome histograms.
    pub fn handle_inline(&self, req: &Request) -> Response {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let (response, outcome) = self.route(req);
        let micros = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.metrics
            .record_latency(Endpoint::of_path(&req.path), outcome, micros);
        response
    }

    fn route(&self, req: &Request) -> (Response, Outcome) {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => (self.healthz(), Outcome::Ok),
            ("GET", "/metrics") => (self.metrics_response(req), Outcome::Ok),
            ("GET", "/experiments") => (Response::json(200, experiments_json()), Outcome::Ok),
            ("POST", "/run") => (
                // The event loop dispatches /run to the pool; reaching
                // the inline path would be a routing bug, not a 404.
                Response::error(500, "internal", "run requests dispatch to the worker pool"),
                Outcome::Error,
            ),
            ("POST", "/shutdown") => {
                self.trigger_shutdown();
                (
                    Response::json(200, "{\"status\": \"draining\"}\n".to_string()),
                    Outcome::Ok,
                )
            }
            (_, "/healthz" | "/metrics" | "/experiments" | "/run" | "/shutdown") => (
                Response::error(
                    405,
                    "method-not-allowed",
                    "see README for the endpoint table",
                ),
                Outcome::Error,
            ),
            _ => (
                Response::error(404, "not-found", "unknown path"),
                Outcome::Error,
            ),
        }
    }

    /// `GET /healthz`: liveness plus enough identity to debug a fleet —
    /// uptime, the running binary's code fingerprint, and the worker
    /// pool's load at a glance.
    fn healthz(&self) -> Response {
        let status = if self.is_draining() { "draining" } else { "ok" };
        Response::json(
            200,
            format!(
                "{{\"status\": \"{status}\", \"uptime_s\": {:.3}, \
                 \"code_fingerprint\": \"{}\", \"queue_depth\": {}, \"in_flight\": {}}}\n",
                self.started.elapsed().as_secs_f64(),
                json_escape(&code_fingerprint()),
                self.pool.depth(),
                self.pool.in_flight(),
            ),
        )
    }

    /// `GET /metrics`: Prometheus text exposition by default,
    /// `?format=json` for the JSON schema. Both render from one
    /// [`MetricsSnapshot`](crate::metrics::MetricsSnapshot).
    fn metrics_response(&self, req: &Request) -> Response {
        // Fan-out gauges live in the broadcast registry; mirror them
        // into the metrics atomics so one snapshot covers everything.
        self.metrics
            .stream_subscribers
            .store(self.broadcast.subscribers() as u64, Ordering::Relaxed);
        self.metrics
            .stream_rooms
            .store(self.broadcast.rooms() as u64, Ordering::Relaxed);
        self.metrics
            .stream_events
            .store(self.broadcast.events_published(), Ordering::Relaxed);
        self.metrics
            .stream_frames
            .store(self.broadcast.frames_published(), Ordering::Relaxed);
        let snap = self.metrics.snapshot(
            self.pool.depth(),
            self.pool.in_flight(),
            self.cache.len(),
            self.is_draining(),
        );
        if req.query_has("format", "json") {
            Response::json(200, snap.to_json())
        } else {
            Response::text(200, snap.to_prometheus(), CONTENT_TYPE)
        }
    }

    /// Executes one dispatched `/run` job on a worker thread and replies
    /// to the event loop: a single [`LoopMsg::Done`] for a plain run, or
    /// a chunked stream (`?stream=1`) whose final line is the exact body
    /// a plain run would have returned — streamed-equals-unstreamed is
    /// by construction, not by comparison.
    pub fn execute_job(&self, job: Job) {
        let Job { token, request } = job;
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.run_requests.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let wants_stream = request.query_has("stream", "1");
        let binary = wants_stream && request.accepts_mcdt;
        let mut streaming = false;
        let (response, outcome) = match parse_run_request(&request.body, &self.base_cfg) {
            Ok((id, cfg)) => {
                let key = format!("{};experiment={id}", CheckpointDir::fingerprint(&cfg));
                if wants_stream {
                    // Subscribe before joining the flight so the
                    // leader's earliest events reach this connection,
                    // then commit to the chunked wire format.
                    self.broadcast.subscribe(&key, token, binary);
                    self.loop_tx.send(LoopMsg::StreamStart { token, binary });
                    streaming = true;
                }
                self.run_keyed(id, &cfg, &key)
            }
            // Parse errors answer as a plain response even under
            // ?stream=1: the stream head is only worth sending once a
            // run is actually going to happen.
            Err(e) => (error_response(&e), Outcome::Error),
        };
        let micros = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.metrics.record_latency(Endpoint::Run, outcome, micros);
        if streaming {
            let body = String::from_utf8_lossy(&response.body).into_owned();
            let final_chunk = if binary {
                encode_meta_frame(body.trim_end_matches('\n'))
            } else {
                body.into_bytes()
            };
            self.loop_tx.send(LoopMsg::StreamEnd {
                token,
                final_chunk: Some(final_chunk),
            });
        } else {
            self.loop_tx.send(LoopMsg::Done { token, response });
        }
    }

    /// The cache → coalesce → execute pipeline described in the module
    /// docs, addressed by a precomputed fingerprint key.
    fn run_keyed(&self, id: &'static str, cfg: &RunConfig, key: &str) -> (Response, Outcome) {
        if let Some(hit) = self.cache.get(key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return (render_run(&hit), Outcome::Hit);
        }
        match self.coalescer.join(key) {
            Ticket::Follower(flight) => {
                self.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                // The leader gets two attempts of `run_timeout` each
                // (`isolated` retries transient failures once); give it
                // that plus slack before giving up on the flight.
                let budget = self
                    .run_timeout
                    .saturating_mul(2)
                    .saturating_add(Duration::from_secs(5));
                match flight.wait(budget) {
                    Some(shared) => {
                        let outcome = if shared.status == 200 {
                            Outcome::Coalesced
                        } else {
                            Outcome::Error
                        };
                        ((*shared).clone(), outcome)
                    }
                    None => (
                        Response::error(
                            500,
                            "coalesce-timeout",
                            "the coalesced run did not complete in time",
                        ),
                        Outcome::Error,
                    ),
                }
            }
            Ticket::Leader => {
                // Double-checked cache read: between our miss above and
                // winning leadership here, a previous leader for this
                // key may have retired its flight — and it always fills
                // the cache *before* retiring, so a second look now
                // either hits (answer it, retire our flight) or this is
                // genuinely fresh work. Without this, a duplicate
                // landing exactly at leader completion re-runs the
                // simulation.
                if let Some(hit) = self.cache.get(key) {
                    self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                    let response = render_run(&hit);
                    self.coalescer.publish(key, Arc::new(response.clone()));
                    return (response, Outcome::Hit);
                }
                // Publish *whatever* happens, so followers never hang on
                // a leader that failed in an unforeseen way.
                let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.execute_as_leader(id, cfg, key)
                }))
                .unwrap_or_else(|_| {
                    Response::error(500, "internal", "run execution panicked outside isolation")
                });
                // Close the room before publishing the flight: every
                // event line is already queued FIFO ahead of the
                // watchers' final line, and followers can't send their
                // StreamEnd until publish wakes them — so finals always
                // trail the events they summarize.
                let body = String::from_utf8_lossy(&response.body);
                self.broadcast
                    .close(key, &body, &encode_meta_frame(body.trim_end_matches('\n')));
                self.coalescer.publish(key, Arc::new(response.clone()));
                let outcome = if response.status == 200 {
                    Outcome::Miss
                } else {
                    Outcome::Error
                };
                (response, outcome)
            }
        }
    }

    /// Executes the run, fills the cache on success, and renders the
    /// response the whole flight will share. Opens the fan-out room for
    /// the flight and taps the simulation's event stream into it; when
    /// nobody subscribes, the tap costs one relaxed atomic load per
    /// event and the report bytes are identical either way.
    fn execute_as_leader(&self, id: &'static str, cfg: &RunConfig, key: &str) -> Response {
        self.metrics.runs_executed.fetch_add(1, Ordering::Relaxed);
        let room = self.broadcast.open(key);
        let tap: Arc<dyn EventTap> = Arc::new(RoomTap {
            broadcast: Arc::clone(&self.broadcast),
            room,
        });
        match run_experiment(id, cfg, self.inner_jobs, self.run_timeout, Some(tap)) {
            Ok(bundle) => {
                self.metrics.absorb_run(bundle.stats, &bundle.activity);
                let entry = CachedRun {
                    id: id.to_string(),
                    key: key.to_string(),
                    run: bundle.run,
                };
                let response = render_run(&entry);
                // Cache before publishing: a request arriving after the
                // flight retires must hit the cache, never re-run.
                self.cache.put(key, entry);
                response
            }
            Err(e) => {
                self.metrics.run_failures.fetch_add(1, Ordering::Relaxed);
                error_response(&e)
            }
        }
    }
}

/// Bridges the simulation's per-event tap into a fan-out room: one
/// JSONL line per event, delivered to every subscriber via the loop
/// channel. `wants` is the per-event gate — a single relaxed load when
/// the room is empty, so unwatched runs keep the NullSink fast path.
struct RoomTap {
    broadcast: Arc<Broadcast>,
    room: Arc<Room>,
}

impl EventTap for RoomTap {
    fn wants(&self, _label: &str) -> bool {
        self.room.is_watched()
    }

    fn record(&self, label: &str, event: &TraceEvent) {
        let line = format!(
            "{{\"label\": \"{}\", \"event\": {}}}\n",
            json_escape(label),
            event.to_json()
        );
        let frame = encode_event_frame(label, event);
        self.broadcast.publish(&self.room, &line, &frame);
    }
}

/// A completed execution plus the totals its private run set gathered
/// (memoized baseline computes included, unlike the record).
#[derive(Debug)]
struct Bundle {
    run: CompletedRun,
    stats: RunStats,
    activity: ControllerActivity,
}

/// Runs `id` under `cfg` through [`isolated`]: panic isolation, a
/// wall-clock budget per attempt, one retry for transient failures. It
/// runs on the calling pool worker; an attempt over budget stops at its
/// next simulation chunk, and its private pool is joined before this
/// returns. Each execution gets a fresh [`RunSet`], so its totals are
/// this request's alone even when other requests run concurrently; the
/// record itself is built by [`experiments::complete`], the same rule
/// `repro` uses. `tap`, when given, observes every simulation event live
/// (streaming fan-out).
fn run_experiment(
    id: &'static str,
    cfg: &RunConfig,
    jobs: usize,
    timeout: Duration,
    tap: Option<Arc<dyn EventTap>>,
) -> Result<Bundle, RunError> {
    isolated(Some(timeout), || {
        let mut rs = RunSet::new(jobs);
        if let Some(tap) = tap.clone() {
            rs = rs.with_event_tap(tap);
        }
        Ok(Bundle {
            run: experiments::complete(&rs, id, cfg)?,
            stats: rs.stats(),
            activity: rs.activity(),
        })
    })
}

/// Renders the shared 200 body for a completed run: the checkpoint
/// record plus the report, addressed by fingerprint.
fn render_run(entry: &CachedRun) -> Response {
    Response::json(
        200,
        format!(
            "{{\"experiment\": \"{}\", \"fingerprint\": \"{}\", \"record\": {}, \"report\": \"{}\"}}\n",
            entry.id,
            json_escape(&entry.key),
            entry.run.record_json(&entry.id),
            json_escape(&entry.run.report),
        ),
    )
}

/// Maps the typed taxonomy onto HTTP statuses: caller errors are 4xx,
/// budget overruns 504, everything environmental 500.
fn error_response(e: &RunError) -> Response {
    let status = match e {
        RunError::Config(_) | RunError::Workload(_) => 400,
        RunError::Diverged { .. } => 422,
        RunError::Timeout { .. } => 504,
        RunError::Panicked(_) | RunError::Io { .. } => 500,
    };
    Response::error(status, e.kind(), &e.to_string())
}

/// `GET /experiments`: the registry with each experiment's kind.
fn experiments_json() -> String {
    let rows: Vec<String> = experiments::ALL
        .iter()
        .map(|id| {
            let kind = experiments::kind(id)
                .expect("registry ids classify")
                .label();
            format!("  {{\"id\": \"{id}\", \"kind\": \"{kind}\"}}")
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Validates a `/run` body into an experiment id and run configuration.
/// The body is one JSON object, read strictly by [`mcd_trace::json`]:
/// `experiment` (required; `headline` aliases `fig9`) plus optional
/// `ops`, `seed`, `pid_interval`, `q_ref_scale` overrides on the
/// server's base configuration — the exact knobs the checkpoint
/// fingerprint covers. Any other key is refused by name, so a typo
/// never silently runs the base configuration.
fn parse_run_request(body: &[u8], base: &RunConfig) -> Result<(&'static str, RunConfig), RunError> {
    let bad = RunError::Config;
    let text = std::str::from_utf8(body).map_err(|_| bad("request body is not UTF-8".into()))?;
    let Value::Obj(members) = json::parse(text).map_err(|e| bad(format!("request body: {e}")))?
    else {
        return Err(bad("request body must be a JSON object".into()));
    };
    let mut requested = None;
    let mut cfg = base.clone();
    for (key, v) in &members {
        let string = || {
            v.as_str()
                .ok_or_else(|| bad(format!("{key} must be a string")))
        };
        let uint = || (v.as_u64()).ok_or_else(|| bad(format!("{key} must be an unsigned integer")));
        let positive = || {
            (v.as_u64().filter(|&n| n > 0))
                .ok_or_else(|| bad(format!("{key} must be a positive integer")))
        };
        match key.as_str() {
            "experiment" => requested = Some(string()?),
            "ops" => cfg.ops = positive()?,
            "seed" => cfg.seed = uint()?,
            "pid_interval" => cfg.pid_interval = positive()?,
            "q_ref_scale" => {
                cfg.q_ref_scale = (v.as_f64().filter(|s| s.is_finite() && *s > 0.0))
                    .ok_or_else(|| bad("q_ref_scale must be a positive finite number".into()))?
            }
            other => {
                return Err(bad(format!(
                    "unknown key {other:?}; a /run body takes experiment, ops, seed, \
                     pid_interval and q_ref_scale"
                )))
            }
        }
    }
    let requested = requested.ok_or_else(|| bad("missing \"experiment\" field".into()))?;
    let id = experiments::resolve(requested)
        .ok_or_else(|| bad(format!("unknown experiment id {requested}")))?;
    Ok((id, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> RunConfig {
        RunConfig::quick()
    }

    #[test]
    fn parse_accepts_overrides_and_alias() {
        let (id, cfg) = parse_run_request(
            br#"{"experiment": "headline", "ops": 5000, "seed": 9, "pid_interval": 2000, "q_ref_scale": 1.5}"#,
            &base(),
        )
        .expect("valid request");
        assert_eq!(id, "fig9");
        assert_eq!(cfg.ops, 5000);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.pid_interval, 2000);
        assert!((cfg.q_ref_scale - 1.5).abs() < 1e-12);
    }

    #[test]
    fn parse_defaults_come_from_the_base_config() {
        let (id, cfg) = parse_run_request(br#"{"experiment": "table1"}"#, &base()).expect("valid");
        assert_eq!(id, "table1");
        assert_eq!(cfg.ops, base().ops);
        assert_eq!(cfg.seed, base().seed);
    }

    #[test]
    fn parse_rejects_bad_requests_with_config_errors() {
        let cases: [&[u8]; 13] = [
            b"",
            b"{\"ops\": 100}",
            br#"{"experiment": "nope"}"#,
            br#"{"experiment": "fig9", "ops": 0}"#,
            br#"{"experiment": "fig9", "ops": -5}"#,
            br#"{"experiment": "fig9", "pid_interval": 0}"#,
            br#"{"experiment": "fig9", "q_ref_scale": -1.0}"#,
            br#"{"experiment": "fig9", "seed": 1, "seed": 2}"#,
            br#"{"experiment": "fig9", "seed": {"v": 5}}"#,
            br#"{"experiment": "fig9"} trailing garbage"#,
            br#"["experiment", "fig9"]"#,
            br#"{"experiment": 9}"#,
            br#"{"experiment": "fig9", "seed": 05}"#,
        ];
        for body in cases {
            let err = parse_run_request(body, &base()).unwrap_err();
            assert_eq!(
                err.kind(),
                "config-invalid",
                "{:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn whitespace_before_a_colon_is_accepted() {
        let (id, cfg) =
            parse_run_request(br#"{"experiment" : "fig8", "seed" : 5}"#, &base()).expect("valid");
        assert_eq!((id, cfg.seed), ("fig8", 5));
    }

    #[test]
    fn unknown_keys_and_ids_are_named() {
        let err = parse_run_request(br#"{"experiment": "fig9", "sede": 5}"#, &base()).unwrap_err();
        assert!(err.to_string().contains("unknown key \"sede\""), "{err}");
        let err = parse_run_request(br#"{"experiment": "ops"}"#, &base()).unwrap_err();
        assert!(
            err.to_string().contains("unknown experiment id ops"),
            "{err}"
        );
    }

    /// Every `curl … /run … -d '<body>'` line in the README is a body
    /// the strict reader accepts, so the documented requests cannot
    /// drift from the rules.
    #[test]
    fn readme_run_bodies_are_accepted() {
        let bodies: Vec<&str> = include_str!("../../../README.md")
            .lines()
            .filter(|l| l.trim_start().starts_with("curl") && l.contains("/run"))
            .filter_map(|l| l.split_once("-d '")?.1.split_once('\'').map(|(b, _)| b))
            .collect();
        assert!(bodies.len() >= 3, "README /run examples: {bodies:?}");
        for body in bodies {
            parse_run_request(body.as_bytes(), &base())
                .unwrap_or_else(|e| panic!("README body {body} is refused: {e}"));
        }
    }

    #[test]
    fn error_statuses_follow_the_taxonomy() {
        assert_eq!(error_response(&RunError::Config("x".into())).status, 400);
        assert_eq!(error_response(&RunError::Workload("x".into())).status, 400);
        assert_eq!(
            error_response(&RunError::Timeout { limit_ms: 1 }).status,
            504
        );
        assert_eq!(error_response(&RunError::Panicked("x".into())).status, 500);
    }

    #[test]
    fn experiments_json_lists_the_whole_registry() {
        let json = experiments_json();
        for id in experiments::ALL {
            assert!(json.contains(&format!("\"id\": \"{id}\"")), "{id} missing");
        }
        assert!(json.contains("\"kind\": \"analysis\""));
        assert!(json.contains("\"kind\": \"simulation\""));
    }

    #[test]
    fn run_experiment_returns_typed_errors_for_bad_ids() {
        // Unknown ids are caught at parse time, but run_on also guards —
        // and its typed error must surface through the isolation layer.
        let err = run_experiment("bogus", &base(), 1, Duration::from_secs(30), None).unwrap_err();
        assert_eq!(err.kind(), "config-invalid");
    }

    #[test]
    fn analysis_experiment_executes_end_to_end() {
        let bundle =
            run_experiment("table1", &base(), 1, Duration::from_secs(30), None).expect("runs");
        assert_eq!(bundle.run.kind, "analysis");
        assert_eq!(bundle.stats.runs, 0, "analysis runs no simulations");
        assert!(bundle.run.report.contains("Table 1"));

        // A simulation experiment's record counts what `complete` counts:
        // its own runs, not the memoized baseline computes it triggered —
        // those reach only the totals that feed /metrics.
        let cfg = base().with_ops(20_000);
        let bundle =
            run_experiment("table2", &cfg, 1, Duration::from_secs(60), None).expect("runs");
        let direct = experiments::complete(&RunSet::new(1), "table2", &cfg).expect("runs");
        let counters = |r: &CompletedRun| {
            (
                r.kind.clone(),
                r.runs,
                r.instructions,
                r.baseline_requests,
                r.events_processed,
                r.cycles_skipped,
            )
        };
        assert_eq!(counters(&bundle.run), counters(&direct));
        assert_eq!(bundle.run.report, direct.report);
        assert_eq!(
            bundle.run.runs, 0,
            "table2 simulates only memoized baselines"
        );
        assert!(
            bundle.stats.runs > 0,
            "the baseline computes count in the totals"
        );
    }
}
