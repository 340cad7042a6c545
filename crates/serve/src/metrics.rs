//! Service counters and latency distributions surfaced by `GET /metrics`.
//!
//! Three layers in one response: the *service* counters (accepts, sheds,
//! coalesced followers, cache hits, executions, failures — everything
//! the load-shedding and coalescing machinery decides), the per-endpoint
//! per-outcome *latency histograms*, and the *simulation* counters from
//! the observability layer (DESIGN.md §6): runs (memoized baseline
//! computes included), instructions, baseline requests, and the
//! per-domain controller-activity aggregate including mean reaction
//! time, folded in from every run set the service has executed.
//!
//! Rendering goes through one [`MetricsSnapshot`]: every counter is
//! loaded exactly once per request, and both the JSON and the Prometheus
//! renderer read from that same struct, so the two views of a single
//! scrape always agree with each other. The snapshot itself is *not* a
//! consistent cut — each atomic is loaded `Relaxed` and independently,
//! so a request landing mid-snapshot can make e.g. `requests` and
//! `run_requests` differ by an in-flight increment. That staleness is
//! bounded by the number of concurrently executing requests and is
//! harmless for monotonic counters scraped at second granularity, which
//! is why the service tolerates it instead of paying for a global lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mcd_bench::runner::{ControllerActivity, RunStats};
use mcd_telemetry::prometheus::PromText;
use mcd_telemetry::{Histogram, HistogramSnapshot};

/// Request endpoints tracked by the latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /run`.
    Run,
    /// `GET /experiments`.
    Experiments,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Healthz,
    /// `POST /shutdown`.
    Shutdown,
    /// Anything else (404s, wrong methods, shed connections).
    Other,
}

impl Endpoint {
    /// Every endpoint, in label order.
    pub const ALL: [Endpoint; 6] = [
        Endpoint::Run,
        Endpoint::Experiments,
        Endpoint::Metrics,
        Endpoint::Healthz,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    /// The endpoint a request path routes to (method-agnostic: a 405 on
    /// `/run` still counts against the run endpoint).
    pub fn of_path(path: &str) -> Endpoint {
        match path {
            "/run" => Endpoint::Run,
            "/experiments" => Endpoint::Experiments,
            "/metrics" => Endpoint::Metrics,
            "/healthz" => Endpoint::Healthz,
            "/shutdown" => Endpoint::Shutdown,
            _ => Endpoint::Other,
        }
    }

    /// Prometheus label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Run => "run",
            Endpoint::Experiments => "experiments",
            Endpoint::Metrics => "metrics",
            Endpoint::Healthz => "healthz",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }
}

/// How a tracked request concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx on a non-`/run` endpoint.
    Ok,
    /// `/run` answered from the result cache.
    Hit,
    /// `/run` answered by another request's in-flight execution.
    Coalesced,
    /// `/run` executed as the flight leader.
    Miss,
    /// Connection answered 503 because the accept queue was full.
    Shed,
    /// Any 4xx/5xx conclusion.
    Error,
}

impl Outcome {
    /// Every outcome, in label order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Ok,
        Outcome::Hit,
        Outcome::Coalesced,
        Outcome::Miss,
        Outcome::Shed,
        Outcome::Error,
    ];

    /// Prometheus label value.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Hit => "hit",
            Outcome::Coalesced => "coalesced",
            Outcome::Miss => "miss",
            Outcome::Shed => "shed",
            Outcome::Error => "error",
        }
    }
}

/// All service counters. Every field is monotonic except the gauges
/// passed into [`ServeMetrics::snapshot`] at render time.
#[derive(Default)]
pub struct ServeMetrics {
    /// Connections accepted off the listener.
    pub accepted: AtomicU64,
    /// Connections answered 503 because the accept queue was full.
    pub shed: AtomicU64,
    /// Requests successfully parsed.
    pub requests: AtomicU64,
    /// `POST /run` requests.
    pub run_requests: AtomicU64,
    /// Run requests answered from the result cache.
    pub cache_hits: AtomicU64,
    /// Run requests answered by another request's in-flight run.
    pub coalesced: AtomicU64,
    /// Leader executions — exactly one per distinct fingerprint.
    pub runs_executed: AtomicU64,
    /// Leader executions that returned a typed error.
    pub run_failures: AtomicU64,
    /// Requests served on an already-used keep-alive connection
    /// (second and later requests per connection).
    pub keepalive_reuses: AtomicU64,
    /// Connections closed by a read/idle/write deadline.
    pub deadline_closes: AtomicU64,
    /// Chunked trace streams opened (`/run?stream=1` + `/watch`).
    pub streams_opened: AtomicU64,
    /// Event lines fanned out to stream subscribers (mirrored from the
    /// broadcast registry at render time).
    pub stream_events: AtomicU64,
    /// Binary `.mcdt` frames among those deliveries (mirrored counter).
    pub stream_frames: AtomicU64,
    /// Live stream subscriptions right now (mirrored gauge).
    pub stream_subscribers: AtomicU64,
    /// Fan-out rooms registered right now (mirrored gauge).
    pub stream_rooms: AtomicU64,
    /// File descriptors registered with the event loop (gauge, stored
    /// by the loop each iteration).
    pub loop_fds: AtomicU64,
    /// Readiness events delivered by the last `epoll_wait` (gauge).
    pub loop_ready: AtomicU64,
    /// Event-loop iteration wall time, microseconds.
    loop_iter_us: Histogram,
    /// Request latency in microseconds, by endpoint × outcome.
    latency: [[Histogram; Outcome::ALL.len()]; Endpoint::ALL.len()],
    /// Simulation-side totals, merged from per-request run sets.
    sim: Mutex<(RunStats, ControllerActivity)>,
}

impl ServeMetrics {
    /// Folds one executed request's run-set counters into the totals.
    pub fn absorb_run(&self, stats: RunStats, activity: &ControllerActivity) {
        let mut sim = self.sim.lock().expect("sim totals poisoned");
        sim.0.merge(&stats);
        sim.1.merge(activity);
    }

    /// Records one event-loop iteration's wall time (called by the loop
    /// thread, once per `epoll_wait` round).
    pub fn record_loop_iteration(&self, micros: u64) {
        self.loop_iter_us.record(micros);
    }

    /// Records one request's wall time into its endpoint × outcome
    /// latency histogram.
    pub fn record_latency(&self, endpoint: Endpoint, outcome: Outcome, micros: u64) {
        let ei = Endpoint::ALL
            .iter()
            .position(|&e| e == endpoint)
            .expect("exhaustive");
        let oi = Outcome::ALL
            .iter()
            .position(|&o| o == outcome)
            .expect("exhaustive");
        self.latency[ei][oi].record(micros);
    }

    /// Captures one coherent view of every counter and histogram.
    /// `queue_depth` and `in_flight` are read from the worker pool at
    /// render time; `cache_entries` from the result cache; `draining`
    /// flips once shutdown begins. See the module docs for the staleness
    /// tolerance this snapshot provides (and what it does not).
    pub fn snapshot(
        &self,
        queue_depth: usize,
        in_flight: usize,
        cache_entries: usize,
        draining: bool,
    ) -> MetricsSnapshot {
        let (sim, activity) = *self.sim.lock().expect("sim totals poisoned");
        MetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            run_requests: self.run_requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            runs_executed: self.runs_executed.load(Ordering::Relaxed),
            run_failures: self.run_failures.load(Ordering::Relaxed),
            keepalive_reuses: self.keepalive_reuses.load(Ordering::Relaxed),
            deadline_closes: self.deadline_closes.load(Ordering::Relaxed),
            streams_opened: self.streams_opened.load(Ordering::Relaxed),
            stream_events: self.stream_events.load(Ordering::Relaxed),
            stream_frames: self.stream_frames.load(Ordering::Relaxed),
            stream_subscribers: self.stream_subscribers.load(Ordering::Relaxed),
            stream_rooms: self.stream_rooms.load(Ordering::Relaxed),
            loop_fds: self.loop_fds.load(Ordering::Relaxed),
            loop_ready: self.loop_ready.load(Ordering::Relaxed),
            loop_iter: self.loop_iter_us.snapshot(),
            queue_depth,
            in_flight,
            cache_entries,
            draining,
            latency: self
                .latency
                .iter()
                .map(|row| {
                    row.iter()
                        .map(Histogram::snapshot)
                        .collect::<Vec<_>>()
                        .try_into()
                        .expect("row length fixed")
                })
                .collect::<Vec<_>>()
                .try_into()
                .expect("grid length fixed"),
            sim,
            activity,
        }
    }
}

/// One coherent view of the service: all counters loaded once, all
/// histograms snapshotted once. Both renderers read from here.
pub struct MetricsSnapshot {
    /// Connections accepted off the listener.
    pub accepted: u64,
    /// Connections answered 503 because the accept queue was full.
    pub shed: u64,
    /// Requests successfully parsed.
    pub requests: u64,
    /// `POST /run` requests.
    pub run_requests: u64,
    /// Run requests answered from the result cache.
    pub cache_hits: u64,
    /// Run requests answered by another request's in-flight run.
    pub coalesced: u64,
    /// Leader executions.
    pub runs_executed: u64,
    /// Leader executions that returned a typed error.
    pub run_failures: u64,
    /// Requests served on an already-used keep-alive connection.
    pub keepalive_reuses: u64,
    /// Connections closed by a read/idle/write deadline.
    pub deadline_closes: u64,
    /// Chunked trace streams opened.
    pub streams_opened: u64,
    /// Event lines fanned out to stream subscribers.
    pub stream_events: u64,
    /// Binary `.mcdt` frames among those deliveries.
    pub stream_frames: u64,
    /// Live stream subscriptions at snapshot time.
    pub stream_subscribers: u64,
    /// Fan-out rooms registered at snapshot time.
    pub stream_rooms: u64,
    /// File descriptors registered with the event loop.
    pub loop_fds: u64,
    /// Readiness events delivered by the last `epoll_wait`.
    pub loop_ready: u64,
    loop_iter: HistogramSnapshot,
    /// Worker-pool queue depth at snapshot time.
    pub queue_depth: usize,
    /// Requests executing at snapshot time.
    pub in_flight: usize,
    /// Result-cache entries at snapshot time.
    pub cache_entries: usize,
    /// Whether graceful shutdown has begun.
    pub draining: bool,
    latency: [[HistogramSnapshot; Outcome::ALL.len()]; Endpoint::ALL.len()],
    sim: RunStats,
    activity: ControllerActivity,
}

impl MetricsSnapshot {
    /// Renders the JSON view. The PR 4 sections (`service`,
    /// `simulation`, `controller_activity`) keep their exact keys;
    /// the event-loop rebuild adds `streaming` and `event_loop`
    /// sections alongside them. The latency histograms are
    /// Prometheus-only; JSON consumers get the counters.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"service\": {{\"accepted\": {}, \"shed\": {}, \"requests\": {}, \
             \"run_requests\": {}, \"cache_hits\": {}, \"coalesced\": {}, \
             \"runs_executed\": {}, \"run_failures\": {}, \"queue_depth\": {}, \
             \"in_flight\": {}, \"cache_entries\": {}, \
             \"draining\": {}}},\n  \
             \"streaming\": {{\"streams_opened\": {}, \"stream_events\": {}, \
             \"stream_frames\": {}, \"stream_subscribers\": {}, \"stream_rooms\": {}}},\n  \
             \"event_loop\": {{\"keepalive_reuses\": {}, \"deadline_closes\": {}, \
             \"loop_fds\": {}, \"loop_ready\": {}}},\n  \
             \"simulation\": {{\"runs\": {}, \"instructions\": {}, \"baseline_requests\": {}}},\n  \
             \"controller_activity\": {}\n}}\n",
            self.accepted,
            self.shed,
            self.requests,
            self.run_requests,
            self.cache_hits,
            self.coalesced,
            self.runs_executed,
            self.run_failures,
            self.queue_depth,
            self.in_flight,
            self.cache_entries,
            self.draining,
            self.streams_opened,
            self.stream_events,
            self.stream_frames,
            self.stream_subscribers,
            self.stream_rooms,
            self.keepalive_reuses,
            self.deadline_closes,
            self.loop_fds,
            self.loop_ready,
            self.sim.runs,
            self.sim.instructions,
            self.sim.baseline_requests,
            self.activity.to_json(),
        )
    }

    /// Renders the Prometheus text-exposition view of the same snapshot.
    /// Latency histograms record microseconds and are exposed in seconds
    /// (`scale = 1e-6`); empty endpoint × outcome series are omitted to
    /// keep the page proportional to observed traffic.
    pub fn to_prometheus(&self) -> String {
        let mut page = PromText::new();
        page.counter(
            "mcd_serve_accepted_total",
            "Connections accepted off the listener.",
        )
        .sample(&[], self.accepted);
        page.counter(
            "mcd_serve_shed_total",
            "Connections answered 503 because the accept queue was full.",
        )
        .sample(&[], self.shed);
        page.counter("mcd_serve_requests_total", "Requests successfully parsed.")
            .sample(&[], self.requests);
        page.counter("mcd_serve_run_requests_total", "POST /run requests.")
            .sample(&[], self.run_requests);
        page.counter(
            "mcd_serve_cache_hits_total",
            "Run requests answered from the result cache.",
        )
        .sample(&[], self.cache_hits);
        page.counter(
            "mcd_serve_coalesced_total",
            "Run requests answered by another request's in-flight run.",
        )
        .sample(&[], self.coalesced);
        page.counter(
            "mcd_serve_runs_executed_total",
            "Leader executions, one per distinct fingerprint.",
        )
        .sample(&[], self.runs_executed);
        page.counter(
            "mcd_serve_run_failures_total",
            "Leader executions that returned a typed error.",
        )
        .sample(&[], self.run_failures);
        page.gauge("mcd_serve_queue_depth", "Worker-pool queue depth.")
            .sample(&[], self.queue_depth as u64);
        page.gauge("mcd_serve_in_flight", "Requests executing right now.")
            .sample(&[], self.in_flight as u64);
        page.gauge("mcd_serve_cache_entries", "Result-cache entries.")
            .sample(&[], self.cache_entries as u64);
        page.gauge(
            "mcd_serve_draining",
            "1 once graceful shutdown has begun, else 0.",
        )
        .sample(&[], u64::from(self.draining));
        page.counter(
            "mcd_serve_keepalive_reuses_total",
            "Requests served on an already-used keep-alive connection.",
        )
        .sample(&[], self.keepalive_reuses);
        page.counter(
            "mcd_serve_deadline_closes_total",
            "Connections closed by a read/idle/write deadline.",
        )
        .sample(&[], self.deadline_closes);
        page.counter(
            "mcd_serve_streams_opened_total",
            "Chunked trace streams opened (/run?stream=1 and /watch).",
        )
        .sample(&[], self.streams_opened);
        page.counter(
            "mcd_serve_stream_events_total",
            "Event lines fanned out to stream subscribers.",
        )
        .sample(&[], self.stream_events);
        page.counter(
            "mcd_serve_stream_frames_total",
            "Binary .mcdt frames among the fanned-out deliveries.",
        )
        .sample(&[], self.stream_frames);
        page.gauge(
            "mcd_serve_stream_subscribers",
            "Live stream subscriptions across all fan-out rooms.",
        )
        .sample(&[], self.stream_subscribers);
        page.gauge(
            "mcd_serve_stream_rooms",
            "Fan-out rooms currently registered.",
        )
        .sample(&[], self.stream_rooms);
        page.gauge(
            "mcd_serve_loop_fds",
            "File descriptors registered with the event loop.",
        )
        .sample(&[], self.loop_fds);
        page.gauge(
            "mcd_serve_loop_ready",
            "Readiness events delivered by the last epoll_wait.",
        )
        .sample(&[], self.loop_ready);
        {
            let mut family = page.histogram(
                "mcd_serve_loop_iteration_seconds",
                "Event-loop iteration wall time.",
            );
            family.series(&[], &self.loop_iter, 1e-6);
        }
        {
            let mut family = page.histogram(
                "mcd_serve_request_seconds",
                "Request wall time by endpoint and outcome.",
            );
            for (ei, endpoint) in Endpoint::ALL.iter().enumerate() {
                for (oi, outcome) in Outcome::ALL.iter().enumerate() {
                    let snap = &self.latency[ei][oi];
                    if snap.count() == 0 {
                        continue;
                    }
                    family.series(
                        &[("endpoint", endpoint.label()), ("outcome", outcome.label())],
                        snap,
                        1e-6,
                    );
                }
            }
        }
        page.counter("mcd_sim_runs_total", "Simulations executed.")
            .sample(&[], self.sim.runs);
        page.counter("mcd_sim_instructions_total", "Instructions simulated.")
            .sample(&[], self.sim.instructions);
        page.counter(
            "mcd_sim_baseline_requests_total",
            "Baseline lookups issued against the memo cache (hits and computes).",
        )
        .sample(&[], self.sim.baseline_requests);

        let a = &self.activity;
        let per_domain: [(&str, &str, &[u64; 3]); 8] = [
            (
                "mcd_ctrl_relay_arms_total",
                "Time-delay relay arms.",
                &a.relay_arms,
            ),
            (
                "mcd_ctrl_relay_fires_total",
                "Time-delay relay firings.",
                &a.relay_fires,
            ),
            (
                "mcd_ctrl_relay_resets_total",
                "Time-delay relay resets.",
                &a.relay_resets,
            ),
            (
                "mcd_ctrl_freq_steps_up_total",
                "Upward frequency steps issued.",
                &a.freq_steps_up,
            ),
            (
                "mcd_ctrl_freq_steps_down_total",
                "Downward frequency steps issued.",
                &a.freq_steps_down,
            ),
            (
                "mcd_ctrl_reactions_total",
                "Completed deviation-onset to frequency-step episodes.",
                &a.reaction_count,
            ),
            (
                "mcd_ctrl_reaction_time_picoseconds_total",
                "Summed reaction time; divide by mcd_ctrl_reactions_total for the mean.",
                &a.reaction_sum_ps,
            ),
            (
                "mcd_ctrl_sync_stalls_total",
                "Enqueues delayed by the synchronization window.",
                &a.sync_enqueues,
            ),
        ];
        for (name, help, values) in per_domain {
            let mut family = page.counter(name, help);
            for (i, domain) in ControllerActivity::DOMAINS.iter().enumerate() {
                family.sample(&[("domain", domain)], values[i]);
            }
        }
        page.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_telemetry::prometheus::lint;
    use mcd_trace::json::{self, Value};

    #[test]
    fn counters_land_in_the_rendered_json() {
        let m = ServeMetrics::default();
        m.accepted.store(5, Ordering::Relaxed);
        m.shed.store(2, Ordering::Relaxed);
        m.runs_executed.store(3, Ordering::Relaxed);
        m.absorb_run(
            RunStats {
                runs: 4,
                instructions: 123,
                baseline_requests: 1,
                ..RunStats::default()
            },
            &ControllerActivity::default(),
        );
        let json = json::parse(&m.snapshot(7, 1, 9, false).to_json()).expect("valid JSON");
        let uint = |path| json.path(path).and_then(Value::as_u64);
        assert_eq!(uint("service.accepted"), Some(5));
        assert_eq!(uint("service.shed"), Some(2));
        assert_eq!(uint("service.runs_executed"), Some(3));
        assert_eq!(uint("service.queue_depth"), Some(7));
        assert_eq!(uint("service.cache_entries"), Some(9));
        assert_eq!(uint("simulation.instructions"), Some(123));
        assert_eq!(json.path("service.draining"), Some(&Value::Bool(false)));
        assert_eq!(
            json.path("controller_activity.0.domain")
                .and_then(Value::as_str),
            Some("INT"),
            "per-domain counters present"
        );
    }

    #[test]
    fn absorb_accumulates_across_runs() {
        let m = ServeMetrics::default();
        let mut a = ControllerActivity::default();
        a.relay_fires[0] = 2;
        m.absorb_run(
            RunStats {
                runs: 1,
                instructions: 10,
                baseline_requests: 0,
                ..RunStats::default()
            },
            &a,
        );
        m.absorb_run(
            RunStats {
                runs: 2,
                instructions: 30,
                baseline_requests: 1,
                ..RunStats::default()
            },
            &a,
        );
        let json = json::parse(&m.snapshot(0, 0, 0, true).to_json()).expect("valid JSON");
        let uint = |path| json.path(path).and_then(Value::as_u64);
        assert_eq!(uint("simulation.runs"), Some(3));
        assert_eq!(uint("simulation.instructions"), Some(40));
        assert_eq!(uint("controller_activity.0.relay_fires"), Some(4));
        assert_eq!(json.path("service.draining"), Some(&Value::Bool(true)));
        // Reaction time is null with no completed reactions.
        assert_eq!(
            json.path("controller_activity.0.mean_reaction_ns"),
            Some(&Value::Null)
        );
    }

    #[test]
    fn prometheus_page_lints_and_carries_latency_series() {
        let m = ServeMetrics::default();
        m.accepted.store(4, Ordering::Relaxed);
        m.record_latency(Endpoint::Run, Outcome::Hit, 250);
        m.record_latency(Endpoint::Run, Outcome::Hit, 900);
        m.record_latency(Endpoint::Healthz, Outcome::Ok, 40);
        m.record_latency(Endpoint::Other, Outcome::Shed, 1200);
        let mut a = ControllerActivity::default();
        a.relay_fires[1] = 7;
        m.absorb_run(
            RunStats {
                runs: 1,
                instructions: 10,
                baseline_requests: 0,
                ..RunStats::default()
            },
            &a,
        );
        let page = m.snapshot(3, 1, 2, false).to_prometheus();
        lint(page.as_bytes()).unwrap_or_else(|e| panic!("lint failed: {e}\n{page}"));
        assert!(page.contains("mcd_serve_accepted_total 4"));
        assert!(
            page.contains("mcd_serve_request_seconds_count{endpoint=\"run\",outcome=\"hit\"} 2")
        );
        assert!(page.contains("outcome=\"shed\""));
        assert!(page.contains("mcd_ctrl_relay_fires_total{domain=\"FP\"} 7"));
        assert!(
            !page.contains("outcome=\"miss\""),
            "empty series are omitted"
        );
    }

    #[test]
    fn json_and_prometheus_render_the_same_snapshot() {
        let m = ServeMetrics::default();
        m.requests.store(11, Ordering::Relaxed);
        let snap = m.snapshot(0, 0, 0, false);
        // One more request lands after the snapshot was taken...
        m.requests.fetch_add(1, Ordering::Relaxed);
        // ...and both renderers still agree, because they read the cut.
        let json = json::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(
            json.path("service.requests").and_then(Value::as_u64),
            Some(11)
        );
        assert!(snap.to_prometheus().contains("mcd_serve_requests_total 11"));
    }
}
