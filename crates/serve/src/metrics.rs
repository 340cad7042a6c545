//! Service counters and latency distributions surfaced by `GET /metrics`.
//!
//! Three layers in one response: the *service* series (accepts, sheds,
//! coalesced followers, cache hits, executions, failures — everything
//! the load-shedding and coalescing machinery decides — plus streaming
//! and event-loop figures), the per-endpoint per-outcome *latency
//! histograms*, and the *simulation* counters from the observability
//! layer (DESIGN.md §6): runs (memoized baseline computes included),
//! instructions, baseline requests, and the per-domain
//! controller-activity aggregate including mean reaction time, folded
//! in from every run set the service has executed.
//!
//! Every service and simulation series is declared once, in the
//! `series!` list below: its JSON section and key, its Prometheus name
//! and type, and its one help text, which is also its documentation.
//! That list generates [`Series`] and the table both renderers walk, so
//! a series cannot appear in one view and not the other, or mean two
//! things. The per-domain controller counters are declared the same
//! way, in mcd-bench's `counters!` list, and both views walk
//! [`ControllerActivity::COUNTERS`].
//!
//! Rendering goes through one [`MetricsSnapshot`]: every series is
//! loaded exactly once per request, and both the JSON and the Prometheus
//! renderer read from that same value, so the two views of a single
//! scrape always agree with each other. The snapshot itself is *not* a
//! consistent cut — each atomic is loaded `Relaxed` and independently,
//! so a request landing mid-snapshot can make e.g. `requests` and
//! `run_requests` differ by an in-flight increment. That staleness is
//! bounded by the number of concurrently executing requests and is
//! harmless for monotonic counters scraped at second granularity, which
//! is why the service tolerates it instead of paying for a global lock.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mcd_bench::runner::{ControllerActivity, RunStats};
use mcd_telemetry::prometheus::PromText;
use mcd_telemetry::{Histogram, HistogramSnapshot};

/// Request endpoints tracked by the latency histograms. Discriminants
/// index the histogram grid, so they follow [`Endpoint::ALL`].
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
    /// Anything else: `GET /watch/<fp>` stream opens, 404s, wrong
    /// methods and shed connections.
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

/// How a tracked request concluded. Discriminants index the histogram
/// grid, so they follow [`Outcome::ALL`].
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
    /// Answered 503: the accept queue was full or the connection bound
    /// reached.
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

/// How a series is typed on the page.
#[derive(PartialEq, Eq)]
enum Kind {
    /// Monotonic: a Prometheus `counter`.
    Counter,
    /// A level at one instant: a Prometheus `gauge`.
    Gauge,
    /// A yes/no gauge: `true`/`false` in JSON, 1/0 in Prometheus.
    Flag,
}

/// One row of `SERIES`: where a series renders and what it means.
struct Spec {
    /// JSON section the key sits in.
    section: &'static str,
    /// JSON key within the section.
    key: &'static str,
    /// Prometheus family name.
    name: &'static str,
    /// The series' one meaning: Prometheus `# HELP` text and the
    /// [`Series`] variant's documentation.
    help: &'static str,
    kind: Kind,
}

/// Declares [`Series`] and `SERIES` from one list, so a variant and its
/// table row cannot drift apart: `SERIES[s as usize]` is `s`'s row.
macro_rules! series {
    ($($variant:ident: $kind:ident, $section:literal, $key:literal, $name:literal, $help:literal;)*) => {
        /// A service or simulation series reported by `/metrics`; each
        /// variant's documentation is its help text.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Series {
            $(#[doc = $help] $variant,)*
        }

        impl Series {
            /// Every series, in declaration order.
            pub const ALL: [Series; [$(Series::$variant),*].len()] = [$(Series::$variant),*];
        }

        /// Every series' row, in [`Series::ALL`] order.
        const SERIES: [Spec; Series::ALL.len()] = [$(Spec {
            section: $section,
            key: $key,
            name: $name,
            help: $help,
            kind: Kind::$kind,
        },)*];
    };
}

// Owned series first: the service adds to or stores these through
// `ServeMetrics::add` and `ServeMetrics::set`. From `QueueDepth` on,
// series are read from the pool, cache and broadcast registry at render
// time and passed to `ServeMetrics::snapshot`. Within a JSON section,
// keys render in list order.
series! {
    Accepted: Counter, "service", "accepted", "mcd_serve_accepted_total",
        "Connections accepted off the listener.";
    Shed: Counter, "service", "shed", "mcd_serve_shed_total",
        "Requests and connections answered 503: the accept queue was full or the connection bound reached.";
    Requests: Counter, "service", "requests", "mcd_serve_requests_total",
        "Requests successfully parsed.";
    RunRequests: Counter, "service", "run_requests", "mcd_serve_run_requests_total",
        "POST /run requests.";
    CacheHits: Counter, "service", "cache_hits", "mcd_serve_cache_hits_total",
        "Run requests answered from the result cache.";
    Coalesced: Counter, "service", "coalesced", "mcd_serve_coalesced_total",
        "Run requests answered by another request's in-flight run.";
    RunsExecuted: Counter, "service", "runs_executed", "mcd_serve_runs_executed_total",
        "Leader executions; a fingerprint executes again after a failed run or a cache eviction.";
    RunFailures: Counter, "service", "run_failures", "mcd_serve_run_failures_total",
        "Leader executions that returned a typed error.";
    StreamsOpened: Counter, "streaming", "streams_opened", "mcd_serve_streams_opened_total",
        "Chunked trace streams opened (/run?stream=1 and /watch).";
    KeepaliveReuses: Counter, "event_loop", "keepalive_reuses", "mcd_serve_keepalive_reuses_total",
        "Requests served on an already-used keep-alive connection.";
    DeadlineCloses: Counter, "event_loop", "deadline_closes", "mcd_serve_deadline_closes_total",
        "Connections closed by a read/idle/write deadline.";
    LoopFds: Gauge, "event_loop", "loop_fds", "mcd_serve_loop_fds",
        "File descriptors registered with the event loop.";
    LoopReady: Gauge, "event_loop", "loop_ready", "mcd_serve_loop_ready",
        "Readiness events delivered by the last epoll_wait.";
    SimRuns: Counter, "simulation", "runs", "mcd_sim_runs_total",
        "Simulations executed.";
    SimInstructions: Counter, "simulation", "instructions", "mcd_sim_instructions_total",
        "Instructions simulated.";
    SimBaselineRequests: Counter, "simulation", "baseline_requests", "mcd_sim_baseline_requests_total",
        "Baseline lookups issued against the memo cache (hits and computes).";
    QueueDepth: Gauge, "service", "queue_depth", "mcd_serve_queue_depth",
        "Worker-pool queue depth.";
    InFlight: Gauge, "service", "in_flight", "mcd_serve_in_flight",
        "Requests executing right now.";
    CacheEntries: Gauge, "service", "cache_entries", "mcd_serve_cache_entries",
        "Result-cache entries.";
    Draining: Flag, "service", "draining", "mcd_serve_draining",
        "1 once graceful shutdown has begun, else 0.";
    StreamEvents: Counter, "streaming", "stream_events", "mcd_serve_stream_events_total",
        "Event lines fanned out to stream subscribers.";
    StreamFrames: Counter, "streaming", "stream_frames", "mcd_serve_stream_frames_total",
        "Binary .mcdt frames among the fanned-out deliveries.";
    StreamSubscribers: Gauge, "streaming", "stream_subscribers", "mcd_serve_stream_subscribers",
        "Live stream subscriptions across all fan-out rooms.";
    StreamRooms: Gauge, "streaming", "stream_rooms", "mcd_serve_stream_rooms",
        "Fan-out rooms currently registered.";
}

/// Number of owned series: those before the first render-time reading.
const OWNED: usize = Series::QueueDepth as usize;

/// The service's live counters and histograms.
#[derive(Default)]
pub struct ServeMetrics {
    /// Owned series, indexed by [`Series`] discriminant.
    owned: [AtomicU64; OWNED],
    /// Event-loop iteration wall time, microseconds.
    loop_iter_us: Histogram,
    /// Request latency in microseconds, by endpoint × outcome.
    latency: [[Histogram; Outcome::ALL.len()]; Endpoint::ALL.len()],
    /// Controller activity merged from every executed run set.
    activity: Mutex<ControllerActivity>,
}

impl ServeMetrics {
    /// Adds `n` to an owned series. Panics on a render-time series.
    pub fn add(&self, series: Series, n: u64) {
        self.owned[series as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Stores an owned gauge. Panics on a render-time series.
    pub fn set(&self, series: Series, value: u64) {
        self.owned[series as usize].store(value, Ordering::Relaxed);
    }

    /// Folds one executed request's run-set counters into the totals.
    pub fn absorb_run(&self, stats: RunStats, activity: &ControllerActivity) {
        self.add(Series::SimRuns, stats.runs);
        self.add(Series::SimInstructions, stats.instructions);
        self.add(Series::SimBaselineRequests, stats.baseline_requests);
        self.activity
            .lock()
            .expect("controller activity poisoned")
            .merge(activity);
    }

    /// Records one event-loop iteration's wall time (called by the loop
    /// thread, once per `epoll_wait` round).
    pub fn record_loop_iteration(&self, micros: u64) {
        self.loop_iter_us.record(micros);
    }

    /// Records one request's wall time into its endpoint × outcome
    /// latency histogram.
    pub fn record_latency(&self, endpoint: Endpoint, outcome: Outcome, micros: u64) {
        self.latency[endpoint as usize][outcome as usize].record(micros);
    }

    /// Captures one view of every series and histogram. `readings`
    /// supplies the render-time series — pool depth and in-flight count,
    /// cache entries, draining as 0/1, and the broadcast registry's
    /// stream figures; one left out reads 0. See the module docs for the
    /// staleness tolerance this snapshot provides (and what it does not).
    pub fn snapshot(&self, readings: &[(Series, u64)]) -> MetricsSnapshot {
        let mut values = [0; SERIES.len()];
        for (value, owned) in values.iter_mut().zip(&self.owned) {
            *value = owned.load(Ordering::Relaxed);
        }
        for &(series, value) in readings {
            debug_assert!(
                series as usize >= OWNED,
                "{series:?} is not read at render time"
            );
            values[series as usize] = value;
        }
        MetricsSnapshot {
            values,
            loop_iter: self.loop_iter_us.snapshot(),
            latency: std::array::from_fn(|e| {
                std::array::from_fn(|o| self.latency[e][o].snapshot())
            }),
            activity: *self.activity.lock().expect("controller activity poisoned"),
        }
    }
}

/// One view of the service: every series loaded once, every histogram
/// snapshotted once. Both renderers read from here.
pub struct MetricsSnapshot {
    /// Series values, indexed by [`Series`] discriminant.
    values: [u64; SERIES.len()],
    loop_iter: HistogramSnapshot,
    latency: [[HistogramSnapshot; Outcome::ALL.len()]; Endpoint::ALL.len()],
    activity: ControllerActivity,
}

impl MetricsSnapshot {
    /// Renders the JSON view: one object per series section, in order of
    /// first appearance in the series list, then `controller_activity`.
    /// The latency histograms are Prometheus-only; JSON consumers get
    /// the counters.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, row) in SERIES.iter().enumerate() {
            if SERIES[..i].iter().any(|r| r.section == row.section) {
                continue; // section already written
            }
            let fields: Vec<String> = SERIES
                .iter()
                .zip(self.values)
                .filter(|(r, _)| r.section == row.section)
                .map(|(r, v)| match r.kind {
                    Kind::Flag => format!("\"{}\": {}", r.key, v != 0),
                    Kind::Counter | Kind::Gauge => format!("\"{}\": {v}", r.key),
                })
                .collect();
            let _ = writeln!(out, "  \"{}\": {{{}}},", row.section, fields.join(", "));
        }
        let _ = write!(
            out,
            "  \"controller_activity\": {}\n}}\n",
            self.activity.to_json()
        );
        out
    }

    /// Renders the Prometheus text-exposition view of the same snapshot.
    /// Latency histograms record microseconds and are exposed in seconds
    /// (`scale = 1e-6`); empty endpoint × outcome series are omitted to
    /// keep the page proportional to observed traffic.
    pub fn to_prometheus(&self) -> String {
        let mut page = PromText::new();
        for (row, value) in SERIES.iter().zip(self.values) {
            match row.kind {
                Kind::Counter => page.counter(row.name, row.help),
                Kind::Gauge | Kind::Flag => page.gauge(row.name, row.help),
            }
            .sample(&[], value);
        }
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

        for (counter, values) in self.activity.counters() {
            let mut family = page.counter(counter.name, counter.help);
            for (domain, value) in ControllerActivity::DOMAINS.iter().zip(values) {
                family.sample(&[("domain", domain)], value);
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

    /// The render-time readings every snapshot in these tests passes.
    fn readings(base: u64, draining: bool) -> Vec<(Series, u64)> {
        Series::ALL[OWNED..]
            .iter()
            .enumerate()
            .map(|(i, &s)| match s {
                Series::Draining => (s, u64::from(draining)),
                _ => (s, base + i as u64),
            })
            .collect()
    }

    /// The sample value of an unlabelled Prometheus series.
    fn sample(page: &str, name: &str) -> Option<u64> {
        page.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.parse().ok())
    }

    /// One fixed snapshot: every owned series, render-time reading and
    /// simulation total distinct, a little controller activity, one
    /// latency and loop-iteration sample each.
    fn fixed_snapshot() -> MetricsSnapshot {
        use Series::*;
        let m = ServeMetrics::default();
        let owned = [
            (Accepted, 101),
            (Shed, 102),
            (Requests, 103),
            (RunRequests, 104),
            (CacheHits, 105),
            (Coalesced, 106),
            (RunsExecuted, 107),
            (RunFailures, 108),
            (KeepaliveReuses, 109),
            (DeadlineCloses, 110),
            (StreamsOpened, 111),
            (LoopFds, 116),
            (LoopReady, 117),
        ];
        for (series, value) in owned {
            m.set(series, value);
        }
        let a = ControllerActivity {
            relay_fires: [3, 5, 7],
            reaction_count: [1, 2, 0],
            reaction_sum_ps: [1500, 5000, 0],
            ..ControllerActivity::default()
        };
        m.absorb_run(
            RunStats {
                runs: 201,
                instructions: 202,
                baseline_requests: 203,
                ..RunStats::default()
            },
            &a,
        );
        m.record_latency(Endpoint::Run, Outcome::Miss, 700);
        m.record_latency(Endpoint::Other, Outcome::Shed, 0);
        m.record_loop_iteration(12);
        m.snapshot(&[
            (QueueDepth, 301),
            (InFlight, 302),
            (CacheEntries, 303),
            (Draining, 1),
            (StreamEvents, 112),
            (StreamFrames, 113),
            (StreamSubscribers, 114),
            (StreamRooms, 115),
        ])
    }

    #[test]
    fn series_rows_are_indexed_by_discriminant_and_named_once() {
        for (i, s) in Series::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
        let keys: std::collections::HashSet<_> =
            SERIES.iter().map(|r| (r.section, r.key)).collect();
        let names: std::collections::HashSet<_> = SERIES.iter().map(|r| r.name).collect();
        assert_eq!(keys.len(), SERIES.len(), "JSON keys are distinct");
        assert_eq!(names.len(), SERIES.len(), "Prometheus names are distinct");
    }

    #[test]
    fn latency_grid_is_indexed_in_label_order() {
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(*e as usize, i);
        }
        for (i, o) in Outcome::ALL.iter().enumerate() {
            assert_eq!(*o as usize, i);
        }
    }

    #[test]
    fn json_bytes_of_a_fixed_snapshot_are_pinned() {
        // Captured from the renderer that predates the series table.
        let expected = r#"{
  "service": {"accepted": 101, "shed": 102, "requests": 103, "run_requests": 104, "cache_hits": 105, "coalesced": 106, "runs_executed": 107, "run_failures": 108, "queue_depth": 301, "in_flight": 302, "cache_entries": 303, "draining": true},
  "streaming": {"streams_opened": 111, "stream_events": 112, "stream_frames": 113, "stream_subscribers": 114, "stream_rooms": 115},
  "event_loop": {"keepalive_reuses": 109, "deadline_closes": 110, "loop_fds": 116, "loop_ready": 117},
  "simulation": {"runs": 201, "instructions": 202, "baseline_requests": 203},
  "controller_activity": [
    {"domain": "INT", "relay_arms": 0, "relay_fires": 3, "relay_resets": 0, "freq_steps_up": 0, "freq_steps_down": 0, "mean_reaction_ns": 1.500, "sync_enqueues": 0, "fmin_cycles": 0, "fmax_cycles": 0, "transition_time_ps": 0},
    {"domain": "FP", "relay_arms": 0, "relay_fires": 5, "relay_resets": 0, "freq_steps_up": 0, "freq_steps_down": 0, "mean_reaction_ns": 2.500, "sync_enqueues": 0, "fmin_cycles": 0, "fmax_cycles": 0, "transition_time_ps": 0},
    {"domain": "LS", "relay_arms": 0, "relay_fires": 7, "relay_resets": 0, "freq_steps_up": 0, "freq_steps_down": 0, "mean_reaction_ns": null, "sync_enqueues": 0, "fmin_cycles": 0, "fmax_cycles": 0, "transition_time_ps": 0}
  ]
}
"#;
        assert_eq!(fixed_snapshot().to_json(), expected);
    }

    /// A controller aggregate whose 33 values (11 counters x 3 domains)
    /// are all different, so a counter rendered in another's slot shows.
    fn distinct_activity() -> ControllerActivity {
        ControllerActivity {
            relay_arms: [11, 12, 13],
            relay_fires: [21, 22, 23],
            relay_resets: [31, 32, 33],
            freq_steps_up: [41, 42, 43],
            freq_steps_down: [51, 52, 53],
            reaction_sum_ps: [61_001, 62_002, 63_003],
            reaction_count: [71, 72, 73],
            sync_enqueues: [81, 82, 83],
            fmin_cycles: [91, 92, 93],
            fmax_cycles: [101, 102, 103],
            transition_time_ps: [111, 112, 113],
        }
    }

    #[test]
    fn every_controller_counter_renders_pinned_bytes() {
        let a = distinct_activity();
        let json = r#"[
    {"domain": "INT", "relay_arms": 11, "relay_fires": 21, "relay_resets": 31, "freq_steps_up": 41, "freq_steps_down": 51, "mean_reaction_ns": 0.859, "sync_enqueues": 81, "fmin_cycles": 91, "fmax_cycles": 101, "transition_time_ps": 111},
    {"domain": "FP", "relay_arms": 12, "relay_fires": 22, "relay_resets": 32, "freq_steps_up": 42, "freq_steps_down": 52, "mean_reaction_ns": 0.861, "sync_enqueues": 82, "fmin_cycles": 92, "fmax_cycles": 102, "transition_time_ps": 112},
    {"domain": "LS", "relay_arms": 13, "relay_fires": 23, "relay_resets": 33, "freq_steps_up": 43, "freq_steps_down": 53, "mean_reaction_ns": 0.863, "sync_enqueues": 83, "fmin_cycles": 93, "fmax_cycles": 103, "transition_time_ps": 113}
  ]"#;
        assert_eq!(a.to_json(), json);

        // The eight families the page carried before every counter got
        // one; the lines of families added since are left out here.
        let added = [
            "mcd_ctrl_fmin_cycles_total",
            "mcd_ctrl_fmax_cycles_total",
            "mcd_ctrl_transition_time_picoseconds_total",
        ];
        let m = ServeMetrics::default();
        m.absorb_run(RunStats::default(), &a);
        let page = m.snapshot(&[]).to_prometheus();
        let family = |line: &str| {
            let rest = (line
                .strip_prefix("# HELP ")
                .or(line.strip_prefix("# TYPE ")))
            .unwrap_or(line);
            rest.split([' ', '{']).next().unwrap_or("").to_string()
        };
        let ctrl: Vec<&str> = page
            .lines()
            .filter(|l| family(l).starts_with("mcd_ctrl_") && !added.contains(&family(l).as_str()))
            .collect();
        let prometheus = r#"# HELP mcd_ctrl_relay_arms_total Time-delay relay arms.
# TYPE mcd_ctrl_relay_arms_total counter
mcd_ctrl_relay_arms_total{domain="INT"} 11
mcd_ctrl_relay_arms_total{domain="FP"} 12
mcd_ctrl_relay_arms_total{domain="LS"} 13
# HELP mcd_ctrl_relay_fires_total Time-delay relay firings.
# TYPE mcd_ctrl_relay_fires_total counter
mcd_ctrl_relay_fires_total{domain="INT"} 21
mcd_ctrl_relay_fires_total{domain="FP"} 22
mcd_ctrl_relay_fires_total{domain="LS"} 23
# HELP mcd_ctrl_relay_resets_total Time-delay relay resets.
# TYPE mcd_ctrl_relay_resets_total counter
mcd_ctrl_relay_resets_total{domain="INT"} 31
mcd_ctrl_relay_resets_total{domain="FP"} 32
mcd_ctrl_relay_resets_total{domain="LS"} 33
# HELP mcd_ctrl_freq_steps_up_total Upward frequency steps issued.
# TYPE mcd_ctrl_freq_steps_up_total counter
mcd_ctrl_freq_steps_up_total{domain="INT"} 41
mcd_ctrl_freq_steps_up_total{domain="FP"} 42
mcd_ctrl_freq_steps_up_total{domain="LS"} 43
# HELP mcd_ctrl_freq_steps_down_total Downward frequency steps issued.
# TYPE mcd_ctrl_freq_steps_down_total counter
mcd_ctrl_freq_steps_down_total{domain="INT"} 51
mcd_ctrl_freq_steps_down_total{domain="FP"} 52
mcd_ctrl_freq_steps_down_total{domain="LS"} 53
# HELP mcd_ctrl_reactions_total Completed deviation-onset to frequency-step episodes.
# TYPE mcd_ctrl_reactions_total counter
mcd_ctrl_reactions_total{domain="INT"} 71
mcd_ctrl_reactions_total{domain="FP"} 72
mcd_ctrl_reactions_total{domain="LS"} 73
# HELP mcd_ctrl_reaction_time_picoseconds_total Summed reaction time; divide by mcd_ctrl_reactions_total for the mean.
# TYPE mcd_ctrl_reaction_time_picoseconds_total counter
mcd_ctrl_reaction_time_picoseconds_total{domain="INT"} 61001
mcd_ctrl_reaction_time_picoseconds_total{domain="FP"} 62002
mcd_ctrl_reaction_time_picoseconds_total{domain="LS"} 63003
# HELP mcd_ctrl_sync_stalls_total Enqueues delayed by the synchronization window.
# TYPE mcd_ctrl_sync_stalls_total counter
mcd_ctrl_sync_stalls_total{domain="INT"} 81
mcd_ctrl_sync_stalls_total{domain="FP"} 82
mcd_ctrl_sync_stalls_total{domain="LS"} 83"#;
        assert_eq!(ctrl.join("\n"), prometheus);
    }

    #[test]
    fn the_three_families_added_to_the_page_render_pinned_bytes() {
        let m = ServeMetrics::default();
        m.absorb_run(RunStats::default(), &distinct_activity());
        let page = m.snapshot(&[]).to_prometheus();
        let added: Vec<&str> = (page.lines())
            .skip_while(|l| !l.contains("mcd_ctrl_fmin_cycles_total"))
            .collect();
        let expected = r#"# HELP mcd_ctrl_fmin_cycles_total Local cycles settled at the minimum operating point.
# TYPE mcd_ctrl_fmin_cycles_total counter
mcd_ctrl_fmin_cycles_total{domain="INT"} 91
mcd_ctrl_fmin_cycles_total{domain="FP"} 92
mcd_ctrl_fmin_cycles_total{domain="LS"} 93
# HELP mcd_ctrl_fmax_cycles_total Local cycles settled at the maximum operating point.
# TYPE mcd_ctrl_fmax_cycles_total counter
mcd_ctrl_fmax_cycles_total{domain="INT"} 101
mcd_ctrl_fmax_cycles_total{domain="FP"} 102
mcd_ctrl_fmax_cycles_total{domain="LS"} 103
# HELP mcd_ctrl_transition_time_picoseconds_total Regulator slew time between operating points.
# TYPE mcd_ctrl_transition_time_picoseconds_total counter
mcd_ctrl_transition_time_picoseconds_total{domain="INT"} 111
mcd_ctrl_transition_time_picoseconds_total{domain="FP"} 112
mcd_ctrl_transition_time_picoseconds_total{domain="LS"} 113"#;
        assert_eq!(added.join("\n"), expected);
    }

    #[test]
    fn every_family_has_one_help_and_one_type_and_the_page_lints() {
        let m = ServeMetrics::default();
        m.record_latency(Endpoint::Run, Outcome::Hit, 250);
        for page in [
            fixed_snapshot().to_prometheus(),
            m.snapshot(&[]).to_prometheus(),
        ] {
            lint(page.as_bytes()).unwrap_or_else(|e| panic!("lint failed: {e}\n{page}"));
            let families = |prefix: &str| -> Vec<String> {
                (page.lines())
                    .filter_map(|l| l.strip_prefix("# TYPE "))
                    .filter_map(|l| l.split(' ').next())
                    .filter(|n| n.starts_with(prefix))
                    .map(str::to_string)
                    .collect()
            };
            let serve = families("mcd_serve_");
            let tables = SERIES.iter().filter(|r| r.name.starts_with("mcd_serve_"));
            assert_eq!(serve.len(), tables.count() + 2, "table + 2 histograms");
            let ctrl = families("mcd_ctrl_");
            let counters = ControllerActivity::COUNTERS.iter().map(|c| c.name);
            assert!(
                ctrl.iter().eq(counters),
                "one family per controller counter"
            );
            for family in serve.into_iter().chain(ctrl) {
                for header in ["# HELP", "# TYPE"] {
                    let prefix = format!("{header} {family} ");
                    let n = page.lines().filter(|l| l.starts_with(&prefix)).count();
                    assert_eq!(n, 1, "{header} for {family}");
                }
            }
        }
    }

    #[test]
    fn counters_land_in_the_rendered_json() {
        let m = ServeMetrics::default();
        m.add(Series::Accepted, 5);
        m.add(Series::Shed, 2);
        m.add(Series::RunsExecuted, 3);
        m.absorb_run(
            RunStats {
                runs: 4,
                instructions: 123,
                baseline_requests: 1,
                ..RunStats::default()
            },
            &ControllerActivity::default(),
        );
        let snap = m.snapshot(&[(Series::QueueDepth, 7), (Series::CacheEntries, 9)]);
        let json = json::parse(&snap.to_json()).expect("valid JSON");
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
        let json = json::parse(&m.snapshot(&readings(0, true)).to_json()).expect("valid JSON");
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
        m.add(Series::Accepted, 4);
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
        let page = m.snapshot(&readings(1, false)).to_prometheus();
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
        for &s in &Series::ALL[..OWNED] {
            m.set(s, 1000 + s as u64);
        }
        m.absorb_run(RunStats::default(), &distinct_activity());
        let snap = m.snapshot(&readings(2000, true));
        // One more request lands after the snapshot was taken...
        m.add(Series::Requests, 1);
        m.absorb_run(RunStats::default(), &distinct_activity());
        // ...and both renderers still agree, because they read the cut.
        let json = json::parse(&snap.to_json()).expect("valid JSON");
        let page = snap.to_prometheus();
        let mut values = Vec::new();
        for row in &SERIES {
            let path = format!("{}.{}", row.section, row.key);
            let from_json = match json.path(&path) {
                Some(&Value::Bool(b)) if row.kind == Kind::Flag => Some(u64::from(b)),
                other => other.and_then(Value::as_u64),
            };
            assert!(from_json.is_some(), "{path} missing from the JSON");
            assert_eq!(from_json, sample(&page, row.name), "{path} vs {}", row.name);
            values.extend(from_json);
        }
        let requests = 1000 + Series::Requests as u64;
        assert_eq!(sample(&page, "mcd_serve_requests_total"), Some(requests));
        // Every value is distinct, so a row rendering another's slot shows.
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), SERIES.len());

        // Every controller counter, per domain; the reaction pair shows
        // in JSON only as its mean, so it is checked through sum and count.
        for (i, domain) in ControllerActivity::DOMAINS.iter().enumerate() {
            let from_page = |name: &str| sample(&page, &format!("{name}{{domain=\"{domain}\"}}"));
            let from_json = |key: &str| json.path(&format!("controller_activity.{i}.{key}"));
            assert_eq!(from_json("domain").and_then(Value::as_str), Some(*domain));
            let mut pair = [0; 2];
            for counter in &ControllerActivity::COUNTERS {
                let sampled = from_page(counter.name);
                assert!(sampled.is_some(), "{} missing from the page", counter.name);
                match counter.key {
                    "reaction_sum_ps" => pair[0] = sampled.unwrap(),
                    "reaction_count" => pair[1] = sampled.unwrap(),
                    key => assert_eq!(
                        from_json(key).and_then(Value::as_u64),
                        sampled,
                        "{domain} {key} vs {}",
                        counter.name
                    ),
                }
            }
            let [sum_ps, count] = pair;
            let mean = format!("{:.3}", sum_ps as f64 / count as f64 / 1000.0);
            let shown = from_json("mean_reaction_ns").and_then(Value::as_f64);
            assert_eq!(
                shown.map(|ns| format!("{ns:.3}")),
                Some(mean),
                "{domain} mean"
            );
        }
    }
}
