//! Shared run plumbing: schemes × benchmarks × configurations.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mcd_adaptive::{AdaptiveConfig, AdaptiveDvfsController};
use mcd_baselines::{
    AttackDecayController, FeedbackDvsController, IntegralGainController, PidConfig, PidController,
};
use mcd_sim::metrics::Metrics;
use mcd_sim::telemetry::{SimTelemetry, TelemetrySink};
#[cfg(test)]
use mcd_sim::trace::VecSink;
use mcd_sim::trace::{NullSink, TraceEvent, TraceSink};
use mcd_sim::{DomainId, DvfsController, Machine, SimConfig, SimResult, SnapshotSource};
use mcd_trace::{Anchor, RunRecording};
use mcd_workloads::{registry, MicroOp, TraceGenerator};

use crate::error::RunError;
use crate::parallel::{self, Permits};
use crate::snapstore::SnapStore;

/// The DVFS policy attached to the three back-end domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No DVFS: every domain at the maximum point (the normalization
    /// baseline).
    Baseline,
    /// This paper's adaptive controller.
    Adaptive,
    /// The PID fixed-interval baseline \[23\].
    Pid,
    /// The attack/decay fixed-interval baseline \[9\].
    AttackDecay,
    /// The adjustable-gain integral power regulator (arXiv:1709.04859).
    IntegralGain,
    /// The control-theoretic feedback DVS scheme (arXiv:0806.0132).
    FeedbackDvs,
}

impl Scheme {
    /// The three DVFS schemes of the paper's own comparison (everything
    /// but the baseline). The headline figures and tables enumerate
    /// exactly these; the wider literature baselines live in
    /// [`Scheme::BAKEOFF`].
    pub const CONTROLLED: [Scheme; 3] = [Scheme::Adaptive, Scheme::Pid, Scheme::AttackDecay];

    /// Every controlled scheme in the bake-off matrix: the paper's three
    /// plus the two wider-literature baselines.
    pub const BAKEOFF: [Scheme; 5] = [
        Scheme::Adaptive,
        Scheme::Pid,
        Scheme::AttackDecay,
        Scheme::IntegralGain,
        Scheme::FeedbackDvs,
    ];

    /// Scheme name as printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::Adaptive => "adaptive",
            Scheme::Pid => "PID",
            Scheme::AttackDecay => "attack/decay",
            Scheme::IntegralGain => "integral-gain",
            Scheme::FeedbackDvs => "feedback-DVS",
        }
    }

    /// Inverse of [`Scheme::name`] — how replay specs name schemes.
    pub fn by_name(name: &str) -> Option<Scheme> {
        [
            Scheme::Baseline,
            Scheme::Adaptive,
            Scheme::Pid,
            Scheme::AttackDecay,
        ]
        .into_iter()
        .chain(Scheme::BAKEOFF)
        .find(|s| s.name() == name)
    }
}

/// Options for one simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Dynamic instructions per run.
    pub ops: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Record occupancy/frequency traces.
    pub traces: bool,
    /// PID interval length in instructions (Table 3 sweeps this).
    pub pid_interval: u64,
    /// Adaptive-controller configuration factory knob: reference-occupancy
    /// scale (1.0 = the paper's 6/4/4).
    pub q_ref_scale: f64,
    /// Shard length in retired instructions: a run pauses at each
    /// multiple, round-trips the engine through a serialized snapshot,
    /// and continues — byte-identical to an uninterrupted run (the
    /// shard-equivalence invariant), so this is purely a scheduling
    /// knob: per-segment wall samples keep the run-wall tail honest and
    /// give warm starts their resume points. `None` disables sharding.
    pub shard_ops: Option<u64>,
    /// Warm-start snapshot directory (see [`crate::snapstore`]): runs
    /// resume from their latest stored shard boundary and store new
    /// boundaries as they pass. `None` (the default, and what `repro`
    /// uses) runs everything cold.
    pub warm_dir: Option<std::path::PathBuf>,
    /// Simulator configuration.
    pub sim: SimConfig,
}

impl RunConfig {
    /// The full evaluation configuration (600 k instructions per run).
    pub fn full() -> Self {
        RunConfig {
            ops: 600_000,
            seed: 1,
            traces: false,
            pid_interval: 10_000,
            q_ref_scale: 1.0,
            shard_ops: Some(600_000),
            warm_dir: None,
            sim: SimConfig::default(),
        }
    }

    /// A fast configuration for tests and smoke runs (40 k instructions).
    pub fn quick() -> Self {
        RunConfig {
            ops: 40_000,
            ..RunConfig::full()
        }
    }

    /// Overrides the instruction count.
    pub fn with_ops(mut self, ops: u64) -> Self {
        assert!(ops > 0, "runs need at least one instruction");
        self.ops = ops;
        self
    }

    /// Enables trace recording.
    pub fn with_traces(mut self) -> Self {
        self.traces = true;
        self
    }

    /// Overrides the shard length (`0` disables sharding). Reports are
    /// byte-identical for every setting; see [`RunConfig::shard_ops`].
    pub fn with_shard_ops(mut self, shard_ops: u64) -> Self {
        self.shard_ops = if shard_ops == 0 {
            None
        } else {
            Some(shard_ops)
        };
        self
    }
}

/// Builds the controller for `scheme` on `domain` under `cfg`.
pub fn controller_for(
    scheme: Scheme,
    domain: DomainId,
    cfg: &RunConfig,
) -> Option<Box<dyn DvfsController>> {
    match scheme {
        Scheme::Baseline => None,
        Scheme::Adaptive => {
            let base = AdaptiveConfig::for_domain(domain);
            let q_ref = base.q_ref * cfg.q_ref_scale;
            Some(Box::new(AdaptiveDvfsController::new(
                base.with_q_ref(q_ref),
            )))
        }
        Scheme::Pid => Some(Box::new(PidController::new(
            PidConfig::for_domain(domain).with_interval(cfg.pid_interval),
        ))),
        Scheme::AttackDecay => Some(Box::new(AttackDecayController::for_domain(domain))),
        Scheme::IntegralGain => Some(Box::new(IntegralGainController::for_domain(domain))),
        Scheme::FeedbackDvs => Some(Box::new(FeedbackDvsController::for_domain(domain))),
    }
}

/// Runs `benchmark` under `scheme`.
///
/// Returns a typed [`RunError`] instead of panicking: unknown benchmarks
/// are [`RunError::Workload`], structurally invalid configurations are
/// [`RunError::Config`], and a run tripping the livelock guard is
/// [`RunError::Diverged`].
pub fn run(benchmark: &str, scheme: Scheme, cfg: &RunConfig) -> Result<SimResult, RunError> {
    run_traced(benchmark, scheme, cfg, &mut NullSink)
}

/// Runs `benchmark` under `scheme`, streaming observability events into
/// `sink`. Bit-identical to [`run`] for any sink, any `shard_ops`, and
/// warm or cold start (the shard-equivalence invariant).
pub fn run_traced(
    benchmark: &str,
    scheme: Scheme,
    cfg: &RunConfig,
    sink: &mut dyn TraceSink,
) -> Result<SimResult, RunError> {
    registry::by_name(benchmark)
        .ok_or_else(|| RunError::Workload(format!("unknown benchmark {benchmark}")))?;
    let store = match &cfg.warm_dir {
        Some(dir) => Some(SnapStore::open(dir)?),
        None => None,
    };
    let warm_key = warm_key(benchmark, scheme, cfg);
    run_sharded(
        cfg.shard_ops,
        store.as_ref().map(|s| (s, warm_key.as_str())),
        || build_machine(benchmark, scheme, cfg),
        sink,
    )
}

/// Builds the machine for one (benchmark, scheme, config) run — the
/// construction both [`run_traced`] and episode replay share, so a
/// replayed segment runs on exactly the machine the recording did.
pub fn build_machine(
    benchmark: &str,
    scheme: Scheme,
    cfg: &RunConfig,
) -> Result<Machine<TraceGenerator>, RunError> {
    let spec = registry::by_name(benchmark)
        .ok_or_else(|| RunError::Workload(format!("unknown benchmark {benchmark}")))?;
    let mut sim = cfg.sim.clone();
    if cfg.traces {
        sim = sim.with_traces();
    }
    let trace = TraceGenerator::try_new(&spec, cfg.ops, cfg.seed).map_err(RunError::Workload)?;
    let mut machine = Machine::try_new(sim, trace)?;
    for &d in &DomainId::BACKEND {
        if let Some(c) = controller_for(scheme, d, cfg) {
            machine = machine.with_controller(d, c);
        }
    }
    Ok(machine)
}

/// The warm-store identity of one run: every knob that shapes the
/// result. `shard_ops` is deliberately absent (it cannot change bytes)
/// and `warm_dir` is the store itself.
fn warm_key(benchmark: &str, scheme: Scheme, cfg: &RunConfig) -> String {
    format!(
        "{benchmark}|{}|ops={}|seed={}|traces={}|pid={}|qref={}|{:?}",
        scheme.name(),
        cfg.ops,
        cfg.seed,
        cfg.traces,
        cfg.pid_interval,
        cfg.q_ref_scale,
        cfg.sim
    )
}

thread_local! {
    /// Per-segment wall samples (µs) of the run currently executing on
    /// this thread, filled by [`run_sharded`] and drained by the
    /// [`RunSet`] into its ledger. Sharding thus turns one
    /// long wall sample into one per segment — the p99 the benchmark
    /// gate watches measures *scheduling granules*, which is what a core
    /// is actually blocked on.
    static SEGMENT_WALLS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Records one completed segment's wall time.
fn record_segment(start: Instant) {
    let us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
    SEGMENT_WALLS.with(|w| w.borrow_mut().push(us));
}

/// Retired instructions between two checks of the installed
/// [`parallel::Deadline`]: a few milliseconds of simulation, so a timed-out
/// run stops soon after its budget runs out. Chunk boundaries only pause
/// the event loop — no snapshot, anchor or wall sample — and segmenting
/// a run is bit-identical to running it in one piece.
const DEADLINE_CHUNK_OPS: u64 = 4_096;

/// Advances `machine` until the trace drains (`Ok(true)`) or `boundary`
/// instructions have retired (`Ok(false)`), exactly like
/// [`Machine::try_advance_traced`] — but with a deadline installed on
/// this thread, in [`DEADLINE_CHUNK_OPS`] chunks, returning
/// [`RunError::Timeout`] at the first chunk boundary past it.
fn advance<T>(
    machine: &mut Machine<T>,
    boundary: u64,
    sink: &mut dyn TraceSink,
) -> Result<bool, RunError>
where
    T: Iterator<Item = MicroOp> + SnapshotSource,
{
    let Some(deadline) = parallel::current_deadline() else {
        return Ok(machine.try_advance_traced(boundary, sink)?);
    };
    loop {
        deadline.check()?;
        let chunk = machine
            .retired()
            .saturating_add(DEADLINE_CHUNK_OPS)
            .min(boundary);
        if machine.try_advance_traced(chunk, sink)? {
            return Ok(true);
        }
        if machine.retired() >= boundary {
            return Ok(false);
        }
    }
}

/// Runs a caller-built machine to completion — the deadline-checked
/// equivalent of [`Machine::try_run_traced`], for custom runs (ad-hoc
/// controllers, synthetic specs) passed to [`RunSet::run_custom`].
pub fn run_machine<T>(
    mut machine: Machine<T>,
    sink: &mut dyn TraceSink,
) -> Result<SimResult, RunError>
where
    T: Iterator<Item = MicroOp> + SnapshotSource,
{
    advance(&mut machine, u64::MAX, sink)?;
    Ok(machine.finish_traced(sink))
}

/// Runs a machine to completion in `shard_ops`-instruction segments,
/// round-tripping the full engine state through a serialized snapshot at
/// every boundary. The result and the event stream written to `sink` are
/// byte-identical to an uninterrupted run.
///
/// `build` constructs the machine fresh (same configuration, same
/// controllers); each boundary snapshot restores into a *new* machine
/// from `build`, which is exactly the restore contract the engine
/// documents — and exactly what a warm start across processes does.
/// With `warm` set, the run first tries to resume from the store's
/// latest boundary for its key and saves each boundary it passes; warm
/// resume is skipped when `sink` is live, since events before the resume
/// point would be missing from the stream.
///
/// With a deadline installed on this thread (see
/// [`crate::parallel::isolated`]), the run stops with
/// [`RunError::Timeout`] at the first chunk boundary past it.
pub fn run_sharded<T, F>(
    shard_ops: Option<u64>,
    warm: Option<(&SnapStore, &str)>,
    build: F,
    sink: &mut dyn TraceSink,
) -> Result<SimResult, RunError>
where
    T: Iterator<Item = MicroOp> + SnapshotSource,
    F: Fn() -> Result<Machine<T>, RunError>,
{
    let Some(shard) = shard_ops.filter(|&s| s > 0) else {
        let start = Instant::now();
        let result = run_machine(build()?, sink)?;
        record_segment(start);
        return Ok(result);
    };
    let mut machine = build()?;
    if let Some((store, key)) = warm {
        if !sink.enabled() {
            if let Some(bytes) = store.load(key) {
                // A snapshot that fails the engine's framing checks is
                // stale state on disk, not a caller error: start cold.
                if machine.restore(&bytes).is_err() {
                    machine = build()?;
                }
            }
        }
    }
    loop {
        let start = Instant::now();
        let boundary = machine.retired() + shard;
        if advance(&mut machine, boundary, sink)? {
            let result = machine.finish_traced(sink);
            record_segment(start);
            return Ok(result);
        }
        let snapshot = machine.snapshot();
        // Offer the boundary snapshot to the sink as a replay anchor —
        // a no-op for every sink that doesn't build a seekable record.
        sink.record_anchor(machine.retired(), &snapshot);
        if let Some((store, key)) = warm {
            if !sink.enabled() {
                // Best-effort: a full disk must not fail the run.
                let _ = store.save(key, &snapshot);
            }
        }
        machine = build()?;
        machine.restore(&snapshot).map_err(|e| {
            RunError::Config(format!("shard-boundary snapshot failed to restore: {e}"))
        })?;
        record_segment(start);
    }
}

/// Counters accumulated by a [`RunSet`] — the raw material for the
/// machine-readable benchmark report (`repro --bench-out`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Simulations actually executed (cache hits excluded).
    pub runs: u64,
    /// Dynamic instructions simulated across those runs.
    pub instructions: u64,
    /// Baseline lookups issued against the memo cache (hits *and* the
    /// one compute per key). Counted per request rather than per hit so
    /// the number is deterministic under concurrent experiments — which
    /// requester pays the compute is a scheduling race, how many ask is
    /// not.
    pub baseline_requests: u64,
    /// Scheduler events dispatched across those runs (see
    /// [`Metrics::events_processed`]).
    pub events_processed: u64,
    /// Clock edges and sampling periods absorbed by steady-state replay
    /// or sample batching (see [`Metrics::cycles_skipped`]).
    pub cycles_skipped: u64,
}

impl RunStats {
    /// Counts one finished run.
    fn add_run(&mut self, result: &SimResult) {
        self.runs += 1;
        self.instructions += result.instructions;
        self.events_processed += result.metrics.events_processed;
        self.cycles_skipped += result.metrics.cycles_skipped;
    }

    /// Folds another set of counters into this one (used by the service
    /// to accumulate per-request run sets into a process-wide total).
    pub fn merge(&mut self, other: &RunStats) {
        self.runs += other.runs;
        self.instructions += other.instructions;
        self.baseline_requests += other.baseline_requests;
        self.events_processed += other.events_processed;
        self.cycles_skipped += other.cycles_skipped;
    }
}

/// Per-experiment attribution: everything one tag's runs consumed, kept
/// separately from the set's totals so concurrent experiments report
/// honest per-record numbers (see [`RunSet::with_tag`]).
#[derive(Debug, Clone, Default)]
pub struct ExpStats {
    /// The tag's share of the [`RunStats`] counters. Baseline lookups
    /// count here, but the memoized compute itself is charged to the
    /// set's totals only (whoever loses the race would otherwise
    /// inflate one arbitrary experiment).
    pub stats: RunStats,
    /// Total simulation compute under this tag, µs — the sum over runs,
    /// which with experiments running concurrently is the honest "how
    /// much machine time did this experiment cost" (driver-observed
    /// elapsed time includes other experiments' runs interleaving).
    pub compute_us: u64,
    /// Per-segment wall samples, µs (see [`run_sharded`]).
    pub wall_samples_us: Vec<u64>,
}

impl ExpStats {
    /// Total simulation compute in seconds.
    pub fn compute_s(&self) -> f64 {
        self.compute_us as f64 / 1e6
    }

    /// Median per-segment wall time, seconds.
    pub fn run_wall_p50_s(&self) -> f64 {
        percentile_us(&self.wall_samples_us, 50.0)
    }

    /// 99th-percentile per-segment wall time, seconds.
    pub fn run_wall_p99_s(&self) -> f64 {
        percentile_us(&self.wall_samples_us, 99.0)
    }
}

/// Nearest-rank percentile of µs samples, in seconds (0.0 when empty).
fn percentile_us(samples: &[u64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e6
}

/// One row of [`ControllerActivity::COUNTERS`]: a per-domain controller
/// counter and the names it renders under.
#[derive(Debug)]
pub struct Counter {
    /// The [`Metrics`] field the counter copies, which is also its
    /// [`ControllerActivity`] field and its JSON key.
    pub key: &'static str,
    /// Prometheus family name; each domain is one `domain`-labelled
    /// sample.
    pub name: &'static str,
    /// The counter's one meaning: Prometheus `# HELP` text and the
    /// field's documentation.
    pub help: &'static str,
}

/// Declares [`ControllerActivity`], its fold from [`Metrics`], its merge
/// and [`ControllerActivity::COUNTERS`] from one list, so a field and its
/// names cannot drift apart.
macro_rules! counters {
    ($($field:ident, $name:literal, $help:literal;)*) => {
        /// Controller-activity counters aggregated over every simulation
        /// a [`RunSet`] executed, per backend domain (0 = INT, 1 = FP,
        /// 2 = LS).
        ///
        /// This is the run-level summary of the observability layer: how
        /// often the time-delay relays fired, how many frequency steps
        /// resulted, and — the paper's central quantity — the mean
        /// reaction time from deviation onset to the first answering
        /// frequency step. Each field's documentation is its help text.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct ControllerActivity {
            $(#[doc = $help] pub $field: [u64; 3],)*
        }

        impl ControllerActivity {
            /// Every counter's row, in declaration order: the order both
            /// the JSON and the Prometheus view render in.
            pub const COUNTERS: [Counter; [$(stringify!($field)),*].len()] = [$(Counter {
                key: stringify!($field),
                name: $name,
                help: $help,
            },)*];

            /// Every counter's row with its per-domain values, in
            /// [`Self::COUNTERS`] order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static Counter, [u64; 3])> {
                Self::COUNTERS.iter().zip([$(self.$field),*])
            }

            /// Folds another aggregate into this one (used by the service
            /// to accumulate per-request run sets into a process-wide
            /// total).
            pub fn merge(&mut self, other: &ControllerActivity) {
                $(for (total, n) in self.$field.iter_mut().zip(other.$field) {
                    *total += n;
                })*
            }
        }

        impl From<&Metrics> for ControllerActivity {
            /// One run's controller activity.
            fn from(m: &Metrics) -> Self {
                ControllerActivity { $($field: m.$field,)* }
            }
        }
    };
}

// The reaction pair is the one counter pair the JSON view does not show
// as is: it renders the derived `mean_reaction_ns` where the pair sits.
counters! {
    relay_arms, "mcd_ctrl_relay_arms_total",
        "Time-delay relay arms.";
    relay_fires, "mcd_ctrl_relay_fires_total",
        "Time-delay relay firings.";
    relay_resets, "mcd_ctrl_relay_resets_total",
        "Time-delay relay resets.";
    freq_steps_up, "mcd_ctrl_freq_steps_up_total",
        "Upward frequency steps issued.";
    freq_steps_down, "mcd_ctrl_freq_steps_down_total",
        "Downward frequency steps issued.";
    reaction_count, "mcd_ctrl_reactions_total",
        "Completed deviation-onset to frequency-step episodes.";
    reaction_sum_ps, "mcd_ctrl_reaction_time_picoseconds_total",
        "Summed reaction time; divide by mcd_ctrl_reactions_total for the mean.";
    sync_enqueues, "mcd_ctrl_sync_stalls_total",
        "Enqueues delayed by the synchronization window.";
    fmin_cycles, "mcd_ctrl_fmin_cycles_total",
        "Local cycles settled at the minimum operating point.";
    fmax_cycles, "mcd_ctrl_fmax_cycles_total",
        "Local cycles settled at the maximum operating point.";
    transition_time_ps, "mcd_ctrl_transition_time_picoseconds_total",
        "Regulator slew time between operating points.";
}

impl ControllerActivity {
    /// Backend-domain display names, indexed like the counter arrays.
    pub const DOMAINS: [&'static str; 3] = ["INT", "FP", "LS"];

    /// Renders the per-domain counters as a JSON array, one object per
    /// backend domain — the shape embedded in `--bench-out` records and
    /// in the service's `/metrics` response. Keys follow
    /// [`Self::COUNTERS`], except that the reaction pair renders as
    /// `mean_reaction_ns`.
    pub fn to_json(&self) -> String {
        let per_domain: Vec<String> = (Self::DOMAINS.iter().enumerate())
            .map(|(i, domain)| {
                let mut fields = vec![format!("\"domain\": \"{domain}\"")];
                for (counter, values) in self.counters() {
                    match counter.key {
                        "reaction_count" => {
                            let mean = match self.mean_reaction_time_ns(i) {
                                Some(ns) if ns.is_finite() => format!("{ns:.3}"),
                                _ => "null".to_string(),
                            };
                            fields.push(format!("\"mean_reaction_ns\": {mean}"));
                        }
                        "reaction_sum_ps" => {}
                        key => fields.push(format!("\"{key}\": {}", values[i])),
                    }
                }
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        format!("[\n{}\n  ]", per_domain.join(",\n"))
    }

    /// Folds one finished run's metrics into the aggregate.
    pub fn absorb(&mut self, m: &Metrics) {
        self.merge(&ControllerActivity::from(m));
    }

    /// Total frequency steps (both directions) for backend domain `idx`.
    pub fn freq_steps(&self, idx: usize) -> u64 {
        self.freq_steps_up[idx] + self.freq_steps_down[idx]
    }

    /// Mean reaction time for backend domain `idx`, in nanoseconds, or
    /// `None` if no reaction completed.
    pub fn mean_reaction_time_ns(&self, idx: usize) -> Option<f64> {
        if self.reaction_count[idx] == 0 {
            None
        } else {
            Some(self.reaction_sum_ps[idx] as f64 / self.reaction_count[idx] as f64 / 1000.0)
        }
    }
}

/// One executed simulation's event stream, tagged with its run label.
pub type LabeledTrace = (String, Vec<TraceEvent>);

/// The flight recorder's in-memory sink: collects the event stream like a
/// [`mcd_sim::trace::VecSink`] *and* captures the shard-boundary snapshots
/// [`run_sharded`] offers through [`TraceSink::record_anchor`], each
/// pinned to its position in the event stream — the raw material for a
/// seekable `.mcdt` recording.
#[derive(Debug, Default)]
pub struct RecorderSink {
    events: Vec<TraceEvent>,
    anchors: Vec<Anchor>,
}

impl RecorderSink {
    /// An empty recorder.
    pub fn new() -> Self {
        RecorderSink::default()
    }

    /// Consumes the recorder, returning events and anchors.
    pub fn into_parts(self) -> (Vec<TraceEvent>, Vec<Anchor>) {
        (self.events, self.anchors)
    }
}

impl TraceSink for RecorderSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }

    fn record_anchor(&mut self, retired: u64, snapshot: &[u8]) {
        self.anchors.push(Anchor {
            event_index: self.events.len() as u64,
            retired,
            snapshot: snapshot.to_vec(),
        });
    }
}

/// A live observer of simulation events, consulted *per event* while a
/// run executes — unlike [`RunSet::with_tracing`], which collects the
/// whole stream for after-the-fact draining.
///
/// [`EventTap::wants`] is checked before each event is forwarded, so an
/// implementation backed by a subscriber count pays one atomic load per
/// event when nobody is listening and can gain/lose listeners mid-run
/// (this is how `mcd-serve` streams controller activity to HTTP clients
/// while the simulation is in flight). Taps observe only: report bytes
/// are identical with or without one attached, exactly as for sinks
/// (the trace_noninterference invariant).
pub trait EventTap: Send + Sync {
    /// Whether any listener currently wants events from the run with
    /// this label. Called per event; keep it cheap.
    fn wants(&self, label: &str) -> bool;
    /// Delivers one event from the labeled run.
    fn record(&self, label: &str, event: &TraceEvent);
}

/// Wraps the run's chosen sink so a tap sees every event the engine
/// emits, without disturbing what the sink itself collects.
struct TapSink<'a, S: TraceSink> {
    inner: &'a mut S,
    tap: &'a dyn EventTap,
    label: &'a str,
}

impl<S: TraceSink> TraceSink for TapSink<'_, S> {
    fn enabled(&self) -> bool {
        // The engine checks this before *building* each event, so the
        // zero-cost NullSink path survives: with no listeners and a
        // disabled inner sink, event construction is still skipped.
        self.inner.enabled() || self.tap.wants(self.label)
    }

    fn record(&mut self, event: &TraceEvent) {
        if self.tap.wants(self.label) {
            self.tap.record(self.label, event);
        }
        if self.inner.enabled() {
            self.inner.record(event);
        }
    }

    fn record_anchor(&mut self, retired: u64, snapshot: &[u8]) {
        // Taps are per-event observers; anchors go to the sink only.
        self.inner.record_anchor(retired, snapshot);
    }
}

/// [`std::fmt::Debug`]-friendly holder for the optional tap.
struct TapSlot(Option<Arc<dyn EventTap>>);

impl std::fmt::Debug for TapSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("EventTap(attached)"),
            None => f.write_str("EventTap(none)"),
        }
    }
}

/// One memoized baseline slot: filled exactly once, shared by every
/// requester, and remembering a deterministic failure as faithfully as
/// success (a transient one retires the slot instead; see
/// [`RunSet::baseline`]).
type BaselineSlot = Arc<OnceLock<Result<Arc<SimResult>, RunError>>>;

/// The one record of what a [`RunSet`] executed: every finished run is
/// folded in exactly once, into the totals and — when a tag is
/// installed — its experiment's share.
#[derive(Debug, Default)]
struct Ledger {
    total: RunStats,
    /// Summed compute of every run, µs.
    compute_us: u64,
    activity: ControllerActivity,
    /// Per-experiment attribution, keyed by the tag installed with
    /// [`RunSet::with_tag`].
    per_tag: HashMap<&'static str, ExpStats>,
}

/// A family of simulation runs sharing a cap on concurrent simulations
/// and a memoized full-speed-baseline cache.
///
/// Every figure/table normalizes against the same per-benchmark baseline
/// run; without memoization `repro all` re-simulates those baselines for
/// fig9, fig10, fig11, table3, and each ablation. A `RunSet` computes
/// each distinct baseline once (keyed by everything that can change its
/// result) and hands out shared copies.
///
/// Each simulation stays single-threaded and deterministic; the set
/// fans independent runs out with [`RunSet::par`], returning results in
/// input order, so reports are byte-identical whatever the worker count.
/// The set holds `jobs` run permits and every simulation it executes
/// holds one, so however many threads submit batches at once, no more
/// than `jobs` simulations run at a time. The set starts no thread until
/// a batch has work for one.
#[derive(Debug)]
pub struct RunSet {
    permits: Permits,
    baselines: Mutex<HashMap<String, BaselineSlot>>,
    ledger: Mutex<Ledger>,
    /// When tracing is on, each executed simulation's full recording
    /// (labeled event stream + shard-boundary anchors) lands here
    /// (`None` = tracing disabled, simulations run through the
    /// zero-cost [`NullSink`]).
    tracing: Option<Mutex<Vec<RunRecording>>>,
    /// Replay specs for runs the set knows how to rebuild from scratch
    /// (registry benchmark + named scheme + config), keyed by run label;
    /// filled only while tracing so `drain_recordings` can attach them.
    specs: Mutex<HashMap<String, String>>,
    /// When telemetry is on, per-domain reaction-time and occupancy
    /// distributions accumulate here via a [`TelemetrySink`] wrapped
    /// around each run's sink (`None` = runs keep the zero-cost
    /// [`NullSink`] path).
    telemetry: Option<SimTelemetry>,
    /// Optional live event observer (see [`EventTap`]); `None` keeps
    /// every run on the exact pre-tap sink path.
    tap: TapSlot,
}

static GLOBAL_RUN_SET: OnceLock<RunSet> = OnceLock::new();

impl RunSet {
    /// Creates a run set that runs up to `jobs` simulations at once
    /// (1 = fully serial), tracing disabled.
    pub fn new(jobs: usize) -> Self {
        RunSet {
            permits: Permits::new(jobs),
            baselines: Mutex::new(HashMap::new()),
            ledger: Mutex::default(),
            tracing: None,
            specs: Mutex::new(HashMap::new()),
            telemetry: None,
            tap: TapSlot(None),
        }
    }

    /// Attaches a live event tap: every simulation this set executes
    /// offers its events to `tap`, gated per event on
    /// [`EventTap::wants`]. Report bytes are unaffected.
    pub fn with_event_tap(mut self, tap: Arc<dyn EventTap>) -> Self {
        self.tap = TapSlot(Some(tap));
        self
    }

    /// Enables event-trace collection: every simulation this set executes
    /// records its full event stream (for `repro --trace-out`).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = Some(Mutex::new(Vec::new()));
        self
    }

    /// Enables distribution telemetry: every simulation streams its
    /// events through a [`TelemetrySink`], accumulating per-domain
    /// reaction-time and queue-occupancy histograms (for
    /// `repro --bench-out` and `repro profile`).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = Some(SimTelemetry::new());
        self
    }

    /// The process-wide run set used by the `repro` binary, created on
    /// first use with one worker per available core.
    pub fn global() -> &'static RunSet {
        GLOBAL_RUN_SET.get_or_init(|| RunSet::new(crate::parallel::default_jobs()))
    }

    /// Initializes the process-wide run set with an explicit worker
    /// count and optional tracing / telemetry. A no-op if
    /// [`RunSet::global`] was already touched — call this before any
    /// experiment runs (the `repro` binary does so right after argument
    /// parsing).
    pub fn init_global(jobs: usize, tracing: bool, telemetry: bool) -> &'static RunSet {
        GLOBAL_RUN_SET.get_or_init(|| {
            let mut rs = RunSet::new(jobs);
            if tracing {
                rs = rs.with_tracing();
            }
            if telemetry {
                rs = rs.with_telemetry();
            }
            rs
        })
    }

    /// The worker count this set fans out to.
    pub fn jobs(&self) -> usize {
        self.permits.jobs()
    }

    /// The ledger, locked for one read or fold.
    fn ledger(&self) -> std::sync::MutexGuard<'_, Ledger> {
        self.ledger.lock().expect("run ledger poisoned")
    }

    /// Counter snapshot: every run this set executed, memoized baseline
    /// computes included.
    pub fn stats(&self) -> RunStats {
        self.ledger().total
    }

    /// Summed compute of every run this set executed, seconds.
    pub fn compute_s(&self) -> f64 {
        self.ledger().compute_us as f64 / 1e6
    }

    /// Runs `f` with `tag` installed as this thread's experiment tag:
    /// every simulation `f` starts — directly or through [`RunSet::par`],
    /// whose threads inherit the submitter's tag — is
    /// charged to `tag` in the per-experiment attribution (see
    /// [`RunSet::tag_stats`]). The previous tag is restored even if `f`
    /// panics.
    pub fn with_tag<R>(&self, tag: &'static str, f: impl FnOnce() -> R) -> R {
        parallel::with_tag(Some(tag), f)
    }

    /// Clears `tag`'s attribution. The drivers call this before each
    /// attempt of an experiment so a timed-out or panicked first attempt
    /// does not double-charge the retry.
    pub fn reset_tag(&self, tag: &str) {
        self.ledger().per_tag.remove(tag);
    }

    /// `tag`'s attribution so far (zeroed default if it never ran).
    pub fn tag_stats(&self, tag: &str) -> ExpStats {
        self.ledger().per_tag.get(tag).cloned().unwrap_or_default()
    }

    /// Controller-activity aggregate over every simulation executed so
    /// far.
    pub fn activity(&self) -> ControllerActivity {
        self.ledger().activity
    }

    /// The distribution telemetry accumulators, when enabled.
    pub fn telemetry(&self) -> Option<&SimTelemetry> {
        self.telemetry.as_ref()
    }

    /// Folds a finished run into the ledger: the totals and — when a tag
    /// is installed — its experiment's attribution, along with the run's
    /// per-segment wall samples and total compute time.
    fn count(&self, result: &SimResult, segments: Vec<u64>, compute_us: u64) {
        let mut ledger = self.ledger();
        ledger.total.add_run(result);
        ledger.compute_us += compute_us;
        ledger.activity.absorb(&result.metrics);
        if let Some(tag) = parallel::current_tag() {
            let exp = ledger.per_tag.entry(tag).or_default();
            exp.stats.add_run(result);
            exp.compute_us += compute_us;
            exp.wall_samples_us.extend(segments);
        }
    }

    /// Executes one simulation as a one-item [`RunSet::par`] batch: on the
    /// caller, once it holds a permit — so `jobs` caps *every*
    /// concurrently executing simulation, including ones driven directly
    /// (not via [`RunSet::par`]).
    fn simulate(
        &self,
        label: &str,
        simulate: impl FnOnce(&mut dyn TraceSink) -> Result<SimResult, RunError> + Send,
    ) -> Result<SimResult, RunError> {
        self.par(vec![simulate], |f| self.simulate_inner(label, f))
            .pop()
            .expect("a one-item batch yields one result")
    }

    /// Executes one simulation through the set's sink policy: a
    /// [`NullSink`] when tracing and telemetry are both off (zero
    /// overhead), a collected [`RecorderSink`] and/or a [`TelemetrySink`]
    /// otherwise. Counts the run and its per-segment wall times on
    /// success; a failed run contributes no counters, no trace and no
    /// telemetry.
    fn simulate_inner(
        &self,
        label: &str,
        simulate: impl FnOnce(&mut dyn TraceSink) -> Result<SimResult, RunError>,
    ) -> Result<SimResult, RunError> {
        SEGMENT_WALLS.with(|w| w.borrow_mut().clear());
        let start = Instant::now();
        let tap = self.tap.0.as_deref();
        let collect = |collector: &Mutex<Vec<RunRecording>>, sink: RecorderSink| {
            let (events, anchors) = sink.into_parts();
            collector
                .lock()
                .expect("trace collector poisoned")
                .push(RunRecording {
                    label: label.to_string(),
                    spec: None,
                    events,
                    anchors,
                });
        };
        let result = match (&self.telemetry, &self.tracing) {
            (None, None) => Self::drive(tap, label, NullSink, simulate)?.1,
            (None, Some(collector)) => {
                let (sink, result) = Self::drive(tap, label, RecorderSink::new(), simulate)?;
                collect(collector, sink);
                result
            }
            (Some(tel), None) => {
                Self::drive(tap, label, TelemetrySink::new(tel, NullSink), simulate)?.1
            }
            (Some(tel), Some(collector)) => {
                let (sink, result) = Self::drive(
                    tap,
                    label,
                    TelemetrySink::new(tel, RecorderSink::new()),
                    simulate,
                )?;
                collect(collector, sink.into_inner());
                result
            }
        };
        let compute_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut segments = SEGMENT_WALLS.with(|w| std::mem::take(&mut *w.borrow_mut()));
        if segments.is_empty() {
            // Custom runs that bypass `run_sharded` contribute one
            // whole-run sample, exactly the pre-sharding behavior.
            segments.push(compute_us);
        }
        self.count(&result, segments, compute_us);
        Ok(result)
    }

    /// Runs the simulation against `sink`, interposing the tap (when
    /// attached) so live listeners see the event stream while the sink
    /// collects exactly what it always did.
    fn drive<S: TraceSink>(
        tap: Option<&dyn EventTap>,
        label: &str,
        mut sink: S,
        simulate: impl FnOnce(&mut dyn TraceSink) -> Result<SimResult, RunError>,
    ) -> Result<(S, SimResult), RunError> {
        let result = match tap {
            Some(tap) => {
                let mut tapped = TapSink {
                    inner: &mut sink,
                    tap,
                    label,
                };
                simulate(&mut tapped)?
            }
            None => simulate(&mut sink)?,
        };
        Ok((sink, result))
    }

    /// All event traces collected so far (tracing must be enabled),
    /// sorted by label then serialized content so the output is
    /// deterministic whatever the worker scheduling.
    pub fn drain_traces(&self) -> Option<Vec<LabeledTrace>> {
        Some(
            self.drain_recordings()?
                .into_iter()
                .map(|r| (r.label, r.events))
                .collect(),
        )
    }

    /// All recordings collected so far (tracing must be enabled): labeled
    /// event streams plus their shard-boundary anchors, with replay specs
    /// attached for every run the set knows how to rebuild. Ordering is
    /// the same deterministic label-then-content sort as
    /// [`RunSet::drain_traces`], so the JSONL rendering of a `.mcdt`
    /// built from these is byte-identical to a direct `--trace-out` run.
    pub fn drain_recordings(&self) -> Option<Vec<RunRecording>> {
        let collector = self.tracing.as_ref()?;
        let mut recordings =
            std::mem::take(&mut *collector.lock().expect("trace collector poisoned"));
        let specs = self.specs.lock().expect("replay specs poisoned");
        for rec in &mut recordings {
            rec.spec = specs.get(&rec.label).cloned();
        }
        drop(specs);
        recordings.sort_by_cached_key(|rec| {
            let body: String = rec.events.iter().map(TraceEvent::to_json).collect();
            (rec.label.clone(), body)
        });
        Some(recordings)
    }

    /// Remembers how to rebuild a run from scratch, so its recording
    /// carries a replay spec. Only meaningful while tracing.
    fn register_spec(&self, label: &str, benchmark: &str, scheme: Scheme, cfg: &RunConfig) {
        if self.tracing.is_none() {
            return;
        }
        self.specs
            .lock()
            .expect("replay specs poisoned")
            .entry(label.to_string())
            .or_insert_with(|| crate::replay::replay_spec(benchmark, scheme, cfg));
    }

    /// Everything that can change a *baseline* run's result. The
    /// controller-only knobs (`pid_interval`, `q_ref_scale`) are
    /// deliberately absent: the baseline attaches no controller, so
    /// interval and q_ref sweeps all share one baseline per benchmark.
    fn baseline_key(benchmark: &str, cfg: &RunConfig) -> String {
        format!(
            "{benchmark}|{}|{}|{}|{:?}",
            cfg.ops, cfg.seed, cfg.traces, cfg.sim
        )
    }

    /// A stable label for one (benchmark, scheme) run's event trace.
    fn run_label(benchmark: &str, scheme: Scheme, cfg: &RunConfig) -> String {
        format!(
            "{benchmark}|{}|ops={}|seed={}|pid={}|qref={}",
            scheme.name(),
            cfg.ops,
            cfg.seed,
            cfg.pid_interval,
            cfg.q_ref_scale
        )
    }

    /// The full-speed baseline for `benchmark` under `cfg`, memoized.
    ///
    /// Concurrent requests for the same key simulate it exactly once
    /// (later arrivals block on the in-flight computation). A failed
    /// baseline is memoized too — the failure is deterministic, so every
    /// requester sees the same typed error without re-simulating. A
    /// transient failure is not: a compute cancelled by its requester's
    /// deadline retires its slot, so the next lookup recomputes, and a
    /// requester handed another's timeout while its own deadline is still
    /// open looks up again.
    ///
    /// Every call counts one `baseline_request`, globally and against
    /// the caller's tag; the memoized compute itself is charged to the
    /// global counters only — *which* requester loses the race and pays
    /// is a scheduling accident, so attributing it to that requester's
    /// experiment would make per-record numbers nondeterministic.
    pub fn baseline(&self, benchmark: &str, cfg: &RunConfig) -> Result<Arc<SimResult>, RunError> {
        {
            let mut ledger = self.ledger();
            ledger.total.baseline_requests += 1;
            if let Some(tag) = parallel::current_tag() {
                ledger
                    .per_tag
                    .entry(tag)
                    .or_default()
                    .stats
                    .baseline_requests += 1;
            }
        }
        let key = Self::baseline_key(benchmark, cfg);
        loop {
            let cell = {
                let mut map = self.baselines.lock().expect("baseline cache poisoned");
                map.entry(key.clone()).or_default().clone()
            };
            let result = cell
                .get_or_init(|| {
                    let result = parallel::with_tag(None, || {
                        let label = Self::run_label(benchmark, Scheme::Baseline, cfg);
                        self.register_spec(&label, benchmark, Scheme::Baseline, cfg);
                        self.simulate(&label, |sink| {
                            run_traced(benchmark, Scheme::Baseline, cfg, sink)
                        })
                        .map(Arc::new)
                    });
                    if result.as_ref().is_err_and(RunError::is_transient) {
                        // Retire the slot before it is filled, so no
                        // later lookup can find the transient error.
                        let mut map = self.baselines.lock().expect("baseline cache poisoned");
                        if map.get(&key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
                            map.remove(&key);
                        }
                    }
                    result
                })
                .clone();
            let still_open = parallel::current_deadline().is_none_or(|d| d.check().is_ok());
            match result {
                Err(e) if e.is_transient() && still_open => continue,
                done => return done,
            }
        }
    }

    /// Runs `benchmark` under `scheme`, counting it toward the set's
    /// statistics. Baseline requests are answered from the memo cache.
    pub fn run(
        &self,
        benchmark: &str,
        scheme: Scheme,
        cfg: &RunConfig,
    ) -> Result<SimResult, RunError> {
        if scheme == Scheme::Baseline {
            return Ok((*self.baseline(benchmark, cfg)?).clone());
        }
        let label = Self::run_label(benchmark, scheme, cfg);
        self.register_spec(&label, benchmark, scheme, cfg);
        self.simulate(&label, |sink| run_traced(benchmark, scheme, cfg, sink))
    }

    /// Runs a caller-built simulation (custom controllers, synthetic
    /// specs) so it still counts toward the set's statistics; the closure
    /// receives the sink to thread into [`run_machine`], and `label`
    /// names the run's event trace.
    pub fn run_custom(
        &self,
        label: &str,
        simulate: impl FnOnce(&mut dyn TraceSink) -> Result<SimResult, RunError> + Send,
    ) -> Result<SimResult, RunError> {
        self.simulate(label, simulate)
    }

    /// Maps `f` over `items` on up to `jobs` threads, each holding one of
    /// the set's permits around each item; results are in input order,
    /// so callers are byte-identical whatever the worker count or
    /// scheduling. Called from a thread that holds a permit (an item
    /// fanning out again), the batch runs inline.
    pub fn par<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.permits.par_map(items, f)
    }
}

/// One benchmark's scheme-vs-baseline outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Fractional energy saving vs. the full-speed baseline.
    pub energy_savings: f64,
    /// Fractional slowdown vs. the baseline.
    pub perf_degradation: f64,
    /// Fractional energy-delay-product improvement vs. the baseline.
    pub edp_improvement: f64,
}

impl Outcome {
    /// Compares `result` against `baseline`.
    pub fn versus(result: &SimResult, baseline: &SimResult) -> Outcome {
        Outcome {
            energy_savings: result.energy_savings_vs(baseline),
            perf_degradation: result.perf_degradation_vs(baseline),
            edp_improvement: result.edp_improvement_vs(baseline),
        }
    }

    /// Element-wise mean over a set of outcomes.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn mean(outcomes: &[Outcome]) -> Outcome {
        assert!(!outcomes.is_empty(), "cannot average zero outcomes");
        let n = outcomes.len() as f64;
        Outcome {
            energy_savings: outcomes.iter().map(|o| o.energy_savings).sum::<f64>() / n,
            perf_degradation: outcomes.iter().map(|o| o.perf_degradation).sum::<f64>() / n,
            edp_improvement: outcomes.iter().map(|o| o.edp_improvement).sum::<f64>() / n,
        }
    }
}

/// Formats a fraction as a signed percentage.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn baseline_run_retires_all_instructions() {
        let cfg = RunConfig::quick().with_ops(5_000);
        let r = run("adpcm_encode", Scheme::Baseline, &cfg).expect("valid run");
        assert_eq!(r.instructions, 5_000);
    }

    #[test]
    fn every_scheme_builds_controllers() {
        let cfg = RunConfig::quick();
        for scheme in Scheme::BAKEOFF {
            for &d in &DomainId::BACKEND {
                assert!(controller_for(scheme, d, &cfg).is_some(), "{scheme:?} {d}");
            }
            assert!(!scheme.name().is_empty());
        }
        for scheme in Scheme::CONTROLLED {
            assert!(Scheme::BAKEOFF.contains(&scheme), "{scheme:?}");
        }
        assert!(controller_for(Scheme::Baseline, DomainId::Int, &cfg).is_none());
    }

    #[test]
    fn mean_reaction_time_requires_reactions() {
        let mut a = ControllerActivity::default();
        assert_eq!(a.mean_reaction_time_ns(0), None);
        a.reaction_sum_ps = [24_000, 0, 0];
        a.reaction_count = [3, 0, 0];
        assert_eq!(a.mean_reaction_time_ns(0), Some(8.0));
        assert_eq!(a.mean_reaction_time_ns(1), None);
    }

    #[test]
    fn outcome_mean_averages() {
        let a = Outcome {
            energy_savings: 0.1,
            perf_degradation: 0.02,
            edp_improvement: 0.08,
        };
        let b = Outcome {
            energy_savings: 0.3,
            perf_degradation: 0.04,
            edp_improvement: 0.26,
        };
        let m = Outcome::mean(&[a, b]);
        assert!((m.energy_savings - 0.2).abs() < 1e-12);
        assert!((m.perf_degradation - 0.03).abs() < 1e-12);
    }

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(0.093), "+9.3%");
        assert_eq!(pct(-0.03), "-3.0%");
    }

    #[test]
    fn unknown_benchmark_is_a_workload_error() {
        let err = run("nope", Scheme::Baseline, &RunConfig::quick()).unwrap_err();
        assert_eq!(err, RunError::Workload("unknown benchmark nope".into()));
        assert!(!err.is_transient());
    }

    #[test]
    fn invalid_config_is_a_config_error() {
        let mut cfg = RunConfig::quick();
        cfg.sim.rob_size = 0;
        let err = run("adpcm_encode", Scheme::Baseline, &cfg).unwrap_err();
        assert_eq!(err.kind(), "config-invalid");
    }

    #[test]
    fn telemetry_distributions_match_the_counters_exactly() {
        let rs = RunSet::new(1).with_telemetry();
        let cfg = RunConfig::quick().with_ops(20_000);
        rs.run("adpcm_encode", Scheme::Adaptive, &cfg).expect("run");
        let activity = rs.activity();
        let tel = rs.telemetry().expect("telemetry enabled");
        let mut reactions = 0;
        for i in 0..3 {
            // The sink and the engine share one OnsetTracker rule, so the
            // distribution's count and sum equal the always-on counters
            // — not just approximately, bit for bit.
            let snap = tel.reaction_ps[i].snapshot();
            assert_eq!(snap.count(), activity.reaction_count[i], "domain {i}");
            assert_eq!(snap.sum(), activity.reaction_sum_ps[i], "domain {i}");
            reactions += snap.count();
        }
        assert!(reactions > 0, "the adaptive run must react at least once");
        assert!(tel.occupancy.iter().any(|h| !h.snapshot().is_empty()));
        assert_eq!(rs.stats().runs, 1);
    }

    #[test]
    fn failed_baseline_is_memoized_without_rerunning() {
        let rs = RunSet::new(1);
        let mut cfg = RunConfig::quick();
        cfg.sim.rob_size = 0;
        let first = rs.baseline("adpcm_encode", &cfg).unwrap_err();
        let second = rs.baseline("adpcm_encode", &cfg).unwrap_err();
        assert_eq!(first, second);
        assert_eq!(
            rs.stats().baseline_requests,
            2,
            "every lookup counts, memoized or not"
        );
        assert_eq!(rs.stats().runs, 0, "failed runs are not counted");
    }

    /// Signals once, from inside the first simulation that consults it.
    struct FirstEvent(Mutex<Option<std::sync::mpsc::Sender<()>>>);

    impl EventTap for FirstEvent {
        fn wants(&self, _label: &str) -> bool {
            if let Some(started) = self.0.lock().expect("signal poisoned").take() {
                started.send(()).expect("the test is listening");
            }
            false
        }

        fn record(&self, _label: &str, _event: &TraceEvent) {}
    }

    #[test]
    fn a_cancelled_baseline_is_recomputed_not_memoized() {
        use std::time::Duration;
        let budget = Duration::from_millis(100);
        let cancelled = RunError::Timeout { limit_ms: 100 };
        let under_deadline = |rs: &RunSet, cfg: &RunConfig| {
            parallel::with_deadline(parallel::Deadline::after(budget), || {
                rs.baseline("gzip", cfg)
            })
        };
        let (started, leading) = std::sync::mpsc::channel();
        let rs = RunSet::new(2).with_event_tap(Arc::new(FirstEvent(Mutex::new(Some(started)))));
        let cfg = RunConfig::quick().with_ops(400_000);
        let direct = run("gzip", Scheme::Baseline, &cfg).expect("direct run");

        // Two requesters of one baseline: the first leads the compute and
        // its deadline expires mid-run; the second, arriving once that
        // compute is simulating and with no deadline of its own, must
        // still get the result rather than the leader's timeout.
        let (leader, follower) = std::thread::scope(|s| {
            let leader = s.spawn(|| under_deadline(&rs, &cfg));
            leading.recv().expect("the leader's compute started");
            let follower = rs.baseline("gzip", &cfg);
            (leader.join().expect("leader"), follower)
        });
        assert_eq!(leader.unwrap_err(), cancelled);
        assert_eq!(
            fingerprint(&follower.expect("the follower recomputes")),
            fingerprint(&direct)
        );
        assert_eq!(rs.stats().runs, 1, "only the completed compute counts");

        // A cancelled compute leaves no memo entry behind: the next
        // lookup recomputes instead of reading the timeout.
        let other = cfg.clone().with_ops(300_000);
        assert_eq!(under_deadline(&rs, &other).unwrap_err(), cancelled);
        assert!(rs.baseline("gzip", &other).is_ok(), "recomputed");
        assert_eq!(rs.stats().runs, 2);
        assert_eq!(rs.stats().baseline_requests, 4);
    }

    /// Bit-stable fingerprint of a result: `Debug` renders `f64` as its
    /// shortest round-trip form, so equal strings mean equal bits.
    fn fingerprint(r: &SimResult) -> String {
        format!("{r:?}")
    }

    #[test]
    fn sharded_run_is_byte_identical_to_unsharded() {
        let base = RunConfig::quick().with_ops(30_000).with_shard_ops(0);
        let whole = run("gzip", Scheme::Adaptive, &base).expect("unsharded");
        for shard in [7_000, 10_000, 30_000] {
            let sharded = run(
                "gzip",
                Scheme::Adaptive,
                &base.clone().with_shard_ops(shard),
            )
            .expect("sharded");
            assert_eq!(
                fingerprint(&whole),
                fingerprint(&sharded),
                "shard_ops={shard} must not change the result"
            );
        }
    }

    #[test]
    fn sharded_trace_stream_stitches_byte_identically() {
        let base = RunConfig::quick().with_ops(24_000).with_traces();
        let render = |cfg: &RunConfig| {
            let mut sink = VecSink::new();
            run_traced("adpcm_encode", Scheme::Pid, cfg, &mut sink).expect("run");
            sink.into_events()
                .iter()
                .map(TraceEvent::to_json)
                .collect::<String>()
        };
        assert_eq!(
            render(&base.clone().with_shard_ops(0)),
            render(&base.clone().with_shard_ops(5_000)),
            "the stitched event stream must equal the uninterrupted one"
        );
    }

    #[test]
    fn warm_start_resumes_byte_identically_and_rejects_stale_code() {
        let dir = std::env::temp_dir().join(format!("mcd-warm-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cold_cfg = RunConfig::quick().with_ops(20_000).with_shard_ops(6_000);
        let cold = run("swim", Scheme::Adaptive, &cold_cfg).expect("cold");
        let mut warm_cfg = cold_cfg.clone();
        warm_cfg.warm_dir = Some(dir.clone());
        // First warm run populates the store; second resumes from the
        // last boundary. Both must match the cold run exactly.
        let first = run("swim", Scheme::Adaptive, &warm_cfg).expect("populate");
        let second = run("swim", Scheme::Adaptive, &warm_cfg).expect("resume");
        assert_eq!(fingerprint(&cold), fingerprint(&first));
        assert_eq!(fingerprint(&cold), fingerprint(&second));
        assert!(
            std::fs::read_dir(&dir).expect("store dir").next().is_some(),
            "the store must hold at least one boundary snapshot"
        );
        // A store written by a different binary is ignored, not trusted:
        // corrupt every entry's fingerprint line and re-run.
        for entry in std::fs::read_dir(&dir).expect("store dir") {
            let path = entry.expect("entry").path();
            let bytes = std::fs::read(&path).expect("read");
            // Header layout: "msnap 1\n<code>\n<key>\n" — swap line two.
            let nl =
                |from: usize| from + bytes[from..].iter().position(|&b| b == b'\n').unwrap() + 1;
            let (code_start, code_end) = (nl(0), nl(nl(0)));
            let mut mangled = bytes[..code_start].to_vec();
            mangled.extend_from_slice(b"stale-code\n");
            mangled.extend_from_slice(&bytes[code_end..]);
            std::fs::write(&path, mangled).expect("mangle");
        }
        let stale = run("swim", Scheme::Adaptive, &warm_cfg).expect("stale store");
        assert_eq!(
            fingerprint(&cold),
            fingerprint(&stale),
            "a stale store must fall back to a byte-identical cold run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tags_attribute_runs_to_their_experiment() {
        let rs = RunSet::new(2);
        let cfg = RunConfig::quick().with_ops(10_000);
        rs.with_tag("exp-a", || {
            rs.baseline("adpcm_encode", &cfg).expect("baseline");
            rs.par(vec![0u32, 1], |_| {
                rs.run("adpcm_encode", Scheme::Adaptive, &cfg).expect("run");
            });
        });
        rs.with_tag("exp-b", || {
            rs.run("gzip", Scheme::Pid, &cfg).expect("run");
        });
        let a = rs.tag_stats("exp-a");
        let b = rs.tag_stats("exp-b");
        assert_eq!(a.stats.runs, 2, "batch threads inherit the submitter's tag");
        assert_eq!(a.stats.baseline_requests, 1);
        assert_eq!(a.stats.instructions, 20_000);
        assert_eq!(b.stats.runs, 1);
        assert_eq!(b.stats.baseline_requests, 0);
        assert!(a.compute_us > 0 && a.wall_samples_us.len() == 2);
        // The baseline *compute* is charged to the totals, not to exp-a.
        assert_eq!(rs.stats().runs, 4);
        assert_eq!(rs.stats().instructions, 40_000);
        assert!(rs.compute_s() >= a.compute_s() + b.compute_s());
        rs.reset_tag("exp-a");
        assert_eq!(
            rs.tag_stats("exp-a").stats.runs,
            0,
            "reset clears attribution"
        );
        assert_eq!(rs.tag_stats("exp-b").stats.runs, 1, "other tags untouched");
    }

    #[test]
    fn par_runs_every_index_exactly_once_and_empty_batches_make_no_call() {
        let rs = RunSet::new(4);
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let out = rs.par((0..hits.len()).collect(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
        let none: Vec<()> = rs.par(Vec::<u8>::new(), |_| panic!("no items, no calls"));
        assert!(none.is_empty());
    }

    #[test]
    fn par_item_panics_surface_after_the_batch_completes() {
        let rs = RunSet::new(2);
        let completed = AtomicU32::new(0);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rs.par((0u32..8).collect(), |i| {
                if i == 3 {
                    panic!("item three exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            })
        }))
        .expect_err("the panic must propagate");
        assert_eq!(
            crate::error::panic_message(&*payload),
            "item three exploded"
        );
        assert_eq!(completed.load(Ordering::Relaxed), 7, "every other item ran");
        // The panicking item gave its permit back: both still serve a
        // new batch.
        assert_eq!(rs.par(vec![1, 2], |i| i * 2), vec![2, 4]);
        assert!(!parallel::holds_permit(), "the caller holds no permit");
    }

    #[test]
    fn a_nested_batch_on_a_one_job_set_runs_inline() {
        // One permit: a nested batch waiting for a second would deadlock;
        // running inline on the permit holder must finish instead.
        let rs = RunSet::new(1);
        let inner = AtomicU32::new(0);
        rs.par(vec![()], |_| {
            assert!(parallel::holds_permit());
            rs.par((0..5).collect(), |_: u32| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner.load(Ordering::Relaxed), 5);
        assert!(!parallel::holds_permit(), "the permit is given back");
    }

    #[test]
    fn par_items_carry_the_submitters_tag_and_deadline() {
        let rs = RunSet::new(2);
        let deadline = parallel::Deadline::after(std::time::Duration::from_secs(60));
        let seen = Mutex::new(Vec::new());
        rs.with_tag("exp-a", || {
            parallel::with_deadline(deadline, || {
                rs.par((0..4).collect(), |_: u32| {
                    seen.lock()
                        .unwrap()
                        .push((parallel::current_tag(), parallel::current_deadline()));
                });
            })
        });
        assert_eq!(*seen.lock().unwrap(), vec![(Some("exp-a"), deadline); 4]);
        assert_eq!(parallel::current_tag(), None, "the tag is restored");
        assert_eq!(
            parallel::current_deadline(),
            None,
            "the deadline is restored"
        );
        // The next batch wears its own submitter's context.
        rs.par((0..4).collect(), |_: u32| {
            assert_eq!(
                (parallel::current_tag(), parallel::current_deadline()),
                (None, None)
            );
        });
    }

    #[test]
    fn concurrent_submitters_never_run_more_than_jobs_items_at_once() {
        let rs = RunSet::new(2);
        let (ran, in_flight, max_in_flight) =
            (AtomicU32::new(0), AtomicU32::new(0), AtomicU32::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    rs.par((0..10).collect(), |_: u32| {
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        max_in_flight.fetch_max(now, Ordering::SeqCst);
                        // Widens the overlap; the cap must hold under
                        // any interleaving.
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 40);
        let max = max_in_flight.load(Ordering::SeqCst);
        assert!(
            (1..=2).contains(&max),
            "{max} items ran at once on a 2-job set"
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let stats = ExpStats {
            wall_samples_us: vec![4_000_000, 1_000_000, 3_000_000, 2_000_000],
            ..ExpStats::default()
        };
        assert_eq!(stats.run_wall_p50_s(), 2.0);
        assert_eq!(stats.run_wall_p99_s(), 4.0);
        assert_eq!(ExpStats::default().run_wall_p99_s(), 0.0);
    }
}
