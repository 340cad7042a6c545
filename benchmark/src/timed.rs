//! The traced runs' view of the engine: wrappers that put a span around
//! every call the engine makes into another layer, and a mirror of
//! `mcd_bench::runner::{build_machine, run_sharded}` that puts a span
//! around every call the harness makes into the engine.
//!
//! The wrappers forward every trait method unchanged (controller names,
//! decision events and saved state included), so a traced run produces
//! bit-identical results — which each workload checks by digest.

use std::sync::atomic::{AtomicU64, Ordering};

use mcd_bench::runner::{controller_for, RunConfig, Scheme};
use mcd_bench::RunError;
use mcd_sim::{
    ControllerCtx, CtrlEvent, DomainId, DvfsAction, DvfsController, Machine, QueueSample,
    SimResult, SnapshotSource, TraceEvent, TraceSink,
};
use mcd_workloads::{registry, MicroOp, TraceGenerator};

use crate::spans::{self, Layer};

/// The workload generator with every call timed as [`Layer::Workloads`].
pub struct TimedGen(pub TraceGenerator);

impl Iterator for TimedGen {
    type Item = MicroOp;

    #[inline]
    fn next(&mut self) -> Option<MicroOp> {
        spans::leaf(Layer::Workloads, || self.0.next())
    }
}

impl SnapshotSource for TimedGen {
    fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        spans::leaf(Layer::Workloads, || self.0.save_state(w))
    }

    fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        spans::leaf(Layer::Workloads, || self.0.load_state(r))
    }
}

/// Decisions (`on_sample` calls) and actions (calls that returned a
/// frequency request) for the adaptive, PID and attack/decay layers,
/// summed over every [`TimedController`] dropped so far.
static DECISIONS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];
static ACTIONS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];

fn controller_slot(layer: Layer) -> usize {
    match layer {
        Layer::Core => 0,
        Layer::Pid => 1,
        Layer::AttackDecay => 2,
        other => unreachable!("{other:?} is not a controller layer"),
    }
}

/// `(decisions, actions)` counted for a controller layer.
pub fn decisions(layer: Layer) -> (u64, u64) {
    let i = controller_slot(layer);
    (
        DECISIONS[i].load(Ordering::Relaxed),
        ACTIONS[i].load(Ordering::Relaxed),
    )
}

/// Clears the decision counters.
pub fn reset_decisions() {
    for (d, a) in DECISIONS.iter().zip(&ACTIONS) {
        d.store(0, Ordering::Relaxed);
        a.store(0, Ordering::Relaxed);
    }
}

/// A controller with every trait call timed under its scheme's layer.
/// Counts stay in the wrapper (no shared cache line on the per-sample
/// path) and fold into the process totals when it drops.
#[derive(Debug)]
pub struct TimedController {
    inner: Box<dyn DvfsController>,
    layer: Layer,
    decisions: u64,
    actions: u64,
}

impl TimedController {
    /// Wraps `inner`, charging its time to `layer`.
    pub fn new(inner: Box<dyn DvfsController>, layer: Layer) -> Self {
        TimedController {
            inner,
            layer,
            decisions: 0,
            actions: 0,
        }
    }
}

impl Drop for TimedController {
    fn drop(&mut self) {
        let i = controller_slot(self.layer);
        DECISIONS[i].fetch_add(self.decisions, Ordering::Relaxed);
        ACTIONS[i].fetch_add(self.actions, Ordering::Relaxed);
    }
}

impl DvfsController for TimedController {
    fn on_sample(&mut self, ctx: &ControllerCtx<'_>, sample: QueueSample) -> Option<DvfsAction> {
        let inner = &mut self.inner;
        let action = spans::leaf(self.layer, || inner.on_sample(ctx, sample));
        self.decisions += 1;
        self.actions += u64::from(action.is_some());
        action
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn drain_events(&mut self, out: &mut Vec<CtrlEvent>) {
        let inner = &mut self.inner;
        spans::leaf(self.layer, || inner.drain_events(out))
    }

    fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        spans::leaf(self.layer, || self.inner.save_state(w))
    }

    fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        let inner = &mut self.inner;
        spans::leaf(self.layer, || inner.load_state(r))
    }
}

/// A sink with every call timed as [`Layer::TraceEncode`].
pub struct TimedSink<'a>(pub &'a mut dyn TraceSink);

impl TraceSink for TimedSink<'_> {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        let inner = &mut *self.0;
        spans::leaf(Layer::TraceEncode, || inner.record(event))
    }

    fn record_anchor(&mut self, retired: u64, snapshot: &[u8]) {
        let inner = &mut *self.0;
        spans::leaf(Layer::TraceEncode, || {
            inner.record_anchor(retired, snapshot)
        })
    }
}

/// The controller layer a scheme's decisions are charged to. The
/// workloads run only the paper's three controlled schemes.
fn scheme_layer(scheme: Scheme) -> Layer {
    match scheme {
        Scheme::Adaptive => Layer::Core,
        Scheme::Pid => Layer::Pid,
        Scheme::AttackDecay => Layer::AttackDecay,
        other => unreachable!("no workload runs {other:?} under a controller"),
    }
}

/// `mcd_bench::runner::build_machine` over the timed generator and
/// controllers, the whole construction timed as [`Layer::SimBuild`].
pub fn build_machine(
    benchmark: &str,
    scheme: Scheme,
    cfg: &RunConfig,
) -> Result<Machine<TimedGen>, RunError> {
    spans::span(Layer::SimBuild, || {
        let spec = registry::by_name(benchmark)
            .ok_or_else(|| RunError::Workload(format!("unknown benchmark {benchmark}")))?;
        let mut sim = cfg.sim.clone();
        if cfg.traces {
            sim = sim.with_traces();
        }
        let trace =
            TraceGenerator::try_new(&spec, cfg.ops, cfg.seed).map_err(RunError::Workload)?;
        let mut machine = Machine::try_new(sim, TimedGen(trace))?;
        for &d in &DomainId::BACKEND {
            if let Some(c) = controller_for(scheme, d, cfg) {
                machine = machine
                    .with_controller(d, Box::new(TimedController::new(c, scheme_layer(scheme))));
            }
        }
        Ok(machine)
    })
}

/// `mcd_bench::runner::run_sharded` (cold start, no warm store) with a
/// span around each engine call: `try_advance_traced` and
/// `finish_traced` as [`Layer::Sim`], `snapshot` and `restore` as
/// [`Layer::Snapshot`] / [`Layer::Restore`], and every rebuild through
/// [`build_machine`].
pub fn run_sharded(
    benchmark: &str,
    scheme: Scheme,
    cfg: &RunConfig,
    sink: &mut dyn TraceSink,
) -> Result<SimResult, RunError> {
    let build = || build_machine(benchmark, scheme, cfg);
    let mut machine = build()?;
    let Some(shard) = cfg.shard_ops.filter(|&s| s > 0) else {
        spans::span(Layer::Sim, || machine.try_advance_traced(u64::MAX, sink))?;
        return Ok(spans::span(Layer::Sim, || machine.finish_traced(sink)));
    };
    loop {
        let boundary = machine.retired() + shard;
        if spans::span(Layer::Sim, || machine.try_advance_traced(boundary, sink))? {
            return Ok(spans::span(Layer::Sim, || machine.finish_traced(sink)));
        }
        let snapshot = spans::span(Layer::Snapshot, || machine.snapshot());
        sink.record_anchor(machine.retired(), &snapshot);
        machine = build()?;
        spans::span(Layer::Restore, || machine.restore(&snapshot)).map_err(|e| {
            RunError::Config(format!("shard-boundary snapshot failed to restore: {e}"))
        })?;
    }
}
