//! The MCD machine: event loop, pipeline stages, and DVFS plumbing.

use std::collections::VecDeque;

use mcd_power::{
    ActivityEvent, DomainEnergyMeter, Energy, EnergyModel, LeakageModel, OpIndex, TimePs,
};
use mcd_workloads::{MicroOp, OpClass};

use crate::bpred::BranchPredictor;
use crate::cache::Cache;
use crate::clock::DomainClock;
use crate::config::{DomainId, SimConfig};
use crate::controller::{ControllerCtx, DvfsController, QueueSample};
use crate::error::SimError;
use crate::memory::MainMemory;
use crate::metrics::{FreqTracePoint, Metrics, StallCause};
use crate::onset::{OnsetEffect, OnsetTracker};
use crate::queue::{IqEntry, IssueQueue};
use crate::regfile::FreeList;
use crate::result::{DomainResult, SimResult};
use crate::rob::{Rob, RobEntry};
use crate::scheduler::{self, DomainSlot, EventKind};
use crate::scoreboard::{AddrMap, SeqScoreboard};
use crate::trace::{CtrlEvent, NullSink, TraceEvent, TraceSink};

/// Sampling periods between cumulative queue-occupancy histogram
/// snapshots emitted to an enabled trace sink (≈16 µs of simulated time
/// at the Table 1 sampling rate).
const HIST_SNAPSHOT_SAMPLES: u64 = 4096;

/// Wake deadline meaning "no timed wake — only an explicit signal".
const NEVER: TimePs = TimePs::new(u64::MAX);

/// Minimum sleep window worth entering. A sleep/replay round trip has a
/// fixed cost (deadline computation, watch bookkeeping, replay-loop
/// hoisting); a wake deadline closer than this is cheaper to reach by
/// staying awake. Purely a wall-clock heuristic — sleeping is semantically
/// free either way, so the threshold cannot affect results — but it is a
/// deterministic function of simulation state, so runs remain reproducible
/// event for event.
const MIN_SLEEP: TimePs = TimePs::new(4_000);

/// A domain's scheduling state (see `scheduler.rs` for the event model).
///
/// An awake domain contributes its next clock edge to the event
/// population; a sleeping one contributes its wake deadline. Sleep is only
/// entered when every local edge up to the wake point is *provably*
/// uneventful — nothing to fetch/dispatch/retire for the front end,
/// nothing issuable for a back end — so the skipped edges can be replayed
/// in a closed loop (clock advance + energy accounting) with results
/// bit-identical to stepping through them.
#[derive(Debug, Clone, Copy)]
enum Sleep {
    Awake,
    /// Asleep until `wake_at`, or until an explicit signal (a watched
    /// completion, a queue enqueue, an issue that frees queue space, or a
    /// controller retarget), whichever comes first. `stall` is the front
    /// end's dispatch-stall cause, replayed into the stall counters for
    /// every skipped edge exactly as the stepping core counted them.
    Asleep {
        wake_at: TimePs,
        stall: Option<StallCause>,
    },
}

/// Where and when an instruction finished executing.
#[derive(Debug, Clone, Copy)]
struct Completion {
    at: TimePs,
    domain: DomainId,
}

impl Default for Completion {
    fn default() -> Self {
        Completion {
            at: TimePs::ZERO,
            domain: DomainId::FrontEnd,
        }
    }
}

/// A pool of identical functional units, each free again at a known time.
#[derive(Debug, Clone)]
struct FuPool {
    free_at: Vec<TimePs>,
}

impl FuPool {
    fn new(units: u32) -> Self {
        FuPool {
            free_at: vec![TimePs::ZERO; units as usize],
        }
    }

    /// Claims a free unit until `busy_until`; returns false if none free.
    #[inline]
    fn try_issue(&mut self, now: TimePs, busy_until: TimePs) -> bool {
        if let Some(u) = self.free_at.iter_mut().find(|t| **t <= now) {
            *u = busy_until;
            true
        } else {
            false
        }
    }

    #[inline]
    fn busy_count(&self, now: TimePs) -> usize {
        self.free_at.iter().filter(|&&t| t > now).count()
    }

    /// The earliest instant after `now` at which a busy unit frees: until
    /// then [`FuPool::busy_count`] keeps its value at `now`.
    #[inline]
    fn next_free_after(&self, now: TimePs) -> Option<TimePs> {
        self.free_at.iter().copied().filter(|&t| t > now).min()
    }

    fn total(&self) -> usize {
        self.free_at.len()
    }

    fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        w.put_seq(&self.free_at, |w, t| w.put_u64(t.as_ps()));
    }

    fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        let free_at: Vec<u64> = r.take_seq(|r| r.take_u64())?;
        if free_at.len() != self.free_at.len() {
            return Err(mcd_snap::SnapError::Mismatch(format!(
                "FU pool holds {} units, snapshot has {}",
                self.free_at.len(),
                free_at.len()
            )));
        }
        self.free_at = free_at.into_iter().map(TimePs::new).collect();
        Ok(())
    }
}

/// Execution latency of `class` in consumer-domain cycles, and whether the
/// unit pipelines (frees after one cycle) or blocks until completion.
fn latency_cycles(class: OpClass) -> (u32, bool) {
    match class {
        OpClass::IntAlu | OpClass::Branch => (1, true),
        OpClass::IntMul => (3, true),
        OpClass::FpAlu => (4, true),
        OpClass::FpMul => (4, true),
        OpClass::FpDiv => (12, false),
        // Loads/stores are priced by the memory hierarchy, not here.
        OpClass::Load | OpClass::Store => (1, true),
    }
}

/// The simulated MCD processor.
///
/// Construct with [`Machine::new`], optionally attach per-domain DVFS
/// controllers with [`Machine::with_controller`], then call
/// [`Machine::run`] to simulate until the trace is drained.
pub struct Machine<T> {
    cfg: SimConfig,
    now: TimePs,
    clocks: [DomainClock; 4],
    meters: [DomainEnergyMeter; 4],
    leakage: LeakageModel,
    // Per-domain one-entry memo of `leakage.energy`, keyed on the edge's
    // (period ps, voltage bits): a domain's period and voltage hold for
    // long stretches of edges. A pure function of its key, so it is never
    // serialized and survives restore.
    leak_memo: [Option<((u64, u64), Energy)>; 4],
    // Per back end: its last functional-unit utilization and the instant
    // it stops holding (the next unit to free). Reset whenever the domain
    // claims a unit and on restore; never serialized.
    fu_util: [(f64, TimePs); 3],
    controllers: [Option<Box<dyn DvfsController>>; 3],

    trace: T,
    trace_done: bool,
    fetch_buf: VecDeque<MicroOp>,
    fetch_stall_until: TimePs,
    pending_redirect: Option<u64>,

    rob: Rob,
    iqs: [IssueQueue; 3],
    int_regs: FreeList,
    fp_regs: FreeList,
    // Completion records live from issue to retirement, so the live keys
    // span at most a ROB's worth of sequence numbers — the window the
    // ring scoreboard is sized by. The store map is pruned at retirement
    // (see `retire`), bounding it the same way.
    completed: SeqScoreboard<Completion>,
    store_map: AddrMap,
    // Per-tick scratch reused across calls so the issue loop never
    // allocates; always left empty between ticks.
    issue_cand: Vec<(usize, MicroOp)>,
    issued_idx: Vec<usize>,

    int_alus: FuPool,
    int_muls: FuPool,
    fp_alus: FuPool,
    fp_muls: FuPool,
    ls_ports: FuPool,

    icache: Cache,
    dcache: Cache,
    l2: Cache,
    memory: MainMemory,
    bpred: BranchPredictor,

    next_sample: TimePs,
    metrics: Metrics,
    retired: u64,
    // Event-scheduling state: per-domain sleep slots, the producer
    // sequence numbers each sleeping domain is waiting on, and the
    // back-end queue the front end needs space in (if any).
    sleep: [Sleep; 4],
    watch: [Vec<u64>; 4],
    fe_iq_wait: Option<usize>,
    // Sleep-evaluation backoff: when an evaluation finds a wake deadline
    // too near to pay for the sleep/replay round trip, re-evaluating
    // before that deadline cannot reach a different conclusion, so the
    // evaluation itself is skipped until then.
    no_sleep_until: [TimePs; 4],
    // Controller-event scratch reused across samples so draining never
    // allocates in the steady state; always left empty between ticks.
    ctrl_events: Vec<CtrlEvent>,
    // Pending deviation onsets, for reaction-time measurement.
    onsets: OnsetTracker,
}

impl<T> std::fmt::Debug for Machine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("retired", &self.retired)
            .field("rob_len", &self.rob.len())
            .finish_non_exhaustive()
    }
}

impl<T: Iterator<Item = MicroOp>> Machine<T> {
    /// Builds a machine over `trace` with configuration `cfg`. All domains
    /// start at the maximum operating point with no controllers attached
    /// (the study's full-speed baseline).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`]; use
    /// [`Machine::try_new`] to handle that as a typed error.
    pub fn new(cfg: SimConfig, trace: T) -> Self {
        Self::try_new(cfg, trace).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible sibling of [`Machine::new`]: validates `cfg` first and
    /// returns [`SimError::InvalidConfig`] instead of panicking.
    pub fn try_new(cfg: SimConfig, trace: T) -> Result<Self, SimError> {
        cfg.validate()?;
        let curve = cfg.vf_curve.clone();
        let max = curve.max_index();
        let model = EnergyModel::new(curve.max().voltage);
        let mk_clock = |i: usize| {
            DomainClock::new(
                curve.clone(),
                cfg.dvfs_style,
                max,
                cfg.jitter_sigma_ps,
                cfg.jitter_seed.wrapping_add(i as u64 * 0x9e37),
            )
        };
        let clocks = [mk_clock(0), mk_clock(1), mk_clock(2), mk_clock(3)];
        let meters = [
            DomainEnergyMeter::new(DomainId::FrontEnd.class(), model.clone()),
            DomainEnergyMeter::new(DomainId::Int.class(), model.clone()),
            DomainEnergyMeter::new(DomainId::Fp.class(), model.clone()),
            DomainEnergyMeter::new(DomainId::Ls.class(), model),
        ];
        Ok(Machine {
            now: TimePs::ZERO,
            clocks,
            meters,
            leakage: LeakageModel::new(curve.max().voltage).with_scale(cfg.leakage_scale),
            leak_memo: [None; 4],
            fu_util: [(0.0, TimePs::ZERO); 3],
            controllers: [None, None, None],
            trace,
            trace_done: false,
            fetch_buf: VecDeque::with_capacity(4 * cfg.decode_width as usize),
            fetch_stall_until: TimePs::ZERO,
            pending_redirect: None,
            rob: Rob::new(cfg.rob_size),
            iqs: [
                IssueQueue::new(cfg.int_queue),
                IssueQueue::new(cfg.fp_queue),
                IssueQueue::new(cfg.ls_queue),
            ],
            int_regs: FreeList::new(cfg.int_regs),
            fp_regs: FreeList::new(cfg.fp_regs),
            completed: SeqScoreboard::new(cfg.rob_size),
            store_map: AddrMap::new(),
            issue_cand: Vec::with_capacity(cfg.issue_width as usize),
            issued_idx: Vec::with_capacity(cfg.issue_width as usize),
            int_alus: FuPool::new(cfg.int_alus),
            int_muls: FuPool::new(cfg.int_muls),
            fp_alus: FuPool::new(cfg.fp_alus),
            fp_muls: FuPool::new(cfg.fp_muls),
            ls_ports: FuPool::new(cfg.ls_ports),
            icache: Cache::new(cfg.l1i_bytes, cfg.l1i_assoc, cfg.line_bytes),
            dcache: Cache::new(cfg.l1d_bytes, cfg.l1d_assoc, cfg.line_bytes),
            l2: Cache::new(cfg.l2_bytes, cfg.l2_assoc, cfg.line_bytes),
            memory: MainMemory::new(cfg.mem_first_chunk, cfg.mem_inter_chunk, cfg.mem_chunks),
            bpred: BranchPredictor::table1(),
            next_sample: cfg.sample_period,
            metrics: Metrics {
                occupancy_hist: [
                    vec![0; cfg.int_queue + 1],
                    vec![0; cfg.fp_queue + 1],
                    vec![0; cfg.ls_queue + 1],
                ],
                ..Metrics::default()
            },
            retired: 0,
            sleep: [Sleep::Awake; 4],
            watch: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            fe_iq_wait: None,
            no_sleep_until: [TimePs::ZERO; 4],
            ctrl_events: Vec::new(),
            onsets: OnsetTracker::new(),
            cfg,
        })
    }

    /// Parks `domain`'s clock at operating point `idx` before the run
    /// starts, instead of the default maximum. The domain begins the run
    /// already settled there — no initial max→target transition — which is
    /// what a pinned-frequency measurement (e.g. fitting the μ–f model of
    /// equation 9) needs: with the default start, a short run's mean
    /// frequency and throughput are contaminated by up to ~55 µs of
    /// regulator slew.
    ///
    /// # Panics
    ///
    /// Panics if `idx` exceeds the configured curve's maximum index.
    pub fn with_initial_operating_point(
        mut self,
        domain: DomainId,
        idx: mcd_power::OpIndex,
    ) -> Self {
        assert!(
            idx.0 <= self.cfg.vf_curve.max_index().0,
            "operating point {} out of range",
            idx.0
        );
        let i = domain.index();
        self.clocks[i] = DomainClock::new(
            self.cfg.vf_curve.clone(),
            self.cfg.dvfs_style,
            idx,
            self.cfg.jitter_sigma_ps,
            self.cfg.jitter_seed.wrapping_add(i as u64 * 0x9e37),
        );
        self
    }

    /// Attaches a DVFS controller to a back-end domain.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is the front end (which runs at fixed maximum
    /// speed, as in the paper's experiments).
    pub fn with_controller(
        mut self,
        domain: DomainId,
        controller: Box<dyn DvfsController>,
    ) -> Self {
        self.controllers[domain.backend_index()] = Some(controller);
        self
    }

    /// Builds one controller per back-end domain from `factory` and
    /// attaches them.
    pub fn with_controllers<F>(mut self, mut factory: F) -> Self
    where
        F: FnMut(DomainId) -> Box<dyn DvfsController>,
    {
        for &d in &DomainId::BACKEND {
            self.controllers[d.backend_index()] = Some(factory(d));
        }
        self
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Runs the machine until the trace is drained and the pipeline is
    /// empty, then returns the accumulated results.
    ///
    /// Equivalent to [`Machine::run_traced`] with a [`NullSink`]: the
    /// sink's disabled flag compiles the event-construction sites out of
    /// the sampling path, so this is exactly as fast as before the
    /// observability layer existed.
    ///
    /// # Panics
    ///
    /// Panics if simulated time exceeds `cfg.max_sim_time` (a livelock
    /// guard — a correct configuration always terminates).
    pub fn run(self) -> SimResult {
        self.run_traced(&mut NullSink)
    }

    /// Runs the machine, streaming [`TraceEvent`]s into `sink`.
    ///
    /// The result is bit-identical to [`Machine::run`] for any sink: the
    /// sink only observes, it never feeds back into simulation state.
    ///
    /// # Panics
    ///
    /// Panics if simulated time exceeds `cfg.max_sim_time` (a livelock
    /// guard — a correct configuration always terminates). Use
    /// [`Machine::try_run_traced`] to get that as [`SimError::Diverged`]
    /// instead.
    pub fn run_traced<S: TraceSink + ?Sized>(self, sink: &mut S) -> SimResult {
        self.try_run_traced(sink).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible sibling of [`Machine::run_traced`]: the livelock guard
    /// surfaces as [`SimError::Diverged`] instead of a panic, so a sweep
    /// harness can report one divergent run and keep going.
    pub fn try_run_traced<S: TraceSink + ?Sized>(
        mut self,
        sink: &mut S,
    ) -> Result<SimResult, SimError> {
        let done = self.try_advance_traced(u64::MAX, sink)?;
        debug_assert!(done, "no boundary can precede u64::MAX retirements");
        Ok(self.finish_traced(sink))
    }

    /// Advances the event loop until either the trace drains (`Ok(true)`)
    /// or at least `boundary` instructions have retired (`Ok(false)`,
    /// paused *between* events with no transient state in flight — the
    /// instant [`Machine::snapshot`] captures).
    ///
    /// Segmenting a run at any boundaries and resuming each segment (in
    /// the same machine or via snapshot/restore into a fresh one) is
    /// bit-identical to one uninterrupted run, including the order of
    /// events streamed into `sink`.
    pub fn try_advance_traced<S: TraceSink + ?Sized>(
        &mut self,
        boundary: u64,
        sink: &mut S,
    ) -> Result<bool, SimError> {
        while !(self.trace_done && self.fetch_buf.is_empty() && self.rob.is_empty()) {
            if self.retired >= boundary {
                return Ok(false);
            }
            let ev = scheduler::pick_next(self.next_sample, &self.domain_slots());
            if ev.time > self.cfg.max_sim_time {
                return Err(self.diverged());
            }
            self.metrics.events_processed += 1;
            match ev.kind {
                EventKind::Sample => self.tick_sample(sink),
                EventKind::Edge(DomainId::FrontEnd) => self.tick_frontend(),
                EventKind::Edge(d) => self.tick_backend(d),
                // A timed wake: replay the skipped edges strictly before
                // the deadline and rejoin the edge population (the first
                // edge at or past the deadline runs as a normal tick).
                EventKind::Wake(d) => self.wake_domain(d.index(), ev.time, false),
            }
        }
        Ok(true)
    }

    /// Settles end-of-run debts after [`Machine::try_advance_traced`]
    /// returned `Ok(true)` and builds the result.
    ///
    /// The event loop exits right after the front-end tick that drained
    /// the pipeline. Sleeping domains still owe their skipped edges
    /// strictly before that instant; edges at exactly the exit time rank
    /// after the front end and were never processed by the stepping core
    /// either.
    pub fn finish_traced<S: TraceSink + ?Sized>(mut self, sink: &mut S) -> SimResult {
        let t_exit = self.now;
        for i in 0..4 {
            self.wake_domain(i, t_exit, false);
        }
        // Final cumulative histogram snapshot, so every traced run ends
        // with the complete occupancy distribution per domain.
        if sink.enabled() {
            for &d in &DomainId::BACKEND {
                let bi = d.backend_index();
                sink.record(&TraceEvent::QueueHistogram {
                    at: self.now,
                    domain: d,
                    samples: self.metrics.samples,
                    counts: self.metrics.occupancy_hist[bi].clone(),
                });
            }
        }
        self.build_result()
    }

    // ----- event scheduling ---------------------------------------------

    /// The live event population for [`scheduler::pick_next`].
    fn domain_slots(&self) -> [DomainSlot; 4] {
        std::array::from_fn(|i| match self.sleep[i] {
            Sleep::Awake => DomainSlot::Edge(self.clocks[i].next_edge()),
            Sleep::Asleep { wake_at, .. } => DomainSlot::Wake(wake_at),
        })
    }

    /// The earliest wake deadline if *every* domain is asleep (capped at
    /// the divergence bound), or `None` while any domain is awake.
    fn sleep_horizon(&self) -> Option<TimePs> {
        let mut horizon = self.cfg.max_sim_time;
        for s in &self.sleep {
            match *s {
                Sleep::Awake => return None,
                Sleep::Asleep { wake_at, .. } => horizon = horizon.min(wake_at),
            }
        }
        Some(horizon)
    }

    /// Reproduces the stepping core's divergence point exactly: it
    /// processed every event with time within the bound before failing on
    /// the first minimum beyond it, so settle the sleepers' debt through
    /// the bound and report the true next-event time.
    fn diverged(&mut self) -> SimError {
        let max = self.cfg.max_sim_time;
        for i in 0..4 {
            self.wake_domain(i, max, true);
        }
        let mut at = self.next_sample;
        for c in &self.clocks {
            at = at.min(c.next_edge());
        }
        SimError::Diverged {
            at,
            retired: self.retired,
        }
    }

    /// Ends domain `di`'s sleep (no-op when awake): replays its skipped
    /// clock edges up to `limit` and returns it to the edge population.
    ///
    /// `inclusive` controls the edge exactly at `limit`. A waking signal
    /// raised by an event that *outranks* the sleeper at equal timestamps
    /// (a back-end issue waking the front end) must replay that edge too,
    /// because in event order it fired — blocked — before the signal.
    /// Signals from lower-ranked events (a front-end enqueue or a sample's
    /// retarget waking a back end) leave it pending as a live event.
    fn wake_domain(&mut self, di: usize, limit: TimePs, inclusive: bool) {
        let Sleep::Asleep { stall, .. } = self.sleep[di] else {
            return;
        };
        self.sleep[di] = Sleep::Awake;
        self.watch[di].clear();
        if di == DomainId::FrontEnd.index() {
            self.fe_iq_wait = None;
            self.replay_frontend(limit, inclusive, stall);
        } else {
            self.replay_backend(DomainId::ALL[di], limit, inclusive);
        }
    }

    /// Replays the front end's skipped edges: each is exactly the
    /// fully-blocked tick the stepping core executed — leakage, a
    /// zero-utilization cycle charge, and (with instructions waiting) one
    /// dispatch-stall count. Voltage and period are hoisted because the
    /// front end's regulator never retargets.
    fn replay_frontend(&mut self, limit: TimePs, inclusive: bool, stall: Option<StallCause>) {
        let di = DomainId::FrontEnd.index();
        let first = self.clocks[di].next_edge();
        if first > limit || (!inclusive && first == limit) {
            return;
        }
        let v = self.clocks[di].voltage_at(first);
        let period = self.clocks[di].cycles_to_time(1, first);
        let leak = self.leakage_at(di, period, v);
        loop {
            let e = self.clocks[di].next_edge();
            if e > limit || (!inclusive && e == limit) {
                break;
            }
            self.clocks[di].tick();
            self.meters[di].charge_leakage(leak);
            self.meters[di].charge_cycle(0.0, v);
            if let Some(cause) = stall {
                self.metrics.dispatch_stalls[cause.index()] += 1;
            }
            self.metrics.cycles_skipped += 1;
        }
    }

    /// Replays a back-end domain's skipped edges: clock advance, leakage,
    /// extreme-operating-point counters, and the cycle-energy charge at
    /// the (known, monotonically draining) functional-unit utilization.
    /// The regulator is settled across the whole window — sleep is never
    /// entered mid-transition and a retarget always wakes first — so the
    /// per-edge constants are hoisted.
    fn replay_backend(&mut self, d: DomainId, limit: TimePs, inclusive: bool) {
        let di = d.index();
        let bi = d.backend_index();
        let first = self.clocks[di].next_edge();
        if first > limit || (!inclusive && first == limit) {
            return;
        }
        debug_assert!(!self.clocks[di].regulator().is_transitioning(first));
        let v = self.clocks[di].voltage_at(first);
        let period = self.clocks[di].cycles_to_time(1, first);
        let leak = self.leakage_at(di, period, v);
        let target = self.clocks[di].regulator().target();
        let at_min = target.0 == 0;
        let at_max = target == self.cfg.vf_curve.max_index();
        loop {
            let e = self.clocks[di].next_edge();
            if e > limit || (!inclusive && e == limit) {
                break;
            }
            let edge = self.clocks[di].tick();
            self.meters[di].charge_leakage(leak);
            if at_min {
                self.metrics.fmin_cycles[bi] += 1;
            } else if at_max {
                self.metrics.fmax_cycles[bi] += 1;
            }
            debug_assert!(self.clocks[di].regulator().stall_until(edge).is_none());
            let util = self.fu_utilization(d, edge);
            self.meters[di].charge_cycle(util, v);
            self.metrics.cycles_skipped += 1;
        }
    }

    /// Wakes any sleeper watching producer `seq`, which completed during
    /// the back-end tick at `at`. The front end's replay is inclusive (its
    /// edge at `at` fired, blocked, before this back-end tick in event
    /// order); other back ends rank at their own index, and either way the
    /// new completion — strictly in the future — cannot change their edge
    /// at `at`, so exclusive replay keeps it as a live event.
    fn note_completion(&mut self, seq: u64, at: TimePs) {
        for di in 0..4 {
            if !self.watch[di].is_empty() && self.watch[di].contains(&seq) {
                self.wake_domain(di, at, di == DomainId::FrontEnd.index());
            }
        }
    }

    /// The synchronization penalty a result produced in `producer` pays
    /// before `consumer` may use it (the same rule as
    /// [`Machine::source_ready`]).
    fn sync_penalty(&self, producer: DomainId, consumer: DomainId) -> TimePs {
        match self.cfg.sync_model {
            crate::config::SyncModel::Arbitration if producer != consumer => self.cfg.sync_window,
            _ => TimePs::ZERO,
        }
    }

    /// Decides whether the front end can sleep after the tick at `edge`
    /// (`blocked` is that tick's dispatch obstacle, if any). It can when
    /// fetch, dispatch, and retirement are all durably blocked; the wake
    /// deadline is the earliest instant any of them can unblock, with
    /// unknown completion times covered by watches and full queues by an
    /// issue-space signal.
    fn maybe_sleep_frontend(&mut self, edge: TimePs, blocked: Option<StallCause>) {
        if self.cfg.cycle_stepping {
            return;
        }
        let di = DomainId::FrontEnd.index();
        if edge < self.no_sleep_until[di] {
            return;
        }
        let cap = 4 * self.cfg.decode_width as usize;
        let fetch_blocked = self.pending_redirect.is_some()
            || self.trace_done
            || self.fetch_buf.len() >= cap
            || edge < self.fetch_stall_until;
        if !fetch_blocked {
            return;
        }
        if !self.fetch_buf.is_empty() && blocked.is_none() {
            return;
        }
        if let Some(head) = self.rob.head() {
            // A ready head retires on the very next edge: stay awake.
            if self.source_ready(head.seq, edge, DomainId::FrontEnd) {
                return;
            }
        }
        let mut wake = NEVER;
        debug_assert!(self.watch[di].is_empty());
        let mut watch = std::mem::take(&mut self.watch[di]);
        {
            // Scoped so the closure's borrow of `watch` ends here.
            let mut track =
                |completed: &SeqScoreboard<Completion>, seq: u64| match completed.get(seq) {
                    Some(c) => Some(c.at + self.sync_penalty(c.domain, DomainId::FrontEnd)),
                    None => {
                        if !watch.contains(&seq) {
                            watch.push(seq);
                        }
                        None
                    }
                };
            if let Some(head) = self.rob.head() {
                if let Some(t) = track(&self.completed, head.seq) {
                    wake = wake.min(t);
                }
            }
            if let Some(bseq) = self.pending_redirect {
                if let Some(t) = track(&self.completed, bseq) {
                    wake = wake.min(t);
                }
            }
        }
        if self.pending_redirect.is_none() && !self.trace_done && edge < self.fetch_stall_until {
            wake = wake.min(self.fetch_stall_until);
        }
        let iq_wait = match blocked {
            Some(StallCause::IntQueueFull) => Some(0),
            Some(StallCause::FpQueueFull) => Some(1),
            Some(StallCause::LsQueueFull) => Some(2),
            _ => None,
        };
        // Defensive: never sleep with no wake source at all.
        if wake == NEVER && watch.is_empty() && iq_wait.is_none() {
            self.watch[di] = watch;
            return;
        }
        // Too-near wake: not worth the round trip (see `MIN_SLEEP`).
        if wake < edge + MIN_SLEEP {
            watch.clear();
            self.watch[di] = watch;
            self.no_sleep_until[di] = wake;
            return;
        }
        self.fe_iq_wait = iq_wait;
        self.watch[di] = watch;
        let stall = if self.fetch_buf.is_empty() {
            None
        } else {
            blocked
        };
        self.sleep[di] = Sleep::Asleep {
            wake_at: wake,
            stall,
        };
    }

    /// Decides whether back end `d` can sleep after an edge that issued
    /// nothing: computes the exact earliest instant any queued entry
    /// becomes ready. Entries gated on in-flight completions contribute a
    /// timed bound (readiness is fully determined by `visible_at` and
    /// completion times); entries gated on unissued producers register a
    /// watch. An empty queue sleeps on the enqueue signal alone.
    fn maybe_sleep_backend(&mut self, d: DomainId, edge: TimePs) {
        if self.cfg.cycle_stepping {
            return;
        }
        let di = d.index();
        if edge < self.no_sleep_until[di] {
            return;
        }
        if self.clocks[di].regulator().is_transitioning(edge) {
            return;
        }
        let bi = d.backend_index();
        let mut wake = NEVER;
        if !self.iqs[bi].is_empty() {
            debug_assert!(self.watch[di].is_empty());
            let mut watch = std::mem::take(&mut self.watch[di]);
            {
                let completed = &self.completed;
                let retired = self.retired;
                let sync_model = self.cfg.sync_model;
                let sync_window = self.cfg.sync_window;
                for e in self.iqs[bi].iter_mut() {
                    match Self::entry_ready_time(completed, retired, sync_model, sync_window, d, e)
                    {
                        // Fully-known producers: an exact, monotone bound.
                        Some(r) => wake = wake.min(r),
                        // Some producer is unissued: watch it instead.
                        None => {
                            for src in e.op.sources().chain(e.mem_dep) {
                                if src >= retired
                                    && completed.get(src).is_none()
                                    && !watch.contains(&src)
                                {
                                    watch.push(src);
                                }
                            }
                        }
                    }
                }
            }
            // Too-near wake: not worth the round trip (see `MIN_SLEEP`).
            if wake < edge + MIN_SLEEP {
                watch.clear();
                self.watch[di] = watch;
                self.no_sleep_until[di] = wake;
                return;
            }
            self.watch[di] = watch;
        }
        self.sleep[di] = Sleep::Asleep {
            wake_at: wake,
            stall: None,
        };
    }

    /// Leakage energy of domain `di` over one local `period` at `v`,
    /// through the domain's one-entry memo.
    fn leakage_at(&mut self, di: usize, period: TimePs, v: mcd_power::Voltage) -> Energy {
        let key = (period.as_ps(), v.as_volts().to_bits());
        match self.leak_memo[di] {
            Some((k, e)) if k == key => e,
            _ => {
                let e = self.leakage.energy(DomainId::ALL[di].class(), period, v);
                self.leak_memo[di] = Some((key, e));
                e
            }
        }
    }

    /// The fraction of `d`'s functional units busy at `now` (cycle-energy
    /// utilization). Between issues the busy units only free, each at a
    /// known instant, so the count is redone only once one has.
    fn fu_utilization(&mut self, d: DomainId, now: TimePs) -> f64 {
        let bi = d.backend_index();
        let (util, valid_until) = self.fu_util[bi];
        if now < valid_until {
            return util;
        }
        let (a, b) = match d {
            DomainId::Int => (&self.int_alus, Some(&self.int_muls)),
            DomainId::Fp => (&self.fp_alus, Some(&self.fp_muls)),
            DomainId::Ls => (&self.ls_ports, None),
            DomainId::FrontEnd => unreachable!("front end handled separately"),
        };
        let pools = std::iter::once(a).chain(b);
        let busy: usize = pools.clone().map(|p| p.busy_count(now)).sum();
        let total: usize = pools.clone().map(FuPool::total).sum();
        let util = busy as f64 / total as f64;
        let next_free = pools
            .filter_map(|p| p.next_free_after(now))
            .min()
            .unwrap_or(NEVER);
        self.fu_util[bi] = (util, next_free);
        util
    }

    // ----- readiness ---------------------------------------------------

    /// Whether producer `src`'s result is usable at time `t` by an op in
    /// `consumer`.
    fn source_ready(&self, src: u64, t: TimePs, consumer: DomainId) -> bool {
        if src < self.retired {
            return true; // architecturally committed long ago
        }
        match self.completed.get(src) {
            None => false,
            Some(c) => {
                let cross = c.domain != consumer;
                let penalty = match self.cfg.sync_model {
                    // Arbitration checks every cross-domain transfer
                    // against the synchronization window.
                    crate::config::SyncModel::Arbitration if cross => self.cfg.sync_window,
                    // Token-ring FIFOs forward results without a
                    // synchronization check while the ring is flowing.
                    _ => TimePs::ZERO,
                };
                c.at + penalty <= t
            }
        }
    }

    /// The exact instant entry `e` becomes issue-ready, if every producer
    /// is already completion-tracked — `None` while any producer is still
    /// unissued. Caches the computed instant on the entry (see
    /// [`IqEntry::ready_hint`]) and, while the answer is `None`, the
    /// producer that made it so ([`IqEntry::blocked_on`]); an entry is
    /// ready at `t` iff this returns `Some(r)` with `r <= t`.
    ///
    /// A free function over the borrowed pieces (not `&self`) so the scan
    /// can hold `&mut` entries of one queue while reading the scoreboard.
    /// Inlined: the issue scan and the sleep evaluation call it for every
    /// queued entry, and nearly every call ends at one of the two caches.
    #[inline(always)]
    fn entry_ready_time(
        completed: &SeqScoreboard<Completion>,
        retired: u64,
        sync_model: crate::config::SyncModel,
        sync_window: TimePs,
        consumer: DomainId,
        e: &mut IqEntry,
    ) -> Option<TimePs> {
        if e.ready_hint.is_some() {
            return e.ready_hint;
        }
        // Still waiting on the producer the last walk stopped at: the walk
        // would stop again. (Once tracked, a producer stays tracked until
        // it retires, and from then on `src < retired`.)
        if let Some(src) = e.blocked_on {
            if src >= retired && completed.get(src).is_none() {
                return None;
            }
        }
        Self::walk_sources(completed, retired, sync_model, sync_window, consumer, e)
    }

    /// The source walk behind [`Machine::entry_ready_time`], filling
    /// whichever of the entry's two caches applies.
    fn walk_sources(
        completed: &SeqScoreboard<Completion>,
        retired: u64,
        sync_model: crate::config::SyncModel,
        sync_window: TimePs,
        consumer: DomainId,
        e: &mut IqEntry,
    ) -> Option<TimePs> {
        let mut ready_at = e.visible_at;
        for src in e.op.sources().chain(e.mem_dep) {
            if src < retired {
                continue; // architecturally committed long ago
            }
            let Some(c) = completed.get(src) else {
                e.blocked_on = Some(src);
                return None;
            };
            let penalty = match sync_model {
                // Arbitration checks every cross-domain transfer against
                // the synchronization window; token-ring FIFOs forward
                // results without one while the ring is flowing.
                crate::config::SyncModel::Arbitration if c.domain != consumer => sync_window,
                _ => TimePs::ZERO,
            };
            ready_at = ready_at.max(c.at + penalty);
        }
        e.ready_hint = Some(ready_at);
        Some(ready_at)
    }

    // ----- back-end domains ---------------------------------------------

    fn tick_backend(&mut self, d: DomainId) {
        let di = d.index();
        let bi = d.backend_index();
        let edge = self.clocks[di].tick();
        self.now = edge;
        let v = self.clocks[di].voltage_at(edge);
        // Static power accrues per local period; at lower frequency the
        // periods lengthen, so leakage energy tracks wall-clock time.
        let period = self.clocks[di].cycles_to_time(1, edge);
        let leak = self.leakage_at(di, period, v);
        self.meters[di].charge_leakage(leak);

        // Range-saturation accounting: cycles the domain spends settled
        // at the extremes of the operating range (where the controller
        // has no headroom left in that direction).
        let reg = self.clocks[di].regulator();
        if !reg.is_transitioning(edge) {
            let target = reg.target();
            if target.0 == 0 {
                self.metrics.fmin_cycles[bi] += 1;
            } else if target == self.cfg.vf_curve.max_index() {
                self.metrics.fmax_cycles[bi] += 1;
            }
        }

        // Transmeta-style transitions stall the whole domain.
        if self.clocks[di].regulator().stall_until(edge).is_some() {
            self.meters[di].charge_cycle(0.0, v);
            return;
        }

        // Idle fast path: with nothing queued there is nothing to select
        // or issue — only the cycle-energy accounting below still applies
        // (units can stay busy from earlier multi-cycle issues).
        let mut issued_any = false;
        let mut struct_fail = false;
        if !self.iqs[bi].is_empty() {
            // Select ready entries in age order, bounded by issue width.
            // The single scan records each candidate's index *and* a copy
            // of its op, so the issue loop below never re-walks the
            // queue (previously an O(width × occupancy) `iter().nth`
            // per candidate). The scratch vectors are reused across
            // ticks to keep this loop allocation-free.
            let width = self.cfg.issue_width as usize;
            let mut candidates = std::mem::take(&mut self.issue_cand);
            {
                let completed = &self.completed;
                let retired = self.retired;
                let sync_model = self.cfg.sync_model;
                let sync_window = self.cfg.sync_window;
                for (i, e) in self.iqs[bi].iter_mut().enumerate() {
                    if candidates.len() >= width {
                        break;
                    }
                    let ready =
                        Self::entry_ready_time(completed, retired, sync_model, sync_window, d, e);
                    if ready.is_some_and(|r| r <= edge) {
                        candidates.push((i, e.op));
                    }
                }
            }

            // Try to claim functional units and compute completion times.
            let mut issued = std::mem::take(&mut self.issued_idx);
            for &(idx, op) in &candidates {
                let (lat, pipelined) = latency_cycles(op.class);
                let lat_time = self.clocks[di].cycles_to_time(lat, edge);
                let one_cycle = self.clocks[di].cycles_to_time(1, edge);

                let (pool, completion): (&mut FuPool, TimePs) = match op.class {
                    OpClass::IntAlu | OpClass::Branch => (&mut self.int_alus, edge + lat_time),
                    OpClass::IntMul => (&mut self.int_muls, edge + lat_time),
                    OpClass::FpAlu => (&mut self.fp_alus, edge + lat_time),
                    OpClass::FpMul | OpClass::FpDiv => (&mut self.fp_muls, edge + lat_time),
                    OpClass::Load | OpClass::Store => (&mut self.ls_ports, edge + lat_time),
                };
                let busy_until = if pipelined {
                    edge + one_cycle
                } else {
                    completion
                };
                if !pool.try_issue(edge, busy_until) {
                    // A ready entry denied by a structural hazard keeps the
                    // domain awake: readiness alone no longer predicts the
                    // next issue, so the next edge must re-evaluate.
                    struct_fail = true;
                    continue; // structural hazard; try younger ops
                }
                // The busy count changed: recount at the next use.
                self.fu_util[bi].1 = TimePs::ZERO;

                // Memory ops get their real completion from the hierarchy.
                let completion = if op.class.is_mem() {
                    self.execute_mem(&op, edge, v)
                } else {
                    self.charge_exec_energy(op.class, di, v);
                    completion
                };
                self.meters[di].charge_event(ActivityEvent::Issue, v);
                self.completed.insert(
                    op.seq,
                    Completion {
                        at: completion,
                        domain: d,
                    },
                );
                // A sleeper watching this producer now has a known wake
                // bound; settle its debt through the present.
                self.note_completion(op.seq, edge);
                issued.push(idx);
            }
            self.iqs[bi].remove_issued(&issued);
            issued_any = !issued.is_empty();
            candidates.clear();
            issued.clear();
            self.issue_cand = candidates;
            self.issued_idx = issued;
        }

        // Cycle energy at the fraction of busy units.
        let util = self.fu_utilization(d, edge);
        self.meters[di].charge_cycle(util, v);

        // Issuing from this queue frees the space a sleeping front end may
        // be blocked on. Inclusive: the front end's edge at `edge` outranks
        // this one and fired — still blocked — before the issue.
        if issued_any && self.fe_iq_wait == Some(bi) {
            self.wake_domain(DomainId::FrontEnd.index(), edge, true);
        }

        if !issued_any && !struct_fail {
            self.maybe_sleep_backend(d, edge);
        }
    }

    fn charge_exec_energy(&mut self, class: OpClass, di: usize, v: mcd_power::Voltage) {
        let ev = match class {
            OpClass::IntAlu | OpClass::Branch => ActivityEvent::IntAlu,
            OpClass::IntMul => ActivityEvent::IntMul,
            OpClass::FpAlu => ActivityEvent::FpAlu,
            OpClass::FpMul => ActivityEvent::FpMul,
            OpClass::FpDiv => ActivityEvent::FpDiv,
            OpClass::Load | OpClass::Store => return,
        };
        self.meters[di].charge_event(ev, v);
        // Register traffic: two reads, one write (when a value is produced).
        self.meters[di].charge_events(ActivityEvent::RegRead, 2, v);
        if class.produces_value() {
            self.meters[di].charge_event(ActivityEvent::RegWrite, v);
        }
    }

    /// Executes a load/store against the cache hierarchy; returns its
    /// completion time and charges LS-domain energy.
    fn execute_mem(&mut self, op: &MicroOp, edge: TimePs, v: mcd_power::Voltage) -> TimePs {
        let di = DomainId::Ls.index();
        let addr = op.addr.expect("memory op carries an address");
        self.meters[di].charge_event(ActivityEvent::LsqAccess, v);
        self.meters[di].charge_event(ActivityEvent::L1DAccess, v);
        let l1_time = self.clocks[di].cycles_to_time(self.cfg.l1_latency, edge);

        if op.class == OpClass::Store {
            // Stores drain through a write buffer: one port cycle, cache
            // line allocated on the spot (write-allocate, no stall).
            self.dcache.access(addr);
            return edge + self.clocks[di].cycles_to_time(1, edge);
        }

        if self.dcache.access(addr) {
            return edge + l1_time;
        }
        self.meters[di].charge_event(ActivityEvent::L2Access, v);
        let l2_time = self.clocks[di].cycles_to_time(self.cfg.l2_latency, edge);
        if self.l2.access(addr) {
            return edge + l1_time + l2_time;
        }
        self.meters[di].charge_event(ActivityEvent::MemAccess, v);
        // Off-chip: frequency-independent latency after the on-chip lookups.
        self.memory.access(edge + l1_time + l2_time)
    }

    // ----- front end ----------------------------------------------------

    fn tick_frontend(&mut self) {
        let di = DomainId::FrontEnd.index();
        let edge = self.clocks[di].tick();
        self.now = edge;
        let v = self.clocks[di].voltage_at(edge);
        let period = self.clocks[di].cycles_to_time(1, edge);
        let leak = self.leakage_at(di, period, v);
        self.meters[di].charge_leakage(leak);

        let retired_now = self.retire(edge, v);

        // A resolved mispredicted branch redirects fetch after the penalty.
        if let Some(bseq) = self.pending_redirect {
            if self.source_ready(bseq, edge, DomainId::FrontEnd) {
                self.pending_redirect = None;
                self.fetch_stall_until =
                    edge + self.clocks[di].cycles_to_time(self.cfg.mispredict_penalty, edge);
            }
        }

        let fetched_now = self.fetch(edge, v);
        let (dispatched_now, blocked) = self.dispatch(edge, v);

        let width = self.cfg.decode_width as f64;
        let util = (fetched_now as f64 + dispatched_now as f64 + retired_now as f64)
            / (2.0 * width + self.cfg.retire_width as f64);
        self.meters[di].charge_cycle(util.min(1.0), v);

        self.maybe_sleep_frontend(edge, blocked);
    }

    fn retire(&mut self, edge: TimePs, v: mcd_power::Voltage) -> u32 {
        let mut retired_now = 0;
        while retired_now < self.cfg.retire_width {
            let Some(head) = self.rob.head() else { break };
            let seq = head.seq;
            if !self.source_ready(seq, edge, DomainId::FrontEnd) {
                break;
            }
            let entry = self.rob.retire_head();
            if entry.holds_int_reg() {
                self.int_regs.release();
            } else if entry.holds_fp_reg() {
                self.fp_regs.release();
            }
            self.completed.remove(seq);
            // A committing store leaves the in-flight window: drop its
            // store-map entry (unless a younger store already took over
            // the address) so the map tracks the pipeline, not the whole
            // address footprint. Observably free: a load depending on a
            // retired store sees `seq < retired` and is ready instantly,
            // exactly as if the entry were still present.
            if let Some(addr) = entry.addr {
                self.store_map.remove_if(addr, seq);
            }
            self.retired += 1;
            retired_now += 1;
            self.meters[DomainId::FrontEnd.index()].charge_event(ActivityEvent::Commit, v);
        }
        retired_now
    }

    fn fetch(&mut self, edge: TimePs, v: mcd_power::Voltage) -> u32 {
        if self.pending_redirect.is_some() || edge < self.fetch_stall_until || self.trace_done {
            return 0;
        }
        let di = DomainId::FrontEnd.index();
        let cap = 4 * self.cfg.decode_width as usize;
        let mut fetched = 0;
        while fetched < self.cfg.decode_width && self.fetch_buf.len() < cap {
            let Some(op) = self.trace.next() else {
                self.trace_done = true;
                break;
            };
            self.meters[di].charge_event(ActivityEvent::Fetch, v);

            // Instruction-cache lookup; a miss stalls subsequent fetch.
            if !self.icache.access(op.pc) {
                self.meters[di].charge_event(ActivityEvent::L2Access, v);
                let stall = if self.l2.access(op.pc) {
                    self.clocks[di].cycles_to_time(self.cfg.l2_latency, edge)
                } else {
                    self.meters[di].charge_event(ActivityEvent::MemAccess, v);
                    self.memory.access(edge) - edge
                };
                self.fetch_stall_until = edge + stall;
                self.fetch_buf.push_back(op);
                fetched += 1;
                break;
            }

            if op.class == OpClass::Branch {
                self.meters[di].charge_event(ActivityEvent::BpredLookup, v);
                let pred = self.bpred.predict(op.pc);
                self.meters[di].charge_event(ActivityEvent::BpredUpdate, v);
                let correct = self.bpred.update(op.pc, pred, op.taken);
                let seq = op.seq;
                self.fetch_buf.push_back(op);
                fetched += 1;
                if !correct {
                    // No wrong-path execution in trace-driven mode: model
                    // the bubble by freezing fetch until the branch
                    // resolves, plus the redirect penalty. The wrong-path
                    // instructions a real front end would have fetched and
                    // decoded before the redirect still cost energy.
                    let wrong_path = (self.cfg.mispredict_penalty * self.cfg.decode_width) as u64;
                    self.meters[di].charge_events(ActivityEvent::Fetch, wrong_path, v);
                    self.meters[di].charge_events(ActivityEvent::DecodeRename, wrong_path, v);
                    self.pending_redirect = Some(seq);
                    break;
                }
                continue;
            }
            self.fetch_buf.push_back(op);
            fetched += 1;
        }
        fetched
    }

    /// Returns the dispatch count and the obstacle that ended the scan (if
    /// any) — the latter feeds the front end's sleep evaluation.
    fn dispatch(&mut self, edge: TimePs, v: mcd_power::Voltage) -> (u32, Option<StallCause>) {
        let di = DomainId::FrontEnd.index();
        let mut dispatched = 0;
        let mut blocked: Option<StallCause> = None;
        while dispatched < self.cfg.decode_width {
            let Some(&op) = self.fetch_buf.front() else {
                break;
            };
            if self.rob.is_full() {
                blocked = Some(StallCause::RobFull);
                break;
            }
            let target = op.class.domain();
            let bi = match target {
                mcd_workloads::ExecDomain::Integer => 0,
                mcd_workloads::ExecDomain::FloatingPoint => 1,
                mcd_workloads::ExecDomain::LoadStore => 2,
            };
            if self.iqs[bi].is_full() {
                blocked = Some(match bi {
                    0 => StallCause::IntQueueFull,
                    1 => StallCause::FpQueueFull,
                    _ => StallCause::LsQueueFull,
                });
                break;
            }
            // Rename: claim a physical register for value producers
            // (exactly one space per op, so a failed claim leaks nothing).
            let needs_fp = op.class.produces_value() && op.class.is_fp();
            let needs_int = op.class.produces_value() && !op.class.is_fp();
            if needs_int && !self.int_regs.try_alloc() {
                blocked = Some(StallCause::IntRegs);
                break;
            }
            if needs_fp && !self.fp_regs.try_alloc() {
                blocked = Some(StallCause::FpRegs);
                break;
            }

            self.fetch_buf.pop_front();
            self.rob.push(RobEntry {
                seq: op.seq,
                class: op.class,
                addr: (op.class == OpClass::Store).then_some(op.addr).flatten(),
            });
            let mem_dep = match op.class {
                OpClass::Load => op
                    .addr
                    .and_then(|a| self.store_map.get(a))
                    .filter(|&s| s < op.seq),
                _ => None,
            };
            if op.class == OpClass::Store {
                let a = op.addr.expect("store carries an address");
                self.store_map.insert(a, op.seq);
            }
            // An enqueue is the signal an empty-queue sleeper waits on.
            // Wake it *before* reading its clock below: the sync-stall
            // comparison needs the consumer's true next edge. Exclusive —
            // the consumer's edge at this instant ranks after the front
            // end's and stays a live event.
            if !matches!(self.sleep[1 + bi], Sleep::Awake) {
                self.wake_domain(1 + bi, edge, false);
            }
            let visible_at = match self.cfg.sync_model {
                // Arbitration: every enqueue synchronizes across the
                // boundary before the consumer may observe it.
                crate::config::SyncModel::Arbitration => edge + self.cfg.sync_window,
                // Token-ring: only an enqueue into an empty FIFO pays the
                // window (the ring must restart); otherwise entries flow
                // behind their predecessors for free.
                crate::config::SyncModel::TokenRing => {
                    if self.iqs[bi].is_empty() {
                        edge + self.cfg.sync_window
                    } else {
                        edge
                    }
                }
            };
            // A synchronization stall: the window pushed visibility past
            // the consumer's next clock edge, costing it (at least) one
            // issue opportunity.
            if visible_at > self.clocks[1 + bi].next_edge() {
                self.metrics.sync_enqueues[bi] += 1;
            }
            self.iqs[bi].push(IqEntry {
                op,
                visible_at,
                mem_dep,
                ready_hint: None,
                blocked_on: None,
            });
            self.meters[di].charge_event(ActivityEvent::DecodeRename, v);
            self.meters[di].charge_event(ActivityEvent::Dispatch, v);
            dispatched += 1;
        }
        // A fully-blocked cycle with work waiting is a dispatch stall.
        if dispatched == 0 {
            if let Some(cause) = blocked {
                self.metrics.dispatch_stalls[cause.index()] += 1;
            }
        }
        (dispatched, blocked)
    }

    // ----- sampling & DVFS ------------------------------------------------

    fn tick_sample<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        let t = self.next_sample;
        self.now = t;
        self.next_sample = t + self.cfg.sample_period;
        self.metrics.samples += 1;

        // Sample batching: with every domain asleep and no per-sample
        // observer attached (controllers, traces, an enabled sink), a
        // sample's only effect is the always-on occupancy accounting of a
        // *frozen* queue state — so all samples up to the earliest wake
        // deadline collapse into closed-form bulk adds.
        if !self.cfg.cycle_stepping
            && !sink.enabled()
            && !self.cfg.record_occupancy
            && !self.cfg.record_frequency
            && self.controllers.iter().all(|c| c.is_none())
        {
            if let Some(horizon) = self.sleep_horizon() {
                let p = self.cfg.sample_period;
                if horizon >= t + p {
                    let k = (horizon - t).as_ps() / p.as_ps() + 1;
                    self.metrics.samples += k - 1;
                    self.metrics.cycles_skipped += k - 1;
                    for &d in &DomainId::BACKEND {
                        let bi = d.backend_index();
                        let occupancy = self.iqs[bi].len() as u64;
                        self.metrics.occupancy_sum[bi] += occupancy * k;
                        let hist = &mut self.metrics.occupancy_hist[bi];
                        let slot = (occupancy as usize).min(hist.len() - 1);
                        hist[slot] += k;
                    }
                    self.now = t + p * (k - 1);
                    self.next_sample = t + p * k;
                    return;
                }
            }
        }

        if self.cfg.record_frequency {
            self.metrics.retired_trace.push(self.retired);
        }
        for &d in &DomainId::BACKEND {
            let di = d.index();
            let bi = d.backend_index();
            let occupancy = self.iqs[bi].len() as u32;
            self.metrics.occupancy_sum[bi] += occupancy as u64;
            {
                let hist = &mut self.metrics.occupancy_hist[bi];
                let slot = (occupancy as usize).min(hist.len() - 1);
                hist[slot] += 1;
            }
            if self.cfg.record_occupancy {
                self.metrics.occupancy[bi].push(occupancy.min(u8::MAX as u32) as u8);
            }
            if self.cfg.record_frequency {
                let f_max = self.cfg.vf_curve.max().frequency;
                let rel = self.clocks[di].frequency_at(t).relative_to(f_max);
                self.metrics.frequency[bi].push(FreqTracePoint {
                    time: t,
                    rel_freq: rel,
                });
            }

            let current = self.clocks[di].regulator().target();
            let in_transition = self.clocks[di].regulator().is_transitioning(t);
            let single_step_time = self.clocks[di].single_step_time();
            let mut action = None;
            let mut events = std::mem::take(&mut self.ctrl_events);
            if let Some(ctrl) = self.controllers[bi].as_mut() {
                let ctx = ControllerCtx {
                    now: t,
                    domain: d,
                    current,
                    curve: &self.cfg.vf_curve,
                    in_transition,
                    single_step_time,
                    sample_period: self.cfg.sample_period,
                    retired: self.retired,
                };
                let sample = QueueSample {
                    occupancy,
                    capacity: self.iqs[bi].capacity() as u32,
                };
                action = ctrl.on_sample(&ctx, sample);
                ctrl.drain_events(&mut events);
            }
            // Observe decision events *before* applying the action, so a
            // relay that fires the same sample its window was entered
            // still has its onset on record for reaction timing.
            for ev in &events {
                self.observe_ctrl_event(bi, d, ev, sink);
            }
            events.clear();
            self.ctrl_events = events;

            if let Some(action) = action {
                let target = action.resolve(current, &self.cfg.vf_curve);
                if target != current {
                    // Retargeting invalidates a sleeper's hoisted operating
                    // point: settle its debt at the old settled point first.
                    // Exclusive — its edge at `t` ranks after the sample.
                    self.wake_domain(di, t, false);
                    self.clocks[di].regulator_mut().request(target, t);
                    self.metrics.dvfs_actions[bi] += 1;
                    self.note_freq_step(t, d, current, target, sink);
                }
            }
        }

        if sink.enabled() && self.metrics.samples.is_multiple_of(HIST_SNAPSHOT_SAMPLES) {
            for &d in &DomainId::BACKEND {
                let bi = d.backend_index();
                sink.record(&TraceEvent::QueueHistogram {
                    at: t,
                    domain: d,
                    samples: self.metrics.samples,
                    counts: self.metrics.occupancy_hist[bi].clone(),
                });
            }
        }
    }

    /// Folds one controller decision event into the always-on counters
    /// and (when the sink is enabled) forwards it as a trace event.
    fn observe_ctrl_event<S: TraceSink + ?Sized>(
        &mut self,
        bi: usize,
        d: DomainId,
        ev: &CtrlEvent,
        sink: &mut S,
    ) {
        self.onsets.ctrl(bi, ev);
        match *ev {
            CtrlEvent::RelayArm { .. } => self.metrics.relay_arms[bi] += 1,
            CtrlEvent::RelayFire { .. } => self.metrics.relay_fires[bi] += 1,
            CtrlEvent::RelayReset { .. } => self.metrics.relay_resets[bi] += 1,
            CtrlEvent::WindowEnter { .. } | CtrlEvent::WindowExit { .. } => {}
        }
        if sink.enabled() {
            sink.record(&TraceEvent::Controller {
                domain: d,
                event: *ev,
            });
        }
    }

    /// Accounts for an applied frequency retarget: step direction
    /// counters, reaction time from the earliest pending deviation onset,
    /// and (when enabled) a [`TraceEvent::FreqStep`].
    fn note_freq_step<S: TraceSink + ?Sized>(
        &mut self,
        t: TimePs,
        d: DomainId,
        from: OpIndex,
        to: OpIndex,
        sink: &mut S,
    ) {
        let bi = d.backend_index();
        if to.0 > from.0 {
            self.metrics.freq_steps_up[bi] += 1;
        } else {
            self.metrics.freq_steps_down[bi] += 1;
        }
        if let OnsetEffect::Reacted(ps) = self.onsets.step(bi, t) {
            self.metrics.reaction_sum_ps[bi] += ps;
            self.metrics.reaction_count[bi] += 1;
        }
        if sink.enabled() {
            let curve = &self.cfg.vf_curve;
            sink.record(&TraceEvent::FreqStep {
                at: t,
                domain: d,
                from,
                to,
                from_mhz: curve.point(from).frequency.as_mhz(),
                to_mhz: curve.point(to).frequency.as_mhz(),
                from_mv: curve.point(from).voltage.as_mv(),
                to_mv: curve.point(to).voltage.as_mv(),
            });
        }
    }

    // ----- results ---------------------------------------------------------

    fn build_result(mut self) -> SimResult {
        for &d in &DomainId::BACKEND {
            self.metrics.transition_time_ps[d.backend_index()] = self.clocks[d.index()]
                .regulator()
                .total_transition_time(self.now)
                .as_ps();
        }
        let f_max_hz = self.cfg.vf_curve.max().frequency.as_hz() as f64;
        let secs = self.now.as_secs();
        let mut domains = Vec::with_capacity(4);
        let mut regulator_energy = Energy::ZERO;
        for &d in &DomainId::ALL {
            let di = d.index();
            let cycles = self.clocks[di].edges();
            let mean_rel_freq = if secs > 0.0 {
                cycles as f64 / (secs * f_max_hz)
            } else {
                0.0
            };
            regulator_energy += self.clocks[di].regulator().switching_energy();
            domains.push(DomainResult {
                domain: d,
                cycles,
                energy: *self.meters[di].breakdown(),
                mean_rel_freq,
                transitions: self.clocks[di].regulator().transitions_started(),
            });
        }
        SimResult {
            instructions: self.retired,
            sim_time: self.now,
            domains,
            regulator_energy,
            metrics: self.metrics,
            queue_peaks: [self.iqs[0].peak(), self.iqs[1].peak(), self.iqs[2].peak()],
            l1d_miss_rate: self.dcache.miss_rate(),
            l2_miss_rate: self.l2.miss_rate(),
            mispredict_rate: self.bpred.mispredict_rate(),
        }
    }
}

impl<T: Iterator<Item = MicroOp> + crate::snapshot::SnapshotSource> Machine<T> {
    /// Serializes the machine's complete evolving state (see
    /// [`crate::snapshot`] for the format). Must be called between events
    /// — i.e. on a machine paused by [`Machine::try_advance_traced`] or
    /// never run — when the per-tick scratch buffers are empty.
    pub fn snapshot(&self) -> Vec<u8> {
        debug_assert!(self.issue_cand.is_empty(), "snapshot mid-tick");
        debug_assert!(self.issued_idx.is_empty(), "snapshot mid-tick");
        debug_assert!(self.ctrl_events.is_empty(), "snapshot mid-sample");
        let mut w = mcd_snap::SnapWriter::new();
        w.put_u32(crate::snapshot::SNAPSHOT_MAGIC);
        w.put_u32(crate::snapshot::SNAPSHOT_FORMAT_VERSION);
        w.put_u64(crate::snapshot::config_hash(&self.cfg));

        w.put_u64(self.now.as_ps());
        w.put_u64(self.next_sample.as_ps());
        w.put_u64(self.retired);
        w.put_bool(self.trace_done);
        w.put_u64(self.fetch_stall_until.as_ps());
        w.put_opt_u64(self.pending_redirect);

        for clock in &self.clocks {
            clock.save_state(&mut w);
        }
        for meter in &self.meters {
            meter.save_state(&mut w);
        }

        w.put_usize(self.fetch_buf.len());
        for op in &self.fetch_buf {
            op.save_state(&mut w);
        }
        self.rob.save_state(&mut w);
        for iq in &self.iqs {
            iq.save_state(&mut w);
        }
        self.int_regs.save_state(&mut w);
        self.fp_regs.save_state(&mut w);
        self.completed.save_state(&mut w, |w, c| {
            w.put_u64(c.at.as_ps());
            w.put_u8(c.domain.index() as u8);
        });
        self.store_map.save_state(&mut w);
        for pool in [
            &self.int_alus,
            &self.int_muls,
            &self.fp_alus,
            &self.fp_muls,
            &self.ls_ports,
        ] {
            pool.save_state(&mut w);
        }
        self.icache.save_state(&mut w);
        self.dcache.save_state(&mut w);
        self.l2.save_state(&mut w);
        self.memory.save_state(&mut w);
        self.bpred.save_state(&mut w);
        self.metrics.save_state(&mut w);

        for s in &self.sleep {
            match *s {
                Sleep::Awake => w.put_u8(0),
                Sleep::Asleep { wake_at, stall } => {
                    w.put_u8(1);
                    w.put_u64(wake_at.as_ps());
                    w.put_opt_u64(stall.map(|c| c.index() as u64));
                }
            }
        }
        for watch in &self.watch {
            w.put_seq(watch, |w, &seq| w.put_u64(seq));
        }
        w.put_opt_u64(self.fe_iq_wait.map(|i| i as u64));
        for &t in &self.no_sleep_until {
            w.put_u64(t.as_ps());
        }
        self.onsets.save_state(&mut w);

        // Controllers: presence, name, and a length-prefixed state blob,
        // so a stateless default (empty blob) and a stateful override
        // both round-trip without the machine knowing the difference.
        for ctrl in &self.controllers {
            match ctrl {
                None => w.put_bool(false),
                Some(c) => {
                    w.put_bool(true);
                    w.put_str(c.name());
                    let mut sub = mcd_snap::SnapWriter::new();
                    c.save_state(&mut sub);
                    w.put_bytes(&sub.into_bytes());
                }
            }
        }

        // The trace source, length-prefixed for the same reason.
        let mut sub = mcd_snap::SnapWriter::new();
        crate::snapshot::SnapshotSource::save_state(&self.trace, &mut sub);
        w.put_bytes(&sub.into_bytes());

        w.into_bytes()
    }

    /// Restores state captured by [`Machine::snapshot`] into a machine
    /// freshly built with the same configuration, controllers of the same
    /// types, and a trace source of the same specification. After a
    /// successful restore, continuing the run is bit-identical to the
    /// machine the snapshot was taken from.
    pub fn restore(&mut self, bytes: &[u8]) -> mcd_snap::SnapResult<()> {
        use mcd_snap::SnapError;
        let mut r = mcd_snap::SnapReader::new(bytes);
        r.expect_u32(crate::snapshot::SNAPSHOT_MAGIC, "snapshot magic")?;
        r.expect_u32(
            crate::snapshot::SNAPSHOT_FORMAT_VERSION,
            "snapshot format version",
        )?;
        r.expect_u64(crate::snapshot::config_hash(&self.cfg), "config hash")?;

        self.now = TimePs::new(r.take_u64()?);
        self.next_sample = TimePs::new(r.take_u64()?);
        self.retired = r.take_u64()?;
        self.trace_done = r.take_bool()?;
        self.fetch_stall_until = TimePs::new(r.take_u64()?);
        self.pending_redirect = r.take_opt_u64()?;

        for clock in &mut self.clocks {
            clock.load_state(&mut r)?;
        }
        for meter in &mut self.meters {
            meter.load_state(&mut r)?;
        }

        let fetch_len = r.take_usize()?;
        self.fetch_buf.clear();
        for _ in 0..fetch_len {
            self.fetch_buf.push_back(MicroOp::load_state(&mut r)?);
        }
        self.rob.load_state(&mut r)?;
        for iq in &mut self.iqs {
            iq.load_state(&mut r)?;
        }
        self.int_regs.load_state(&mut r)?;
        self.fp_regs.load_state(&mut r)?;
        self.completed.load_state(&mut r, |r| {
            let at = TimePs::new(r.take_u64()?);
            let di = r.take_u8()? as usize;
            let domain = DomainId::ALL.get(di).copied().ok_or_else(|| {
                SnapError::Mismatch(format!("completion domain index {di} out of range"))
            })?;
            Ok(Completion { at, domain })
        })?;
        self.store_map.load_state(&mut r)?;
        for pool in [
            &mut self.int_alus,
            &mut self.int_muls,
            &mut self.fp_alus,
            &mut self.fp_muls,
            &mut self.ls_ports,
        ] {
            pool.load_state(&mut r)?;
        }
        self.icache.load_state(&mut r)?;
        self.dcache.load_state(&mut r)?;
        self.l2.load_state(&mut r)?;
        self.memory.load_state(&mut r)?;
        self.bpred.load_state(&mut r)?;
        self.metrics.load_state(&mut r)?;

        for s in &mut self.sleep {
            *s = match r.take_u8()? {
                0 => Sleep::Awake,
                1 => {
                    let wake_at = TimePs::new(r.take_u64()?);
                    let stall = match r.take_opt_u64()? {
                        None => None,
                        Some(i) => Some(StallCause::from_index(i as usize).ok_or_else(|| {
                            SnapError::Mismatch(format!("stall cause index {i} out of range"))
                        })?),
                    };
                    Sleep::Asleep { wake_at, stall }
                }
                tag => {
                    return Err(SnapError::Mismatch(format!(
                        "sleep state tag {tag} invalid"
                    )));
                }
            };
        }
        for watch in &mut self.watch {
            *watch = r.take_seq(|r| r.take_u64())?;
        }
        self.fe_iq_wait = match r.take_opt_u64()? {
            None => None,
            Some(i) if i < 3 => Some(i as usize),
            Some(i) => {
                return Err(SnapError::Mismatch(format!(
                    "front-end queue wait index {i} out of range"
                )));
            }
        };
        for t in &mut self.no_sleep_until {
            *t = TimePs::new(r.take_u64()?);
        }
        self.onsets.load_state(&mut r)?;

        for (bi, ctrl) in self.controllers.iter_mut().enumerate() {
            let present = r.take_bool()?;
            if present != ctrl.is_some() {
                return Err(SnapError::Mismatch(format!(
                    "controller presence mismatch for backend {bi}: snapshot {present}, machine {}",
                    ctrl.is_some()
                )));
            }
            if let Some(c) = ctrl {
                let name = r.take_str()?;
                if name != c.name() {
                    return Err(SnapError::Mismatch(format!(
                        "controller mismatch for backend {bi}: snapshot '{name}', machine '{}'",
                        c.name()
                    )));
                }
                let blob = r.take_bytes()?;
                let mut sub = mcd_snap::SnapReader::new(blob);
                c.load_state(&mut sub)?;
                sub.finish()?;
            }
        }

        let blob = r.take_bytes()?;
        let mut sub = mcd_snap::SnapReader::new(blob);
        crate::snapshot::SnapshotSource::load_state(&mut self.trace, &mut sub)?;
        sub.finish()?;

        r.finish()?;
        // Per-tick scratch is empty by the snapshot contract; clear it in
        // case the restore target was paused mid-run itself.
        self.issue_cand.clear();
        self.issued_idx.clear();
        self.ctrl_events.clear();
        self.fu_util = [(0.0, TimePs::ZERO); 3];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::DvfsAction;
    use mcd_power::OpIndex;
    use mcd_workloads::{registry, TraceGenerator};

    fn run_benchmark(name: &str, ops: u64) -> SimResult {
        let spec = registry::by_name(name).expect("benchmark exists");
        let trace = TraceGenerator::new(&spec, ops, 1);
        Machine::new(SimConfig::default(), trace).run()
    }

    #[test]
    fn retires_every_instruction() {
        let r = run_benchmark("adpcm_encode", 10_000);
        assert_eq!(r.instructions, 10_000);
        assert!(r.sim_time > TimePs::ZERO);
    }

    #[test]
    fn ipc_is_plausible_for_ilp_code() {
        let r = run_benchmark("adpcm_encode", 20_000);
        assert!(r.ipc() > 0.3, "ipc {}", r.ipc());
        assert!(r.ipc() <= 4.0, "ipc {} exceeds fetch width", r.ipc());
    }

    #[test]
    fn deterministic_runs() {
        let a = run_benchmark("gzip", 5_000);
        let b = run_benchmark("gzip", 5_000);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.instructions, b.instructions);
        assert!((a.total_energy().as_joules() - b.total_energy().as_joules()).abs() < 1e-18);
    }

    #[test]
    fn memory_bound_code_is_slower_and_hits_memory() {
        let fast = run_benchmark("adpcm_encode", 10_000);
        let slow = run_benchmark("mcf", 10_000);
        assert!(
            slow.ipc() < fast.ipc(),
            "mcf {} vs adpcm {}",
            slow.ipc(),
            fast.ipc()
        );
        assert!(slow.l1d_miss_rate > 0.05, "l1d miss {}", slow.l1d_miss_rate);
    }

    #[test]
    fn fp_code_exercises_fp_domain() {
        let r = run_benchmark("wupwise", 10_000);
        let fp = r.domain(DomainId::Fp);
        assert!(fp.energy.compute.as_pj() > 0.0, "no FP compute energy");
        // Integer-only code leaves the FP compute meter untouched.
        let ri = run_benchmark("adpcm_encode", 10_000);
        assert_eq!(ri.domain(DomainId::Fp).energy.compute.as_pj(), 0.0);
    }

    #[test]
    fn all_domains_run_at_full_speed_without_controllers() {
        let r = run_benchmark("gzip", 10_000);
        for &d in &DomainId::ALL {
            let m = r.domain(d).mean_rel_freq;
            assert!((m - 1.0).abs() < 0.01, "{d} mean rel freq {m}");
        }
        assert_eq!(r.domain(DomainId::Int).transitions, 0);
    }

    /// Forces a domain to minimum frequency from the first sample.
    #[derive(Debug)]
    struct ForceMin;
    impl DvfsController for ForceMin {
        fn on_sample(&mut self, ctx: &ControllerCtx<'_>, _: QueueSample) -> Option<DvfsAction> {
            if ctx.current.0 > 0 {
                Some(DvfsAction::Set(OpIndex(0)))
            } else {
                None
            }
        }
        fn name(&self) -> &'static str {
            "force-min"
        }
    }

    #[test]
    fn scaling_fp_down_saves_energy_on_integer_code() {
        // The run must be several times the ~55 us full-range slew time for
        // the scaled FP domain to actually spend most of it at f_min.
        let spec = registry::by_name("adpcm_encode").expect("exists");
        let base = Machine::new(SimConfig::default(), TraceGenerator::new(&spec, 150_000, 1)).run();
        let scaled = Machine::new(SimConfig::default(), TraceGenerator::new(&spec, 150_000, 1))
            .with_controller(DomainId::Fp, Box::new(ForceMin))
            .run();
        assert_eq!(scaled.instructions, base.instructions);
        // FP is idle in adpcm: scaling it to f_min must save energy with
        // almost no slowdown.
        assert!(
            scaled.total_energy() < base.total_energy(),
            "scaled {} !< base {}",
            scaled.total_energy(),
            base.total_energy()
        );
        assert!(
            scaled.perf_degradation_vs(&base) < 0.02,
            "perf hit {}",
            scaled.perf_degradation_vs(&base)
        );
        assert!(scaled.domain(DomainId::Fp).mean_rel_freq < 0.5);
        assert!(scaled.domain(DomainId::Fp).transitions >= 1);
    }

    #[test]
    fn scaling_int_down_slows_integer_code() {
        // adpcm_decode is the most serial integer kernel (dep_mean 3), so
        // the INT domain at f_min cannot hide behind its ALU headroom.
        let spec = registry::by_name("adpcm_decode").expect("exists");
        let base = Machine::new(SimConfig::default(), TraceGenerator::new(&spec, 50_000, 1)).run();
        let scaled = Machine::new(SimConfig::default(), TraceGenerator::new(&spec, 50_000, 1))
            .with_controller(DomainId::Int, Box::new(ForceMin))
            .run();
        assert!(
            scaled.perf_degradation_vs(&base) > 0.15,
            "perf hit only {}",
            scaled.perf_degradation_vs(&base)
        );
    }

    #[test]
    fn occupancy_traces_recorded_when_enabled() {
        let spec = registry::by_name("gzip").expect("exists");
        let cfg = SimConfig::default().with_traces();
        let r = Machine::new(cfg, TraceGenerator::new(&spec, 10_000, 1)).run();
        assert_eq!(r.metrics.occupancy[0].len() as u64, r.metrics.samples);
        assert_eq!(r.metrics.frequency[0].len() as u64, r.metrics.samples);
        assert!(r.metrics.samples > 0);
    }

    #[test]
    fn slowing_a_domain_shows_up_in_stall_accounting() {
        use crate::metrics::StallCause;
        let spec = registry::by_name("adpcm_decode").expect("exists");
        let base = Machine::new(SimConfig::default(), TraceGenerator::new(&spec, 30_000, 1)).run();
        let slowed = Machine::new(SimConfig::default(), TraceGenerator::new(&spec, 30_000, 1))
            .with_controller(DomainId::Int, Box::new(ForceMin))
            .run();
        let idx = StallCause::IntQueueFull.index();
        assert!(
            slowed.metrics.dispatch_stalls[idx] > base.metrics.dispatch_stalls[idx],
            "slowed {} !> base {}",
            slowed.metrics.dispatch_stalls[idx],
            base.metrics.dispatch_stalls[idx]
        );
    }

    #[test]
    fn queue_peaks_are_positive_and_bounded() {
        let r = run_benchmark("swim", 10_000);
        let caps = [20usize, 16, 16];
        for (i, (&peak, &cap)) in r.queue_peaks.iter().zip(&caps).enumerate() {
            assert!(peak > 0, "queue {i} never held an entry");
            assert!(peak <= cap, "queue {i} peak {peak} over capacity {cap}");
        }
    }

    #[test]
    fn leakage_energy_accrues_with_time_not_frequency() {
        let spec = registry::by_name("adpcm_encode").expect("exists");
        let with = Machine::new(SimConfig::default(), TraceGenerator::new(&spec, 10_000, 1)).run();
        let cfg0 = SimConfig {
            leakage_scale: 0.0,
            ..SimConfig::default()
        };
        let without = Machine::new(cfg0, TraceGenerator::new(&spec, 10_000, 1)).run();
        for &d in &DomainId::ALL {
            assert!(
                with.domain(d).energy.leakage.as_joules() > 0.0,
                "{d} leaks nothing"
            );
            assert_eq!(without.domain(d).energy.leakage, Energy::ZERO);
        }
        // Leakage is a small but visible fraction of the total (≈ a few %).
        let frac = with
            .domains
            .iter()
            .map(|dr| dr.energy.leakage)
            .sum::<Energy>()
            / with.total_energy();
        assert!((0.005..0.25).contains(&frac), "leakage fraction {frac}");
    }

    /// `entry_ready_time` for an integer-domain consumer under
    /// arbitration with a 300 ps window.
    fn ready_time(
        completed: &SeqScoreboard<Completion>,
        retired: u64,
        e: &mut IqEntry,
    ) -> Option<TimePs> {
        Machine::<TraceGenerator>::entry_ready_time(
            completed,
            retired,
            crate::config::SyncModel::Arbitration,
            TimePs::new(300),
            DomainId::Int,
            e,
        )
    }

    /// The unissued-producer memo answers "not ready" while that producer
    /// is untracked, then steps aside: the entry becomes ready at exactly
    /// the instant the full walk computes, including after the producer
    /// it remembered has retired.
    #[test]
    fn blocked_entry_becomes_ready_exactly_when_the_walk_says() {
        let mut completed = SeqScoreboard::new(64);
        let mut retired = 2;
        let mut e = IqEntry {
            op: MicroOp::compute(9, OpClass::IntAlu, 0x400, Some(3), Some(5)),
            visible_at: TimePs::new(1_000),
            mem_dep: Some(7),
            ready_hint: None,
            blocked_on: None,
        };
        assert_eq!(ready_time(&completed, retired, &mut e), None);
        assert_eq!(e.blocked_on, Some(3));
        // Probed again with nothing issued: still not ready.
        assert_eq!(ready_time(&completed, retired, &mut e), None);

        let at = |ps| Completion {
            at: TimePs::new(ps),
            domain: DomainId::Int,
        };
        completed.insert(3, at(2_000));
        assert_eq!(ready_time(&completed, retired, &mut e), None);
        assert_eq!(e.blocked_on, Some(5));
        completed.insert(5, at(1_500));
        assert_eq!(ready_time(&completed, retired, &mut e), None);
        assert_eq!(e.blocked_on, Some(7));

        // A memo naming a producer that has since retired falls through
        // to the walk, which stops at the still-untracked 7.
        completed.remove(3);
        retired = 4;
        e.blocked_on = Some(3);
        assert_eq!(ready_time(&completed, retired, &mut e), None);
        assert_eq!(e.blocked_on, Some(7));

        // The store the load waits on issues in the LS domain: its result
        // pays the cross-domain window.
        completed.insert(
            7,
            Completion {
                at: TimePs::new(1_900),
                domain: DomainId::Ls,
            },
        );
        // The full walk: the same entry with both caches cleared.
        let mut fresh = IqEntry {
            ready_hint: None,
            blocked_on: None,
            ..e
        };
        let walked = ready_time(&completed, retired, &mut fresh);
        assert_eq!(walked, Some(TimePs::new(2_200)));
        assert_eq!(ready_time(&completed, retired, &mut e), walked);
        assert_eq!(e.ready_hint, walked);
        // The memo lives outside the snapshot: the format is unchanged.
        assert_eq!(crate::snapshot::SNAPSHOT_FORMAT_VERSION, 1);
    }

    #[test]
    fn token_ring_sync_is_cheaper_than_arbitration() {
        let spec = registry::by_name("gzip").expect("exists");
        let arb = SimConfig {
            jitter_sigma_ps: 0.0,
            ..SimConfig::default()
        };
        let mut ring = arb.clone();
        ring.sync_model = crate::config::SyncModel::TokenRing;
        let a = Machine::new(arb, TraceGenerator::new(&spec, 20_000, 1)).run();
        let r = Machine::new(ring, TraceGenerator::new(&spec, 20_000, 1)).run();
        assert!(
            r.sim_time <= a.sim_time,
            "token ring {} should not be slower than arbitration {}",
            r.sim_time,
            a.sim_time
        );
    }

    #[test]
    fn queue_occupancy_rises_when_consumer_is_slowed() {
        let spec = registry::by_name("adpcm_encode").expect("exists");
        let cfg = SimConfig::default().with_traces();
        let base = Machine::new(cfg.clone(), TraceGenerator::new(&spec, 20_000, 1)).run();
        let scaled = Machine::new(cfg, TraceGenerator::new(&spec, 20_000, 1))
            .with_controller(DomainId::Int, Box::new(ForceMin))
            .run();
        let bi = DomainId::Int.backend_index();
        assert!(
            scaled.metrics.mean_occupancy(bi) > base.metrics.mean_occupancy(bi),
            "scaled occ {} !> base occ {}",
            scaled.metrics.mean_occupancy(bi),
            base.metrics.mean_occupancy(bi)
        );
    }
}
