//! In-memory span recorder for the traced runs.
//!
//! Every call the benchmark makes into a layer's public function is
//! wrapped in a span. A span's *self time* is its duration minus the
//! durations of the spans it directly contains, so the self times of one
//! root span's tree partition that root's duration exactly — which is
//! what lets the per-layer rows add up to the measured total.
//!
//! Two kinds of span keep the cost proportional to what is needed:
//!
//! * [`span`] pushes a frame, may contain other spans, and is kept as a
//!   [`Record`] (id, parent, layer, thread, start, end) written out when
//!   the benchmark ends. Used for coarse calls: a run, a segment, a
//!   snapshot, a replay, an HTTP request.
//! * [`leaf`] contains no other span and is only summed (time + count)
//!   per layer. Used for the per-micro-op and per-sample calls the
//!   engine makes millions of times — a record per call would cost more
//!   memory than the run it measures.
//!
//! State is thread-local while a root span is open and folds into one
//! process-wide total when the root closes, so worker threads never
//! contend on the hot path.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::host;

/// The layers a span can be charged to. Names follow the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Layer {
    /// A benchmark task: one run, recording or replay on a pool worker,
    /// or one load-generator thread. Its self time is the `other` row.
    Task,
    /// `TraceGenerator` iteration and its snapshot state (mcd-workloads).
    Workloads,
    /// Building a ready machine: `TraceGenerator::try_new`,
    /// `Machine::try_new` and the controllers.
    SimBuild,
    /// Engine self time: `try_advance_traced` / `finish_traced` minus
    /// the generator, controller and sink calls they make (mcd-sim).
    Sim,
    /// The paper's adaptive controller (mcd-adaptive).
    Core,
    /// The PID fixed-interval baseline (mcd-baselines).
    Pid,
    /// The attack/decay baseline (mcd-baselines).
    AttackDecay,
    /// `Machine::snapshot` (mcd-snap via mcd-sim).
    Snapshot,
    /// `Machine::restore` (mcd-snap via mcd-sim).
    Restore,
    /// `BinarySink` record / record_anchor / finish (mcd-trace).
    TraceEncode,
    /// `read_mcdt` (mcd-trace).
    TraceRead,
    /// `read_index` (mcd-trace).
    TraceIndex,
    /// `replay_episode`, including its own decode and re-simulation
    /// (mcd-bench).
    Replay,
    /// One HTTP `/run` exchange against the in-process server, send to
    /// last byte (mcd-serve).
    Http,
    /// One `GET /metrics` scrape (mcd-serve).
    Metrics,
    /// A load-generator thread sleeping until a request is due.
    ClientWait,
}

impl Layer {
    /// Every layer, in row order.
    pub const ALL: [Layer; 16] = [
        Layer::Task,
        Layer::Workloads,
        Layer::SimBuild,
        Layer::Sim,
        Layer::Core,
        Layer::Pid,
        Layer::AttackDecay,
        Layer::Snapshot,
        Layer::Restore,
        Layer::TraceEncode,
        Layer::TraceRead,
        Layer::TraceIndex,
        Layer::Replay,
        Layer::Http,
        Layer::Metrics,
        Layer::ClientWait,
    ];

    /// Row name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Task => "other",
            Layer::Workloads => "mcd-workloads.generator",
            Layer::SimBuild => "mcd-sim.build",
            Layer::Sim => "mcd-sim.engine",
            Layer::Core => "mcd-adaptive",
            Layer::Pid => "mcd-baselines.pid",
            Layer::AttackDecay => "mcd-baselines.attack-decay",
            Layer::Snapshot => "mcd-snap.snapshot",
            Layer::Restore => "mcd-snap.restore",
            Layer::TraceEncode => "mcd-trace.encode",
            Layer::TraceRead => "mcd-trace.read",
            Layer::TraceIndex => "mcd-trace.index",
            Layer::Replay => "mcd-bench.replay",
            Layer::Http => "mcd-serve.http",
            Layer::Metrics => "mcd-serve.metrics",
            Layer::ClientWait => "client.wait",
        }
    }
}

const N: usize = Layer::ALL.len();

/// One kept span.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Span id (unique in the process).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer charged.
    pub layer: Layer,
    /// Kernel thread id the span ran on.
    pub thread: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Per-layer sums: self time and call count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Self time per layer, nanoseconds (indexed by `Layer as usize`).
    pub self_ns: [u64; N],
    /// Calls per layer.
    pub calls: [u64; N],
}

impl Totals {
    /// Self time charged to `layer`, nanoseconds.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Calls made into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Sum of every layer's self time, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    fn add(&mut self, other: &Totals) {
        for i in 0..N {
            self.self_ns[i] += other.self_ns[i];
            self.calls[i] += other.calls[i];
        }
    }
}

struct Frame {
    layer: Layer,
    id: u64,
    parent: u64,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Local {
    thread: u64,
    stack: Vec<Frame>,
    totals: Totals,
    records: Vec<Record>,
}

#[derive(Default)]
struct Global {
    totals: Totals,
    records: Vec<Record>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static GLOBAL: Mutex<Global> = Mutex::new(Global {
    totals: Totals {
        self_ns: [0; N],
        calls: [0; N],
    },
    records: Vec::new(),
});
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn since_epoch(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Times `f` as a leaf span of `layer`: summed, not kept. `f` must not
/// open spans itself.
#[inline]
pub fn leaf<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.totals.self_ns[layer as usize] += ns;
        l.totals.calls[layer as usize] += 1;
        if let Some(top) = l.stack.last_mut() {
            top.child_ns += ns;
        }
    });
    out
}

/// Times `f` as a kept span of `layer`, nested under the thread's open
/// span (or as a root). When a root closes, the thread's sums and
/// records fold into the process-wide totals.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.thread == 0 {
            l.thread = host::thread_id();
        }
        let parent = l.stack.last().map_or(0, |f| f.id);
        l.stack.push(Frame {
            layer,
            id,
            parent,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    let out = f();
    let end = Instant::now();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let frame = l.stack.pop().expect("span frames are balanced");
        let ns = end.saturating_duration_since(frame.start).as_nanos() as u64;
        l.totals.self_ns[frame.layer as usize] += ns - frame.child_ns.min(ns);
        l.totals.calls[frame.layer as usize] += 1;
        if let Some(top) = l.stack.last_mut() {
            top.child_ns += ns;
        }
        let record = Record {
            id: frame.id,
            parent: frame.parent,
            layer: frame.layer,
            thread: l.thread,
            start_ns: since_epoch(frame.start),
            end_ns: since_epoch(end),
        };
        l.records.push(record);
        if l.stack.is_empty() {
            let totals = std::mem::take(&mut l.totals);
            let records = std::mem::take(&mut l.records);
            let mut g = GLOBAL.lock().expect("span totals poisoned");
            g.totals.add(&totals);
            g.records.extend(records);
        }
    });
    out
}

/// Takes everything recorded so far and resets the recorder. Call only
/// while no root span is open; the first call also fixes the epoch span
/// times are measured from.
pub fn drain() -> (Totals, Vec<Record>) {
    EPOCH.get_or_init(Instant::now);
    let mut g = GLOBAL.lock().expect("span totals poisoned");
    let totals = std::mem::take(&mut g.totals);
    let records = std::mem::take(&mut g.records);
    (totals, records)
}

/// Rows that are not spans: worker time outside any task, and the
/// server-side split of HTTP exchange time read from `/metrics`.
pub const EXTRA_ROWS: [&str; 3] = [
    "bench.pool_idle",
    "mcd-serve.router.hit",
    "mcd-serve.router.miss",
];

/// A traced phase's self-time breakdown: one row per layer plus the
/// [`EXTRA_ROWS`], which must add up to `total_ns`.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// `(row name, nanoseconds)` for every layer and extra row.
    pub rows: Vec<(&'static str, u64)>,
    /// The measured total the rows partition.
    pub total_ns: u64,
    /// What the total is.
    pub basis: String,
}

impl Breakdown {
    /// Rows from span `totals` with `extra` rows (by [`EXTRA_ROWS`] name)
    /// added; `moved` reassigns nanoseconds from one row to another (the
    /// server-side part of HTTP time).
    pub fn new(
        totals: &Totals,
        extra: &[(&'static str, u64)],
        moved: &[(Layer, &'static str, u64)],
        total_ns: u64,
        basis: String,
    ) -> Breakdown {
        let mut rows: Vec<(&'static str, u64)> = Layer::ALL
            .iter()
            .map(|&l| (l.name(), totals.self_ns(l)))
            .collect();
        rows.extend(EXTRA_ROWS.iter().map(|&name| {
            let ns = extra.iter().filter(|e| e.0 == name).map(|e| e.1).sum();
            (name, ns)
        }));
        for &(from, to, ns) in moved {
            let ns = ns.min(totals.self_ns(from));
            for row in rows.iter_mut() {
                if row.0 == from.name() {
                    row.1 -= ns;
                } else if row.0 == to {
                    row.1 += ns;
                }
            }
        }
        Breakdown {
            rows,
            total_ns,
            basis,
        }
    }

    /// Sum of the rows, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.1).sum()
    }

    /// Note lines: one per non-empty row, then the reconciliation.
    pub fn notes(&self, title: &str) -> Vec<String> {
        let total = self.total_ns.max(1) as f64;
        let mut lines = vec![format!("{title}: self time by layer ({})", self.basis)];
        for &(name, ns) in &self.rows {
            if ns > 0 {
                lines.push(format!(
                    "  {name:<28} {:>12.6} s {:>6.2}%",
                    ns as f64 / 1e9,
                    ns as f64 / total * 100.0
                ));
            }
        }
        lines.push(format!(
            "  {:<28} {:>12.6} s (rows sum {:.6} s, difference {} ns)",
            "total",
            self.total_ns as f64 / 1e9,
            self.sum_ns() as f64 / 1e9,
            self.sum_ns() as i128 - self.total_ns as i128
        ));
        lines
    }
}

/// Writes kept spans as JSON lines to `path` (parent directories are
/// created). Returns the number written.
pub fn write_jsonl(path: &std::path::Path, records: &[Record]) -> std::io::Result<usize> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in records {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            r.id,
            r.parent,
            r.layer.name(),
            r.thread,
            r.start_ns,
            r.end_ns
        )?;
    }
    out.flush()?;
    Ok(records.len())
}
