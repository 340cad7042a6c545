//! The per-layer metric set a traced run prints. Every workload prints
//! every metric; one that its workload never exercises reads 0 (for
//! example `snap.bytes` on `sweep`, which never takes a snapshot), which
//! is the measured value, not a gap.

use std::collections::HashMap;

use crate::report::Outcome;
use crate::spans::{self, Breakdown, Record};
use crate::Args;

/// `(name, unit)` of every per-layer metric except the `self_s.*` rows.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("workloads.ns_per_uop", "ns"),
    ("sim.self_ns_per_instr", "ns"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.events_per_instr", "ratio"),
    ("sim.cycles_skipped_per_event", "ratio"),
    ("sim.build_us_per_run", "us"),
    ("core.ns_per_decision", "ns"),
    ("baselines.pid.ns_per_decision", "ns"),
    ("baselines.attack-decay.ns_per_decision", "ns"),
    ("core.decisions_per_kinstr", "1/kinstr"),
    ("core.actions_per_decision", "ratio"),
    ("bench.pool_busy_ratio", "ratio"),
    ("bench.tail_idle_s", "s"),
    ("bench.baseline_memo_hit_ratio", "ratio"),
    ("bench.segment_ms_p99", "ms"),
    ("snap.snapshot_us", "us"),
    ("snap.restore_us", "us"),
    ("snap.bytes", "B"),
    ("trace.encode_ns_per_event", "ns"),
    ("trace.bytes_per_event", "B"),
    ("trace.anchor_share", "ratio"),
    ("trace.read_ms", "ms"),
    ("trace.index_ms", "ms"),
    ("replay.resim_events", "count"),
    ("replay.useful_ratio", "ratio"),
    ("replay.cold_start_share", "ratio"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("serve.server_hit_p50_us", "us"),
    ("serve.server_miss_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.runs_executed", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.loop_iter_p99_us", "us"),
    ("client.send_lag_p99_ms", "ms"),
    ("tail.p99_ms", "ms"),
    ("sweep.traced_overhead_pct", "%"),
    ("record-replay.traced_overhead_pct", "%"),
    ("serve-mixed.traced_overhead_pct", "%"),
    ("model.energy_savings_pct", "%"),
    ("model.slowdown_pct", "%"),
    ("model.edp_improvement_pct", "%"),
    ("model.reaction_ns_mean", "ns"),
];

/// Values set so far; unset metrics print as 0.
#[derive(Debug, Default)]
pub struct LayerMetrics(HashMap<&'static str, f64>);

impl LayerMetrics {
    /// Sets a metric listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(name, value);
    }
}

/// Emits the per-layer metrics and the self-time rows of `breakdown`
/// into `out`, and writes the kept spans to `benchmark/out/`.
pub fn finish_traced(
    out: &mut Outcome,
    metrics: &LayerMetrics,
    breakdown: &Breakdown,
    records: &[Record],
    args: &Args,
) -> Result<(), String> {
    for line in breakdown.notes(&args.workload) {
        out.note(line);
    }
    let path = crate::bench_dir()
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written = spans::write_jsonl(&path, records)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.note(format!("{written} spans written to {}", path.display()));
    for (name, unit) in PER_LAYER {
        out.metric(name, metrics.0.get(name).copied().unwrap_or(0.0), unit);
    }
    for &(row, ns) in &breakdown.rows {
        out.metric(format!("self_s.{row}"), ns as f64 / 1e9, "s");
    }
    out.metric("self_s.total", breakdown.total_ns as f64 / 1e9, "s");
    Ok(())
}
