//! `sweep`: a closed batch of the paper's Figure 9/10 grid — every
//! registry benchmark under {baseline, adaptive, PID, attack/decay} at
//! quick size, unsharded and untraced — the work `repro` spends its time
//! on.
//!
//! An untraced pass drives the grid exactly as `schemes::outcomes` does:
//! one `RunSet::par` item per (benchmark, controlled scheme), each asking
//! the memo for its baseline and then calling `RunSet::run`. A traced
//! pass runs the same 68 simulations through `RunSet::run_custom` on the
//! timed mirror of the harness (see [`crate::timed`]), baselines as items
//! of their own since the memo's internal compute cannot be wrapped from
//! outside.

use std::sync::Arc;
use std::time::Instant;

use mcd_bench::runner::{Outcome as SchemeOutcome, RunConfig, Scheme};
use mcd_bench::{RunError, RunSet};
use mcd_sim::SimResult;
use mcd_workloads::registry;

use crate::digest::{self, Fnv, Reference};
use crate::layers::{finish_traced, LayerMetrics};
use crate::measure::{check_host, passes, pool_stats, timed_setups};
use crate::report::{median, ratio, windowed_percentile, Outcome, Rng};
use crate::spans::{self, Breakdown, Layer};
use crate::{host, timed, Args};

/// Instructions per run (the `quick` size `repro --quick` uses).
pub const OPS: u64 = 40_000;
/// Workload seeds with reference digests; a run's `--seed` picks a
/// seeded order over them.
const POOL_SEEDS: u64 = 32;
const REF_FILE: &str = "ref/sweep.txt";
/// The four columns of the grid, in digest order.
const SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::Adaptive,
    Scheme::Pid,
    Scheme::AttackDecay,
];

fn cfg_for(seed: u64) -> RunConfig {
    let mut cfg = RunConfig::quick().with_ops(OPS).with_shard_ops(0);
    cfg.seed = seed;
    cfg
}

/// One grid pass: 68 results in (benchmark, [`SCHEMES`]) order plus the
/// host-side measurements.
struct Pass {
    seed: u64,
    wall_s: f64,
    /// `names.len() * 4` results, benchmark-major.
    results: Vec<Result<SimResult, RunError>>,
    /// Host time of each `RunSet::run` call (controlled schemes), ms.
    latencies_ms: Vec<f64>,
    /// CPU time of the simulating threads, summed over tasks, ns.
    cpu_ns: u64,
    /// Per task: (thread id, start s, end s) relative to pass start.
    tasks: Vec<(u64, f64, f64)>,
    /// Controller `(decisions, actions)` per controller layer (traced
    /// passes only).
    decisions: [(u64, u64); 3],
}

impl Pass {
    fn instructions(&self) -> u64 {
        self.results.iter().flatten().map(|r| r.instructions).sum()
    }

    fn events(&self) -> (u64, u64) {
        self.results.iter().flatten().fold((0, 0), |(e, s), r| {
            (e + r.metrics.events_processed, s + r.metrics.cycles_skipped)
        })
    }
}

/// The paper's own numbers for one pass: adaptive vs baseline, averaged
/// over the benchmarks, plus the mean reaction time.
#[derive(Debug, Clone, Copy)]
struct Model {
    energy_savings_pct: f64,
    slowdown_pct: f64,
    edp_improvement_pct: f64,
    reaction_ns_mean: f64,
}

impl Model {
    fn of(names: &[&str], results: &[Result<SimResult, RunError>]) -> Option<Model> {
        let mut outcomes = Vec::new();
        let (mut sum_ps, mut count) = (0u64, 0u64);
        for (i, _) in names.iter().enumerate() {
            let base = results[i * 4].as_ref().ok()?;
            let adaptive = results[i * 4 + 1].as_ref().ok()?;
            outcomes.push(SchemeOutcome::versus(adaptive, base));
            sum_ps += adaptive.metrics.reaction_sum_ps.iter().sum::<u64>();
            count += adaptive.metrics.reaction_count.iter().sum::<u64>();
        }
        let mean = SchemeOutcome::mean(&outcomes);
        Some(Model {
            energy_savings_pct: mean.energy_savings * 100.0,
            slowdown_pct: mean.perf_degradation * 100.0,
            edp_improvement_pct: mean.edp_improvement * 100.0,
            reaction_ns_mean: ratio(sum_ps as f64, count as f64) / 1000.0,
        })
    }

    fn digest(&self) -> u64 {
        Fnv::default()
            .f64(self.energy_savings_pct)
            .f64(self.slowdown_pct)
            .f64(self.edp_improvement_pct)
            .f64(self.reaction_ns_mean)
            .finish()
    }
}

/// Digests of a pass in reference order: per benchmark the four scheme
/// results, then the model numbers (0 where a run failed).
fn digests(names: &[&str], results: &[Result<SimResult, RunError>]) -> Vec<u64> {
    let mut out: Vec<u64> = results
        .iter()
        .map(|r| r.as_ref().map_or(0, digest::sim_result))
        .collect();
    out.push(Model::of(names, results).map_or(0, |m| m.digest()));
    out
}

/// Checks a pass against the reference; returns its digests and how
/// many of its simulations were correct.
fn check(names: &[&str], pass: &Pass, reference: &Reference, out: &mut Outcome) -> (Vec<u64>, u64) {
    let got = digests(names, &pass.results);
    let failed_before = out.failed;
    for (i, name) in names.iter().enumerate() {
        let want = reference.get(pass.seed, name);
        for (j, scheme) in SCHEMES.iter().enumerate() {
            let what = format!("sweep seed {} {name} {}", pass.seed, scheme.name());
            out.check(match (&pass.results[i * 4 + j], want) {
                (Err(e), _) => Err(format!("{what}: run error {e}")),
                (Ok(_), None) => Err(format!("{what}: no reference digest")),
                (Ok(_), Some(w)) if w.get(j) != Some(&got[i * 4 + j]) => {
                    Err(format!("{what}: result digest differs from the reference"))
                }
                _ => Ok(()),
            });
        }
    }
    let correct = (pass.results.len() as u64).saturating_sub(out.failed - failed_before);
    let want = reference.get(pass.seed, "model").and_then(|w| w.first());
    out.check(if want == got.last() {
        Ok(())
    } else {
        Err(format!(
            "sweep seed {}: model numbers differ from the reference",
            pass.seed
        ))
    });
    (got, correct)
}

fn untraced_pass(rs: &RunSet, names: &[&'static str], seed: u64) -> Pass {
    let cfg = cfg_for(seed);
    let tasks: Vec<(usize, Scheme)> = (0..names.len())
        .flat_map(|i| Scheme::CONTROLLED.map(|s| (i, s)))
        .collect();
    let t0 = Instant::now();
    let outs = rs.par(tasks, |(i, scheme)| {
        let start = t0.elapsed().as_secs_f64();
        let cpu0 = host::thread_cpu_ns();
        let base = rs.baseline(names[i], &cfg);
        let t = Instant::now();
        let run = rs.run(names[i], scheme, &cfg);
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_ns = host::thread_cpu_ns() - cpu0;
        let task = (host::thread_id(), start, t0.elapsed().as_secs_f64());
        (base, run, latency_ms, cpu_ns, task)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut results: Vec<Result<SimResult, RunError>> = Vec::with_capacity(names.len() * 4);
    let mut pass = Pass {
        seed,
        wall_s,
        results: Vec::new(),
        latencies_ms: Vec::new(),
        cpu_ns: 0,
        tasks: Vec::new(),
        decisions: [(0, 0); 3],
    };
    for (k, (base, run, latency_ms, cpu_ns, task)) in outs.into_iter().enumerate() {
        if k % 3 == 0 {
            results.push(base.map(|b: Arc<SimResult>| (*b).clone()));
        }
        results.push(run);
        pass.latencies_ms.push(latency_ms);
        pass.cpu_ns += cpu_ns;
        pass.tasks.push(task);
    }
    pass.results = results;
    pass
}

fn traced_pass(rs: &RunSet, names: &[&'static str], seed: u64) -> Pass {
    let cfg = cfg_for(seed);
    let tasks: Vec<(usize, Scheme)> = (0..names.len())
        .flat_map(|i| SCHEMES.map(|s| (i, s)))
        .collect();
    timed::reset_decisions();
    let t0 = Instant::now();
    let outs = rs.par(tasks, |(i, scheme)| {
        spans::span(Layer::Task, || {
            let label = format!("{}|{}|seed={seed}", names[i], scheme.name());
            let t = Instant::now();
            let cpu0 = host::thread_cpu_ns();
            let run = rs.run_custom(&label, |sink| {
                timed::run_sharded(names[i], scheme, &cfg, sink)
            });
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            (run, latency_ms, host::thread_cpu_ns() - cpu0)
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut pass = Pass {
        seed,
        wall_s,
        results: Vec::new(),
        latencies_ms: Vec::new(),
        cpu_ns: 0,
        tasks: Vec::new(),
        decisions: [Layer::Core, Layer::Pid, Layer::AttackDecay].map(timed::decisions),
    };
    for (run, latency_ms, cpu_ns) in outs {
        pass.results.push(run);
        pass.latencies_ms.push(latency_ms);
        pass.cpu_ns += cpu_ns;
    }
    pass
}

/// One set-up: the pool, the grid and a warm-up run.
fn setup(nproc: usize) -> (RunSet, Vec<&'static str>) {
    let rs = RunSet::new(nproc);
    let names = registry::names();
    let mut warm = cfg_for(0).with_ops(2_000);
    warm.seed = 0;
    rs.run(names[0], Scheme::Baseline, &warm)
        .expect("the warm-up run is a valid configuration");
    (rs, names)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = host::nproc();
    let host_note = check_host(nproc, 0)?;
    let reference = Reference::load(&crate::bench_dir().join(REF_FILE))?;
    let mut seeds = reference.seeds.clone();
    Rng::new(args.seed, 1).shuffle(&mut seeds);
    let ((rs, names), setup_times) = timed_setups(|| setup(nproc), drop);

    let mut out = Outcome::default();
    out.note(host_note);
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    // One discarded pass first (on a seed no measured pass uses), so
    // allocator growth and cold code are not charged to the first
    // measured pass.
    let warm = untraced_pass(&rs, &names, seeds[seeds.len() - 1]);
    check(&names, &warm, &reference, &mut out);
    let stats0 = rs.stats();
    let untraced = rs.with_tag("sweep", || {
        passes(budget, |i| {
            untraced_pass(&rs, &names, seeds[i % seeds.len()])
        })
    });
    let stats1 = rs.stats();
    let (untraced_digests, correct): (Vec<Vec<u64>>, Vec<u64>) = untraced
        .iter()
        .map(|p| check(&names, p, &reference, &mut out))
        .unzip();
    for p in &untraced {
        out.note(format!(
            "pass seed {:>3}: wall {:.4} s, simulating-thread cpu {:.4} s, {} instructions",
            p.seed,
            p.wall_s,
            p.cpu_ns as f64 / 1e9,
            p.instructions()
        ));
    }

    if !args.trace {
        let mips: Vec<f64> = untraced
            .iter()
            .map(|p| p.instructions() as f64 / (p.cpu_ns as f64 / 1e9) / 1e6)
            .collect();
        let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
        let latencies: Vec<Vec<f64>> = untraced.iter().map(|p| p.latencies_ms.clone()).collect();
        out.note(format!(
            "latency samples {} over {} passes",
            latencies.iter().map(Vec::len).sum::<usize>(),
            latencies.len()
        ));
        out.metric("wall_s", median(&walls), "s");
        out.metric("mips_per_core", median(&mips), "MIPS");
        out.metric("p50_ms", windowed_percentile(&latencies, 50.0), "ms");
        let correct: u64 = correct.iter().sum();
        out.metric(
            "goodput_rps",
            correct as f64 / walls.iter().sum::<f64>(),
            "1/s",
        );
        out.metric("setup_s", median(&setup_times), "s");
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
        return Ok(out);
    }

    let _ = spans::drain();
    let traced = passes(budget, |i| traced_pass(&rs, &names, seeds[i % seeds.len()]));
    let (totals, records) = spans::drain();
    for (i, p) in traced.iter().enumerate() {
        let (got, _) = check(&names, p, &reference, &mut out);
        if let Some(want) = untraced_digests.get(i) {
            out.check(if *want == got {
                Ok(())
            } else {
                Err(format!(
                    "sweep seed {}: traced digests differ from untraced",
                    p.seed
                ))
            });
        }
    }

    let mut m = LayerMetrics::default();
    let first = &traced[0];
    let instr: u64 = traced.iter().map(Pass::instructions).sum();
    let events: u64 = traced.iter().map(|p| p.events().0).sum();
    let (events0, skipped0) = first.events();
    let instr0 = first.instructions();
    out.note(format!(
        "exact counts (seed {}): {instr0} instructions, {events0} events, {skipped0} cycles skipped",
        first.seed
    ));
    m.set(
        "workloads.ns_per_uop",
        ratio(
            totals.self_ns(Layer::Workloads) as f64,
            totals.calls(Layer::Workloads) as f64,
        ),
    );
    m.set(
        "sim.self_ns_per_instr",
        ratio(totals.self_ns(Layer::Sim) as f64, instr as f64),
    );
    m.set(
        "sim.self_ns_per_event",
        ratio(totals.self_ns(Layer::Sim) as f64, events as f64),
    );
    m.set("sim.events_per_instr", ratio(events0 as f64, instr0 as f64));
    m.set(
        "sim.cycles_skipped_per_event",
        ratio(skipped0 as f64, events0 as f64),
    );
    m.set(
        "sim.build_us_per_run",
        ratio(
            totals.self_ns(Layer::SimBuild) as f64,
            totals.calls(Layer::SimBuild) as f64,
        ) / 1e3,
    );
    let all_decisions =
        |slot: usize| traced.iter().map(|p| p.decisions[slot].0).sum::<u64>() as f64;
    m.set(
        "core.ns_per_decision",
        ratio(totals.self_ns(Layer::Core) as f64, all_decisions(0)),
    );
    m.set(
        "baselines.pid.ns_per_decision",
        ratio(totals.self_ns(Layer::Pid) as f64, all_decisions(1)),
    );
    m.set(
        "baselines.attack-decay.ns_per_decision",
        ratio(totals.self_ns(Layer::AttackDecay) as f64, all_decisions(2)),
    );
    let adaptive_instr0: u64 = first
        .results
        .iter()
        .skip(1)
        .step_by(4)
        .flatten()
        .map(|r| r.instructions)
        .sum();
    let (d0, a0) = first.decisions[0];
    out.note(format!("exact counts (seed {}): adaptive {d0} decisions, {a0} actions over {adaptive_instr0} instructions", first.seed));
    m.set(
        "core.decisions_per_kinstr",
        ratio(d0 as f64, adaptive_instr0 as f64 / 1e3),
    );
    m.set("core.actions_per_decision", ratio(a0 as f64, d0 as f64));

    let jobs = rs.jobs() as f64;
    let pool: Vec<(f64, f64)> = untraced
        .iter()
        .map(|p| pool_stats(&p.tasks, p.wall_s, rs.jobs()))
        .collect();
    let busy: Vec<f64> = pool.iter().map(|s| s.0).collect();
    let tail: Vec<f64> = pool.iter().map(|s| s.1).collect();
    m.set("bench.pool_busy_ratio", median(&busy));
    m.set("bench.tail_idle_s", median(&tail));
    let requests = stats1.baseline_requests - stats0.baseline_requests;
    let computes = (stats1.runs - stats0.runs) - (untraced.len() * names.len() * 3) as u64;
    out.note(format!(
        "exact counts: baseline memo {requests} requests, {computes} computes"
    ));
    m.set(
        "bench.baseline_memo_hit_ratio",
        ratio((requests - computes) as f64, requests as f64),
    );
    m.set(
        "bench.segment_ms_p99",
        rs.tag_stats("sweep").run_wall_p99_s() * 1e3,
    );
    let latencies: Vec<Vec<f64>> = untraced.iter().map(|p| p.latencies_ms.clone()).collect();
    m.set("tail.p99_ms", windowed_percentile(&latencies, 99.0));

    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    let paired = traced.len().min(untraced.len());
    let wall = |ps: &[Pass]| ps.iter().take(paired).map(|p| p.wall_s).sum::<f64>();
    m.set(
        "sweep.traced_overhead_pct",
        (ratio(wall(&traced), wall(&untraced)) - 1.0) * 100.0,
    );
    if let Some(model) = Model::of(&names, &untraced[0].results) {
        m.set("model.energy_savings_pct", model.energy_savings_pct);
        m.set("model.slowdown_pct", model.slowdown_pct);
        m.set("model.edp_improvement_pct", model.edp_improvement_pct);
        m.set("model.reaction_ns_mean", model.reaction_ns_mean);
    }
    let total_ns = (jobs * traced_wall * 1e9) as u64;
    let idle_ns = total_ns.saturating_sub(totals.sum_ns());
    let breakdown = Breakdown::new(
        &totals,
        &[("bench.pool_idle", idle_ns)],
        &[],
        total_ns.max(totals.sum_ns()),
        format!(
            "{} traced passes, {} workers x {:.3} s wall",
            traced.len(),
            rs.jobs(),
            traced_wall
        ),
    );
    finish_traced(&mut out, &m, &breakdown, &records, args)?;
    Ok(out)
}

/// Computes the reference digests for every pool seed with the library
/// entry point `mcd_bench::runner::run` and writes `ref/sweep.txt`.
pub fn write_reference() -> Result<(), String> {
    let rs = RunSet::new(host::nproc());
    let names = registry::names();
    let mut lines = vec![format!(
        "# sweep reference digests: {OPS} instructions, unsharded, seeds 1..={POOL_SEEDS}"
    )];
    lines.push("# <seed> <benchmark> <baseline> <adaptive> <PID> <attack/decay>".into());
    lines.push("# <seed> model <adaptive-vs-baseline means and reaction time>".into());
    for seed in 1..=POOL_SEEDS {
        let cfg = cfg_for(seed);
        let tasks: Vec<(usize, Scheme)> = (0..names.len())
            .flat_map(|i| SCHEMES.map(|s| (i, s)))
            .collect();
        let results = rs.par(tasks, |(i, s)| mcd_bench::runner::run(names[i], s, &cfg));
        let got = digests(&names, &results);
        if got.contains(&0) {
            return Err(format!("seed {seed}: a reference run failed"));
        }
        for (i, name) in names.iter().enumerate() {
            lines.push(digest::reference_line(seed, name, &got[i * 4..i * 4 + 4]));
        }
        lines.push(digest::reference_line(
            seed,
            "model",
            &got[names.len() * 4..],
        ));
        eprintln!("sweep reference: seed {seed} done");
    }
    crate::write_reference_file(REF_FILE, &lines)
}
