//! `record-replay`: the flight recorder end to end. Each pass takes a few
//! long adaptive runs — [`PER_CLASS`] per variability class, drawn from
//! three candidates each — shards them at a short interval and records
//! them into in-memory `.mcdt` files through `BinarySink` with their
//! replay spec attached. Each file is then indexed (`read_index`) and
//! decoded (`read_mcdt`), and a seeded sample of its catalogued episodes
//! is replayed with `replay_episode`, every replay byte-verified against
//! the recording.
//!
//! The engine is the same as in `sweep`, but snapshot/restore at every
//! shard boundary, trace encoding (writes) and trace decoding plus
//! replay (reads) carry a large share of the time.

use std::collections::HashMap;
use std::time::Instant;

use mcd_bench::replay::{replay_episode, replay_spec, ReplayOutcome};
use mcd_bench::runner::{build_machine, run_sharded, RunConfig, Scheme};
use mcd_bench::{RunError, RunSet};
use mcd_sim::SimResult;
use mcd_trace::{read_index, read_mcdt, BinarySink, McdtFile, TraceIndex};

use crate::digest::{self, Reference};
use crate::layers::{finish_traced, LayerMetrics};
use crate::measure::{check_host, passes, pool_stats, timed_setups};
use crate::report::{median, ratio, windowed_percentile, Outcome, Rng};
use crate::spans::{self, Breakdown, Layer};
use crate::timed::{self, TimedSink};
use crate::{host, Args};

/// Instructions per recorded run.
const OPS: u64 = 100_000;
/// Shard length: a snapshot anchor every this many instructions.
const SHARD_OPS: u64 = 10_000;
/// Workload seeds with reference digests.
const POOL_SEEDS: u64 = 8;
/// Candidates per variability class.
const FAST: [&str; 3] = ["epic_encode", "swim", "bzip2"];
const SLOW: [&str; 3] = ["gzip", "adpcm_decode", "mgrid"];
/// Recordings per variability class per pass.
const PER_CLASS: usize = 2;
/// Episodes replayed per recording per pass.
const REPLAYS_PER_RECORDING: usize = 6;
const REF_FILE: &str = "ref/record-replay.txt";

fn cfg_for(seed: u64) -> RunConfig {
    let mut cfg = RunConfig::quick().with_ops(OPS).with_shard_ops(SHARD_OPS);
    cfg.seed = seed;
    cfg
}

fn label(benchmark: &str, seed: u64) -> String {
    format!("{benchmark}|adaptive|ops={OPS}|seed={seed}")
}

/// One recorded run.
struct Recording {
    benchmark: &'static str,
    seed: u64,
    result: Result<SimResult, RunError>,
    bytes: Vec<u8>,
    index: Option<TraceIndex>,
    file: Option<McdtFile>,
    /// CPU time of the recording itself (simulate + encode), ns.
    cpu_ns: u64,
    /// (thread id, start s, end s) relative to the pass start.
    task: (u64, f64, f64),
}

/// One replayed episode.
struct Replay {
    recording: usize,
    episode: usize,
    outcome: Result<ReplayOutcome, RunError>,
    latency_ms: f64,
}

/// Counts of one pass that must repeat exactly for the same inputs.
#[derive(Debug, Clone, Copy, Default)]
struct Exact {
    instructions: u64,
    events_processed: u64,
    cycles_skipped: u64,
    decisions: u64,
    actions: u64,
    mcdt_bytes: u64,
    events_recorded: u64,
    anchors: u64,
    anchor_bytes: u64,
    replays: u64,
    resim_events: u64,
    episode_events: u64,
    cold_starts: u64,
}

/// What is kept of a pass once it has been checked: its measurements,
/// its exact counts and the digests a traced pass must repeat. The
/// recordings themselves are dropped, so memory holds one pass at most.
struct Pass {
    wall_s: f64,
    cpu_ns: u64,
    latencies_ms: Vec<f64>,
    verified: usize,
    pool: (f64, f64),
    exact: Exact,
    digests: Vec<u64>,
}

/// The pass's inputs: per class, [`PER_CLASS`] `(benchmark, seed)`.
fn inputs(seed: u64, pass: usize, pool: &[u64]) -> Vec<(&'static str, u64)> {
    let mut rng = Rng::new(seed, 100u64.wrapping_add(pass as u64));
    let mut out = Vec::new();
    for _ in 0..PER_CLASS {
        for names in [&FAST, &SLOW] {
            let name = names[rng.below(names.len() as u64) as usize];
            out.push((name, pool[rng.below(pool.len() as u64) as usize]));
        }
    }
    out
}

/// Records one run, untraced or traced, then indexes and decodes it.
fn record(rs: &RunSet, benchmark: &'static str, seed: u64, traced: bool, t0: Instant) -> Recording {
    let start = t0.elapsed().as_secs_f64();
    let cfg = cfg_for(seed);
    let label = label(benchmark, seed);
    let spec = replay_spec(benchmark, Scheme::Adaptive, &cfg);
    let cpu0 = host::thread_cpu_ns();
    let mut sink = BinarySink::new();
    let (result, bytes) = if traced {
        spans::span(Layer::TraceEncode, || sink.start_run(&label, Some(&spec)));
        let result = rs.run_custom(&label, |_| {
            timed::run_sharded(benchmark, Scheme::Adaptive, &cfg, &mut TimedSink(&mut sink))
        });
        (result, spans::span(Layer::TraceEncode, || sink.finish()))
    } else {
        sink.start_run(&label, Some(&spec));
        let result = rs.run_custom(&label, |_| {
            run_sharded(
                cfg.shard_ops,
                None,
                || build_machine(benchmark, Scheme::Adaptive, &cfg),
                &mut sink,
            )
        });
        (result, sink.finish())
    };
    let cpu_ns = host::thread_cpu_ns() - cpu0;
    let (index, file) = if traced {
        (
            spans::span(Layer::TraceIndex, || read_index(&bytes)).ok(),
            spans::span(Layer::TraceRead, || read_mcdt(&bytes)).ok(),
        )
    } else {
        (read_index(&bytes).ok(), read_mcdt(&bytes).ok())
    };
    Recording {
        benchmark,
        seed,
        result,
        bytes,
        index,
        file,
        cpu_ns,
        task: (host::thread_id(), start, t0.elapsed().as_secs_f64()),
    }
}

/// Everything a pass needs besides its index.
struct Ctx<'a> {
    rs: &'a RunSet,
    args: &'a Args,
    pool: &'a [u64],
    reference: &'a Reference,
    /// Event-stream digests already computed, by `.mcdt` byte digest:
    /// identical bytes decode to identical events, so the costly
    /// canonical rendering is done once per distinct recording.
    events_seen: HashMap<u64, u64>,
}

/// Runs pass `i` — record, index, decode, replay — then checks it and
/// keeps only its summary.
fn pass(ctx: &mut Ctx<'_>, i: usize, traced: bool, out: &mut Outcome) -> Pass {
    let rs = ctx.rs;
    timed::reset_decisions();
    let t0 = Instant::now();
    let root = |f: &mut dyn FnMut()| {
        if traced {
            spans::span(Layer::Task, f)
        } else {
            f()
        }
    };
    let recordings = rs.par(inputs(ctx.args.seed, i, ctx.pool), |(b, s)| {
        let mut rec = None;
        root(&mut || rec = Some(record(rs, b, s, traced, t0)));
        rec.expect("recording ran")
    });
    let record_end = t0.elapsed().as_secs_f64();
    // A seeded sample of each recording's episode catalog.
    let mut rng = Rng::new(ctx.args.seed, 200u64.wrapping_add(i as u64));
    let mut chosen = Vec::new();
    for (r, rec) in recordings.iter().enumerate() {
        let n = rec.index.as_ref().map_or(0, TraceIndex::episode_count);
        let mut ks: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut ks);
        chosen.extend(ks.into_iter().take(REPLAYS_PER_RECORDING).map(|k| (r, k)));
    }
    let replays = rs.par(chosen, |(r, k)| {
        let mut replay = None;
        root(&mut || {
            let t = Instant::now();
            let bytes = &recordings[r].bytes;
            let outcome = if traced {
                spans::span(Layer::Replay, || replay_episode(bytes, k))
            } else {
                replay_episode(bytes, k)
            };
            replay = Some(Replay {
                recording: r,
                episode: k,
                outcome,
                latency_ms: t.elapsed().as_secs_f64() * 1e3,
            });
        });
        replay.expect("replay ran")
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (decisions, actions) = timed::decisions(Layer::Core);
    let mut p = Pass {
        wall_s,
        cpu_ns: recordings.iter().map(|r| r.cpu_ns).sum(),
        latencies_ms: replays.iter().map(|r| r.latency_ms).collect(),
        verified: 0,
        pool: pool_stats(
            &recordings.iter().map(|r| r.task).collect::<Vec<_>>(),
            record_end,
            rs.jobs(),
        ),
        exact: Exact {
            decisions,
            actions,
            replays: replays.len() as u64,
            ..Exact::default()
        },
        digests: Vec::new(),
    };
    check_recordings(ctx, &recordings, &mut p, out);
    check_replays(&recordings, &replays, &mut p, out);
    p
}

/// Checks each recording against the reference (result digest and
/// event-stream digest) and tallies its exact counts.
fn check_recordings(ctx: &mut Ctx<'_>, recordings: &[Recording], p: &mut Pass, out: &mut Outcome) {
    let e = &mut p.exact;
    for rec in recordings {
        let what = format!("record-replay seed {} {}", rec.seed, rec.benchmark);
        let bytes_digest = digest::Fnv::default().bytes(&rec.bytes).finish();
        let events = rec.file.as_ref().and_then(|f| f.runs.first()).map(|run| {
            *ctx.events_seen
                .entry(bytes_digest)
                .or_insert_with(|| digest::events(&run.events))
        });
        let got = [
            rec.result.as_ref().map_or(0, digest::sim_result),
            events.unwrap_or(0),
        ];
        out.check(
            match (&rec.result, ctx.reference.get(rec.seed, rec.benchmark)) {
                (Err(err), _) => Err(format!("{what}: run error {err}")),
                _ if rec.index.is_none() || events.is_none() => {
                    Err(format!("{what}: recording does not decode"))
                }
                (Ok(_), Some(want)) if want == got.as_slice() => Ok(()),
                (Ok(_), Some(_)) => Err(format!("{what}: recording differs from the reference")),
                (Ok(_), None) => Err(format!("{what}: no reference digest")),
            },
        );
        p.digests.extend(got);
        p.digests.push(bytes_digest);
        if let Ok(r) = &rec.result {
            e.instructions += r.instructions;
            e.events_processed += r.metrics.events_processed;
            e.cycles_skipped += r.metrics.cycles_skipped;
        }
        e.mcdt_bytes += rec.bytes.len() as u64;
        for run in rec.file.iter().flat_map(|f| &f.runs) {
            e.events_recorded += run.events.len() as u64;
            e.anchors += run.anchors.len() as u64;
            e.anchor_bytes += run
                .anchors
                .iter()
                .map(|a| a.snapshot.len() as u64)
                .sum::<u64>();
        }
    }
}

/// Requires every replay to verify byte-for-byte and tallies its counts.
fn check_replays(recordings: &[Recording], replays: &[Replay], p: &mut Pass, out: &mut Outcome) {
    for rp in replays {
        let rec = &recordings[rp.recording];
        let what = format!(
            "record-replay seed {} {} episode {}",
            rec.seed, rec.benchmark, rp.episode
        );
        out.check(match &rp.outcome {
            Err(e) => Err(format!("{what}: replay error {e}")),
            Ok(o) if !o.byte_identical => Err(format!("{what}: replay diverged")),
            Ok(_) => Ok(()),
        });
        if let Ok(o) = &rp.outcome {
            p.verified += usize::from(o.byte_identical);
            p.digests
                .extend([rp.episode as u64, o.replayed.len() as u64]);
            let e = &mut p.exact;
            e.resim_events += o.replayed.len() as u64;
            e.episode_events += o
                .episode
                .close_event_index
                .saturating_sub(o.episode.onset_event_index)
                + 1;
            e.cold_starts += u64::from(o.anchor_retired.is_none());
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = host::nproc();
    let host_note = check_host(nproc, 0)?;
    let reference = Reference::load(&crate::bench_dir().join(REF_FILE))?;
    let (rs, setup_times) = timed_setups(
        || {
            let rs = RunSet::new(nproc);
            let warm = cfg_for(0).with_ops(2_000).with_shard_ops(1_000);
            let mut sink = BinarySink::new();
            run_sharded(
                warm.shard_ops,
                None,
                || build_machine(FAST[0], Scheme::Adaptive, &warm),
                &mut sink,
            )
            .expect("the warm-up recording is a valid configuration");
            let _ = read_index(&sink.finish());
            rs
        },
        drop,
    );
    let mut out = Outcome::default();
    out.note(host_note);
    let mut ctx = Ctx {
        rs: &rs,
        args,
        pool: &reference.seeds,
        reference: &reference,
        events_seen: HashMap::new(),
    };
    // One discarded pass first, so allocator growth and cold code are
    // not charged to the first measured pass.
    let mut discard = Outcome::default();
    pass(&mut ctx, usize::MAX, false, &mut discard);
    out.check(discard.failures.first().map_or(Ok(()), |f| Err(f.clone())));
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let untraced = rs.with_tag("record-replay", || {
        passes(budget, |i| pass(&mut ctx, i, false, &mut out))
    });
    for p in &untraced {
        out.note(format!(
            "pass: wall {:.4} s, recording-thread cpu {:.4} s, {} instructions, {} replays",
            p.wall_s,
            p.cpu_ns as f64 / 1e9,
            p.exact.instructions,
            p.latencies_ms.len()
        ));
    }

    if !args.trace {
        let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
        let mips: Vec<f64> = untraced
            .iter()
            .map(|p| p.exact.instructions as f64 / (p.cpu_ns as f64 / 1e9) / 1e6)
            .collect();
        let latencies: Vec<Vec<f64>> = untraced.iter().map(|p| p.latencies_ms.clone()).collect();
        let verified: usize = untraced.iter().map(|p| p.verified).sum();
        out.note(format!(
            "replay latency samples {} over {} passes",
            latencies.iter().map(Vec::len).sum::<usize>(),
            latencies.len()
        ));
        out.metric("wall_s", median(&walls), "s");
        out.metric("mips_per_core", median(&mips), "MIPS");
        out.metric("p50_ms", windowed_percentile(&latencies, 50.0), "ms");
        out.metric(
            "goodput_rps",
            verified as f64 / walls.iter().sum::<f64>(),
            "1/s",
        );
        out.metric("setup_s", median(&setup_times), "s");
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
        return Ok(out);
    }

    let _ = spans::drain();
    let traced = passes(budget, |i| pass(&mut ctx, i, true, &mut out));
    let (totals, records) = spans::drain();
    for (i, (t, u)) in traced.iter().zip(&untraced).enumerate() {
        out.check(if t.digests == u.digests {
            Ok(())
        } else {
            Err(format!(
                "record-replay pass {i}: traced digests differ from untraced"
            ))
        });
    }

    let mut m = LayerMetrics::default();
    let e = traced[0].exact;
    out.note(format!(
        "exact counts (first pass): {} instructions, {} events, {} cycles skipped; \
         adaptive {} decisions, {} actions",
        e.instructions, e.events_processed, e.cycles_skipped, e.decisions, e.actions
    ));
    out.note(format!(
        "exact counts (first pass): {} .mcdt bytes, {} events recorded, {} anchors of {} bytes",
        e.mcdt_bytes, e.events_recorded, e.anchors, e.anchor_bytes
    ));
    out.note(format!(
        "exact counts (first pass): {} replays, {} events re-simulated, {} inside episodes, \
         {} cold starts",
        e.replays, e.resim_events, e.episode_events, e.cold_starts
    ));
    let sum = |f: fn(&Exact) -> u64| traced.iter().map(|p| f(&p.exact)).sum::<u64>() as f64;
    let self_ns = |l: Layer| totals.self_ns(l) as f64;
    let per_call = |l: Layer| ratio(self_ns(l), totals.calls(l) as f64);
    m.set("workloads.ns_per_uop", per_call(Layer::Workloads));
    m.set(
        "sim.self_ns_per_instr",
        ratio(self_ns(Layer::Sim), sum(|e| e.instructions)),
    );
    m.set(
        "sim.self_ns_per_event",
        ratio(self_ns(Layer::Sim), sum(|e| e.events_processed)),
    );
    m.set(
        "sim.events_per_instr",
        ratio(e.events_processed as f64, e.instructions as f64),
    );
    m.set(
        "sim.cycles_skipped_per_event",
        ratio(e.cycles_skipped as f64, e.events_processed as f64),
    );
    m.set("sim.build_us_per_run", per_call(Layer::SimBuild) / 1e3);
    m.set(
        "core.ns_per_decision",
        ratio(self_ns(Layer::Core), sum(|e| e.decisions)),
    );
    m.set(
        "core.decisions_per_kinstr",
        ratio(e.decisions as f64, e.instructions as f64 / 1e3),
    );
    m.set(
        "core.actions_per_decision",
        ratio(e.actions as f64, e.decisions as f64),
    );
    m.set(
        "bench.pool_busy_ratio",
        median(&untraced.iter().map(|p| p.pool.0).collect::<Vec<_>>()),
    );
    m.set(
        "bench.tail_idle_s",
        median(&untraced.iter().map(|p| p.pool.1).collect::<Vec<_>>()),
    );
    m.set(
        "bench.segment_ms_p99",
        rs.tag_stats("record-replay").run_wall_p99_s() * 1e3,
    );
    let latencies: Vec<Vec<f64>> = untraced.iter().map(|p| p.latencies_ms.clone()).collect();
    m.set("tail.p99_ms", windowed_percentile(&latencies, 99.0));
    m.set("snap.snapshot_us", per_call(Layer::Snapshot) / 1e3);
    m.set("snap.restore_us", per_call(Layer::Restore) / 1e3);
    m.set("snap.bytes", ratio(e.anchor_bytes as f64, e.anchors as f64));
    m.set(
        "trace.encode_ns_per_event",
        ratio(self_ns(Layer::TraceEncode), sum(|e| e.events_recorded)),
    );
    m.set(
        "trace.bytes_per_event",
        ratio(e.mcdt_bytes as f64, e.events_recorded as f64),
    );
    m.set(
        "trace.anchor_share",
        ratio(e.anchor_bytes as f64, e.mcdt_bytes as f64),
    );
    m.set("trace.read_ms", per_call(Layer::TraceRead) / 1e6);
    m.set("trace.index_ms", per_call(Layer::TraceIndex) / 1e6);
    m.set("replay.resim_events", e.resim_events as f64);
    m.set(
        "replay.useful_ratio",
        ratio(e.episode_events as f64, e.resim_events as f64),
    );
    m.set(
        "replay.cold_start_share",
        ratio(e.cold_starts as f64, e.replays as f64),
    );
    let paired = traced.len().min(untraced.len());
    let wall = |ps: &[Pass]| ps.iter().take(paired).map(|p| p.wall_s).sum::<f64>();
    m.set(
        "record-replay.traced_overhead_pct",
        (ratio(wall(&traced), wall(&untraced)) - 1.0) * 100.0,
    );

    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    let total_ns = (rs.jobs() as f64 * traced_wall * 1e9) as u64;
    let breakdown = Breakdown::new(
        &totals,
        &[("bench.pool_idle", total_ns.saturating_sub(totals.sum_ns()))],
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

/// Records every (candidate, pool seed) pair with the library's own
/// `run_sharded` + `BinarySink` and writes `ref/record-replay.txt`.
pub fn write_reference() -> Result<(), String> {
    let rs = RunSet::new(host::nproc());
    let mut lines = vec![format!(
        "# record-replay reference digests: adaptive, {OPS} instructions, shards of {SHARD_OPS}"
    )];
    lines.push("# <seed> <benchmark> <result digest> <event-stream digest>".into());
    let t0 = Instant::now();
    for seed in 1..=POOL_SEEDS {
        let names: Vec<&'static str> = FAST.iter().chain(SLOW.iter()).copied().collect();
        let recs = rs.par(names, |b| record(&rs, b, seed, false, t0));
        for rec in &recs {
            let d = [
                rec.result.as_ref().map_or(0, digest::sim_result),
                rec.file
                    .as_ref()
                    .and_then(|f| f.runs.first())
                    .map_or(0, |run| digest::events(&run.events)),
            ];
            if d.contains(&0) {
                return Err(format!(
                    "{} seed {seed}: reference recording failed",
                    rec.benchmark
                ));
            }
            lines.push(digest::reference_line(seed, rec.benchmark, &d));
        }
        eprintln!("record-replay reference: seed {seed} done");
    }
    crate::write_reference_file(REF_FILE, &lines)
}
