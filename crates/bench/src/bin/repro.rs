//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment>... [--ops N] [--quick] [--seed S] [--jobs N] [--out DIR]
//!                       [--bench-out FILE] [--trace-out FILE]
//!                       [--checkpoint DIR] [--resume] [--run-timeout SECS]
//! repro all [same flags]
//! repro list
//! repro trace analyze FILE [--out FILE] [--episodes] [--worst N]
//! repro trace convert FILE --out FILE
//! repro trace replay FILE.mcdt --episode K
//! repro profile <experiment>... [--ops N] [--quick] [--seed S] [--jobs N]
//! ```
//!
//! Each simulation is single-threaded and deterministic; `--jobs N` sets
//! how many independent runs the harness fans out at once (default: one
//! per available core). Reports are byte-identical whatever the worker
//! count.
//!
//! With `--out DIR`, each experiment's report is also written to
//! `DIR/<experiment>.txt`. With `--bench-out FILE`, a machine-readable
//! JSON record of per-experiment wall-clock time, simulation throughput
//! and aggregate controller activity is written to `FILE` (and a
//! human-readable controller-activity table is appended to stdout).
//! With `--trace-out FILE`, every controller decision in every
//! simulation is written to `FILE` as JSON lines, one event per line,
//! tagged with the run that produced it — or, when `FILE` ends in
//! `.mcdt`, as the compact binary flight-recorder format (DESIGN.md
//! §14), which additionally carries shard-boundary machine snapshots
//! and an episode seek index for `trace replay`.
//!
//! The sweep is fault-isolated: an experiment that panics, reports a
//! typed error, or (with `--run-timeout SECS`) exceeds its wall-clock
//! budget does not stop the others. An experiment over budget is
//! stopped, not abandoned: its simulations end at their next chunk
//! boundary. Transient failures (panics and timeouts) are retried once.
//! The sweep finishes everything it can, prints a failure table naming
//! what it could not, and exits nonzero if anything failed. With
//! `--checkpoint DIR`, each completed experiment is recorded on the
//! spot; `--resume` replays recorded entries instead of re-running them,
//! regenerating byte-identical reports (DESIGN.md §7).
//!
//! `repro trace analyze FILE` consumes a `--trace-out` file offline
//! (deviation episodes, reaction-time distributions, a per-domain
//! timeline — DESIGN.md §9); its report is a pure function of the trace
//! bytes. `--episodes`/`--worst N` switch to the episode-catalog view.
//! `repro trace convert` moves a trace between the JSONL and `.mcdt`
//! forms losslessly, and `repro trace replay FILE.mcdt --episode K`
//! re-simulates one catalogued episode from the nearest snapshot anchor
//! and verifies it byte-for-byte against the recording (DESIGN.md §14).
//! `repro profile <ids>` re-runs experiments with the span profiler and
//! distribution telemetry enabled and prints where the wall time went.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mcd_bench::checkpoint::{write_file, CheckpointDir, CompletedRun};
use mcd_bench::error::RunError;
use mcd_bench::experiments;
use mcd_bench::parallel::{isolated, par_map};
use mcd_bench::runner::{ControllerActivity, RunConfig, RunSet};
use mcd_bench::table::Table;
use mcd_bench::trace_analyze;
use mcd_sim::SimTelemetry;

fn usage() -> String {
    format!(
        "usage: repro <experiment>...|all|list [--ops N] [--quick] [--seed S] [--jobs N] \
         [--shard-ops N] [--shard-secs S] [--out DIR] [--bench-out FILE] [--trace-out FILE] \
         [--checkpoint DIR] [--resume] [--run-timeout SECS]\n\
         \x20      repro trace analyze FILE [--out FILE] [--episodes] [--worst N]\n\
         \x20      repro trace convert FILE --out FILE\n\
         \x20      repro trace replay FILE.mcdt --episode K\n\
         \x20      repro profile <experiment>... [--ops N] [--quick] [--seed S] [--jobs N]\n\
         experiments: {}\n\
         --shard-ops N splits each simulation into N-instruction segments at snapshot\n\
         boundaries (0 disables; reports are byte-identical either way);\n\
         --shard-secs S picks the shard length from a target segment wall time.\n\
         --trace-out writes JSON lines, or the binary flight-recorder format when the\n\
         file ends in .mcdt (anchors for `trace replay` need sharding, e.g. --shard-ops).\n\
         --run-timeout SECS stops an experiment attempt that runs longer (one retry).",
        experiments::ALL.join(", ")
    )
}

/// Whether a path names the binary flight-recorder format.
fn is_mcdt(path: &std::path::Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some("mcdt")
}

/// Calibration for `--shard-secs`: simulated instructions per wall
/// second on a typical core (order-of-magnitude; sharding only needs the
/// segment length to land near the requested duration).
const SHARD_OPS_PER_SEC: f64 = 1_500_000.0;

/// Backend-domain display names, indexed like [`ControllerActivity`].
const DOMAINS: [&str; 3] = ControllerActivity::DOMAINS;

/// Renders the human-readable controller-activity summary (printed to
/// stdout only when `--bench-out` is given).
fn activity_table(a: &ControllerActivity) -> String {
    let mut t = Table::new([
        "domain",
        "relay arms",
        "fires",
        "resets",
        "steps up",
        "steps down",
        "mean reaction",
        "sync stalls",
        "slew time",
    ]);
    for (i, domain) in DOMAINS.iter().enumerate() {
        let reaction = match a.mean_reaction_time_ns(i) {
            Some(ns) => format!("{ns:.1} ns"),
            None => "-".to_string(),
        };
        t.row([
            domain.to_string(),
            a.relay_arms[i].to_string(),
            a.relay_fires[i].to_string(),
            a.relay_resets[i].to_string(),
            a.freq_steps_up[i].to_string(),
            a.freq_steps_down[i].to_string(),
            reaction,
            a.sync_enqueues[i].to_string(),
            format!("{:.1} us", a.transition_time_ps[i] as f64 / 1e6),
        ]);
    }
    format!(
        "Controller activity (aggregate over all simulations):\n\n{}",
        t.render()
    )
}

/// Flight-recorder cost figures for `--bench-out` (zeros when tracing
/// was off): how many events and episodes were captured, and what each
/// encoding costs in bytes and in wall time per event.
#[derive(Default)]
struct RecorderStats {
    events: u64,
    episodes: u64,
    jsonl_bytes: u64,
    mcdt_bytes: u64,
    jsonl_encode_ns_per_event: f64,
    mcdt_encode_ns_per_event: f64,
}

impl RecorderStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"events\": {}, \"episodes\": {}, \"jsonl_bytes\": {}, \
             \"mcdt_bytes\": {}, \"jsonl_encode_ns_per_event\": {:.1}, \
             \"mcdt_encode_ns_per_event\": {:.1}}}",
            self.events,
            self.episodes,
            self.jsonl_bytes,
            self.mcdt_bytes,
            self.jsonl_encode_ns_per_event,
            self.mcdt_encode_ns_per_event,
        )
    }
}

fn per_event_ns(elapsed: Duration, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        elapsed.as_nanos() as f64 / events as f64
    }
}

#[allow(clippy::too_many_arguments)]
fn bench_report(
    jobs: usize,
    total_wall_s: f64,
    stats: &mcd_bench::runner::RunStats,
    compute_s: f64,
    records: &[(&'static str, CompletedRun)],
    activity: &ControllerActivity,
    telemetry: Option<&SimTelemetry>,
    recorder: &RecorderStats,
) -> String {
    // Totals come from the RunSet's global counters rather than summing
    // the per-experiment records: under shared-pool attribution the
    // memoized baseline computes are charged globally only (whichever
    // experiment happens to trigger them is a scheduling accident), and
    // under --resume the replayed records describe a *previous*
    // invocation's work. The totals therefore count exactly what this
    // invocation simulated.
    let mips = if compute_s > 0.0 {
        stats.instructions as f64 / compute_s / 1e6
    } else {
        0.0
    };
    let body: Vec<String> = records
        .iter()
        .map(|(id, r)| format!("    {}", r.record_json(id)))
        .collect();
    let telemetry_block = match telemetry {
        Some(tel) => format!("  \"telemetry\": {},\n", telemetry_json(tel)),
        None => String::new(),
    };
    format!(
        "{{\n  \"jobs\": {jobs},\n  \"total_wall_s\": {total_wall_s:.3},\n  \
         \"total_runs\": {},\n  \"total_instructions\": {},\n  \
         \"total_baseline_requests\": {},\n  \"aggregate_simulated_mips\": {mips:.2},\n  \
         \"total_events_processed\": {},\n  \"total_cycles_skipped\": {},\n  \
         \"controller_activity\": {},\n{telemetry_block}  \
         \"trace_recorder\": {},\n  \
         \"experiments\": [\n{}\n  ]\n}}\n",
        stats.runs,
        stats.instructions,
        stats.baseline_requests,
        stats.events_processed,
        stats.cycles_skipped,
        activity.to_json(),
        recorder.to_json(),
        body.join(",\n")
    )
}

/// Renders the per-domain reaction-time and occupancy distributions
/// (printed alongside the activity table when telemetry is enabled).
fn telemetry_table(tel: &SimTelemetry) -> String {
    let mut t = Table::new([
        "domain",
        "reactions",
        "p50",
        "p90",
        "p99",
        "max",
        "occ samples",
        "occ p99",
        "occ max",
    ]);
    for (i, domain) in DOMAINS.iter().enumerate() {
        let r = tel.reaction_ps[i].snapshot();
        let o = tel.occupancy[i].snapshot();
        let ns = |ps: u64| format!("{:.1} ns", ps as f64 / 1e3);
        t.row([
            domain.to_string(),
            r.count().to_string(),
            ns(r.p50()),
            ns(r.p90()),
            ns(r.p99()),
            ns(r.max()),
            o.count().to_string(),
            o.p99().to_string(),
            o.max().to_string(),
        ]);
    }
    format!(
        "Reaction-time and queue-occupancy distributions (aggregate):\n\n{}",
        t.render()
    )
}

/// JSON block of per-domain distribution summaries for `--bench-out`.
fn telemetry_json(tel: &SimTelemetry) -> String {
    let domains: Vec<String> = DOMAINS
        .iter()
        .enumerate()
        .map(|(i, domain)| {
            let r = tel.reaction_ps[i].snapshot();
            let o = tel.occupancy[i].snapshot();
            format!(
                "{{\"domain\": \"{domain}\", \"reactions\": {}, \
                 \"reaction_p50_ns\": {:.1}, \"reaction_p99_ns\": {:.1}, \
                 \"reaction_max_ns\": {:.1}, \"occupancy_samples\": {}, \
                 \"occupancy_p99\": {}, \"occupancy_max\": {}}}",
                r.count(),
                r.p50() as f64 / 1e3,
                r.p99() as f64 / 1e3,
                r.max() as f64 / 1e3,
                o.count(),
                o.p99(),
                o.max()
            )
        })
        .collect();
    format!("[{}]", domains.join(", "))
}

/// Renders the end-of-sweep failure table.
fn failure_table(failures: &[(&'static str, RunError)], total: usize) -> String {
    let mut t = Table::new(["experiment", "class", "error"]);
    for (id, e) in failures {
        t.row([id.to_string(), e.kind().to_string(), e.to_string()]);
    }
    format!(
        "FAILURES: {} of {total} experiments failed\n\n{}",
        failures.len(),
        t.render()
    )
}

/// `repro trace <analyze|convert|replay>`: offline consumers of
/// `--trace-out` files, in either the JSONL or binary `.mcdt` form.
fn trace_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("analyze") => trace_analyze_cmd(&args[1..]),
        Some("convert") => trace_convert_cmd(&args[1..]),
        Some("replay") => trace_replay_cmd(&args[1..]),
        _ => {
            eprintln!(
                "trace subcommands: analyze FILE [--out FILE] [--episodes] [--worst N] | \
                 convert FILE --out FILE | replay FILE.mcdt --episode K\n{}",
                usage()
            );
            ExitCode::FAILURE
        }
    }
}

/// `repro trace analyze FILE [--out FILE] [--episodes] [--worst N]`:
/// offline analysis of a trace in either format. The report is a pure
/// function of the trace bytes, so it can be golden-gated. `--episodes`
/// switches to the episode-catalog view; on a `.mcdt` file it reads only
/// the trailing seek index, never the event stream.
fn trace_analyze_cmd(args: &[String]) -> ExitCode {
    let Some(file) = args.first() else {
        eprintln!("trace analyze needs a FILE\n{}", usage());
        return ExitCode::FAILURE;
    };
    let mut out: Option<std::path::PathBuf> = None;
    let mut episodes = false;
    let mut worst = 20usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--out needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                };
                out = Some(std::path::PathBuf::from(path));
            }
            "--episodes" => episodes = true,
            "--worst" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--worst needs a count\n{}", usage());
                    return ExitCode::FAILURE;
                };
                episodes = true;
                worst = n;
            }
            other => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let path = std::path::Path::new(file);
    let report = if is_mcdt(path) {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if episodes {
            // O(index): decode only the trailing index block.
            match mcd_trace::read_index(&bytes) {
                Ok(index) => {
                    let runs: Vec<(String, Vec<mcd_trace::Episode>)> = index
                        .runs
                        .iter()
                        .map(|r| (r.label.clone(), r.episodes.clone()))
                        .collect();
                    trace_analyze::episodes_report(&runs, worst)
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            let decoded = match mcd_trace::read_mcdt(&bytes) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            match trace_analyze::analyze(&decoded.runs) {
                Ok(analysis) => analysis.report(),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else {
        let jsonl = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if episodes {
            match mcd_trace::parse_jsonl(&jsonl) {
                Ok(runs) => {
                    let catalogs: Vec<(String, Vec<mcd_trace::Episode>)> = runs
                        .iter()
                        .map(|r| (r.label.clone(), mcd_trace::catalog_episodes(&r.events)))
                        .collect();
                    trace_analyze::episodes_report(&catalogs, worst)
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            match trace_analyze::analyze_jsonl(&jsonl) {
                Ok(analysis) => analysis.report(),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    print!("{report}");
    if let Some(path) = &out {
        if let Err(e) = write_file(path, report.as_bytes()) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `repro trace convert FILE --out FILE`: lossless conversion between
/// the JSONL and `.mcdt` trace forms — the direction is inferred from
/// the extensions. `.mcdt -> .jsonl` renders exactly the bytes a direct
/// `--trace-out FILE.jsonl` run would have written; the reverse embeds
/// the events in fresh frames (JSONL carries no anchors or replay
/// specs, so a converted file analyzes identically but cannot replay).
fn trace_convert_cmd(args: &[String]) -> ExitCode {
    let Some(file) = args.first() else {
        eprintln!("trace convert needs a FILE\n{}", usage());
        return ExitCode::FAILURE;
    };
    let mut out: Option<std::path::PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--out needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                };
                out = Some(std::path::PathBuf::from(path));
            }
            other => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(out) = out else {
        eprintln!("trace convert needs --out FILE\n{}", usage());
        return ExitCode::FAILURE;
    };
    let input = std::path::Path::new(file);
    let encoded: Vec<u8> = match (is_mcdt(input), is_mcdt(&out)) {
        (true, false) => {
            let bytes = match std::fs::read(input) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match mcd_trace::read_mcdt(&bytes) {
                Ok(decoded) => mcd_trace::render_jsonl(&decoded.runs).into_bytes(),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (false, true) => {
            let jsonl = match std::fs::read_to_string(input) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match mcd_trace::parse_jsonl(&jsonl) {
                Ok(recordings) => mcd_trace::write_mcdt(&recordings),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => {
            eprintln!(
                "trace convert needs exactly one .mcdt side (got {} -> {})\n{}",
                file,
                out.display(),
                usage()
            );
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_file(&out, &encoded) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} bytes to {}", encoded.len(), out.display());
    ExitCode::SUCCESS
}

/// `repro trace replay FILE.mcdt --episode K`: restores the nearest
/// anchor snapshot and re-simulates from there up to catalogued episode
/// `K`'s close, verifying the replayed events against the original
/// recording byte for byte. Exits nonzero on divergence.
fn trace_replay_cmd(args: &[String]) -> ExitCode {
    let Some(file) = args.first() else {
        eprintln!("trace replay needs a FILE.mcdt\n{}", usage());
        return ExitCode::FAILURE;
    };
    let mut episode: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--episode" => {
                i += 1;
                let Some(k) = args.get(i).and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--episode needs an ordinal\n{}", usage());
                    return ExitCode::FAILURE;
                };
                episode = Some(k);
            }
            other => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(k) = episode else {
        eprintln!(
            "trace replay needs --episode K (see trace analyze --episodes)\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    };
    let path = std::path::Path::new(file);
    if !is_mcdt(path) {
        eprintln!("trace replay needs a .mcdt recording (JSONL carries no anchors)");
        return ExitCode::FAILURE;
    }
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match mcd_bench::replay::replay_episode(&bytes, k) {
        Ok(outcome) => {
            print!("{}", outcome.report());
            if outcome.byte_identical {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro profile <ids>`: re-runs experiments with the span profiler and
/// distribution telemetry enabled and prints a per-experiment phase
/// breakdown. Wall readings vary run to run, so this output is never
/// golden-gated.
fn profile_cmd(args: &[String]) -> ExitCode {
    let mut ids: Vec<&'static str> = Vec::new();
    let mut i = 0;
    while i < args.len() && !args[i].starts_with("--") {
        let id = match args[i].as_str() {
            "headline" => "fig9",
            other => other,
        };
        if id == "all" {
            ids.extend(experiments::ALL);
        } else if let Some(&known) = experiments::ALL.iter().find(|&&e| e == id) {
            if !ids.contains(&known) {
                ids.push(known);
            }
        } else {
            eprintln!("unknown experiment {id}\n{}", usage());
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    if ids.is_empty() {
        eprintln!("no experiments named\n{}", usage());
        return ExitCode::FAILURE;
    }
    let mut cfg = RunConfig::full();
    let mut jobs = mcd_bench::parallel::default_jobs();
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = RunConfig::quick(),
            "--ops" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("--ops needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                cfg = cfg.with_ops(n);
            }
            "--seed" => {
                i += 1;
                let Some(s) = args.get(i).and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("--seed needs an integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                cfg.seed = s;
            }
            "--jobs" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--jobs needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                if n == 0 {
                    eprintln!("--jobs needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
                jobs = n;
            }
            other => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let rs = RunSet::new(jobs).with_telemetry().with_profiling();
    for (n, id) in ids.iter().enumerate() {
        let before = rs.profiler().snapshot();
        let wall_before = rs.wall_snapshot();
        let start = Instant::now();
        if let Err(e) = experiments::run_on(&rs, id, &cfg) {
            eprintln!("{id}: {e}");
            return ExitCode::FAILURE;
        }
        let wall_s = start.elapsed().as_secs_f64();
        let phases = rs.profiler().snapshot().diff(&before);
        let wall = rs.wall_snapshot().diff(&wall_before);
        let mut t = Table::new(["phase", "calls", "wall", "share"]);
        for p in &phases.phases {
            // Share of the experiment's wall clock; nested paths (e.g.
            // baseline/simulate) also count toward their parents, so
            // shares need not sum to 100%.
            let share = p.seconds() * 100.0 / wall_s.max(1e-9);
            t.row([
                p.path.clone(),
                p.calls.to_string(),
                format!("{:.3} s", p.seconds()),
                format!("{share:.1}%"),
            ]);
        }
        if n > 0 {
            println!();
        }
        println!(
            "{id}: {wall_s:.3} s wall, {} simulations (per-run p50 {:.3} s, p99 {:.3} s)\n\n{}",
            wall.count(),
            wall.p50() as f64 / 1e6,
            wall.p99() as f64 / 1e6,
            t.render()
        );
    }
    if let Some(tel) = rs.telemetry() {
        println!("\n{}", telemetry_table(tel));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if args[0] == "list" {
        for e in experiments::ALL {
            println!("{e}");
        }
        return ExitCode::SUCCESS;
    }
    if args[0] == "trace" {
        return trace_cmd(&args[1..]);
    }
    if args[0] == "profile" {
        return profile_cmd(&args[1..]);
    }

    // Leading non-flag arguments are experiment ids ("headline" is a
    // friendlier alias for the reconstructed Figure 9).
    let mut ids: Vec<&'static str> = Vec::new();
    let mut i = 0;
    while i < args.len() && !args[i].starts_with("--") {
        let id = match args[i].as_str() {
            "headline" => "fig9",
            other => other,
        };
        if id == "all" {
            ids.extend(experiments::ALL);
        } else if let Some(&known) = experiments::ALL.iter().find(|&&e| e == id) {
            if !ids.contains(&known) {
                ids.push(known);
            }
        } else {
            eprintln!("unknown experiment {id}\n{}", usage());
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    if ids.is_empty() {
        eprintln!("no experiments named\n{}", usage());
        return ExitCode::FAILURE;
    }

    let mut cfg = RunConfig::full();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut bench_out: Option<std::path::PathBuf> = None;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut run_timeout: Option<Duration> = None;
    let mut jobs = mcd_bench::parallel::default_jobs();
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = RunConfig::quick(),
            "--resume" => resume = true,
            "--out" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--out needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                };
                out_dir = Some(std::path::PathBuf::from(dir));
            }
            "--bench-out" => {
                i += 1;
                let Some(file) = args.get(i) else {
                    eprintln!("--bench-out needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                };
                bench_out = Some(std::path::PathBuf::from(file));
            }
            "--trace-out" => {
                i += 1;
                let Some(file) = args.get(i) else {
                    eprintln!("--trace-out needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                };
                trace_out = Some(std::path::PathBuf::from(file));
            }
            "--checkpoint" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--checkpoint needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                };
                checkpoint_dir = Some(std::path::PathBuf::from(dir));
            }
            "--run-timeout" => {
                i += 1;
                let Some(secs) = args.get(i).and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--run-timeout needs seconds\n{}", usage());
                    return ExitCode::FAILURE;
                };
                let budget = Duration::try_from_secs_f64(secs).ok();
                let Some(budget) = budget.filter(|b| !b.is_zero()) else {
                    eprintln!("--run-timeout needs positive seconds\n{}", usage());
                    return ExitCode::FAILURE;
                };
                run_timeout = Some(budget);
            }
            "--jobs" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--jobs needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                if n == 0 {
                    eprintln!("--jobs needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
                jobs = n;
            }
            "--ops" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("--ops needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                cfg = cfg.with_ops(n);
            }
            "--seed" => {
                i += 1;
                let Some(s) = args.get(i).and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("--seed needs an integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                cfg.seed = s;
            }
            "--shard-ops" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("--shard-ops needs an integer (0 disables)\n{}", usage());
                    return ExitCode::FAILURE;
                };
                cfg = cfg.with_shard_ops(n);
            }
            "--shard-secs" => {
                i += 1;
                let Some(secs) = args.get(i).and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--shard-secs needs seconds\n{}", usage());
                    return ExitCode::FAILURE;
                };
                if !(secs > 0.0 && secs.is_finite()) {
                    eprintln!("--shard-secs needs positive seconds\n{}", usage());
                    return ExitCode::FAILURE;
                }
                cfg = cfg.with_shard_ops((secs * SHARD_OPS_PER_SEC).max(1.0) as u64);
            }
            other => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    if resume && checkpoint_dir.is_none() {
        eprintln!("--resume needs --checkpoint DIR\n{}", usage());
        return ExitCode::FAILURE;
    }

    let checkpoint = match &checkpoint_dir {
        Some(dir) => match CheckpointDir::open(dir, &CheckpointDir::fingerprint(&cfg)) {
            Ok(ck) => Some(ck),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // Distribution telemetry rides along whenever a machine-readable
    // benchmark record was asked for; the default path keeps NullSink.
    let rs = RunSet::init_global(jobs, trace_out.is_some(), bench_out.is_some(), false);
    let all_start = Instant::now();

    // Replay checkpointed entries, then run what is left. One ordered
    // outcome slot per experiment either way.
    let mut outcomes: Vec<Option<Result<CompletedRun, RunError>>> = Vec::new();
    outcomes.resize_with(ids.len(), || None);
    if resume {
        let ck = checkpoint.as_ref().expect("checked above");
        for (slot, id) in outcomes.iter_mut().zip(&ids) {
            if let Some(run) = ck.load(id) {
                *slot = Some(Ok(run));
            }
        }
    }
    let pending: Vec<(usize, &'static str)> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_none())
        .map(|(n, _)| (n, ids[n]))
        .collect();

    // Experiments submit their runs to one process-wide work-stealing
    // pool (capped at --jobs workers), so the sweep drives several
    // experiments concurrently without oversubscribing: an experiment's
    // long tail run no longer strands the other cores. Per-experiment
    // numbers come from tag attribution, not counter deltas, so they
    // stay honest while experiments interleave. The isolation lives in
    // `isolated`: panic capture, the optional per-attempt wall-clock
    // budget (the pool's workers inherit the deadline with the tag), and
    // one retry for transient failures (reset_tag keeps a retried
    // attempt from double-charging its first try).
    let drivers = jobs.min(pending.len()).max(1);
    let results = par_map(drivers, pending.clone(), |(_, id)| {
        isolated(run_timeout, || {
            rs.reset_tag(id);
            let start = Instant::now();
            let report = rs.with_tag(id, || experiments::run_on(rs, id, &cfg))?;
            let driver_wall_s = start.elapsed().as_secs_f64();
            let kind = experiments::kind(id).expect("ids are validated against ALL");
            let tag = rs.tag_stats(id);
            // Simulation experiments report the machine time their runs
            // actually consumed (the driver's elapsed clock would include
            // other experiments' runs interleaving on the shared pool);
            // analysis experiments do no pool work, so the driver clock
            // is the honest figure.
            let wall_s = if kind == experiments::Kind::Simulation && tag.compute_us > 0 {
                tag.wall_s()
            } else {
                driver_wall_s
            };
            let run = CompletedRun {
                report,
                kind: kind.label().to_string(),
                wall_s,
                runs: tag.runs,
                instructions: tag.instructions,
                baseline_requests: tag.baseline_requests,
                events_processed: tag.events_processed,
                cycles_skipped: tag.cycles_skipped,
                run_wall_p50_s: tag.run_wall_p50_s(),
                run_wall_p99_s: tag.run_wall_p99_s(),
            };
            if let Some(ck) = &checkpoint {
                ck.store(id, &run)?;
            }
            Ok(run)
        })
    });
    for ((n, _), result) in pending.into_iter().zip(results) {
        outcomes[n] = Some(result);
    }

    // Reports in request order; failures collected for the table.
    let mut records: Vec<(&'static str, CompletedRun)> = Vec::new();
    let mut failures: Vec<(&'static str, RunError)> = Vec::new();
    let mut exit = ExitCode::SUCCESS;
    for (id, outcome) in ids.iter().zip(outcomes) {
        match outcome.expect("every slot is replayed or run") {
            Ok(run) => {
                if !records.is_empty() {
                    println!("\n{}\n", "=".repeat(78));
                }
                println!("{}", run.report);
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{id}.txt"));
                    if let Err(e) = write_file(&path, run.report.as_bytes()) {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
                records.push((id, run));
            }
            Err(e) => failures.push((id, e)),
        }
    }
    // Drain the flight recorder exactly once; the trace file and the
    // bench-out trace_recorder block both come from this one drain.
    let recordings = rs.drain_recordings();
    let mut recorder = RecorderStats::default();
    if let Some(recs) = &recordings {
        let want_mcdt = trace_out.as_deref().map(is_mcdt).unwrap_or(false);
        let need_jsonl = (trace_out.is_some() && !want_mcdt) || bench_out.is_some();
        let need_mcdt = want_mcdt || bench_out.is_some();
        recorder.events = recs.iter().map(|r| r.events.len() as u64).sum();
        let mut jsonl: Option<String> = None;
        let mut mcdt: Option<Vec<u8>> = None;
        if need_jsonl {
            let start = Instant::now();
            let rendered = mcd_trace::render_jsonl(recs);
            recorder.jsonl_encode_ns_per_event = per_event_ns(start.elapsed(), recorder.events);
            recorder.jsonl_bytes = rendered.len() as u64;
            jsonl = Some(rendered);
        }
        if need_mcdt {
            let start = Instant::now();
            let encoded = mcd_trace::write_mcdt(recs);
            recorder.mcdt_encode_ns_per_event = per_event_ns(start.elapsed(), recorder.events);
            recorder.mcdt_bytes = encoded.len() as u64;
            recorder.episodes = mcd_trace::read_index(&encoded)
                .map(|ix| ix.episode_count() as u64)
                .unwrap_or(0);
            mcdt = Some(encoded);
        }
        if let Some(path) = &trace_out {
            let bytes = if want_mcdt {
                mcdt.expect("encoded above")
            } else {
                jsonl.expect("rendered above").into_bytes()
            };
            if let Err(e) = write_file(path, &bytes) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &bench_out {
        let activity = rs.activity();
        println!("\n{}\n", "=".repeat(78));
        println!("{}", activity_table(&activity));
        if let Some(tel) = rs.telemetry() {
            println!("\n{}", telemetry_table(tel));
        }
        let json = bench_report(
            rs.jobs(),
            all_start.elapsed().as_secs_f64(),
            &rs.stats(),
            rs.wall_snapshot().sum() as f64 / 1e6,
            &records,
            &activity,
            rs.telemetry(),
            &recorder,
        );
        if let Err(e) = write_file(path, json.as_bytes()) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if !failures.is_empty() {
        println!("\n{}\n", "=".repeat(78));
        println!("{}", failure_table(&failures, ids.len()));
        if checkpoint.is_some() && !resume {
            println!("completed experiments are checkpointed; re-run with --resume to retry only the failures");
        }
        exit = ExitCode::FAILURE;
    }
    exit
}
