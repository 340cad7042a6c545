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
//!                               [--shard-ops N] [--shard-secs S]
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
//! `repro profile <ids>` re-runs experiments with distribution telemetry
//! enabled and prints, from the run ledger, where the time went.

use std::path::PathBuf;
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
         \x20      repro profile <experiment>... [--ops N] [--quick] [--seed S] [--jobs N] \
         [--shard-ops N] [--shard-secs S]\n\
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

/// The flags only a sweep takes: where its outputs go and how its
/// experiments are isolated. `repro profile` refuses them.
#[derive(Default)]
struct SweepFlags {
    out_dir: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    run_timeout: Option<Duration>,
}

/// What to run: experiment ids, the run configuration and the worker
/// count.
struct RunArgs {
    ids: Vec<&'static str>,
    cfg: RunConfig,
    jobs: usize,
}

/// Parses `<experiment>... [flags]` — the one parser behind a sweep and
/// `repro profile`. Leading non-flag arguments are experiment names
/// (`all` expands to every id; see [`experiments::resolve`]). The run-shaping flags are always
/// accepted; the sweep-only ones only when `sweep` is given to hold
/// them. `Err` carries the message printed above the usage text.
fn parse_run_args(args: &[String], mut sweep: Option<&mut SweepFlags>) -> Result<RunArgs, String> {
    let mut ids: Vec<&'static str> = Vec::new();
    let mut i = 0;
    while i < args.len() && !args[i].starts_with("--") {
        let name = args[i].as_str();
        if name == "all" {
            ids.extend(experiments::ALL);
        } else if let Some(id) = experiments::resolve(name) {
            if !ids.contains(&id) {
                ids.push(id);
            }
        } else {
            return Err(format!("unknown experiment {name}"));
        }
        i += 1;
    }
    if ids.is_empty() {
        return Err("no experiments named".to_string());
    }

    let mut cfg = RunConfig::full();
    let mut jobs = mcd_bench::parallel::default_jobs();
    let mut rest = args[i..].iter();
    while let Some(flag) = rest.next() {
        match (flag.as_str(), sweep.as_deref_mut()) {
            ("--quick", _) => cfg = RunConfig::quick(),
            ("--ops", _) => cfg = cfg.with_ops(positive(rest.next(), "--ops")?),
            ("--seed", _) => cfg.seed = value(rest.next(), "--seed needs an integer")?,
            ("--jobs", _) => jobs = positive(rest.next(), "--jobs")? as usize,
            ("--shard-ops", _) => {
                let n = value(rest.next(), "--shard-ops needs an integer (0 disables)")?;
                cfg = cfg.with_shard_ops(n);
            }
            ("--shard-secs", _) => {
                let secs: f64 = value(rest.next(), "--shard-secs needs seconds")?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--shard-secs needs positive seconds".to_string());
                }
                cfg = cfg.with_shard_ops((secs * SHARD_OPS_PER_SEC).max(1.0) as u64);
            }
            ("--resume", Some(s)) => s.resume = true,
            ("--out", Some(s)) => s.out_dir = Some(value(rest.next(), "--out needs a directory")?),
            ("--bench-out", Some(s)) => {
                s.bench_out = Some(value(rest.next(), "--bench-out needs a file")?)
            }
            ("--trace-out", Some(s)) => {
                s.trace_out = Some(value(rest.next(), "--trace-out needs a file")?)
            }
            ("--checkpoint", Some(s)) => {
                s.checkpoint_dir = Some(value(rest.next(), "--checkpoint needs a directory")?)
            }
            ("--run-timeout", Some(s)) => {
                let secs: f64 = value(rest.next(), "--run-timeout needs seconds")?;
                let budget = Duration::try_from_secs_f64(secs).ok();
                let budget = budget.filter(|b| !b.is_zero());
                s.run_timeout = Some(budget.ok_or("--run-timeout needs positive seconds")?);
            }
            (other, _) => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs { ids, cfg, jobs })
}

/// A flag's value parsed as `T`, or `missing` as the error.
fn value<T: std::str::FromStr>(raw: Option<&String>, missing: &str) -> Result<T, String> {
    raw.and_then(|v| v.parse().ok())
        .ok_or_else(|| missing.to_string())
}

/// A flag's value as a positive integer.
fn positive(raw: Option<&String>, flag: &str) -> Result<u64, String> {
    let missing = format!("{flag} needs a positive integer");
    value(raw, &missing).and_then(|n| if n > 0 { Ok(n) } else { Err(missing) })
}

/// `repro profile <ids>`: re-runs experiments one at a time on a fresh
/// run set with distribution telemetry enabled and prints, from the run
/// ledger, where each one's time went — its elapsed wall time, its
/// exact per-run p50/p99, and two rows of calls and summed compute: the
/// experiment's own runs, and the memoized baseline computes it
/// triggered (the set's growth minus the experiment's share). Wall
/// readings vary run to run, so this output is never golden-gated.
fn profile_cmd(args: &[String]) -> ExitCode {
    let RunArgs { ids, cfg, jobs } = match parse_run_args(args, None) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let rs = RunSet::new(jobs).with_telemetry();
    for (n, id) in ids.iter().enumerate() {
        let (runs_before, compute_before) = (rs.stats().runs, rs.compute_s());
        let start = Instant::now();
        let record = match experiments::complete(&rs, id, &cfg) {
            Ok(record) => record,
            Err(e) => {
                eprintln!("{id}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        let own = rs.tag_stats(id);
        let runs = rs.stats().runs - runs_before;
        let compute_s = rs.compute_s() - compute_before;
        let mut t = Table::new(["phase", "calls", "compute"]);
        for (phase, calls, secs) in [
            ("runs", own.stats.runs, own.compute_s()),
            (
                "baseline computes",
                runs - own.stats.runs,
                compute_s - own.compute_s(),
            ),
        ] {
            t.row([
                phase.to_string(),
                calls.to_string(),
                format!("{:.3} s", secs.max(0.0)),
            ]);
        }
        if n > 0 {
            println!();
        }
        println!(
            "{id}: {wall_s:.3} s wall, {runs} simulations (per-run p50 {:.3} s, p99 {:.3} s)\n\n{}",
            record.run_wall_p50_s,
            record.run_wall_p99_s,
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

    let mut flags = SweepFlags::default();
    let RunArgs { ids, cfg, jobs } = match parse_run_args(&args, Some(&mut flags)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let SweepFlags {
        out_dir,
        bench_out,
        trace_out,
        checkpoint_dir,
        resume,
        run_timeout,
    } = flags;
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
    let rs = RunSet::init_global(jobs, trace_out.is_some(), bench_out.is_some());
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
    // numbers come from tag attribution (`experiments::complete`), not
    // counter deltas, so they stay honest while experiments interleave.
    // The isolation lives in `isolated`: panic capture, the optional
    // per-attempt wall-clock budget (the pool's workers inherit the
    // deadline with the tag), and one retry for transient failures.
    let drivers = jobs.min(pending.len()).max(1);
    let results = par_map(drivers, pending.clone(), |(_, id)| {
        isolated(run_timeout, || {
            let run = experiments::complete(rs, id, &cfg)?;
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
            rs.compute_s(),
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
