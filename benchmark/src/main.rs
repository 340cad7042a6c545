//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! mcd-perfbench --workload <sweep|record-replay|serve-mixed> --seed <n>
//!               --seconds <s> --trace <0|1>
//! mcd-perfbench --write-reference <workload>
//! ```
//!
//! With `--trace 0` a run measures the workload for `--seconds` and
//! prints the end-to-end metrics. With `--trace 1` it spends half the
//! time on the same untraced passes and half on traced passes, and prints
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

#![deny(unsafe_code)]

mod digest;
mod host;
mod layers;
mod measure;
mod record_replay;
mod report;
mod serve_mixed;
mod spans;
mod sweep;
mod timed;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// The benchmark's own directory (reference digests live under it).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

const USAGE: &str = "usage: mcd-perfbench --workload <sweep|record-replay|serve-mixed> \
--seed <n> --seconds <s> --trace <0|1>\n       mcd-perfbench --write-reference <workload>";

/// What the command line asks for.
enum Command {
    /// A measuring run.
    Measure(Args),
    /// Regenerate one workload's reference digests.
    WriteReference(String),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--write-reference" => return Ok(Command::WriteReference(value.to_string())),
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Command::Measure(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::Measure(args) => match args.workload.as_str() {
            "sweep" => sweep::run(&args),
            "record-replay" => record_replay::run(&args),
            "serve-mixed" => serve_mixed::run(&args),
            other => Err(format!("unknown workload {other}")),
        }
        .map(|outcome| outcome.print()),
        Command::WriteReference(workload) => match workload.as_str() {
            "sweep" => sweep::write_reference(),
            "record-replay" => record_replay::write_reference(),
            "serve-mixed" => serve_mixed::write_reference(),
            other => Err(format!("unknown workload {other}")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes a reference file under the benchmark directory.
pub fn write_reference_file(rel: &str, lines: &[String]) -> Result<(), String> {
    let path = bench_dir().join(rel);
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
