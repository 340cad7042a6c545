//! End-to-end contract of `repro trace analyze`: the offline report is
//! a pure function of the trace bytes (so it is byte-identical whatever
//! worker count produced the trace), and the distributions it
//! reconstructs agree with the always-on counters.

use mcd_bench::experiments;
use mcd_bench::runner::{ControllerActivity, RunConfig, RunSet};
use mcd_bench::trace_analyze::{analyze, analyze_jsonl};
use mcd_trace::{render_jsonl, RunRecording};

/// Runs fig9 with tracing on `jobs` workers and returns the recordings
/// plus the counters the run accumulated.
fn traced_run(jobs: usize) -> (Vec<RunRecording>, ControllerActivity) {
    let cfg = RunConfig::quick().with_ops(20_000);
    let rs = RunSet::new(jobs).with_tracing();
    experiments::run_on(&rs, "fig9", &cfg).expect("valid run");
    let recordings = rs.drain_recordings().expect("tracing enabled");
    (recordings, rs.activity())
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let (trace1, _) = traced_run(1);
    let reports: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&jobs| {
            let (trace, _) = traced_run(jobs);
            analyze(&trace).expect("trace parses").report()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "jobs=1 vs jobs=2");
    assert_eq!(reports[0], reports[2], "jobs=1 vs jobs=8");
    // And the trace bytes themselves are jobs-invariant (drain_recordings
    // sorts), so the analyzer input really is the same artifact.
    let (trace8, _) = traced_run(8);
    assert_eq!(render_jsonl(&trace1), render_jsonl(&trace8));
}

#[test]
fn reconstructed_reaction_times_match_the_counters() {
    let (trace, activity) = traced_run(2);
    let analysis = analyze(&trace).expect("trace parses");
    for i in 0..3 {
        match (
            analysis.mean_reaction_time_ns(i),
            activity.mean_reaction_time_ns(i),
        ) {
            (Some(a), Some(b)) => assert!(
                (a - b).abs() < 1e-9,
                "domain {i}: analyzer mean {a} != counter mean {b}"
            ),
            (a, b) => assert_eq!(
                a.is_none(),
                b.is_none(),
                "domain {i}: one side saw reactions the other missed"
            ),
        }
    }
    assert!(
        (0..3).any(|i| activity.mean_reaction_time_ns(i).is_some()),
        "fig9 must produce completed reactions for the comparison to bite"
    );
}

#[test]
fn report_round_trips_through_a_file() {
    let (trace, _) = traced_run(2);
    let dir = std::env::temp_dir().join(format!("mcd-trace-analyze-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("fig9.trace.jsonl");
    std::fs::write(&path, render_jsonl(&trace)).expect("write trace");
    let reread = std::fs::read_to_string(&path).expect("read trace");
    assert_eq!(
        analyze(&trace).expect("direct").report(),
        analyze_jsonl(&reread).expect("from disk").report(),
        "disk round-trip must not perturb the report"
    );
    std::fs::remove_dir_all(&dir).ok();
}
