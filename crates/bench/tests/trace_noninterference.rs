//! The observability layer must be a pure observer: running with event
//! tracing or distribution telemetry enabled must leave
//! every report byte-identical, and the traces it produces must be
//! well-formed and complete (every relay firing and frequency step the
//! counters saw appears in the event stream).

use mcd_bench::experiments;
use mcd_bench::runner::{run_traced, RunConfig, RunSet, RunStats, Scheme};
use mcd_sim::trace::NullSink;
use mcd_sim::{CtrlEvent, TraceEvent};
use mcd_trace::BinarySink;

/// Counter equivalence modulo the scheduler's dispatch/batch split.
///
/// An enabled sink observes every sampling period, so the engine's
/// sample-batching fast path legitimately turns itself off: periods the
/// plain run absorbed as `cycles_skipped` are dispatched one event at a
/// time instead. The simulated history is identical — same runs, same
/// instructions, same total scheduler work (`events + skipped`) — only
/// the split between the two counters moves.
fn assert_stats_equivalent(plain: RunStats, observed: RunStats) {
    assert_eq!(plain.runs, observed.runs);
    assert_eq!(plain.instructions, observed.instructions);
    assert_eq!(plain.baseline_requests, observed.baseline_requests);
    assert_eq!(
        plain.events_processed + plain.cycles_skipped,
        observed.events_processed + observed.cycles_skipped,
        "total scheduler work must be sink-independent"
    );
    assert!(
        observed.cycles_skipped <= plain.cycles_skipped,
        "an enabled sink can only reduce batching, never add to it"
    );
}

#[test]
fn tracing_leaves_reports_byte_identical() {
    let cfg = RunConfig::quick().with_ops(20_000);
    let plain = RunSet::new(2);
    let traced = RunSet::new(2).with_tracing();
    for id in ["fig9", "ablate-qref"] {
        let a = experiments::run_on(&plain, id, &cfg);
        let b = experiments::run_on(&traced, id, &cfg);
        assert_eq!(a, b, "{id} report changed under tracing");
    }
    // The always-on counters are sink-independent too.
    assert_stats_equivalent(plain.stats(), traced.stats());
    assert_eq!(plain.activity(), traced.activity());
    // And the untraced set has no trace stream at all.
    assert!(plain.drain_traces().is_none());
}

#[test]
fn telemetry_and_profiling_leave_reports_byte_identical() {
    let cfg = RunConfig::quick().with_ops(20_000);
    let plain = RunSet::new(2);
    let instrumented = RunSet::new(2).with_telemetry();
    for id in ["fig9", "ablate-qref"] {
        let a = experiments::run_on(&plain, id, &cfg);
        let b = experiments::run_on(&instrumented, id, &cfg);
        assert_eq!(a, b, "{id} report changed under telemetry");
    }
    assert_stats_equivalent(plain.stats(), instrumented.stats());
    assert_eq!(plain.activity(), instrumented.activity());
    // The instrumentation did observe the runs it rode along with...
    let tel = instrumented.telemetry().expect("telemetry enabled");
    assert!(tel.reaction_ps.iter().any(|h| h.snapshot().count() > 0));
    // ...while the plain set carries none of it.
    assert!(plain.telemetry().is_none());
}

#[test]
fn traces_are_wellformed_and_cover_all_firings_and_steps() {
    let cfg = RunConfig::quick().with_ops(20_000);
    let rs = RunSet::new(2).with_tracing();
    experiments::run_on(&rs, "fig9", &cfg).expect("valid run");
    let activity = rs.activity();
    let traces = rs.drain_traces().expect("tracing enabled");
    assert!(!traces.is_empty());

    let mut fires = 0u64;
    let mut steps = 0u64;
    for (label, events) in &traces {
        assert!(!label.is_empty());
        for ev in events {
            let json = ev.to_json();
            assert!(
                json.starts_with('{') && json.ends_with('}') && json.contains("\"domain\":"),
                "malformed event line: {json}"
            );
            match ev {
                TraceEvent::Controller {
                    event: CtrlEvent::RelayFire { .. },
                    ..
                } => fires += 1,
                TraceEvent::FreqStep { .. } => steps += 1,
                _ => {}
            }
        }
    }
    let counted_fires: u64 = activity.relay_fires.iter().sum();
    let counted_steps: u64 = (0..3).map(|i| activity.freq_steps(i)).sum();
    assert!(counted_fires > 0, "expected controller activity in fig9");
    assert_eq!(fires, counted_fires, "relay firings missing from trace");
    assert_eq!(steps, counted_steps, "frequency steps missing from trace");
}

#[test]
fn binary_sink_leaves_results_byte_identical() {
    // The flight recorder's framing sink is just another TraceSink: a
    // run streamed straight into a BinarySink must report exactly what
    // the NullSink run does, sharded or not, and the bytes it framed
    // must decode back to a well-formed single-run stream.
    for shard in [0u64, 5_000] {
        let cfg = RunConfig::quick().with_ops(15_000).with_shard_ops(shard);
        let mut plain = NullSink;
        let a = run_traced("gzip", Scheme::Adaptive, &cfg, &mut plain).expect("plain run");
        let mut sink = BinarySink::new();
        sink.start_run("gzip|adaptive", None);
        let b = run_traced("gzip", Scheme::Adaptive, &cfg, &mut sink).expect("recorded run");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "shard_ops={shard}: recording to a BinarySink changed the result"
        );
        let decoded = mcd_trace::read_mcdt(&sink.finish()).expect("framed bytes decode");
        assert_eq!(decoded.runs.len(), 1);
        assert!(!decoded.runs[0].events.is_empty());
        let anchors = decoded.runs[0].anchors.len();
        assert_eq!(anchors > 0, shard > 0, "anchors iff sharded");
    }
}

#[test]
fn drain_traces_is_deterministic_across_worker_counts() {
    let cfg = RunConfig::quick().with_ops(20_000);
    let render = |jobs: usize| {
        let rs = RunSet::new(jobs).with_tracing();
        experiments::run_on(&rs, "fig9", &cfg).expect("valid run");
        let mut out = String::new();
        for (label, events) in rs.drain_traces().expect("tracing enabled") {
            for ev in events {
                out.push_str(&format!("{label} {}\n", ev.to_json()));
            }
        }
        out
    };
    assert_eq!(render(1), render(4));
}
