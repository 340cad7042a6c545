//! Flight-recorder round trips at the harness level: a traced, sharded
//! `RunSet` sweep drained into `.mcdt` must decode back to exactly the
//! stream a JSONL `--trace-out` run would have written, carry the shard
//! anchors replay needs, and index episodes identically to the offline
//! catalog.

use mcd_bench::runner::{RecorderSink, RunConfig, RunSet, Scheme};
use mcd_bench::trace_analyze;
use mcd_trace::{catalog_episodes, read_index, read_mcdt, render_jsonl, write_mcdt};

fn sharded_cfg() -> RunConfig {
    RunConfig::quick().with_ops(20_000).with_shard_ops(4_000)
}

/// One traced sweep: two schemes over one benchmark, sharded so the
/// recorder sees anchors.
fn recorded_sweep() -> Vec<mcd_trace::RunRecording> {
    let rs = RunSet::new(2).with_tracing();
    let cfg = sharded_cfg();
    rs.baseline("gzip", &cfg).expect("baseline runs");
    rs.run("gzip", Scheme::Adaptive, &cfg)
        .expect("adaptive runs");
    rs.drain_recordings().expect("tracing was enabled")
}

#[test]
fn mcdt_of_a_sharded_sweep_round_trips_and_carries_anchors() {
    let recordings = recorded_sweep();
    assert!(!recordings.is_empty());
    let traced_run = recordings
        .iter()
        .find(|r| r.label.contains("adaptive"))
        .expect("the adaptive run is recorded");
    assert!(
        !traced_run.events.is_empty(),
        "the adaptive run produces events"
    );
    assert!(
        !traced_run.anchors.is_empty(),
        "a 20k-op run sharded every 4k ops must record boundary anchors"
    );
    assert!(
        traced_run.spec.is_some(),
        "registry runs carry a replay spec"
    );

    let bytes = write_mcdt(&recordings);
    let decoded = read_mcdt(&bytes).expect("own bytes decode");
    assert_eq!(decoded.runs.len(), recordings.len());
    for (a, b) in decoded.runs.iter().zip(&recordings) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.events, b.events);
        assert_eq!(a.anchors.len(), b.anchors.len());
        for (x, y) in a.anchors.iter().zip(&b.anchors) {
            assert_eq!(x.event_index, y.event_index);
            assert_eq!(x.retired, y.retired);
            assert_eq!(x.snapshot, y.snapshot);
        }
    }
}

#[test]
fn mcdt_renders_byte_identically_to_the_direct_jsonl_run() {
    let recordings = recorded_sweep();
    let direct = render_jsonl(&recordings);
    let bytes = write_mcdt(&recordings);
    let decoded = read_mcdt(&bytes).expect("own bytes decode");
    assert_eq!(
        render_jsonl(&decoded.runs),
        direct,
        "mcdt -> JSONL must be byte-identical to a direct JSONL trace"
    );
    // And the analyzer cannot tell the decoded file from the JSONL text.
    let a = trace_analyze::analyze_jsonl(&direct)
        .expect("valid")
        .report();
    let b = trace_analyze::analyze(&decoded.runs)
        .expect("valid")
        .report();
    assert_eq!(a, b);
}

#[test]
fn index_episodes_match_the_offline_catalog_and_analyzer_totals() {
    let recordings = recorded_sweep();
    let bytes = write_mcdt(&recordings);
    let index = read_index(&bytes).expect("index decodes");
    assert_eq!(index.runs.len(), recordings.len());
    let mut indexed_total = 0usize;
    for (run_idx, rec) in index.runs.iter().zip(&recordings) {
        let catalog = catalog_episodes(&rec.events);
        assert_eq!(run_idx.episodes.len(), catalog.len(), "run {}", rec.label);
        for (a, b) in run_idx.episodes.iter().zip(&catalog) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.onset_event_index, b.onset_event_index);
            assert_eq!(a.onset_ps, b.onset_ps);
            assert_eq!(a.close_event_index, b.close_event_index);
            assert_eq!(a.reaction_ps, b.reaction_ps);
            assert_eq!(a.relay_resets, b.relay_resets);
        }
        indexed_total += catalog.len();
    }
    assert_eq!(index.episode_count(), indexed_total);
    assert!(indexed_total > 0, "a traced adaptive run has episodes");

    // Per domain, the catalog and the analyzer agree on every reaction
    // and on every abandoned episode. The catalog also closes episodes
    // still open at run end (at one past the last event); the analyzer
    // never sees those close, so they are left out of the comparison.
    let analysis = trace_analyze::analyze(&recordings).expect("valid");
    let mut reacted = [0u64; 3];
    let mut reaction_sum = [0u64; 3];
    let mut abandoned = [0u64; 3];
    for run_idx in &index.runs {
        for ep in &run_idx.episodes {
            match ep.reaction_ps {
                Some(ps) => {
                    reacted[ep.domain] += 1;
                    reaction_sum[ep.domain] += ps;
                }
                None if ep.close_event_index < run_idx.event_count => abandoned[ep.domain] += 1,
                None => {}
            }
        }
    }
    for d in 0..3 {
        let reactions = analysis.reaction_ps(d);
        assert_eq!(reacted[d], reactions.count(), "domain {d}: reacted count");
        assert_eq!(reaction_sum[d], reactions.sum(), "domain {d}: reaction sum");
        assert_eq!(
            abandoned[d],
            analysis.episodes_abandoned(d),
            "domain {d}: abandoned count"
        );
    }
    assert!(reacted.iter().sum::<u64>() > 0, "something reacted");
    assert!(abandoned.iter().sum::<u64>() > 0, "something was abandoned");
}

#[test]
fn direct_recorder_sink_on_a_sharded_run_sees_every_boundary() {
    let cfg = sharded_cfg();
    let mut sink = RecorderSink::new();
    mcd_bench::runner::run_traced("gzip", Scheme::Adaptive, &cfg, &mut sink).expect("runs");
    let (events, anchors) = sink.into_parts();
    assert!(!events.is_empty());
    // 20k ops sharded every 4k: boundaries at 4k..16k (the final segment
    // drains), each with a monotonically increasing retired count.
    assert_eq!(anchors.len(), 4, "one anchor per non-final boundary");
    for pair in anchors.windows(2) {
        assert!(pair[0].retired < pair[1].retired);
        assert!(pair[0].event_index <= pair[1].event_index);
    }
    for a in &anchors {
        assert!(!a.snapshot.is_empty(), "anchors embed the machine state");
    }
}
