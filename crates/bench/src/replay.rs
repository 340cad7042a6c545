//! Time-travel replay: re-simulating one catalogued episode from the
//! nearest snapshot anchor.
//!
//! A `.mcdt` recording made with sharding enabled carries the machine
//! snapshot at every shard boundary. `repro trace replay FILE --episode K`
//! restores the last anchor at or before the episode's onset, rebuilds
//! the machine from the run's recorded replay spec, and re-simulates the
//! segment `[anchor, close]`: a lead-in from the anchor to the onset,
//! then the episode itself up to and including the event that closed
//! it (an episode still open when the run ended replays to the end of
//! the run). It then proves the replayed event stream is bit-identical,
//! in `.mcdt` wire form, to the same slice of the original recording.
//! The simulation pauses every few retired instructions to see whether
//! the close has been reached; the shard-equivalence invariant is what
//! makes those pauses, like the skipped intermediate snapshot
//! round-trips, immaterial: the stream does not depend on where the run
//! paused.
//!
//! Only the index and the segment's own blocks are read, each once
//! ([`read_segment`]): from the anchor's block, which holds the snapshot
//! to restore, up to the events block holding the close, not to the
//! next anchor. So a replay costs O(index + segment) in the recording,
//! however long the rest of the shard or the file is.

use mcd_sim::snapshot::config_hash;
use mcd_sim::telemetry::{SimTelemetry, TelemetrySink};
use mcd_sim::{NullSink, SimConfig, TraceEvent, VecSink};
use mcd_trace::json;
use mcd_trace::{read_index, read_segment, wire_identical, Episode};

use crate::error::RunError;
use crate::runner::{build_machine, ControllerActivity, RunConfig, Scheme};

/// Retired instructions the replay simulates between checks for the
/// episode's close: small enough that it overshoots the close by a few
/// hundred events at most, large enough that pausing costs nothing.
const STEP: u64 = 64;

/// Serializes everything needed to rebuild a registry run from scratch
/// as one flat JSON object (parsed back by [`parse_replay_spec`]).
pub fn replay_spec(benchmark: &str, scheme: Scheme, cfg: &RunConfig) -> String {
    format!(
        "{{\"benchmark\":\"{benchmark}\",\"scheme\":\"{}\",\"ops\":{},\"seed\":{},\
         \"traces\":{},\"pid_interval\":{},\"q_ref_scale\":{},\"shard_ops\":{},\"sim_fp\":{}}}",
        scheme.name(),
        cfg.ops,
        cfg.seed,
        u64::from(cfg.traces),
        cfg.pid_interval,
        cfg.q_ref_scale,
        cfg.shard_ops.unwrap_or(0),
        config_hash(&cfg.sim)
    )
}

/// Inverse of [`replay_spec`]. The reconstructed config always carries
/// the default [`SimConfig`]; a recorded fingerprint that disagrees is a
/// typed error (the run was made under simulator knobs the spec cannot
/// carry).
pub fn parse_replay_spec(spec: &str) -> Result<(String, Scheme, RunConfig), RunError> {
    let err = |what: &str| RunError::Config(format!("replay spec: {what}: {spec}"));
    let fields = json::parse(spec).map_err(|e| err(&e.to_string()))?;
    let field = |key: &str| fields.get(key).ok_or_else(|| err(&format!("no {key}")));
    let uint = |key: &str| {
        field(key)?
            .as_u64()
            .ok_or_else(|| err(&format!("{key} is not a u64")))
    };
    let benchmark = field("benchmark")?
        .as_str()
        .ok_or_else(|| err("benchmark is not a string"))?;
    let scheme = (field("scheme")?.as_str().and_then(Scheme::by_name))
        .ok_or_else(|| err("unknown scheme"))?;
    let ops = uint("ops")?;
    let seed = uint("seed")?;
    let traces = uint("traces")? != 0;
    let pid_interval = uint("pid_interval")?;
    let q_ref_scale = field("q_ref_scale")?
        .as_f64()
        .ok_or_else(|| err("q_ref_scale is not a number"))?;
    let shard_ops = uint("shard_ops")?;
    let sim_fp = uint("sim_fp")?;
    let cfg = RunConfig {
        ops,
        seed,
        traces,
        pid_interval,
        q_ref_scale,
        shard_ops: (shard_ops > 0).then_some(shard_ops),
        warm_dir: None,
        sim: SimConfig::default(),
    };
    if config_hash(&cfg.sim) != sim_fp {
        return Err(RunError::Config(
            "replay spec: the run was recorded under a non-default simulator \
             configuration, which the spec cannot reconstruct"
                .to_string(),
        ));
    }
    Ok((benchmark.to_string(), scheme, cfg))
}

/// The result of replaying one episode's segment.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Label of the run the episode belongs to.
    pub run_label: String,
    /// The episode's global ordinal `K` (catalog order across runs).
    pub global_ordinal: usize,
    /// Its ordinal within the run.
    pub run_ordinal: usize,
    /// The catalog entry.
    pub episode: Episode,
    /// First replayed event's index in the run's stream: the restored
    /// anchor's position (0 for a cold start).
    pub start_event_index: u64,
    /// One past the last replayed event's index: one past the close, or
    /// the run's event count for an episode the run's end closed.
    pub end_event_index: u64,
    /// Events the run recorded in all.
    pub run_event_count: u64,
    /// Retired count of the restored anchor (`None` = cold start from
    /// the beginning of the run).
    pub anchor_retired: Option<u64>,
    /// The events the replay produced, `[start, end)` of the run.
    pub replayed: Vec<TraceEvent>,
    /// Whether the replayed stream is byte-identical to the original
    /// slice — the replay contract.
    pub byte_identical: bool,
    /// Reaction-time samples the replayed events hold, summed over
    /// back-end domains.
    pub reaction_count: u64,
    /// Mean reaction time over those samples, nanoseconds.
    pub reaction_mean_ns: Option<f64>,
}

impl ReplayOutcome {
    /// Human-readable replay report.
    pub fn report(&self) -> String {
        let ep = &self.episode;
        let domain = ControllerActivity::DOMAINS[ep.domain];
        let reaction = match ep.reaction_ps {
            Some(ps) => format!("{:.1}ns", ps as f64 / 1000.0),
            None => "abandoned".to_string(),
        };
        let anchor = match self.anchor_retired {
            Some(r) => format!("anchor at {r} retired instructions"),
            None => "cold start (no anchor at or before the onset)".to_string(),
        };
        let verdict = if self.byte_identical {
            "byte-identical to the original recording"
        } else {
            "DIVERGED from the original recording"
        };
        let mean = match self.reaction_mean_ns {
            Some(ns) => format!("{ns:.1}ns"),
            None => "n/a".to_string(),
        };
        format!(
            "Episode {k}: {domain} in {label}\n\
             ==============={pad}\n\
             onset    event {onset_i} at {onset} ps\n\
             close    event {close_i} at {close} ps\n\
             reaction {reaction}  (relay resets during episode: {resets})\n\
             segment  events [{s}, {e}) of {total}: lead-in {lead} + episode {span}, replayed from {anchor}\n\
             verify   {n} events replayed, {verdict}\n\
             telemetry  {rc} reaction(s) in segment, mean {mean}\n",
            k = self.global_ordinal,
            pad = "=".repeat(self.run_label.len() + domain.len() + 14),
            label = self.run_label,
            onset_i = ep.onset_event_index,
            onset = ep.onset_ps,
            close_i = ep.close_event_index,
            close = ep.close_ps,
            resets = ep.relay_resets,
            s = self.start_event_index,
            e = self.end_event_index,
            total = self.run_event_count,
            lead = ep.onset_event_index.saturating_sub(self.start_event_index),
            span = self.end_event_index.saturating_sub(ep.onset_event_index),
            n = self.replayed.len(),
            rc = self.reaction_count,
        )
    }
}

/// Replays the segment around catalogued episode `k` of a `.mcdt`
/// recording and verifies it against the original stream.
pub fn replay_episode(bytes: &[u8], k: usize) -> Result<ReplayOutcome, RunError> {
    let codec = |e: mcd_trace::TraceCodecError| RunError::Config(e.to_string());
    let index = read_index(bytes).map_err(codec)?;
    let (ri, ei) = index.locate_episode(k).ok_or_else(|| {
        RunError::Config(format!(
            "episode {k} out of range: the catalog holds {} episode(s)",
            index.episode_count()
        ))
    })?;
    let run_idx = &index.runs[ri];
    let episode = run_idx.episodes[ei];
    let spec = run_idx.spec.as_deref().ok_or_else(|| {
        RunError::Config(format!(
            "run {:?} recorded no replay spec (ad-hoc custom runs are not replayable)",
            run_idx.label
        ))
    })?;
    let (benchmark, scheme, cfg) = parse_replay_spec(spec)?;

    // The segment: last anchor at or before the onset → the close,
    // inclusive. A run-end close sits at `event_count`, so that episode
    // replays to the end of the run. `decode_index` guarantees
    // `anchor ≤ onset ≤ close ≤ event_count`, so `start ≤ end`.
    let anchors = &run_idx.anchors;
    let start_anchor = anchors
        .iter()
        .rposition(|a| a.event_index <= episode.onset_event_index);
    let start_idx = start_anchor.map_or(0, |a| anchors[a].event_index);
    let end_idx = episode
        .close_event_index
        .saturating_add(1)
        .min(run_idx.event_count);
    let want = usize::try_from(end_idx - start_idx)
        .map_err(|_| RunError::Config(format!("segment of episode {k} overflows usize")))?;
    // The recorded side is read from the start anchor up to the events
    // block holding the close: decoding it first also CRC-checks every
    // block the verdict depends on before any simulation is spent.
    let (anchor, original) =
        read_segment(bytes, &index, ri, start_anchor, end_idx).map_err(codec)?;

    let mut machine = build_machine(&benchmark, scheme, &cfg)?;
    let anchor_retired = match (start_anchor.map(|a| anchors[a]), anchor) {
        (Some(aref), Some(anchor)) if aref.event_index > 0 || aref.retired > 0 => {
            machine
                .restore(&anchor.snapshot)
                .map_err(|e| RunError::Config(format!("recorded anchor failed to restore: {e}")))?;
            Some(aref.retired)
        }
        _ => None,
    };

    // Advance in small retired steps until the close has been emitted;
    // a machine that drains first settles its end-of-run flush.
    let mut sink = VecSink::new();
    while sink.events().len() < want {
        if machine.try_advance_traced(machine.retired().saturating_add(STEP), &mut sink)? {
            machine.finish_traced(&mut sink);
            break;
        }
    }
    let mut replayed = sink.into_events();
    replayed.truncate(want);
    // A short replayed stream fails the length check: a verdict.
    let byte_identical = wire_identical(&replayed, &original);

    // Telemetry describes exactly the verified span.
    let telemetry = SimTelemetry::new();
    let mut fold = TelemetrySink::new(&telemetry, NullSink);
    for ev in &replayed {
        fold.observe(ev);
    }
    let (mut reaction_count, mut reaction_sum_ps) = (0u64, 0u64);
    for h in &telemetry.reaction_ps {
        let snap = h.snapshot();
        reaction_count += snap.count();
        reaction_sum_ps += snap.sum();
    }
    let reaction_mean_ns =
        (reaction_count > 0).then(|| reaction_sum_ps as f64 / reaction_count as f64 / 1000.0);

    Ok(ReplayOutcome {
        run_label: run_idx.label.clone(),
        global_ordinal: k,
        run_ordinal: ei,
        episode,
        start_event_index: start_idx,
        end_event_index: end_idx,
        run_event_count: run_idx.event_count,
        anchor_retired,
        replayed,
        byte_identical,
        reaction_count,
        reaction_mean_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_spec_round_trips() {
        let cfg = RunConfig::quick();
        let spec = replay_spec("gzip", Scheme::Adaptive, &cfg);
        let (benchmark, scheme, parsed) = parse_replay_spec(&spec).expect("round trip");
        assert_eq!(benchmark, "gzip");
        assert_eq!(scheme, Scheme::Adaptive);
        assert_eq!(parsed.ops, cfg.ops);
        assert_eq!(parsed.seed, cfg.seed);
        assert_eq!(parsed.traces, cfg.traces);
        assert_eq!(parsed.pid_interval, cfg.pid_interval);
        assert_eq!(parsed.q_ref_scale, cfg.q_ref_scale);
        assert_eq!(parsed.shard_ops, cfg.shard_ops);
    }

    #[test]
    fn spec_with_modified_sim_config_is_rejected() {
        let mut cfg = RunConfig::quick();
        cfg.sim.jitter_sigma_ps = 0.0;
        let spec = replay_spec("gzip", Scheme::Pid, &cfg);
        let e = parse_replay_spec(&spec).expect_err("non-default sim must be refused");
        assert!(e.to_string().contains("non-default"), "{e}");
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "",
            "{}",
            "{\"benchmark\":\"gzip\"}",
            "{\"scheme\":\"nope\"}",
        ] {
            assert!(parse_replay_spec(bad).is_err(), "accepted {bad:?}");
        }
    }
}
