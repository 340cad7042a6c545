//! Offline trace analysis: `repro trace analyze FILE`.
//!
//! [`analyze`] takes recorded runs — decoded from `.mcdt`, or parsed
//! from `--trace-out` JSONL by [`analyze_jsonl`] — and reconstructs what
//! no single counter shows: deviation episodes, the *distribution* of
//! reaction times (the paper's central quantity, HPCA 2005 §4–5),
//! relay-reset reasons, queue-occupancy distributions, and an ASCII
//! per-domain timeline of the busiest run.
//!
//! The report is deterministic: runs are grouped by label and visited in
//! label order, whatever order the file holds them in, so `repro ...
//! --jobs 1/2/8 --trace-out` feed byte-identical analyses. Reaction
//! times and occupancy are folded through the engine's own
//! [`TelemetrySink`], whose reaction times come from
//! [`mcd_sim::OnsetTracker`], so the analyzer's per-domain mean equals
//! the always-on counters' `mean_reaction_ns` to the picosecond.

use std::collections::BTreeMap;

use mcd_sim::{
    CtrlEvent, DomainId, NullSink, OnsetEffect, SimTelemetry, StepDir, TelemetrySink, TraceEvent,
};
use mcd_telemetry::HistogramSnapshot;
use mcd_trace::{Episode, RunRecording};

use crate::error::RunError;
use crate::runner::ControllerActivity;
use crate::table::Table;

/// The backend domains in report order, as serialized in events.
const DOMAINS: [&str; 3] = ControllerActivity::DOMAINS;

/// Per-domain counters across every run in the trace; the reaction and
/// occupancy distributions live in [`TraceAnalysis`] snapshots.
#[derive(Debug, Default)]
struct DomainAgg {
    arms: u64,
    fires: u64,
    resets: BTreeMap<&'static str, u64>,
    steps_up: u64,
    steps_down: u64,
    episodes_abandoned: u64,
}

/// Everything the analyzer reconstructs from one trace file. Produced
/// by [`analyze`]; render with [`TraceAnalysis::report`].
#[derive(Debug)]
pub struct TraceAnalysis {
    events: u64,
    runs: u64,
    domains: [DomainAgg; 3],
    reaction: [HistogramSnapshot; 3],
    occupancy: [HistogramSnapshot; 3],
    timeline: Option<Timeline>,
    /// Set when the file's unterminated final line was dropped as a
    /// mid-write truncation; rendered as a partial-analysis note.
    truncation: Option<String>,
}

#[derive(Debug)]
struct Timeline {
    run: String,
    span_ps: u64,
    rows: [String; 3],
}

/// Width of the ASCII timeline in bins.
const TIMELINE_BINS: usize = 64;

/// Rank of a timeline glyph; higher wins when events share a bin.
fn glyph_priority(c: char) -> u8 {
    match c {
        'S' => 5,
        'F' => 4,
        'A' => 3,
        '^' => 2,
        'v' => 1,
        _ => 0,
    }
}

impl TraceAnalysis {
    /// Mean reaction time for backend domain `idx` in nanoseconds, or
    /// `None` if the trace shows no completed reaction — defined
    /// exactly like [`ControllerActivity::mean_reaction_time_ns`].
    pub fn mean_reaction_time_ns(&self, idx: usize) -> Option<f64> {
        self.reaction[idx].mean().map(|ps| ps / 1000.0)
    }

    /// The reaction-time distribution of backend domain `idx`, in
    /// picoseconds: one sample per reacted episode.
    pub fn reaction_ps(&self, idx: usize) -> &HistogramSnapshot {
        &self.reaction[idx]
    }

    /// Episodes of backend domain `idx` abandoned back inside their
    /// windows before any step answered them.
    pub fn episodes_abandoned(&self, idx: usize) -> u64 {
        self.domains[idx].episodes_abandoned
    }

    /// Renders the deterministic report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("Trace analysis\n==============\n\n");
        out.push_str(&format!(
            "{} events across {} runs\n\n",
            self.events, self.runs
        ));
        if let Some(note) = &self.truncation {
            out.push_str(&format!("NOTE: partial analysis — {note}\n\n"));
        }

        let ns = |ps: u64| format!("{:.1} ns", ps as f64 / 1000.0);
        let mut t = Table::new(["domain", "reactions", "mean", "p50", "p99", "max"]);
        for (i, name) in DOMAINS.iter().enumerate() {
            let d = &self.reaction[i];
            let (mean, p50, p99, max) = if d.count() == 0 {
                ("-".into(), "-".into(), "-".into(), "-".to_string())
            } else {
                (
                    format!("{:.1} ns", self.mean_reaction_time_ns(i).unwrap_or(0.0)),
                    ns(d.p50()),
                    ns(d.p99()),
                    ns(d.max()),
                )
            };
            t.row([name.to_string(), d.count().to_string(), mean, p50, p99, max]);
        }
        out.push_str("Reaction time (deviation onset -> frequency step):\n\n");
        out.push_str(&t.render());

        let mut reasons: Vec<&str> = Vec::new();
        for d in &self.domains {
            for why in d.resets.keys() {
                if !reasons.contains(why) {
                    reasons.push(why);
                }
            }
        }
        reasons.sort();
        let mut headers = vec![
            "domain".to_string(),
            "arms".to_string(),
            "fires".to_string(),
            "resets".to_string(),
        ];
        headers.extend(reasons.iter().map(|why| why.to_string()));
        let mut t = Table::new(headers);
        for (i, name) in DOMAINS.iter().enumerate() {
            let d = &self.domains[i];
            let mut row = vec![
                name.to_string(),
                d.arms.to_string(),
                d.fires.to_string(),
                d.resets.values().sum::<u64>().to_string(),
            ];
            for why in &reasons {
                row.push(d.resets.get(why).copied().unwrap_or(0).to_string());
            }
            t.row(row);
        }
        out.push_str("\nRelay activity (resets broken down by reason):\n\n");
        out.push_str(&t.render());

        let mut t = Table::new([
            "domain",
            "episodes",
            "reacted",
            "abandoned",
            "steps up",
            "steps down",
        ]);
        for (i, name) in DOMAINS.iter().enumerate() {
            let d = &self.domains[i];
            let reacted = self.reaction[i].count();
            t.row([
                name.to_string(),
                (reacted + d.episodes_abandoned).to_string(),
                reacted.to_string(),
                d.episodes_abandoned.to_string(),
                d.steps_up.to_string(),
                d.steps_down.to_string(),
            ]);
        }
        out.push_str("\nDeviation episodes (onset -> step, or abandoned back inside):\n\n");
        out.push_str(&t.render());

        let mut t = Table::new(["domain", "samples", "p50", "p99", "max"]);
        for (i, name) in DOMAINS.iter().enumerate() {
            let d = &self.occupancy[i];
            let (p50, p99, max) = if d.count() == 0 {
                ("-".into(), "-".into(), "-".to_string())
            } else {
                (
                    d.p50().to_string(),
                    d.p99().to_string(),
                    d.max().to_string(),
                )
            };
            t.row([name.to_string(), d.count().to_string(), p50, p99, max]);
        }
        out.push_str("\nQueue occupancy (entries, per controller sample):\n\n");
        out.push_str(&t.render());

        if let Some(tl) = &self.timeline {
            out.push_str(&format!(
                "\nTimeline of the busiest run ({} bins over {:.1} us):\n  {}\n  S=freq step  F=relay fire  A=relay arm  ^=window enter  v=window exit\n\n",
                TIMELINE_BINS,
                tl.span_ps as f64 / 1e6,
                tl.run,
            ));
            for (i, name) in DOMAINS.iter().enumerate() {
                out.push_str(&format!("  {:<4}|{}|\n", name, tl.rows[i]));
            }
        }
        out
    }
}

/// Analyzes `--trace-out` JSON lines. Blank lines are skipped; any
/// malformed *complete* line is a typed error naming its line number.
///
/// A file whose final line is both unterminated (no trailing newline)
/// and unparseable — the signature of a writer killed mid-line — drops
/// that line and flags the report as a partial analysis rather than
/// failing or silently mis-summarizing.
pub fn analyze_jsonl(text: &str) -> Result<TraceAnalysis, RunError> {
    let parse =
        |t: &str| mcd_trace::parse_jsonl(t).map_err(|e| RunError::Config(format!("trace {}", e.0)));
    let (recordings, truncation) = match parse(text) {
        Ok(recordings) => (recordings, None),
        Err(e) if !text.ends_with('\n') => {
            let last = text.rfind('\n').map_or(0, |i| i + 1);
            let recordings = parse(&text[..last]).map_err(|_| e)?;
            let note = format!(
                "dropped unterminated final line {} ({} bytes, no trailing \
                 newline); the trace was likely cut off mid-write",
                text.lines().count(),
                text.len() - last,
            );
            (recordings, Some(note))
        }
        Err(e) => return Err(e),
    };
    let mut analysis = analyze(&recordings)?;
    analysis.truncation = truncation;
    Ok(analysis)
}

/// Analyzes recorded runs. A trace with no events is a typed error, as
/// is an event of the front-end domain, which no controller drives.
pub fn analyze(recordings: &[RunRecording]) -> Result<TraceAnalysis, RunError> {
    // Group events by run label, preserving each run's emission order;
    // the BTreeMap makes the analysis independent of run order.
    let mut by_run: BTreeMap<&str, Vec<&TraceEvent>> = BTreeMap::new();
    for r in recordings {
        by_run.entry(&r.label).or_default().extend(&r.events);
    }
    let events: usize = by_run.values().map(Vec::len).sum();
    if events == 0 {
        return Err(RunError::Config(
            "trace file is empty: no events to analyze (was the run given --trace-out?)".into(),
        ));
    }

    let telemetry = SimTelemetry::new();
    let mut aggs: [DomainAgg; 3] = Default::default();
    let mut busiest: Option<(&str, &[&TraceEvent])> = None;
    for (&run, evs) in &by_run {
        // More events wins; ties go to the lexicographically smaller
        // label (BTreeMap iteration order makes `>` do exactly that).
        if busiest.is_none_or(|(_, b)| evs.len() > b.len()) {
            busiest = Some((run, evs));
        }
        let mut fold = TelemetrySink::new(&telemetry, NullSink);
        for ev in evs {
            if ev.domain() == DomainId::FrontEnd {
                return Err(RunError::Config(format!(
                    "trace run {run:?}: no backend domain: front-end event at {} ps",
                    ev.at().as_ps()
                )));
            }
            let agg = &mut aggs[ev.domain().backend_index()];
            if fold.observe(ev) == OnsetEffect::Abandoned {
                agg.episodes_abandoned += 1;
            }
            match ev {
                TraceEvent::Controller { event, .. } => match event {
                    CtrlEvent::RelayArm { .. } => agg.arms += 1,
                    CtrlEvent::RelayFire { .. } => agg.fires += 1,
                    CtrlEvent::RelayReset { why, .. } => {
                        *agg.resets.entry(why.label()).or_insert(0) += 1;
                    }
                    CtrlEvent::WindowEnter { .. } | CtrlEvent::WindowExit { .. } => {}
                },
                TraceEvent::FreqStep { .. } => {
                    if ev.step_dir() == Some(StepDir::Up) {
                        agg.steps_up += 1;
                    } else {
                        agg.steps_down += 1;
                    }
                }
                TraceEvent::QueueHistogram { .. } => {}
            }
        }
    }

    let timeline = busiest.map(|(run, evs)| {
        let span_ps = evs.iter().map(|e| e.at().as_ps()).max().unwrap_or(0);
        let mut rows: [Vec<char>; 3] = std::array::from_fn(|_| vec!['.'; TIMELINE_BINS]);
        for ev in evs {
            let glyph = match ev {
                TraceEvent::FreqStep { .. } => 'S',
                TraceEvent::Controller { event, .. } => match event {
                    CtrlEvent::RelayFire { .. } => 'F',
                    CtrlEvent::RelayArm { .. } => 'A',
                    CtrlEvent::WindowEnter { .. } => '^',
                    CtrlEvent::WindowExit { .. } => 'v',
                    CtrlEvent::RelayReset { .. } => continue,
                },
                TraceEvent::QueueHistogram { .. } => continue,
            };
            let bin = if span_ps == 0 {
                0
            } else {
                ((ev.at().as_ps() as u128 * (TIMELINE_BINS as u128 - 1)) / span_ps as u128) as usize
            };
            let slot = &mut rows[ev.domain().backend_index()][bin];
            if glyph_priority(glyph) > glyph_priority(*slot) {
                *slot = glyph;
            }
        }
        Timeline {
            run: run.to_string(),
            span_ps,
            rows: rows.map(|r| r.into_iter().collect()),
        }
    });

    Ok(TraceAnalysis {
        events: events as u64,
        runs: by_run.len() as u64,
        domains: aggs,
        reaction: std::array::from_fn(|i| telemetry.reaction_ps[i].snapshot()),
        occupancy: std::array::from_fn(|i| telemetry.occupancy[i].snapshot()),
        timeline,
        truncation: None,
    })
}

/// Renders the episode-catalog view (`repro trace analyze --episodes`):
/// a per-run summary table plus the worst-`worst` *reacted* episodes by
/// reaction time (abandoned episodes never reacted, so they are excluded
/// from the worst listing but counted in the summary). `runs` pairs each
/// run label with its catalog in file order; the `episode` ordinal
/// printed in the worst table is the `K` that
/// `repro trace replay FILE --episode K` accepts.
pub fn episodes_report(runs: &[(String, Vec<Episode>)], worst: usize) -> String {
    let ns = |ps: u64| format!("{:.1} ns", ps as f64 / 1000.0);
    let total: usize = runs.iter().map(|(_, eps)| eps.len()).sum();
    let reacted: usize = runs
        .iter()
        .flat_map(|(_, eps)| eps)
        .filter(|e| e.reaction_ps.is_some())
        .count();

    let mut out = String::new();
    out.push_str("Episode catalog\n===============\n\n");
    out.push_str(&format!(
        "{} episodes across {} runs ({} reacted, {} abandoned)\n\n",
        total,
        runs.len(),
        reacted,
        total - reacted,
    ));

    let mut t = Table::new([
        "run",
        "episodes",
        "reacted",
        "abandoned",
        "relay resets",
        "mean reaction",
        "max reaction",
    ]);
    for (label, eps) in runs {
        let reactions: Vec<u64> = eps.iter().filter_map(|e| e.reaction_ps).collect();
        let (mean, max) = if reactions.is_empty() {
            ("-".to_string(), "-".to_string())
        } else {
            (
                ns(reactions.iter().sum::<u64>() / reactions.len() as u64),
                ns(reactions.iter().copied().max().unwrap_or(0)),
            )
        };
        t.row([
            label.clone(),
            eps.len().to_string(),
            reactions.len().to_string(),
            (eps.len() - reactions.len()).to_string(),
            eps.iter().map(|e| e.relay_resets).sum::<u64>().to_string(),
            mean,
            max,
        ]);
    }
    out.push_str("Per-run catalog:\n\n");
    out.push_str(&t.render());

    // Global ordinals enumerate runs in file order, episodes in onset
    // order within each run — exactly `TraceIndex::locate_episode`.
    let mut ranked: Vec<(u64, usize, usize, &str, &Episode)> = Vec::new();
    let mut ordinal = 0usize;
    for (run_idx, (label, eps)) in runs.iter().enumerate() {
        for ep in eps {
            if let Some(r) = ep.reaction_ps {
                ranked.push((r, run_idx, ordinal, label, ep));
            }
            ordinal += 1;
        }
    }
    ranked.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then(a.1.cmp(&b.1))
            .then(a.4.onset_event_index.cmp(&b.4.onset_event_index))
    });
    ranked.truncate(worst);

    let mut t = Table::new([
        "episode", "run", "domain", "onset", "reaction", "resets", "offset",
    ]);
    for (r, _, k, label, ep) in &ranked {
        t.row([
            k.to_string(),
            (*label).to_string(),
            DOMAINS[ep.domain].to_string(),
            format!("{:.3} us", ep.onset_ps as f64 / 1e6),
            ns(*r),
            ep.relay_resets.to_string(),
            ep.block_offset.to_string(),
        ]);
    }
    out.push_str(&format!(
        "\nWorst {} reacted episodes (slowest onset->step first; replay one \
         with `repro trace replay FILE --episode K`):\n\n",
        ranked.len()
    ));
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_power::{OpIndex, TimePs};
    use mcd_sim::SignalKind;
    use mcd_trace::{catalog_episodes, parse_jsonl, read_mcdt, render_jsonl, write_mcdt};

    fn recording(label: &str, events: Vec<TraceEvent>) -> RunRecording {
        RunRecording {
            label: label.to_string(),
            spec: None,
            events,
            anchors: Vec::new(),
        }
    }

    fn enter(domain: DomainId, at_ns: u64) -> TraceEvent {
        TraceEvent::Controller {
            domain,
            event: CtrlEvent::WindowEnter {
                at: TimePs::from_ns(at_ns),
                signal: SignalKind::Occupancy,
                value: 3.0,
                occupancy: 11,
                dir: StepDir::Up,
            },
        }
    }

    fn step(domain: DomainId, at_ns: u64) -> TraceEvent {
        TraceEvent::FreqStep {
            at: TimePs::from_ns(at_ns),
            domain,
            from: OpIndex(4),
            to: OpIndex(3),
            from_mhz: 257.5,
            to_mhz: 255.0,
            from_mv: 652.0,
            to_mv: 650.0,
        }
    }

    /// Analyzes `jsonl` directly and through a `.mcdt` file converted
    /// from it, as `repro trace analyze` would read either file.
    fn analyze_both_forms(jsonl: &str) -> [Result<TraceAnalysis, RunError>; 2] {
        let recordings = parse_jsonl(jsonl).expect("well-formed lines");
        let decoded = read_mcdt(&write_mcdt(&recordings)).expect("own bytes decode");
        [analyze_jsonl(jsonl), analyze(&decoded.runs)]
    }

    fn sample() -> Vec<RunRecording> {
        let events = vec![
            TraceEvent::Controller {
                domain: DomainId::Int,
                event: CtrlEvent::WindowEnter {
                    at: TimePs::from_ns(100),
                    signal: SignalKind::Occupancy,
                    value: 3.0,
                    occupancy: 11,
                    dir: StepDir::Up,
                },
            },
            TraceEvent::Controller {
                domain: DomainId::Int,
                event: CtrlEvent::RelayArm {
                    at: TimePs::from_ns(100),
                    signal: SignalKind::Occupancy,
                    dir: StepDir::Up,
                    remaining: 2.0,
                },
            },
            TraceEvent::Controller {
                domain: DomainId::Int,
                event: CtrlEvent::RelayFire {
                    at: TimePs::from_ns(300),
                    signal: SignalKind::Occupancy,
                    dir: StepDir::Up,
                },
            },
            TraceEvent::FreqStep {
                at: TimePs::from_ns(300),
                domain: DomainId::Int,
                from: OpIndex(3),
                to: OpIndex(4),
                from_mhz: 255.0,
                to_mhz: 257.5,
                from_mv: 650.0,
                to_mv: 652.0,
            },
            TraceEvent::Controller {
                domain: DomainId::Fp,
                event: CtrlEvent::WindowEnter {
                    at: TimePs::from_ns(50),
                    signal: SignalKind::Delta,
                    value: -2.0,
                    occupancy: 1,
                    dir: StepDir::Down,
                },
            },
            TraceEvent::Controller {
                domain: DomainId::Fp,
                event: CtrlEvent::WindowExit {
                    at: TimePs::from_ns(90),
                    signal: SignalKind::Delta,
                    value: 0.0,
                    occupancy: 4,
                },
            },
            TraceEvent::QueueHistogram {
                at: TimePs::from_ns(400),
                domain: DomainId::Ls,
                samples: 4,
                counts: vec![1, 2, 1],
            },
        ];
        vec![recording("bench|adaptive|ops=1", events)]
    }

    fn sample_trace() -> String {
        render_jsonl(&sample())
    }

    #[test]
    fn reconstructs_reactions_episodes_and_occupancy() {
        let analysis = analyze(&sample()).expect("valid trace");
        assert_eq!(analysis.events, 7);
        assert_eq!(analysis.runs, 1);
        // INT: one reacted episode, 200ns reaction.
        assert_eq!(analysis.reaction[0].count(), 1);
        assert_eq!(
            analysis.mean_reaction_time_ns(0),
            Some(200.0),
            "onset at 100ns, step at 300ns"
        );
        assert_eq!(analysis.domains[0].arms, 1);
        assert_eq!(analysis.domains[0].fires, 1);
        // FP: one abandoned episode, no reaction.
        assert_eq!(analysis.domains[1].episodes_abandoned, 1);
        assert_eq!(analysis.mean_reaction_time_ns(1), None);
        // LS: occupancy histogram from the cumulative snapshot.
        assert_eq!(analysis.occupancy[2].count(), 4);
        assert_eq!(analysis.occupancy[2].max(), 2);
    }

    #[test]
    fn report_is_deterministic_and_complete() {
        let a = analyze(&sample()).expect("valid").report();
        let b = analyze_jsonl(&sample_trace()).expect("valid").report();
        assert_eq!(a, b);
        for section in [
            "Reaction time",
            "Relay activity",
            "Deviation episodes",
            "Queue occupancy",
            "Timeline of the busiest run",
        ] {
            assert!(a.contains(section), "missing {section} in:\n{a}");
        }
        assert!(a.contains("200.0 ns"));
    }

    #[test]
    fn run_order_in_the_file_does_not_matter() {
        let run_a = recording("a|adaptive", vec![step(DomainId::Int, 500)]);
        let run_b = recording("b|PID", vec![step(DomainId::Ls, 500)]);
        let forward = render_jsonl(&[run_a.clone(), run_b.clone()]);
        let backward = render_jsonl(&[run_b, run_a]);
        assert_ne!(forward, backward, "the files really differ");
        let a = analyze_jsonl(&forward).expect("valid").report();
        let b = analyze_jsonl(&backward).expect("valid").report();
        assert_eq!(a, b, "run order in the file must not change the report");
    }

    #[test]
    fn step_before_its_onset_reacts_like_the_catalog_in_both_forms() {
        let events = vec![enter(DomainId::Int, 500), step(DomainId::Int, 200)];
        let catalog = catalog_episodes(&events);
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog[0].reaction_ps, Some(0), "the catalog saturates");
        let [jsonl, mcdt] =
            analyze_both_forms(&render_jsonl(&[recording("r", events)])).map(|a| a.expect("valid"));
        for a in [&jsonl, &mcdt] {
            assert_eq!(a.reaction[0].count(), 1);
            assert_eq!(a.reaction[0].sum(), 0);
            assert_eq!(a.mean_reaction_time_ns(0), Some(0.0));
        }
        assert_eq!(jsonl.report(), mcdt.report());
    }

    #[test]
    fn front_end_events_are_typed_errors_in_both_forms() {
        let jsonl = render_jsonl(&[recording("r", vec![step(DomainId::FrontEnd, 100)])]);
        assert_eq!(jsonl.lines().count(), 1);
        for result in analyze_both_forms(&jsonl) {
            let err = result.expect_err("front-end events have no backend domain");
            assert_eq!(err.kind(), "config-invalid");
            assert!(err.to_string().contains("no backend domain"), "got: {err}");
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        let err = analyze_jsonl("{\"run\": \"x\", \"oops\": 1}\n").unwrap_err();
        assert_eq!(err.kind(), "config-invalid");
        assert!(err.to_string().contains("trace line 1"));
    }

    #[test]
    fn empty_input_is_a_typed_error_not_a_zero_report() {
        for input in ["", "\n", "  \n\n \n"] {
            let err = analyze_jsonl(input).unwrap_err();
            assert_eq!(err.kind(), "config-invalid", "input {input:?}");
            assert!(err.to_string().contains("empty"), "got: {err}");
        }
    }

    #[test]
    fn truncated_final_line_is_dropped_with_a_partial_analysis_note() {
        let full = sample_trace();
        // Cut the file mid-way through its final line, as a killed
        // writer would leave it.
        let cut = &full[..full.len() - 20];
        assert!(!cut.ends_with('\n'));
        let analysis = analyze_jsonl(cut).expect("partial analysis, not an error");
        assert_eq!(analysis.events, 6, "the seventh, cut line is dropped");
        let report = analysis.report();
        assert!(
            report.contains("NOTE: partial analysis"),
            "missing truncation note in:\n{report}"
        );
        assert!(report.contains("unterminated final line 7"));
        // The same mangled line *with* a terminator is a hard error: the
        // file claims the line is complete, so it is corrupt, not cut.
        let err = analyze_jsonl(&format!("{cut}\n")).unwrap_err();
        assert_eq!(err.kind(), "config-invalid");
        assert!(err.to_string().contains("trace line 7"));
    }

    #[test]
    fn parseable_unterminated_final_line_is_kept_without_a_note() {
        let full = sample_trace();
        let cut = full.strip_suffix('\n').expect("renders end in newline");
        let analysis = analyze_jsonl(cut).expect("valid");
        assert_eq!(analysis.events, 7);
        assert!(!analysis.report().contains("NOTE: partial analysis"));
    }

    #[test]
    fn malformed_interior_lines_stay_hard_errors_even_when_unterminated() {
        let err = analyze_jsonl("{\"run\": \"x\", \"oops\": 1}\n{\"run\"").unwrap_err();
        assert_eq!(err.kind(), "config-invalid");
        assert!(err.to_string().contains("trace line 1"));
    }

    #[test]
    fn episodes_report_ranks_by_reaction_and_numbers_globally() {
        let ep = |domain, onset_idx: u64, onset_ps: u64, reaction: Option<u64>| Episode {
            domain,
            onset_event_index: onset_idx,
            onset_ps,
            close_event_index: onset_idx + 1,
            close_ps: onset_ps + reaction.unwrap_or(7),
            reaction_ps: reaction,
            relay_resets: 1,
            block_offset: 640 + onset_idx,
        };
        let runs = vec![
            (
                "a|adaptive".to_string(),
                vec![ep(0, 0, 1_000, Some(50_000)), ep(1, 4, 9_000, None)],
            ),
            ("b|PID".to_string(), vec![ep(2, 2, 5_000, Some(125_500))]),
        ];
        let report = episodes_report(&runs, 20);
        assert!(report.contains("3 episodes across 2 runs (2 reacted, 1 abandoned)"));
        // Worst listing: run b's 125.5 ns episode first (global ordinal
        // 2), then run a's 50 ns (ordinal 0); the abandoned one absent.
        let section = &report[report
            .find("Worst 2 reacted episodes")
            .expect("worst section")..];
        let worst = section.find("125.5 ns").expect("slowest listed");
        let next = section.find("50.0 ns").expect("second listed");
        assert!(worst < next, "slowest first:\n{section}");
    }

    #[test]
    fn episodes_report_is_deterministic() {
        let runs: Vec<(String, Vec<Episode>)> = vec![("r".into(), Vec::new())];
        assert_eq!(episodes_report(&runs, 5), episodes_report(&runs, 5));
    }
}
