//! Distribution telemetry over the trace-event stream.
//!
//! The always-on [`Metrics`](crate::metrics::Metrics) counters surface
//! only per-domain *means* (e.g. `mean_reaction_time_ns`). This module
//! adds distributions without touching the engine's hot path: a
//! [`TelemetrySink`] sits behind the existing [`TraceSink`] seam, runs
//! the events the engine already emits through the engine's own
//! [`OnsetTracker`], and folds every reaction time and queue-occupancy
//! sample into lock-free [`Histogram`]s shared with the caller. The
//! offline trace analyzer folds recorded events through the same sink.
//!
//! Because it is just another sink, the zero-cost story is unchanged:
//! runs driven with [`NullSink`](crate::trace::NullSink) still compile
//! event construction out entirely, and headline report bytes cannot
//! depend on whether telemetry was attached (see the bench crate's
//! `trace_noninterference` suite).

use mcd_telemetry::Histogram;

use crate::onset::{OnsetEffect, OnsetTracker};
use crate::trace::{TraceEvent, TraceSink};

/// Shared per-domain distribution accumulators (backend-domain order:
/// INT, FP, LS). All histograms are lock-free; share via `Arc` across
/// worker threads and snapshot at any time.
#[derive(Debug, Default)]
pub struct SimTelemetry {
    /// Reaction time per frequency step, picoseconds, per backend
    /// domain — the distribution behind the counters' mean.
    pub reaction_ps: [Histogram; 3],
    /// Queue occupancy at each controller sample, per backend domain.
    pub occupancy: [Histogram; 3],
}

impl SimTelemetry {
    /// Empty accumulators.
    pub fn new() -> SimTelemetry {
        SimTelemetry::default()
    }
}

/// A [`TraceSink`] that derives reaction-time and occupancy
/// distributions from the event stream and forwards every event to an
/// inner sink (use [`NullSink`](crate::trace::NullSink) when only the
/// histograms are wanted).
///
/// Reaction times come from an [`OnsetTracker`], the same rule the
/// engine's counters use, so the distribution's mean is the counters'
/// mean.
#[derive(Debug)]
pub struct TelemetrySink<'a, S> {
    telemetry: &'a SimTelemetry,
    inner: S,
    onsets: OnsetTracker,
    /// Last cumulative occupancy-histogram snapshot seen per domain;
    /// `queue_histogram` events carry running totals, so each event
    /// contributes its delta.
    seen_occupancy: [Vec<u64>; 3],
}

impl<'a, S: TraceSink> TelemetrySink<'a, S> {
    /// Wraps `inner`, folding distributions into `telemetry`.
    pub fn new(telemetry: &'a SimTelemetry, inner: S) -> Self {
        TelemetrySink {
            telemetry,
            inner,
            onsets: OnsetTracker::new(),
            seen_occupancy: [Vec::new(), Vec::new(), Vec::new()],
        }
    }

    /// Returns the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Folds one backend-domain event into the distributions without
    /// forwarding it, and reports what it did to the domain's episode.
    pub fn observe(&mut self, event: &TraceEvent) -> OnsetEffect {
        let effect = self.onsets.observe(event);
        let bi = event.domain().backend_index();
        if let OnsetEffect::Reacted(ps) = effect {
            self.telemetry.reaction_ps[bi].record(ps);
        }
        if let TraceEvent::QueueHistogram { counts, .. } = event {
            let seen = &mut self.seen_occupancy[bi];
            seen.resize(counts.len().max(seen.len()), 0);
            for (occupancy, (&now, prev)) in counts.iter().zip(seen.iter_mut()).enumerate() {
                let delta = now.saturating_sub(*prev);
                if delta > 0 {
                    self.telemetry.occupancy[bi].record_n(occupancy as u64, delta);
                }
                *prev = now;
            }
        }
        effect
    }
}

impl<S: TraceSink> TraceSink for TelemetrySink<'_, S> {
    fn record(&mut self, event: &TraceEvent) {
        self.observe(event);
        if self.inner.enabled() {
            self.inner.record(event);
        }
    }

    fn record_anchor(&mut self, retired: u64, snapshot: &[u8]) {
        // Anchors carry no distribution signal; pass them straight
        // through so a recording sink behind telemetry still sees them.
        self.inner.record_anchor(retired, snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DomainId;
    use crate::trace::{CtrlEvent, NullSink, SignalKind, StepDir, VecSink};
    use mcd_power::{OpIndex, TimePs};

    fn enter(domain: DomainId, at_ns: u64, signal: SignalKind) -> TraceEvent {
        TraceEvent::Controller {
            domain,
            event: CtrlEvent::WindowEnter {
                at: TimePs::from_ns(at_ns),
                signal,
                value: 2.0,
                occupancy: 12,
                dir: StepDir::Up,
            },
        }
    }

    fn exit(domain: DomainId, at_ns: u64, signal: SignalKind) -> TraceEvent {
        TraceEvent::Controller {
            domain,
            event: CtrlEvent::WindowExit {
                at: TimePs::from_ns(at_ns),
                signal,
                value: 0.0,
                occupancy: 8,
            },
        }
    }

    fn step(domain: DomainId, at_ns: u64) -> TraceEvent {
        TraceEvent::FreqStep {
            at: TimePs::from_ns(at_ns),
            domain,
            from: OpIndex(3),
            to: OpIndex(4),
            from_mhz: 255.0,
            to_mhz: 257.5,
            from_mv: 650.0,
            to_mv: 652.0,
        }
    }

    #[test]
    fn reaction_time_matches_engine_rule() {
        let telemetry = SimTelemetry::new();
        let mut sink = TelemetrySink::new(&telemetry, NullSink);
        // Occupancy deviates at 10ns, delta at 20ns; the step at 50ns
        // reacts to the *earliest* pending onset: 40ns.
        sink.record(&enter(DomainId::Int, 10, SignalKind::Occupancy));
        sink.record(&enter(DomainId::Int, 20, SignalKind::Delta));
        sink.record(&step(DomainId::Int, 50));
        // A second enter after the step opens a fresh episode; the exit
        // cancels it, so the next step has no onset and records nothing.
        sink.record(&enter(DomainId::Int, 60, SignalKind::Occupancy));
        sink.record(&exit(DomainId::Int, 70, SignalKind::Occupancy));
        sink.record(&step(DomainId::Int, 80));
        let snap = telemetry.reaction_ps[0].snapshot();
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.sum(), TimePs::from_ns(40).as_ps());
        assert!(telemetry.reaction_ps[1].snapshot().is_empty());
    }

    #[test]
    fn repeated_window_enters_keep_the_first_onset() {
        let telemetry = SimTelemetry::new();
        let mut sink = TelemetrySink::new(&telemetry, NullSink);
        sink.record(&enter(DomainId::Fp, 10, SignalKind::Occupancy));
        sink.record(&enter(DomainId::Fp, 30, SignalKind::Occupancy));
        sink.record(&step(DomainId::Fp, 100));
        assert_eq!(
            telemetry.reaction_ps[1].snapshot().sum(),
            TimePs::from_ns(90).as_ps()
        );
    }

    #[test]
    fn occupancy_diffs_cumulative_snapshots() {
        let telemetry = SimTelemetry::new();
        let mut sink = TelemetrySink::new(&telemetry, NullSink);
        let hist = |samples, counts: Vec<u64>| TraceEvent::QueueHistogram {
            at: TimePs::from_ns(samples),
            domain: DomainId::Ls,
            samples,
            counts,
        };
        sink.record(&hist(3, vec![1, 2]));
        sink.record(&hist(7, vec![2, 4, 1]));
        let snap = telemetry.occupancy[2].snapshot();
        assert_eq!(snap.count(), 7, "total samples, not double-counted");
        // occupancy 0 seen 2x, 1 seen 4x, 2 seen 1x.
        assert_eq!(snap.sum(), 4 + 2);
        assert_eq!(snap.max(), 2);
    }

    #[test]
    fn forwards_to_an_enabled_inner_sink() {
        let telemetry = SimTelemetry::new();
        let mut sink = TelemetrySink::new(&telemetry, VecSink::new());
        sink.record(&step(DomainId::Int, 10));
        assert_eq!(sink.into_inner().into_events().len(), 1);
    }
}
