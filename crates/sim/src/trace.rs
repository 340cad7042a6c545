//! Controller observability: structured decision events and trace sinks.
//!
//! The paper's contribution is controller *dynamics* — deviation windows
//! entered and left, time-delay relays armed, fired and reset, frequency
//! steps taken per domain — none of which is visible in a final
//! energy/performance report. This module defines the event taxonomy and
//! the sink interface the simulator emits those events through.
//!
//! The design is zero-cost when disabled: [`Machine::run`] drives a
//! [`NullSink`] whose [`TraceSink::enabled`] is a constant `false`, so
//! every event-construction site is guarded by a branch the optimizer
//! deletes. Always-on *counters* (relay firings, frequency steps,
//! reaction times, sync-interface stalls — see [`crate::metrics::Metrics`])
//! are accumulated independently of the sink, because the harness reports
//! them even when nobody asked for a full event trace.
//!
//! [`Machine::run`]: crate::engine::Machine::run

use mcd_power::{OpIndex, TimePs};

use crate::config::DomainId;

/// Which controller queue signal an event refers to (the paper's two
/// inputs: relative occupancy `q − q_ref` and the difference `Δq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// The relative-occupancy signal `q − q_ref`.
    Occupancy,
    /// The occupancy-difference signal `q_i − q_{i−1}`.
    Delta,
}

impl SignalKind {
    /// Dense index (0 = occupancy, 1 = delta) for counter arrays.
    pub fn index(self) -> usize {
        match self {
            SignalKind::Occupancy => 0,
            SignalKind::Delta => 1,
        }
    }

    /// The signal as serialized in trace lines (`occupancy`, `delta`).
    pub fn label(self) -> &'static str {
        match self {
            SignalKind::Occupancy => "occupancy",
            SignalKind::Delta => "delta",
        }
    }
}

/// Direction of a pending or executed frequency action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepDir {
    /// Toward higher frequency/voltage.
    Up,
    /// Toward lower frequency/voltage.
    Down,
}

impl StepDir {
    /// The direction as serialized in trace lines (`up`, `down`).
    pub fn label(self) -> &'static str {
        match self {
            StepDir::Up => "up",
            StepDir::Down => "down",
        }
    }
}

/// Why a time-delay relay returned to idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResetReason {
    /// The signal fell back inside its deviation window before the delay
    /// expired (the resettable-relay noise filter working as designed).
    BackInside,
    /// The signal crossed to the other side of the window; counting
    /// restarts in the new direction.
    SideFlip,
    /// Both relays fired in opposite directions in the same sample and
    /// the scheduler cancelled them.
    Cancelled,
    /// The fired trigger was confirmed into an action; the relay is held
    /// for the switching time `T_s`.
    Acted,
}

impl ResetReason {
    /// The reason as serialized in trace lines (`back-inside`, ...).
    pub fn label(self) -> &'static str {
        match self {
            ResetReason::BackInside => "back-inside",
            ResetReason::SideFlip => "side-flip",
            ResetReason::Cancelled => "cancelled",
            ResetReason::Acted => "acted",
        }
    }
}

/// A controller-internal decision event.
///
/// Controllers record these without knowing which domain they drive; the
/// machine wraps them into [`TraceEvent::Controller`] with the domain
/// attached when it drains them each sampling period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CtrlEvent {
    /// A queue signal left its deviation window (deviation onset).
    WindowEnter {
        /// Sample time.
        at: TimePs,
        /// Which signal left its window.
        signal: SignalKind,
        /// The signal value that triggered the exit from the window.
        value: f64,
        /// Raw queue occupancy at that sample.
        occupancy: u32,
        /// Side of the window the signal is on.
        dir: StepDir,
    },
    /// A queue signal came back inside its deviation window.
    WindowExit {
        /// Sample time.
        at: TimePs,
        /// Which signal returned inside its window.
        signal: SignalKind,
        /// The signal value now inside the window.
        value: f64,
        /// Raw queue occupancy at that sample.
        occupancy: u32,
    },
    /// The time-delay relay started counting toward an action.
    RelayArm {
        /// Sample time.
        at: TimePs,
        /// Which signal's relay armed.
        signal: SignalKind,
        /// Direction the relay counts toward.
        dir: StepDir,
        /// Delay still to accumulate before firing, in basic-delay units
        /// (sampling periods at unit signal).
        remaining: f64,
    },
    /// The relay's delay expired: an action in `dir` is proposed to the
    /// scheduler.
    RelayFire {
        /// Sample time.
        at: TimePs,
        /// Which signal's relay fired.
        signal: SignalKind,
        /// Proposed action direction.
        dir: StepDir,
    },
    /// The relay returned to idle.
    RelayReset {
        /// Sample time.
        at: TimePs,
        /// Which signal's relay reset.
        signal: SignalKind,
        /// Why it reset.
        why: ResetReason,
    },
}

impl CtrlEvent {
    /// The sample time the event was recorded at.
    pub fn at(&self) -> TimePs {
        match *self {
            CtrlEvent::WindowEnter { at, .. }
            | CtrlEvent::WindowExit { at, .. }
            | CtrlEvent::RelayArm { at, .. }
            | CtrlEvent::RelayFire { at, .. }
            | CtrlEvent::RelayReset { at, .. } => at,
        }
    }

    fn json_body(&self) -> String {
        match *self {
            CtrlEvent::WindowEnter {
                at,
                signal,
                value,
                occupancy,
                dir,
            } => format!(
                "\"t_ps\":{},\"kind\":\"window_enter\",\"signal\":\"{}\",\"value\":{},\
                 \"occupancy\":{},\"dir\":\"{}\"",
                at.as_ps(),
                signal.label(),
                json_f64(value),
                occupancy,
                dir.label()
            ),
            CtrlEvent::WindowExit {
                at,
                signal,
                value,
                occupancy,
            } => format!(
                "\"t_ps\":{},\"kind\":\"window_exit\",\"signal\":\"{}\",\"value\":{},\
                 \"occupancy\":{}",
                at.as_ps(),
                signal.label(),
                json_f64(value),
                occupancy
            ),
            CtrlEvent::RelayArm {
                at,
                signal,
                dir,
                remaining,
            } => format!(
                "\"t_ps\":{},\"kind\":\"relay_arm\",\"signal\":\"{}\",\"dir\":\"{}\",\
                 \"remaining\":{}",
                at.as_ps(),
                signal.label(),
                dir.label(),
                json_f64(remaining)
            ),
            CtrlEvent::RelayFire { at, signal, dir } => format!(
                "\"t_ps\":{},\"kind\":\"relay_fire\",\"signal\":\"{}\",\"dir\":\"{}\"",
                at.as_ps(),
                signal.label(),
                dir.label()
            ),
            CtrlEvent::RelayReset { at, signal, why } => format!(
                "\"t_ps\":{},\"kind\":\"relay_reset\",\"signal\":\"{}\",\"why\":\"{}\"",
                at.as_ps(),
                signal.label(),
                why.label()
            ),
        }
    }
}

/// A machine-level trace event: a controller decision in some domain, a
/// frequency/voltage step, or a periodic queue-occupancy histogram.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A controller decision in `domain`.
    Controller {
        /// The domain whose controller recorded the event.
        domain: DomainId,
        /// The decision event.
        event: CtrlEvent,
    },
    /// A frequency/voltage retarget was issued to `domain`'s regulator.
    FreqStep {
        /// Sample time the retarget was requested.
        at: TimePs,
        /// The retargeted domain.
        domain: DomainId,
        /// Operating point before the step.
        from: OpIndex,
        /// Operating point being slewed toward.
        to: OpIndex,
        /// Frequency before the step, MHz.
        from_mhz: f64,
        /// Target frequency, MHz.
        to_mhz: f64,
        /// Supply voltage before the step, mV.
        from_mv: f64,
        /// Target supply voltage, mV.
        to_mv: f64,
    },
    /// Cumulative queue-occupancy histogram snapshot for `domain`
    /// (emitted periodically and once at the end of a run; `counts[i]` is
    /// the number of samples that observed occupancy `i`).
    QueueHistogram {
        /// Sample time of the snapshot.
        at: TimePs,
        /// The observed domain.
        domain: DomainId,
        /// Sampling periods elapsed so far.
        samples: u64,
        /// Occupancy counts, indexed by occupancy (length = capacity + 1).
        counts: Vec<u64>,
    },
}

impl TraceEvent {
    /// The domain the event belongs to.
    pub fn domain(&self) -> DomainId {
        match *self {
            TraceEvent::Controller { domain, .. }
            | TraceEvent::FreqStep { domain, .. }
            | TraceEvent::QueueHistogram { domain, .. } => domain,
        }
    }

    /// The sample time the event was recorded at.
    pub fn at(&self) -> TimePs {
        match *self {
            TraceEvent::Controller { ref event, .. } => event.at(),
            TraceEvent::FreqStep { at, .. } | TraceEvent::QueueHistogram { at, .. } => at,
        }
    }

    /// Direction of a frequency step (`None` for other event kinds).
    pub fn step_dir(&self) -> Option<StepDir> {
        match self {
            TraceEvent::FreqStep { from, to, .. } => Some(if to.0 > from.0 {
                StepDir::Up
            } else {
                StepDir::Down
            }),
            _ => None,
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            TraceEvent::Controller { domain, event } => {
                format!("{{\"domain\":\"{domain}\",{}}}", event.json_body())
            }
            TraceEvent::FreqStep {
                at,
                domain,
                from,
                to,
                from_mhz,
                to_mhz,
                from_mv,
                to_mv,
            } => format!(
                "{{\"domain\":\"{domain}\",\"t_ps\":{},\"kind\":\"freq_step\",\
                 \"dir\":\"{}\",\"from_idx\":{},\"to_idx\":{},\"from_mhz\":{},\
                 \"to_mhz\":{},\"from_mv\":{},\"to_mv\":{}}}",
                at.as_ps(),
                self.step_dir().expect("freq step has a direction").label(),
                from.0,
                to.0,
                json_f64(*from_mhz),
                json_f64(*to_mhz),
                json_f64(*from_mv),
                json_f64(*to_mv)
            ),
            TraceEvent::QueueHistogram {
                at,
                domain,
                samples,
                counts,
            } => {
                let body: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
                format!(
                    "{{\"domain\":\"{domain}\",\"t_ps\":{},\"kind\":\"queue_histogram\",\
                     \"samples\":{},\"counts\":[{}]}}",
                    at.as_ps(),
                    samples,
                    body.join(",")
                )
            }
        }
    }
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Inf; the simulator
/// never produces them in events, but clamp defensively).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A consumer of [`TraceEvent`]s.
///
/// The machine checks [`TraceSink::enabled`] before building an event, so
/// a sink that statically returns `false` (the [`NullSink`]) costs
/// nothing: the optimizer removes the entire construction site.
pub trait TraceSink {
    /// Whether this sink wants events at all. Checked before events are
    /// built; defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);

    /// Observes a resumable state snapshot taken between events (the
    /// sharded runner drops one at every shard boundary). `retired` is
    /// the machine's retired-instruction count at the snapshot point.
    /// Sinks that don't build a seekable record ignore these; the
    /// default is a no-op, so snapshots never perturb event streams.
    fn record_anchor(&mut self, _retired: u64, _snapshot: &[u8]) {}
}

/// The disabled sink: records nothing, and reports itself disabled so
/// event construction is compiled out of the sampling path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {}
}

/// Collects events in memory — the building block for tests and for the
/// harness's JSON-lines writer.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut s = VecSink::new();
        assert!(s.enabled());
        let a = TraceEvent::Controller {
            domain: DomainId::Int,
            event: CtrlEvent::RelayFire {
                at: TimePs::from_ns(4),
                signal: SignalKind::Occupancy,
                dir: StepDir::Down,
            },
        };
        let b = TraceEvent::QueueHistogram {
            at: TimePs::from_ns(8),
            domain: DomainId::Fp,
            samples: 2,
            counts: vec![1, 1, 0],
        };
        s.record(&a);
        s.record(&b);
        assert_eq!(s.events(), &[a.clone(), b.clone()]);
        assert_eq!(s.into_events(), vec![a, b]);
    }

    #[test]
    fn step_dir_derives_from_indices() {
        let up = TraceEvent::FreqStep {
            at: TimePs::ZERO,
            domain: DomainId::Int,
            from: OpIndex(3),
            to: OpIndex(4),
            from_mhz: 255.0,
            to_mhz: 257.5,
            from_mv: 650.0,
            to_mv: 652.0,
        };
        assert_eq!(up.step_dir(), Some(StepDir::Up));
        let hist = TraceEvent::QueueHistogram {
            at: TimePs::ZERO,
            domain: DomainId::Int,
            samples: 0,
            counts: vec![],
        };
        assert_eq!(hist.step_dir(), None);
    }

    #[test]
    fn json_lines_are_wellformed_objects() {
        let events = [
            TraceEvent::Controller {
                domain: DomainId::Ls,
                event: CtrlEvent::WindowEnter {
                    at: TimePs::from_ns(12),
                    signal: SignalKind::Occupancy,
                    value: -4.0,
                    occupancy: 0,
                    dir: StepDir::Down,
                },
            },
            TraceEvent::Controller {
                domain: DomainId::Ls,
                event: CtrlEvent::RelayReset {
                    at: TimePs::from_ns(16),
                    signal: SignalKind::Delta,
                    why: ResetReason::BackInside,
                },
            },
            TraceEvent::QueueHistogram {
                at: TimePs::from_ns(20),
                domain: DomainId::Fp,
                samples: 5,
                counts: vec![3, 2],
            },
        ];
        for e in &events {
            let j = e.to_json();
            assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
            assert!(j.contains("\"domain\":\"LS\"") || j.contains("\"domain\":\"FP\""));
            assert!(j.contains("\"kind\":\""), "{j}");
        }
        assert!(events[0].to_json().contains("\"value\":-4"));
        assert!(events[2].to_json().contains("\"counts\":[3,2]"));
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
