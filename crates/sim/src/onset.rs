//! The deviation-onset rule: the one definition of reaction time.
//!
//! Reaction time — deviation onset to the frequency step that answers it
//! — is the paper's central quantity (HPCA 2005 §4–5). The engine's
//! always-on counters, the telemetry sink, the `.mcdt` episode catalog
//! and the offline trace analyzer all measure it through
//! [`OnsetTracker`], so they cannot disagree:
//!
//! * a `window_enter` arms its signal's onset only if none is pending;
//! * a `window_exit` clears its signal's onset, and when that leaves the
//!   domain with no pending onset the episode is abandoned;
//! * a frequency step consumes the earliest pending onset of its domain.
//!   A step timestamped before that onset reacts in zero time rather
//!   than underflowing.

use mcd_power::TimePs;

use crate::config::DomainId;
use crate::trace::{CtrlEvent, TraceEvent};

/// What one observation did to its domain's deviation episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnsetEffect {
    /// No episode opened or closed.
    Unchanged,
    /// A window enter armed the domain's first pending onset.
    Opened,
    /// A window exit left the domain with no pending onset.
    Abandoned,
    /// A frequency step consumed the earliest pending onset; carries the
    /// reaction time in picoseconds.
    Reacted(u64),
}

/// Pending deviation onsets per backend domain (INT, FP, LS) and signal
/// (occupancy, delta).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OnsetTracker {
    onsets: [[Option<TimePs>; 2]; 3],
}

impl OnsetTracker {
    /// No onset pending anywhere.
    pub fn new() -> Self {
        OnsetTracker::default()
    }

    fn pending(&self, bi: usize) -> bool {
        self.onsets[bi].iter().any(Option::is_some)
    }

    /// Applies a controller decision event of backend domain `bi`. Only
    /// window enters and exits touch the onset state.
    pub fn ctrl(&mut self, bi: usize, event: &CtrlEvent) -> OnsetEffect {
        let had = self.pending(bi);
        match *event {
            CtrlEvent::WindowEnter { at, signal, .. } => {
                self.onsets[bi][signal.index()].get_or_insert(at);
                if had {
                    OnsetEffect::Unchanged
                } else {
                    OnsetEffect::Opened
                }
            }
            CtrlEvent::WindowExit { signal, .. } => {
                self.onsets[bi][signal.index()] = None;
                if had && !self.pending(bi) {
                    OnsetEffect::Abandoned
                } else {
                    OnsetEffect::Unchanged
                }
            }
            _ => OnsetEffect::Unchanged,
        }
    }

    /// Applies a frequency step of backend domain `bi` taken at `at`.
    pub fn step(&mut self, bi: usize, at: TimePs) -> OnsetEffect {
        match self.onsets[bi].iter().flatten().min() {
            Some(&onset) => {
                self.onsets[bi] = [None; 2];
                OnsetEffect::Reacted(at.saturating_sub(onset).as_ps())
            }
            None => OnsetEffect::Unchanged,
        }
    }

    /// Applies a recorded trace event. Front-end events and event kinds
    /// outside the rule leave the state unchanged.
    pub fn observe(&mut self, event: &TraceEvent) -> OnsetEffect {
        match *event {
            TraceEvent::Controller { domain, ref event } if domain != DomainId::FrontEnd => {
                self.ctrl(domain.backend_index(), event)
            }
            TraceEvent::FreqStep { at, domain, .. } if domain != DomainId::FrontEnd => {
                self.step(domain.backend_index(), at)
            }
            _ => OnsetEffect::Unchanged,
        }
    }

    /// Writes the pending onsets in domain-major, signal-minor order.
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        for &onset in self.onsets.iter().flatten() {
            w.put_opt_u64(onset.map(TimePs::as_ps));
        }
    }

    /// Restores what [`OnsetTracker::save_state`] wrote.
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        for onset in self.onsets.iter_mut().flatten() {
            *onset = r.take_opt_u64()?.map(TimePs::new);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SignalKind, StepDir};

    fn enter(at: u64, signal: SignalKind) -> CtrlEvent {
        CtrlEvent::WindowEnter {
            at: TimePs::new(at),
            signal,
            value: 1.0,
            occupancy: 9,
            dir: StepDir::Up,
        }
    }

    fn exit(at: u64, signal: SignalKind) -> CtrlEvent {
        CtrlEvent::WindowExit {
            at: TimePs::new(at),
            signal,
            value: 0.0,
            occupancy: 4,
        }
    }

    #[test]
    fn reenter_while_pending_keeps_the_first_onset() {
        let mut t = OnsetTracker::new();
        assert_eq!(
            t.ctrl(0, &enter(10, SignalKind::Occupancy)),
            OnsetEffect::Opened
        );
        assert_eq!(
            t.ctrl(0, &enter(30, SignalKind::Occupancy)),
            OnsetEffect::Unchanged
        );
        assert_eq!(t.step(0, TimePs::new(100)), OnsetEffect::Reacted(90));
    }

    #[test]
    fn exit_of_one_signal_keeps_the_other_pending() {
        let mut t = OnsetTracker::new();
        t.ctrl(1, &enter(10, SignalKind::Occupancy));
        assert_eq!(
            t.ctrl(1, &enter(20, SignalKind::Delta)),
            OnsetEffect::Unchanged
        );
        assert_eq!(
            t.ctrl(1, &exit(30, SignalKind::Occupancy)),
            OnsetEffect::Unchanged,
            "delta is still pending: the episode is not abandoned"
        );
        assert_eq!(t.step(1, TimePs::new(50)), OnsetEffect::Reacted(30));
        // A lone exit of the last pending signal abandons.
        t.ctrl(1, &enter(60, SignalKind::Delta));
        assert_eq!(
            t.ctrl(1, &exit(70, SignalKind::Delta)),
            OnsetEffect::Abandoned
        );
    }

    #[test]
    fn step_takes_the_minimum_of_both_onsets() {
        let mut t = OnsetTracker::new();
        t.ctrl(2, &enter(40, SignalKind::Delta));
        t.ctrl(2, &enter(25, SignalKind::Occupancy));
        assert_eq!(t.step(2, TimePs::new(100)), OnsetEffect::Reacted(75));
        assert_eq!(t, OnsetTracker::new(), "the step consumes both onsets");
    }

    #[test]
    fn step_with_nothing_pending_is_unchanged() {
        let mut t = OnsetTracker::new();
        assert_eq!(t.step(0, TimePs::new(5)), OnsetEffect::Unchanged);
        // Other domains' onsets are not consumed.
        t.ctrl(1, &enter(1, SignalKind::Occupancy));
        assert_eq!(t.step(0, TimePs::new(5)), OnsetEffect::Unchanged);
        assert_eq!(t.step(1, TimePs::new(5)), OnsetEffect::Reacted(4));
    }

    #[test]
    fn step_before_its_onset_saturates_to_zero() {
        let mut t = OnsetTracker::new();
        t.ctrl(0, &enter(500, SignalKind::Occupancy));
        assert_eq!(t.step(0, TimePs::new(200)), OnsetEffect::Reacted(0));
    }

    #[test]
    fn front_end_trace_events_are_ignored() {
        let mut t = OnsetTracker::new();
        let ev = TraceEvent::Controller {
            domain: DomainId::FrontEnd,
            event: enter(1, SignalKind::Occupancy),
        };
        assert_eq!(t.observe(&ev), OnsetEffect::Unchanged);
        assert_eq!(t, OnsetTracker::new());
    }
}
