//! The episode catalog: deviation-window enter→exit spans with reaction
//! times. Episodes open, react and are abandoned exactly when
//! [`OnsetTracker`] says so — the one onset rule the engine counters,
//! the telemetry sink and `trace analyze` also use — so catalog
//! aggregates always agree with the analyzer's reaction-time report.

use mcd_sim::{CtrlEvent, DomainId, OnsetEffect, OnsetTracker, TraceEvent};

/// One controller episode: the span from a domain's first deviation-window
/// entry (with no other onset pending) to the frequency step that answered
/// it — or to the window exit that abandoned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// Back-end domain index (0 = INT, 1 = FP, 2 = LS).
    pub domain: usize,
    /// Index (within the run's event stream) of the opening `window_enter`.
    pub onset_event_index: u64,
    /// Sample time of the opening `window_enter`, picoseconds.
    pub onset_ps: u64,
    /// Index of the event that closed the episode (`freq_step` if it
    /// reacted, the final `window_exit` if it was abandoned, or one past
    /// the last event if the run ended mid-episode).
    pub close_event_index: u64,
    /// Sample time of the closing event, picoseconds.
    pub close_ps: u64,
    /// Onset→step reaction time, picoseconds; `None` if the signal
    /// returned inside its window (or the run ended) before any step.
    pub reaction_ps: Option<u64>,
    /// Time-delay relay resets observed while the episode was active.
    pub relay_resets: u64,
    /// File offset of the events block holding the onset (0 when the
    /// catalog was computed from an in-memory stream).
    pub block_offset: u64,
}

#[derive(Debug, Clone, Copy)]
struct OpenEpisode {
    start_event_index: u64,
    start_ps: u64,
    block_offset: u64,
    resets: u64,
}

/// Streaming episode tracker. Feed it every event of one run, in order,
/// then call [`EpisodeTracker::finish`].
#[derive(Debug, Default)]
pub(crate) struct EpisodeTracker {
    onsets: OnsetTracker,
    open: [Option<OpenEpisode>; 3],
    episodes: Vec<Episode>,
}

impl EpisodeTracker {
    /// Observes the `idx`-th event of the run; `block_offset` is where the
    /// events block holding it will land in the file.
    pub(crate) fn observe(&mut self, idx: u64, block_offset: u64, ev: &TraceEvent) {
        if ev.domain() == DomainId::FrontEnd {
            return;
        }
        let bi = ev.domain().backend_index();
        let t = ev.at().as_ps();
        match self.onsets.observe(ev) {
            OnsetEffect::Opened => {
                self.open[bi] = Some(OpenEpisode {
                    start_event_index: idx,
                    start_ps: t,
                    block_offset,
                    resets: 0,
                });
            }
            OnsetEffect::Abandoned => self.close(bi, idx, t, None),
            OnsetEffect::Reacted(ps) => self.close(bi, idx, t, Some(ps)),
            OnsetEffect::Unchanged => {
                if let TraceEvent::Controller {
                    event: CtrlEvent::RelayReset { .. },
                    ..
                } = ev
                {
                    if let Some(open) = self.open[bi].as_mut() {
                        open.resets += 1;
                    }
                }
            }
        }
    }

    /// Closes `bi`'s open episode at the `close_idx`-th event.
    fn close(&mut self, bi: usize, close_idx: u64, close_ps: u64, reaction_ps: Option<u64>) {
        let Some(open) = self.open[bi].take() else {
            return;
        };
        self.episodes.push(Episode {
            domain: bi,
            onset_event_index: open.start_event_index,
            onset_ps: open.start_ps,
            close_event_index: close_idx,
            close_ps,
            reaction_ps,
            relay_resets: open.resets,
            block_offset: open.block_offset,
        });
    }

    /// Closes episodes still open when the run ends (abandoned, closed at
    /// one past the last event) and returns the catalog in onset order.
    pub(crate) fn finish(mut self, event_count: u64, last_t_ps: u64) -> Vec<Episode> {
        for bi in 0..3 {
            self.close(bi, event_count, last_t_ps, None);
        }
        self.episodes
            .sort_by_key(|e| (e.onset_event_index, e.domain, e.close_event_index));
        self.episodes
    }
}

/// Computes the episode catalog of one run's in-memory event stream
/// (block offsets are 0 — there is no file).
pub fn catalog_episodes(events: &[TraceEvent]) -> Vec<Episode> {
    let mut tracker = EpisodeTracker::default();
    let mut last_t = 0u64;
    for (i, ev) in events.iter().enumerate() {
        tracker.observe(i as u64, 0, ev);
        last_t = ev.at().as_ps();
    }
    tracker.finish(events.len() as u64, last_t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_power::TimePs;
    use mcd_sim::{SignalKind, StepDir};

    fn enter(t: u64, domain: DomainId, signal: SignalKind) -> TraceEvent {
        TraceEvent::Controller {
            domain,
            event: CtrlEvent::WindowEnter {
                at: TimePs::new(t),
                signal,
                value: 0.5,
                occupancy: 12,
                dir: StepDir::Down,
            },
        }
    }

    fn exit(t: u64, domain: DomainId, signal: SignalKind) -> TraceEvent {
        TraceEvent::Controller {
            domain,
            event: CtrlEvent::WindowExit {
                at: TimePs::new(t),
                signal,
                value: 0.0,
                occupancy: 8,
            },
        }
    }

    fn step(t: u64, domain: DomainId) -> TraceEvent {
        TraceEvent::FreqStep {
            at: TimePs::new(t),
            domain,
            from: mcd_power::OpIndex(10),
            to: mcd_power::OpIndex(8),
            from_mhz: 900.0,
            to_mhz: 850.0,
            from_mv: 1000.0,
            to_mv: 975.0,
        }
    }

    #[test]
    fn reacted_episode_measures_step_minus_earliest_pending_onset() {
        let events = vec![
            enter(100, DomainId::Int, SignalKind::Occupancy),
            enter(200, DomainId::Int, SignalKind::Delta),
            step(345, DomainId::Int),
        ];
        let eps = catalog_episodes(&events);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].domain, 0);
        assert_eq!(eps[0].onset_event_index, 0);
        assert_eq!(eps[0].onset_ps, 100);
        assert_eq!(eps[0].close_event_index, 2);
        assert_eq!(eps[0].reaction_ps, Some(245));
    }

    #[test]
    fn abandoned_episode_has_no_reaction() {
        let events = vec![
            enter(100, DomainId::Fp, SignalKind::Occupancy),
            exit(180, DomainId::Fp, SignalKind::Occupancy),
        ];
        let eps = catalog_episodes(&events);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].domain, 1);
        assert_eq!(eps[0].reaction_ps, None);
        assert_eq!(eps[0].close_ps, 180);
    }

    #[test]
    fn reaction_uses_min_pending_onset_not_episode_start() {
        // Occupancy onset at 100 is cleared at 150; the delta onset at 120
        // is still pending, so the step at 400 reacts to 120, while the
        // episode itself opened at 100.
        let events = vec![
            enter(100, DomainId::Ls, SignalKind::Occupancy),
            enter(120, DomainId::Ls, SignalKind::Delta),
            exit(150, DomainId::Ls, SignalKind::Occupancy),
            step(400, DomainId::Ls),
        ];
        let eps = catalog_episodes(&events);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].onset_ps, 100);
        assert_eq!(eps[0].reaction_ps, Some(280));
    }

    #[test]
    fn relay_resets_are_counted_only_while_active() {
        let reset = |t: u64| TraceEvent::Controller {
            domain: DomainId::Int,
            event: CtrlEvent::RelayReset {
                at: TimePs::new(t),
                signal: SignalKind::Occupancy,
                why: mcd_sim::ResetReason::BackInside,
            },
        };
        let events = vec![
            reset(50), // before any episode: not counted
            enter(100, DomainId::Int, SignalKind::Occupancy),
            reset(120),
            reset(130),
            step(200, DomainId::Int),
            reset(250), // after close: not counted
        ];
        let eps = catalog_episodes(&events);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].relay_resets, 2);
    }

    #[test]
    fn run_end_closes_open_episodes_as_abandoned() {
        let events = vec![enter(100, DomainId::Int, SignalKind::Occupancy)];
        let eps = catalog_episodes(&events);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].reaction_ps, None);
        assert_eq!(eps[0].close_event_index, 1);
    }

    #[test]
    fn independent_domains_produce_independent_episodes() {
        let events = vec![
            enter(100, DomainId::Int, SignalKind::Occupancy),
            enter(110, DomainId::Fp, SignalKind::Occupancy),
            step(200, DomainId::Fp),
            step(300, DomainId::Int),
        ];
        let eps = catalog_episodes(&events);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].domain, 0);
        assert_eq!(eps[0].reaction_ps, Some(200));
        assert_eq!(eps[1].domain, 1);
        assert_eq!(eps[1].reaction_ps, Some(90));
    }
}
