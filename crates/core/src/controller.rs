//! The complete adaptive DVFS controller (one per controlled domain).

use mcd_power::TimePs;
use mcd_sim::{
    ControllerCtx, CtrlEvent, DvfsAction, DvfsController, QueueSample, ResetReason, SignalKind,
    StepDir,
};

use crate::config::AdaptiveConfig;
use crate::fsm::{Direction, SignalFsm, TriggerState};
use crate::scheduler::{resolve, Resolution};
use crate::signals::QueueSignals;

/// Cap on buffered decision events between drains, so a controller driven
/// without a draining machine (standalone harnesses) stays bounded.
const EVENT_CAP: usize = 65_536;

fn dir_of(d: Direction) -> StepDir {
    match d {
        Direction::Up => StepDir::Up,
        Direction::Down => StepDir::Down,
    }
}

/// One signal's observation this sample, for event derivation.
struct SignalObs {
    signal: SignalKind,
    value: f64,
    occupancy: u32,
}

/// Derives decision events for one signal's FSM step by comparing the
/// pre-step counting direction with the post-step state and trigger.
/// Events are recorded only on state *transitions*, so steady samples
/// (the overwhelming majority) record nothing.
fn trace_signal_step(
    events: &mut Vec<CtrlEvent>,
    at: TimePs,
    obs: SignalObs,
    was: Option<Direction>,
    fsm: &SignalFsm,
    trigger: TriggerState,
) {
    let arm = |events: &mut Vec<CtrlEvent>, dir: Direction| {
        events.push(CtrlEvent::WindowEnter {
            at,
            signal: obs.signal,
            value: obs.value,
            occupancy: obs.occupancy,
            dir: dir_of(dir),
        });
        events.push(CtrlEvent::RelayArm {
            at,
            signal: obs.signal,
            dir: dir_of(dir),
            remaining: fsm.remaining(),
        });
    };
    match trigger {
        TriggerState::Fired(d) => {
            if was != Some(d) {
                if was.is_some() {
                    events.push(CtrlEvent::RelayReset {
                        at,
                        signal: obs.signal,
                        why: ResetReason::SideFlip,
                    });
                }
                arm(events, d);
            }
            events.push(CtrlEvent::RelayFire {
                at,
                signal: obs.signal,
                dir: dir_of(d),
            });
        }
        TriggerState::Idle => match (was, fsm.direction()) {
            (None, Some(d)) => arm(events, d),
            (Some(d1), Some(d2)) if d1 != d2 => {
                events.push(CtrlEvent::RelayReset {
                    at,
                    signal: obs.signal,
                    why: ResetReason::SideFlip,
                });
                arm(events, d2);
            }
            (Some(_), None) => {
                events.push(CtrlEvent::WindowExit {
                    at,
                    signal: obs.signal,
                    value: obs.value,
                    occupancy: obs.occupancy,
                });
                events.push(CtrlEvent::RelayReset {
                    at,
                    signal: obs.signal,
                    why: ResetReason::BackInside,
                });
            }
            _ => {}
        },
    }
}

/// The paper's event-driven adaptive DVFS controller.
///
/// Wires together the two queue signals, their deviation-window/time-delay
/// FSMs, and the action scheduler, and exposes the result as a
/// [`DvfsController`] the simulator can drive. Every state transition of
/// either relay is recorded as a [`CtrlEvent`] and handed to the machine
/// through [`DvfsController::drain_events`].
#[derive(Debug)]
pub struct AdaptiveDvfsController {
    cfg: AdaptiveConfig,
    signals: QueueSignals,
    occupancy_fsm: SignalFsm,
    delta_fsm: SignalFsm,
    actions: u64,
    cancellations: u64,
    events: Vec<CtrlEvent>,
}

impl AdaptiveDvfsController {
    /// Builds a controller from `cfg`.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveDvfsController {
            occupancy_fsm: SignalFsm::new(cfg.dw_occupancy, cfg.t_m0),
            delta_fsm: SignalFsm::new(cfg.dw_delta, cfg.t_l0),
            signals: QueueSignals::new(),
            cfg,
            actions: 0,
            cancellations: 0,
            events: Vec::new(),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// Actions issued so far.
    pub fn actions(&self) -> u64 {
        self.actions
    }

    /// Simultaneous opposite triggers cancelled so far.
    pub fn cancellations(&self) -> u64 {
        self.cancellations
    }
}

impl DvfsController for AdaptiveDvfsController {
    fn on_sample(&mut self, ctx: &ControllerCtx<'_>, sample: QueueSample) -> Option<DvfsAction> {
        let values = self
            .signals
            .observe(sample.occupancy as f64, self.cfg.q_ref);

        // Count-down increments shrink with f̂² (equivalently the delay
        // grows by 1/f̂²), making an already-slow domain cautious about
        // slowing further (Section 5.1).
        let f_hat = ctx.relative_frequency();
        let down_scale = if self.cfg.scale_down_delay_with_freq {
            f_hat * f_hat
        } else {
            1.0
        };
        let scale_for = |signal: f64, m: f64| if signal < 0.0 { m * down_scale } else { m };

        let occ = values.occupancy_error;
        let was_occ = self.occupancy_fsm.direction();
        let t_occ = self
            .occupancy_fsm
            .step(occ, scale_for(occ, self.cfg.m_occupancy), ctx.now);
        trace_signal_step(
            &mut self.events,
            ctx.now,
            SignalObs {
                signal: SignalKind::Occupancy,
                value: occ,
                occupancy: sample.occupancy,
            },
            was_occ,
            &self.occupancy_fsm,
            t_occ,
        );
        let t_delta = match values.delta {
            Some(d) => {
                let was_delta = self.delta_fsm.direction();
                let t = self
                    .delta_fsm
                    .step(d, scale_for(d, self.cfg.m_delta), ctx.now);
                trace_signal_step(
                    &mut self.events,
                    ctx.now,
                    SignalObs {
                        signal: SignalKind::Delta,
                        value: d,
                        occupancy: sample.occupancy,
                    },
                    was_delta,
                    &self.delta_fsm,
                    t,
                );
                t
            }
            None => TriggerState::Idle,
        };

        let action = match resolve(t_occ, t_delta) {
            Resolution::None => None,
            Resolution::Cancelled => {
                self.occupancy_fsm.cancel();
                self.delta_fsm.cancel();
                self.cancellations += 1;
                for signal in [SignalKind::Occupancy, SignalKind::Delta] {
                    self.events.push(CtrlEvent::RelayReset {
                        at: ctx.now,
                        signal,
                        why: ResetReason::Cancelled,
                    });
                }
                None
            }
            Resolution::Action {
                direction,
                magnitude,
            } => {
                let until = ctx.now + ctx.single_step_time;
                if matches!(t_occ, TriggerState::Fired(_)) {
                    self.occupancy_fsm.confirm(until);
                    self.events.push(CtrlEvent::RelayReset {
                        at: ctx.now,
                        signal: SignalKind::Occupancy,
                        why: ResetReason::Acted,
                    });
                }
                if matches!(t_delta, TriggerState::Fired(_)) {
                    self.delta_fsm.confirm(until);
                    self.events.push(CtrlEvent::RelayReset {
                        at: ctx.now,
                        signal: SignalKind::Delta,
                        why: ResetReason::Acted,
                    });
                }
                self.actions += 1;
                Some(DvfsAction::Step(
                    direction.sign() * self.cfg.step * magnitude as i32,
                ))
            }
        };
        self.events.truncate(EVENT_CAP);
        action
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn drain_events(&mut self, out: &mut Vec<CtrlEvent>) {
        out.append(&mut self.events);
    }

    fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        self.signals.save_state(w);
        self.occupancy_fsm.save_state(w);
        self.delta_fsm.save_state(w);
        w.put_u64(self.actions);
        w.put_u64(self.cancellations);
    }

    fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        self.signals.load_state(r)?;
        self.occupancy_fsm.load_state(r)?;
        self.delta_fsm.load_state(r)?;
        self.actions = r.take_u64()?;
        self.cancellations = r.take_u64()?;
        // Decision events are not part of a snapshot: a traced machine
        // drains them every sample (so they are empty between events), and
        // an untraced one never observes them.
        self.events.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_power::{OpIndex, TimePs, VfCurve};
    use mcd_sim::DomainId;

    struct Harness {
        curve: VfCurve,
        now: TimePs,
        current: OpIndex,
        ctrl: AdaptiveDvfsController,
    }

    impl Harness {
        fn new(cfg: AdaptiveConfig) -> Self {
            let curve = VfCurve::mcd_default();
            Harness {
                current: curve.max_index(),
                curve,
                now: TimePs::ZERO,
                ctrl: AdaptiveDvfsController::new(cfg),
            }
        }

        /// Feeds one sample and applies any resulting action instantly.
        fn sample(&mut self, occupancy: u32) -> Option<DvfsAction> {
            self.now += TimePs::from_ns(4);
            let ctx = ControllerCtx {
                now: self.now,
                domain: DomainId::Fp,
                current: self.current,
                curve: &self.curve,
                in_transition: false,
                single_step_time: TimePs::from_ns(172),
                sample_period: TimePs::from_ns(4),
                retired: 0,
            };
            let action = self.ctrl.on_sample(
                &ctx,
                QueueSample {
                    occupancy,
                    capacity: 16,
                },
            );
            if let Some(a) = action {
                self.current = a.resolve(self.current, &self.curve);
            }
            action
        }
    }

    fn fp_cfg() -> AdaptiveConfig {
        AdaptiveConfig::for_domain(DomainId::Fp)
    }

    #[test]
    fn steady_queue_at_reference_never_acts() {
        let mut h = Harness::new(fp_cfg());
        for _ in 0..10_000 {
            assert_eq!(h.sample(4), None, "q == q_ref must stay inactive");
        }
        assert_eq!(h.ctrl.actions(), 0);
    }

    #[test]
    fn occupancy_inside_deviation_window_never_acts() {
        let mut h = Harness::new(fp_cfg());
        for i in 0..10_000 {
            // Oscillates between 3 and 5: |q − 4| ≤ 1 = DW... but Δq = ±1
            // is outside its zero window — alternating sides though, so the
            // delta FSM keeps restarting and never fires.
            assert_eq!(h.sample(if i % 2 == 0 { 3 } else { 5 }), None);
        }
    }

    #[test]
    fn empty_queue_scales_down_to_minimum() {
        let mut h = Harness::new(fp_cfg());
        for _ in 0..200_000 {
            h.sample(0);
            if h.current == OpIndex(0) {
                break;
            }
        }
        assert_eq!(h.current, OpIndex(0), "empty queue must reach f_min");
        assert!(h.ctrl.actions() >= 320);
    }

    #[test]
    fn full_queue_recovers_to_maximum() {
        let mut h = Harness::new(fp_cfg());
        h.current = OpIndex(0);
        for _ in 0..100_000 {
            h.sample(16);
            if h.current == h.curve.max_index() {
                break;
            }
        }
        assert_eq!(
            h.current,
            h.curve.max_index(),
            "full queue must reach f_max"
        );
    }

    #[test]
    fn severe_swings_react_faster_than_mild_ones() {
        // Mild: q = 6 (error +2); severe: q = 16 (error +12). Count samples
        // until the first action from f_min.
        let count_until_action = |occ: u32| {
            let mut h = Harness::new(fp_cfg());
            h.current = OpIndex(0);
            let mut n = 0;
            loop {
                n += 1;
                if h.sample(occ).is_some() {
                    return n;
                }
                assert!(n < 100_000, "never acted on occupancy {occ}");
            }
        };
        let severe = count_until_action(16);
        let mild = count_until_action(6);
        assert!(severe < mild, "severe {severe} !< mild {mild}");
    }

    #[test]
    fn up_steps_come_from_delta_signal_quickly() {
        // A sudden filling queue (large positive Δq) should fire the fast
        // T_l0 = 8 FSM within a handful of samples.
        let mut h = Harness::new(fp_cfg());
        h.current = OpIndex(100);
        // Stable at the reference first.
        for _ in 0..100 {
            h.sample(4);
        }
        // Burst: occupancy jumps to full and stays there.
        let mut acted_at = None;
        for i in 0..16 {
            let occ = (8 + 4 * i).min(16) as u32;
            if let Some(DvfsAction::Step(s)) = h.sample(occ) {
                assert!(s > 0, "burst must push frequency up");
                acted_at = Some(i);
                break;
            }
        }
        let at = acted_at.expect("no reaction to a severe burst within 16 samples");
        // 16 samples = 64 ns — orders of magnitude inside one fixed
        // 10k-instruction interval (~10 us).
        assert!(at <= 15, "reaction took {at} samples");
    }

    #[test]
    fn down_reaction_is_slower_at_low_frequency() {
        let steps_to_first_action = |start: OpIndex| {
            let mut h = Harness::new(fp_cfg());
            h.current = start;
            let mut n = 0;
            loop {
                n += 1;
                if h.sample(0).is_some() {
                    return n;
                }
                assert!(n < 1_000_000);
            }
        };
        let at_max = steps_to_first_action(VfCurve::mcd_default().max_index());
        let at_low = steps_to_first_action(OpIndex(40));
        assert!(
            at_low > at_max * 4,
            "low-frequency down-step ({at_low}) should be ≫ slower than at f_max ({at_max})"
        );
    }

    #[test]
    fn double_step_when_both_signals_fire_together() {
        // With equal delays and zero windows, a single jump of +4 from the
        // reference fires both FSMs in the same sample: identical
        // directions combine into one ±2·step action (Section 3.1).
        let cfg = fp_cfg()
            .with_windows(0.0, 0.0)
            .with_delays(4.0, 4.0)
            .with_conversions(1.0, 1.0);
        let mut h = Harness::new(cfg);
        h.current = OpIndex(100);
        assert_eq!(h.sample(4), None); // err = 0 (inside even a zero window)
        let a = h.sample(8); // err = +4 ≥ T_m0, Δ = +4 ≥ T_l0
        assert_eq!(a, Some(DvfsAction::Step(2)));
        assert_eq!(h.ctrl.actions(), 1);
    }

    #[test]
    fn opposite_simultaneous_triggers_cancel() {
        // Occupancy far above reference (counting up) while the queue is
        // draining fast (delta counting down): when both fire in the same
        // sample the scheduler cancels them and no action is taken.
        let cfg = fp_cfg()
            .with_q_ref(10.0)
            .with_windows(0.0, 0.0)
            .with_delays(12.0, 4.0)
            .with_conversions(1.0, 1.0);
        // Stay at f_max so the 1/f̂² down-scaling does not slow the delta FSM.
        let mut h = Harness::new(cfg);
        assert_eq!(h.sample(20), None); // err +10 (accum 10 < 12), no Δ yet
        let a = h.sample(15); // err +5 → occ fires (15 ≥ 12); Δ −5 → delta fires
        assert_eq!(a, None);
        assert_eq!(h.ctrl.cancellations(), 1);
        assert_eq!(h.ctrl.actions(), 0);
    }

    #[test]
    fn controller_reports_name() {
        let c = AdaptiveDvfsController::new(fp_cfg());
        assert_eq!(c.name(), "adaptive");
    }
}
