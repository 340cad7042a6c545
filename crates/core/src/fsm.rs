//! The per-signal finite state machine (Figures 3 and 4).
//!
//! Each queue signal drives its own FSM through the paper's states:
//! **Wait** (signal inside the deviation window), **Count-Up/Count-Down**
//! (signal persistently outside; resettable delay counter running),
//! **Start-Up/Start-Down** (delay expired; action handed to the scheduler)
//! and **Act** (waiting out the physical switching time `T_s`). The
//! Start states are represented by the [`TriggerState::Fired`] report to
//! the scheduler, which either confirms the action (→ Act) or cancels it
//! (→ Wait).

use mcd_power::TimePs;

use crate::delay::DelayCounter;
use crate::deviation::DeviationWindow;

/// Direction of a pending or triggered frequency action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Frequency/voltage increment.
    Up,
    /// Frequency/voltage decrement.
    Down,
}

impl Direction {
    /// Signed unit step (+1 / −1).
    pub fn sign(self) -> i32 {
        match self {
            Direction::Up => 1,
            Direction::Down => -1,
        }
    }
}

/// What the FSM reports to the scheduler after one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerState {
    /// Nothing to do this sample.
    Idle,
    /// The delay expired: an action in this direction wants to start.
    Fired(Direction),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Wait,
    Counting(Direction),
    Acting { until: TimePs },
}

/// One queue signal's trigger FSM.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalFsm {
    window: DeviationWindow,
    counter: DelayCounter,
    state: State,
}

impl SignalFsm {
    /// Builds an FSM with deviation window `dw` and basic delay `t_d0`
    /// (sampling periods).
    pub fn new(dw: f64, t_d0: f64) -> Self {
        SignalFsm {
            window: DeviationWindow::new(dw),
            counter: DelayCounter::new(t_d0),
            state: State::Wait,
        }
    }

    /// The direction being counted toward (`None` unless counting).
    pub fn direction(&self) -> Option<Direction> {
        match self.state {
            State::Counting(d) => Some(d),
            _ => None,
        }
    }

    /// Delay still to accumulate before the relay fires, in basic-delay
    /// units (sampling periods at unit signal).
    pub fn remaining(&self) -> f64 {
        self.counter.remaining()
    }

    /// Feeds one sample.
    ///
    /// * `signal` — the queue signal value;
    /// * `increment_scale` — multiplies the counter increment (1 for
    ///   up-counting; `f̂²` for down-counting when frequency scaling is on);
    /// * `now` — current time (to leave the Act state when `T_s` passes).
    ///
    /// Returns [`TriggerState::Fired`] exactly when the delay expires; the
    /// scheduler must then call [`SignalFsm::confirm`] or
    /// [`SignalFsm::cancel`].
    pub fn step(&mut self, signal: f64, increment_scale: f64, now: TimePs) -> TriggerState {
        match self.state {
            State::Acting { until } => {
                if now >= until {
                    self.state = State::Wait;
                    self.counter.reset();
                }
                TriggerState::Idle
            }
            State::Wait => {
                if let Some(dir) = self.window.side(signal) {
                    self.state = State::Counting(dir);
                    self.counter.reset();
                    self.advance(signal, increment_scale, dir)
                } else {
                    TriggerState::Idle
                }
            }
            State::Counting(dir) => match self.window.side(signal) {
                None => {
                    // Signal fell back inside the window: reset (Fig. 3).
                    self.state = State::Wait;
                    self.counter.reset();
                    TriggerState::Idle
                }
                Some(side) if side != dir => {
                    // Signal crossed to the other side: restart counting in
                    // the new direction.
                    self.state = State::Counting(side);
                    self.counter.reset();
                    self.advance(signal, increment_scale, side)
                }
                Some(_) => self.advance(signal, increment_scale, dir),
            },
        }
    }

    fn advance(&mut self, signal: f64, increment_scale: f64, dir: Direction) -> TriggerState {
        // Signal-magnitude-proportional increments emulate the
        // T_d = T_d0 / |signal| adaptive delay of Section 5.1.
        if self.counter.advance(signal.abs() * increment_scale) {
            TriggerState::Fired(dir)
        } else {
            TriggerState::Idle
        }
    }

    /// Confirms a fired trigger: the FSM enters Act until `until`
    /// (now + `T_s`).
    pub fn confirm(&mut self, until: TimePs) {
        self.state = State::Acting { until };
        self.counter.reset();
    }

    /// Cancels a fired trigger (opposite simultaneous actions): back to
    /// Wait.
    pub fn cancel(&mut self) {
        self.state = State::Wait;
        self.counter.reset();
    }

    /// Serializes the FSM's evolving state (the deviation window is
    /// configuration; the counter and the state tag evolve).
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        self.counter.save_state(w);
        match self.state {
            State::Wait => w.put_u8(0),
            State::Counting(dir) => {
                w.put_u8(1);
                w.put_u8(match dir {
                    Direction::Up => 0,
                    Direction::Down => 1,
                });
            }
            State::Acting { until } => {
                w.put_u8(2);
                w.put_u64(until.as_ps());
            }
        }
    }

    /// Restores state captured by [`SignalFsm::save_state`].
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        self.counter.load_state(r)?;
        self.state = match r.take_u8()? {
            0 => State::Wait,
            1 => State::Counting(match r.take_u8()? {
                0 => Direction::Up,
                1 => Direction::Down,
                d => {
                    return Err(mcd_snap::SnapError::Mismatch(format!(
                        "bad relay direction tag {d}"
                    )))
                }
            }),
            2 => State::Acting {
                until: TimePs::new(r.take_u64()?),
            },
            t => {
                return Err(mcd_snap::SnapError::Mismatch(format!(
                    "bad relay state tag {t}"
                )))
            }
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(samples: u64) -> TimePs {
        TimePs::from_ns(4) * samples
    }

    #[test]
    fn persistent_signal_fires_after_delay() {
        let mut fsm = SignalFsm::new(1.0, 5.0);
        // |signal| = 2, threshold 5 → fires on the 3rd sample (2+2+2 ≥ 5).
        assert_eq!(fsm.step(2.0, 1.0, at(0)), TriggerState::Idle);
        assert!(fsm.direction().is_some());
        assert_eq!(fsm.step(2.0, 1.0, at(1)), TriggerState::Idle);
        assert_eq!(
            fsm.step(2.0, 1.0, at(2)),
            TriggerState::Fired(Direction::Up)
        );
    }

    #[test]
    fn noise_inside_window_resets_counter() {
        let mut fsm = SignalFsm::new(1.0, 4.0);
        fsm.step(2.0, 1.0, at(0));
        fsm.step(0.5, 1.0, at(1)); // back inside DW → reset
        assert!(fsm.direction().is_none());
        // Needs the full delay again.
        assert_eq!(fsm.step(2.0, 1.0, at(2)), TriggerState::Idle);
        assert_eq!(
            fsm.step(2.0, 1.0, at(3)),
            TriggerState::Fired(Direction::Up)
        );
    }

    #[test]
    fn side_flip_restarts_in_new_direction() {
        let mut fsm = SignalFsm::new(1.0, 4.0);
        fsm.step(3.0, 1.0, at(0)); // counting up
        let t = fsm.step(-3.0, 1.0, at(1)); // flips: restart counting down
        assert_eq!(t, TriggerState::Idle);
        assert_eq!(
            fsm.step(-3.0, 1.0, at(2)),
            TriggerState::Fired(Direction::Down)
        );
    }

    #[test]
    fn larger_signals_fire_sooner() {
        let mut small = SignalFsm::new(1.0, 50.0);
        let mut big = SignalFsm::new(1.0, 50.0);
        let mut small_n = 0;
        while small.step(2.0, 1.0, at(small_n)) == TriggerState::Idle {
            small_n += 1;
        }
        let mut big_n = 0;
        while big.step(10.0, 1.0, at(big_n)) == TriggerState::Idle {
            big_n += 1;
        }
        assert!(big_n < small_n, "big {big_n} !< small {small_n}");
    }

    #[test]
    fn down_scaling_slows_firing_at_low_frequency() {
        let mut full = SignalFsm::new(1.0, 8.0);
        let mut slow = SignalFsm::new(1.0, 8.0);
        let mut n_full = 0;
        while full.step(-2.0, 1.0, at(n_full)) == TriggerState::Idle {
            n_full += 1;
        }
        let f_hat: f64 = 0.5;
        let mut n_slow = 0;
        while slow.step(-2.0, f_hat * f_hat, at(n_slow)) == TriggerState::Idle {
            n_slow += 1;
        }
        // 1/f̂² = 4× longer delay at half frequency.
        assert_eq!(n_slow + 1, (n_full + 1) * 4);
    }

    #[test]
    fn acting_state_blocks_until_ts_passes() {
        let mut fsm = SignalFsm::new(1.0, 2.0);
        assert_eq!(
            fsm.step(5.0, 1.0, at(0)),
            TriggerState::Fired(Direction::Up)
        );
        fsm.confirm(at(10));
        assert!(matches!(fsm.state, State::Acting { .. }));
        // While acting, signals are ignored.
        assert_eq!(fsm.step(9.0, 1.0, at(5)), TriggerState::Idle);
        assert!(matches!(fsm.state, State::Acting { .. }));
        // At T_s the FSM returns to Wait and can trigger again.
        assert_eq!(fsm.step(9.0, 1.0, at(10)), TriggerState::Idle);
        assert!(!matches!(fsm.state, State::Acting { .. }));
        assert_eq!(
            fsm.step(9.0, 1.0, at(11)),
            TriggerState::Fired(Direction::Up)
        );
    }

    #[test]
    fn cancel_returns_to_wait() {
        let mut fsm = SignalFsm::new(0.0, 1.0);
        assert_eq!(
            fsm.step(-1.0, 1.0, at(0)),
            TriggerState::Fired(Direction::Down)
        );
        fsm.cancel();
        assert_eq!(fsm.state, State::Wait);
    }

    #[test]
    fn direction_signs() {
        assert_eq!(Direction::Up.sign(), 1);
        assert_eq!(Direction::Down.sign(), -1);
    }

    #[test]
    fn direction_and_remaining_expose_relay_progress() {
        let mut fsm = SignalFsm::new(1.0, 5.0);
        assert_eq!(fsm.direction(), None);
        assert_eq!(fsm.remaining(), 5.0);
        fsm.step(2.0, 1.0, at(0));
        assert_eq!(fsm.direction(), Some(Direction::Up));
        assert_eq!(fsm.remaining(), 3.0);
        fsm.step(0.0, 1.0, at(1)); // back inside → reset
        assert_eq!(fsm.direction(), None);
        assert_eq!(fsm.remaining(), 5.0);
    }
}
