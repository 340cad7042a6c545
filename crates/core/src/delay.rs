//! The resettable time-delay relay (Section 3).
//!
//! A signal must stay outside its deviation window for an *effective* delay
//! before an action triggers. The paper makes the delay adaptive two ways
//! (Section 5.1):
//!
//! * **signal scaling** — "larger time-counter increments for larger signal
//!   values": the counter advances by `|signal|` per sample, so the
//!   effective delay is `T_d0 / |signal|`;
//! * **frequency scaling** — the count-*down* delay is scaled by `1/f̂²`
//!   (equivalently, the increment by `f̂²`), so an already-slow domain is
//!   more cautious about scaling down further.

/// A resettable accumulating counter with threshold `t_d0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayCounter {
    t_d0: f64,
    accum: f64,
}

impl DelayCounter {
    /// Creates a counter with basic delay `t_d0` (in sampling periods).
    ///
    /// # Panics
    ///
    /// Panics unless `t_d0` is positive.
    pub fn new(t_d0: f64) -> Self {
        assert!(t_d0 > 0.0, "basic time delay must be positive");
        DelayCounter { t_d0, accum: 0.0 }
    }

    /// The configured basic delay.
    pub fn t_d0(&self) -> f64 {
        self.t_d0
    }

    /// The current accumulated count.
    pub fn accum(&self) -> f64 {
        self.accum
    }

    /// Advances the counter by `increment` (≥ 0); returns `true` when the
    /// threshold is reached (the relay fires).
    ///
    /// Negative or NaN increments are clamped to zero: the relay only
    /// accumulates evidence, it never un-accumulates it (going *back*
    /// inside the deviation window is what [`Self::reset`] is for). The
    /// clamp holds in release builds too; debug builds additionally flag
    /// the caller bug.
    pub fn advance(&mut self, increment: f64) -> bool {
        debug_assert!(increment >= 0.0, "counter increments are non-negative");
        if increment > 0.0 {
            self.accum += increment;
        }
        self.accum >= self.t_d0
    }

    /// Delay still to accumulate before the threshold (never negative).
    pub fn remaining(&self) -> f64 {
        (self.t_d0 - self.accum).max(0.0)
    }

    /// Resets the accumulated count to zero.
    pub fn reset(&mut self) {
        self.accum = 0.0;
    }

    /// Serializes the accumulated count (the threshold is configuration).
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        w.put_f64(self.accum);
    }

    /// Restores state captured by [`DelayCounter::save_state`].
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        self.accum = r.take_f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_after_t_d0_unit_increments() {
        let mut c = DelayCounter::new(3.0);
        assert!(!c.advance(1.0));
        assert!(!c.advance(1.0));
        assert!(c.advance(1.0));
    }

    #[test]
    fn larger_signals_fire_sooner() {
        let mut slow = DelayCounter::new(50.0);
        let mut fast = DelayCounter::new(50.0);
        let mut slow_n = 0;
        while !slow.advance(1.0) {
            slow_n += 1;
        }
        let mut fast_n = 0;
        while !fast.advance(10.0) {
            fast_n += 1;
        }
        assert!(fast_n < slow_n, "fast {fast_n} !< slow {slow_n}");
        assert_eq!(fast_n, 4); // fires on the 5th advance: 50/10 = 5 steps
    }

    #[test]
    fn reset_clears_progress() {
        let mut c = DelayCounter::new(2.0);
        c.advance(1.5);
        c.reset();
        assert_eq!(c.accum(), 0.0);
        assert!(!c.advance(1.5));
    }

    #[test]
    fn remaining_tracks_progress_and_clamps() {
        let mut c = DelayCounter::new(3.0);
        assert_eq!(c.remaining(), 3.0);
        c.advance(1.0);
        assert_eq!(c.remaining(), 2.0);
        c.advance(5.0);
        assert_eq!(c.remaining(), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_delay_panics() {
        let _ = DelayCounter::new(0.0);
    }

    /// Release builds compile out the `debug_assert`, so the clamp is the
    /// only thing standing between a buggy negative increment and a relay
    /// that silently *retreats* from firing. This test carries the
    /// `debug_assertions` guard inverted on purpose: under `cargo test`
    /// (debug) the assert catches the bug loudly, and under
    /// `cargo test --release` the clamp must hold.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-negative"))]
    fn negative_increments_never_roll_the_counter_back() {
        let mut c = DelayCounter::new(3.0);
        c.advance(2.5);
        c.advance(-10.0);
        assert_eq!(c.accum(), 2.5, "negative increment must be ignored");
        assert!(c.advance(0.5), "progress made before the bad call stands");

        let mut n = DelayCounter::new(3.0);
        n.advance(f64::NAN);
        assert_eq!(n.accum(), 0.0, "NaN must not poison the accumulator");
    }
}
