//! Integral power regulator with adjustable gain, after Chen, Wardi and
//! Yalamanchili, *Power Regulation in High Performance Multicore
//! Processors* (arXiv:1709.04859).
//!
//! The regulator tracks a **power reference** with a pure integral law
//! whose gain is re-derived every interval from a measured estimate of
//! the plant's local slope:
//!
//! ```text
//! u_{k+1} = u_k + K_k (P_ref − P_k),   K_k = c / ĝ_k
//! ```
//!
//! where `u` is the frequency setting (in curve steps), `P_k` the
//! interval's measured power proxy, and `ĝ_k` a finite-difference
//! estimate of `dP/du` updated whenever the setting actually moved. The
//! adjustable gain is the paper's point: a fixed-gain integrator is
//! either sluggish at the top of the V/f curve or oscillatory at the
//! bottom, because the power-vs-step slope varies by an order of
//! magnitude across the curve. Estimating the slope online keeps the
//! loop's effective bandwidth constant over the whole operating range.
//!
//! The controller observes nothing the other schemes do not: its power
//! proxy is the operating point's normalized `V²f` scaled by the
//! interval's mean queue utilization (switching activity tracks
//! occupancy), so comparisons against PID and attack/decay isolate the
//! decision policy.

use mcd_sim::{ControllerCtx, DomainId, DvfsAction, DvfsController, QueueSample};

use crate::interval::IntervalFramer;

/// Integral power-regulator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegralGainConfig {
    /// Interval length in committed instructions.
    pub interval_insts: u64,
    /// Power reference as a fraction of the maximum point's `V²f` at
    /// full utilization.
    pub p_ref: f64,
    /// Loop-bandwidth constant `c`: the fraction of the remaining power
    /// error closed per interval when the slope estimate is exact.
    pub bandwidth: f64,
    /// Floor on the slope estimate (steps are never treated as having
    /// less power authority than this), which bounds the gain.
    pub slope_min: f64,
}

impl IntegralGainConfig {
    /// Per-domain defaults: the INT domain regulates to a higher power
    /// budget than FP/LS, mirroring the occupancy references the other
    /// schemes use (6 vs 4 entries).
    ///
    /// # Panics
    ///
    /// Panics if `domain` is the front end.
    pub fn for_domain(domain: DomainId) -> Self {
        let p_ref = match domain {
            DomainId::Int => 0.30,
            DomainId::Fp | DomainId::Ls => 0.20,
            DomainId::FrontEnd => panic!("the front end is not DVFS-controlled"),
        };
        IntegralGainConfig {
            interval_insts: 10_000,
            p_ref,
            bandwidth: 0.5,
            slope_min: 5e-4,
        }
    }

    /// Overrides the interval length.
    ///
    /// # Panics
    ///
    /// Panics if `interval_insts` is zero.
    pub fn with_interval(mut self, interval_insts: u64) -> Self {
        assert!(interval_insts > 0, "interval length must be positive");
        self.interval_insts = interval_insts;
        self
    }
}

/// The adjustable-gain integral power regulator for one domain.
#[derive(Debug)]
pub struct IntegralGainController {
    cfg: IntegralGainConfig,
    framer: IntervalFramer,
    /// Continuous frequency setting in curve steps (carries fractions).
    setting: Option<f64>,
    /// Previous interval's measured power proxy and setting, for the
    /// finite-difference slope estimate.
    prev_power: Option<f64>,
    prev_setting: Option<f64>,
    /// Current `dP/du` slope estimate (power fraction per curve step).
    slope: f64,
    intervals: u64,
}

impl IntegralGainController {
    /// Builds a controller with explicit parameters.
    pub fn new(cfg: IntegralGainConfig) -> Self {
        IntegralGainController {
            framer: IntervalFramer::new(cfg.interval_insts),
            // Initial slope: the analytic slope of normalized V²f at the
            // top of the default curve (≈ 3 power-fractions per full
            // range, over 320 steps) at half utilization.
            slope: 1.5 / 320.0,
            cfg,
            setting: None,
            prev_power: None,
            prev_setting: None,
            intervals: 0,
        }
    }

    /// Builds the default configuration for `domain`.
    pub fn for_domain(domain: DomainId) -> Self {
        IntegralGainController::new(IntegralGainConfig::for_domain(domain))
    }

    /// The controller's configuration.
    pub fn config(&self) -> &IntegralGainConfig {
        &self.cfg
    }

    /// Completed decision intervals so far.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }
}

impl DvfsController for IntegralGainController {
    fn on_sample(&mut self, ctx: &ControllerCtx<'_>, sample: QueueSample) -> Option<DvfsAction> {
        let summary = self.framer.observe(sample.occupancy as f64, ctx.retired)?;
        self.intervals += 1;

        // Power proxy: normalized V²f at the current point, scaled by
        // the interval's mean utilization (activity factor).
        let max = ctx.curve.max();
        let point = ctx.curve.point(ctx.current);
        let v_rel = point.voltage.as_volts() / max.voltage.as_volts();
        let f_rel = point.frequency.as_mhz() / max.frequency.as_mhz();
        let util = (summary.mean_occupancy / sample.capacity as f64).clamp(0.0, 1.0);
        let power = v_rel * v_rel * f_rel * util;

        let setting = *self.setting.get_or_insert(ctx.current.0 as f64);

        // Re-estimate the plant slope from the last interval's move,
        // whenever the setting moved enough for the quotient to mean
        // anything. Slope stays positive: more frequency is never less
        // power.
        if let (Some(p0), Some(u0)) = (self.prev_power, self.prev_setting) {
            let du = setting - u0;
            if du.abs() >= 1.0 {
                let g = (power - p0) / du;
                if g > self.cfg.slope_min {
                    self.slope = g;
                }
            }
        }
        self.prev_power = Some(power);
        self.prev_setting = Some(setting);

        // Integral law with the adjusted gain, clamped so one interval
        // never jumps more than a quarter of the curve (the estimate can
        // be briefly stale right after a workload shift).
        let range = ctx.curve.max_index().0 as f64;
        let gain = (self.cfg.bandwidth / self.slope.max(self.cfg.slope_min)).min(range / 4.0);
        let error = self.cfg.p_ref - power;
        let next = (setting + gain * error).clamp(0.0, range);
        self.setting = Some(next);

        let target = mcd_power::OpIndex(next.round() as u16);
        (target != ctx.current).then_some(DvfsAction::Set(target))
    }

    fn name(&self) -> &'static str {
        "integral-gain"
    }

    fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        self.framer.save_state(w);
        for v in [self.setting, self.prev_power, self.prev_setting] {
            w.put_bool(v.is_some());
            if let Some(v) = v {
                w.put_f64(v);
            }
        }
        w.put_f64(self.slope);
        w.put_u64(self.intervals);
    }

    fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        self.framer.load_state(r)?;
        for slot in [
            &mut self.setting,
            &mut self.prev_power,
            &mut self.prev_setting,
        ] {
            *slot = if r.take_bool()? {
                Some(r.take_f64()?)
            } else {
                None
            };
        }
        self.slope = r.take_f64()?;
        self.intervals = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_power::{OpIndex, TimePs, VfCurve};

    struct Harness {
        curve: VfCurve,
        retired: u64,
        now: TimePs,
        current: OpIndex,
        ctrl: IntegralGainController,
    }

    impl Harness {
        fn new(ctrl: IntegralGainController) -> Self {
            let curve = VfCurve::mcd_default();
            Harness {
                current: curve.max_index(),
                curve,
                retired: 0,
                now: TimePs::ZERO,
                ctrl,
            }
        }

        /// Runs one 10k-instruction interval at constant occupancy.
        fn interval(&mut self, occupancy: u32) -> Option<DvfsAction> {
            let mut out = None;
            for _ in 0..10 {
                self.retired += 1_000;
                self.now += TimePs::from_ns(4);
                let ctx = ControllerCtx {
                    now: self.now,
                    domain: DomainId::Int,
                    current: self.current,
                    curve: &self.curve,
                    in_transition: false,
                    single_step_time: TimePs::from_ns(172),
                    sample_period: TimePs::from_ns(4),
                    retired: self.retired,
                };
                if let Some(a) = self.ctrl.on_sample(
                    &ctx,
                    QueueSample {
                        occupancy,
                        capacity: 20,
                    },
                ) {
                    self.current = a.resolve(self.current, &self.curve);
                    out = Some(a);
                }
            }
            out
        }
    }

    #[test]
    fn over_budget_regulates_downward() {
        // Full speed at high utilization is far above the 0.30 budget.
        let mut h = Harness::new(IntegralGainController::for_domain(DomainId::Int));
        let start = h.current;
        for _ in 0..30 {
            h.interval(16);
        }
        assert!(h.current < start, "stayed at {:?}", h.current);
    }

    #[test]
    fn idle_domain_rails_at_full_responsiveness() {
        let mut h = Harness::new(IntegralGainController::for_domain(DomainId::Int));
        for _ in 0..200 {
            h.interval(0);
        }
        // Zero utilization means zero proxy power: the budget can never
        // be met, and the integrator rails at the top of the curve
        // (maximum responsiveness costs no measured power) — the same
        // degenerate fixture every power regulator has, pinned here.
        assert_eq!(h.current, h.curve.max_index());
    }

    #[test]
    fn converges_without_oscillating_at_the_bottom() {
        // The adjustable gain is what keeps the loop from ringing where
        // the V²f slope is shallow: settle, then require the setting to
        // stay within a tight band.
        let mut h = Harness::new(IntegralGainController::for_domain(DomainId::Fp));
        for _ in 0..100 {
            h.interval(8);
        }
        let settled = h.current;
        let mut lo = settled;
        let mut hi = settled;
        for _ in 0..50 {
            h.interval(8);
            lo = lo.min(h.current);
            hi = hi.max(h.current);
        }
        assert!(
            hi.0 - lo.0 <= 24,
            "rang between {lo:?} and {hi:?} after settling"
        );
    }

    #[test]
    fn gain_is_bounded_through_workload_shifts() {
        let mut h = Harness::new(IntegralGainController::for_domain(DomainId::Int));
        for _ in 0..20 {
            h.interval(16);
        }
        let before = h.current;
        h.interval(1); // collapse in utilization: power proxy craters
        let after = h.current;
        let moved = (after.0 as i32 - before.0 as i32).unsigned_abs();
        assert!(moved <= 80, "one interval moved {moved} steps");
    }

    #[test]
    fn reports_name() {
        assert_eq!(
            IntegralGainController::for_domain(DomainId::Ls).name(),
            "integral-gain"
        );
    }

    #[test]
    fn state_round_trips_through_snapshot() {
        let mut h = Harness::new(IntegralGainController::for_domain(DomainId::Int));
        for _ in 0..7 {
            h.interval(13);
        }
        let mut w = mcd_snap::SnapWriter::new();
        h.ctrl.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = IntegralGainController::for_domain(DomainId::Int);
        let mut r = mcd_snap::SnapReader::new(&bytes);
        restored.load_state(&mut r).expect("round-trip");
        r.finish().expect("no trailing bytes");
        // Both controllers must issue identical decisions from here on.
        let mut other = Harness::new(restored);
        other.current = h.current;
        other.retired = h.retired;
        other.now = h.now;
        for occ in [13, 2, 18, 9, 0, 16] {
            assert_eq!(h.interval(occ), other.interval(occ), "diverged at {occ}");
        }
    }
}
