//! The DVFS-controller interface.
//!
//! A controller is attached to one back-end domain and is invoked once per
//! queue-signal sampling period (250 MHz in the paper). It sees only its
//! own domain's interface-queue occupancy — the *decentralized* control
//! assumption of Section 3 — and may request a frequency change.

use mcd_power::{OpIndex, TimePs, VfCurve};

use crate::config::DomainId;
use crate::trace::CtrlEvent;

/// One occupancy observation of a domain's interface queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSample {
    /// Entries currently in the queue.
    pub occupancy: u32,
    /// Queue capacity.
    pub capacity: u32,
}

impl QueueSample {
    /// Occupancy as a fraction of capacity.
    pub fn utilization(&self) -> f64 {
        self.occupancy as f64 / self.capacity as f64
    }
}

/// Read-only context handed to a controller at each sample.
#[derive(Debug, Clone, Copy)]
pub struct ControllerCtx<'a> {
    /// Current simulated time.
    pub now: TimePs,
    /// The domain this controller drives.
    pub domain: DomainId,
    /// The regulator's current target operating point.
    pub current: OpIndex,
    /// The operating-point curve.
    pub curve: &'a VfCurve,
    /// Whether a voltage/frequency transition is still in flight.
    pub in_transition: bool,
    /// Time one single-step transition takes (the paper's `T_s`).
    pub single_step_time: TimePs,
    /// The sampling period (basis of all controller time units).
    pub sample_period: TimePs,
    /// Instructions retired so far (lets fixed-interval schemes frame
    /// intervals in instructions instead of samples).
    pub retired: u64,
}

impl ControllerCtx<'_> {
    /// Relative frequency `f̂ = f/f_max` of the current target point.
    #[inline]
    pub fn relative_frequency(&self) -> f64 {
        self.curve
            .point(self.current)
            .frequency
            .relative_to(self.curve.max().frequency)
    }
}

/// A frequency-change request returned by a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DvfsAction {
    /// Step the operating point by a signed number of curve steps
    /// (the adaptive scheme's ±1 or ±2).
    Step(i32),
    /// Jump to an absolute operating point (fixed-interval schemes compute
    /// a new setting per interval).
    Set(OpIndex),
}

impl DvfsAction {
    /// Resolves this action to a target index given the current point.
    pub fn resolve(self, current: OpIndex, curve: &VfCurve) -> OpIndex {
        match self {
            DvfsAction::Step(delta) => current.stepped(delta, curve.max_index()),
            DvfsAction::Set(idx) => OpIndex(idx.0.min(curve.max_index().0)),
        }
    }
}

/// An online DVFS control policy for one clock domain.
///
/// Implementations live in `mcd-adaptive` (the paper's contribution) and
/// `mcd-baselines` (attack/decay, PID). A domain with no controller runs
/// at the maximum operating point, which is also the study's baseline.
///
/// `Send` is required so a machine (which owns its controllers) can
/// move to whichever thread runs it (a `RunSet::par` batch thread) and
/// across shard boundaries; controllers are still driven from exactly one
/// thread at a time.
pub trait DvfsController: std::fmt::Debug + Send {
    /// Called once per sampling period with the domain's queue sample.
    /// Returns a frequency-change request, or `None` to leave the clock
    /// alone.
    fn on_sample(&mut self, ctx: &ControllerCtx<'_>, sample: QueueSample) -> Option<DvfsAction>;

    /// Short scheme name for reports (e.g. `"adaptive"`, `"pid"`).
    fn name(&self) -> &'static str;

    /// Moves any decision events recorded since the last drain into
    /// `out`. Controllers without internal structure worth tracing (the
    /// fixed-interval baselines) keep the default no-op.
    fn drain_events(&mut self, _out: &mut Vec<CtrlEvent>) {}

    /// Serializes the controller's evolving decision state into a machine
    /// snapshot. Stateless controllers keep the default no-op; stateful
    /// ones must override both this and [`DvfsController::load_state`] so
    /// a restored run replays the same decisions.
    fn save_state(&self, _w: &mut mcd_snap::SnapWriter) {}

    /// Restores state captured by [`DvfsController::save_state`] into a
    /// freshly-constructed controller of the same configuration.
    fn load_state(&mut self, _r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_power::VfCurve;

    #[test]
    fn utilization_is_fractional() {
        let s = QueueSample {
            occupancy: 5,
            capacity: 20,
        };
        assert!((s.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn step_action_clamps_at_curve_ends() {
        let curve = VfCurve::mcd_default();
        let max = curve.max_index();
        assert_eq!(DvfsAction::Step(-5).resolve(OpIndex(2), &curve), OpIndex(0));
        assert_eq!(DvfsAction::Step(5).resolve(max, &curve), max);
        assert_eq!(
            DvfsAction::Step(1).resolve(OpIndex(10), &curve),
            OpIndex(11)
        );
    }

    #[test]
    fn set_action_clamps_to_max() {
        let curve = VfCurve::mcd_default();
        assert_eq!(
            DvfsAction::Set(OpIndex(9999)).resolve(OpIndex(0), &curve),
            curve.max_index()
        );
        assert_eq!(
            DvfsAction::Set(OpIndex(7)).resolve(OpIndex(100), &curve),
            OpIndex(7)
        );
    }

    /// A controller usable as a trait object (object safety check) that
    /// always requests one step down.
    #[derive(Debug)]
    struct AlwaysDown;

    impl DvfsController for AlwaysDown {
        fn on_sample(&mut self, _: &ControllerCtx<'_>, _: QueueSample) -> Option<DvfsAction> {
            Some(DvfsAction::Step(-1))
        }
        fn name(&self) -> &'static str {
            "always-down"
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let curve = VfCurve::mcd_default();
        let mut c: Box<dyn DvfsController> = Box::new(AlwaysDown);
        let ctx = ControllerCtx {
            now: TimePs::ZERO,
            domain: DomainId::Int,
            current: curve.max_index(),
            curve: &curve,
            in_transition: false,
            single_step_time: TimePs::from_ns(172),
            sample_period: TimePs::from_ns(4),
            retired: 0,
        };
        assert!((ctx.relative_frequency() - 1.0).abs() < 1e-12);
        let a = c.on_sample(
            &ctx,
            QueueSample {
                occupancy: 0,
                capacity: 20,
            },
        );
        assert_eq!(a, Some(DvfsAction::Step(-1)));
        assert_eq!(c.name(), "always-down");
    }
}
