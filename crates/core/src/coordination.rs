//! Centralized coordination — the paper's flagged future work.
//!
//! Section 3.1 assumes *decentralized* control ("we will only use local
//! queue/domain information") and notes that "a centralized DVFS scheme
//! which utilizes all queue/domain information may work better, but is
//! much harder to design, as it is still an open research problem."
//!
//! This module implements a minimal centralized extension: the three
//! per-domain adaptive controllers share a blackboard of current queue
//! utilizations, and a domain's *down*-step is vetoed while any other
//! domain's queue is saturated. Rationale: when one domain is the
//! bottleneck, the other queues drain — not because their demand vanished,
//! but because dispatch is stalled behind the bottleneck. Slowing them
//! down on that evidence forces an expensive re-ramp the moment the
//! bottleneck clears; the veto suppresses exactly those spurious descents.

use std::sync::{Arc, Mutex};

use mcd_sim::{ControllerCtx, DomainId, DvfsAction, DvfsController, QueueSample};

use crate::config::AdaptiveConfig;
use crate::controller::AdaptiveDvfsController;

/// Shared blackboard of the three domains' latest queue utilizations.
///
/// Shared via `Arc<Mutex<_>>` rather than `Rc<RefCell<_>>`: controllers
/// must be `Send` so a machine can move to whichever thread runs it and
/// across shard boundaries. The three controllers
/// of one machine still only ever run on one thread at a time, so the
/// lock is uncontended.
#[derive(Debug)]
pub struct Blackboard {
    utilization: [f64; 3],
    /// A queue at or above this utilization marks its domain as the
    /// current bottleneck.
    saturation: f64,
}

impl Blackboard {
    /// Creates a blackboard with the given saturation threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `saturation` is in `(0, 1]`.
    pub fn new(saturation: f64) -> Arc<Mutex<Blackboard>> {
        assert!(
            saturation > 0.0 && saturation <= 1.0,
            "saturation out of range"
        );
        Arc::new(Mutex::new(Blackboard {
            utilization: [0.0; 3],
            saturation,
        }))
    }

    /// Whether any domain *other than* `slot` is saturated.
    pub fn other_domain_saturated(&self, slot: usize) -> bool {
        self.utilization
            .iter()
            .enumerate()
            .any(|(i, &u)| i != slot && u >= self.saturation)
    }

    /// Sets one domain slot's posted utilization (test hook).
    pub fn post(&mut self, slot: usize, utilization: f64) {
        self.utilization[slot] = utilization;
    }
}

/// A per-domain adaptive controller that consults the shared blackboard.
#[derive(Debug)]
pub struct CoordinatedController {
    inner: AdaptiveDvfsController,
    shared: Arc<Mutex<Blackboard>>,
    slot: usize,
    vetoes: u64,
}

impl CoordinatedController {
    /// Wraps an adaptive controller for `domain` around `shared`.
    pub fn new(cfg: AdaptiveConfig, domain: DomainId, shared: Arc<Mutex<Blackboard>>) -> Self {
        CoordinatedController {
            inner: AdaptiveDvfsController::new(cfg),
            shared,
            slot: domain.backend_index(),
            vetoes: 0,
        }
    }

    /// Down-steps vetoed so far.
    pub fn vetoes(&self) -> u64 {
        self.vetoes
    }
}

impl DvfsController for CoordinatedController {
    fn on_sample(&mut self, ctx: &ControllerCtx<'_>, sample: QueueSample) -> Option<DvfsAction> {
        self.shared.lock().expect("blackboard poisoned").utilization[self.slot] =
            sample.utilization();
        let action = self.inner.on_sample(ctx, sample)?;
        let is_down = match action {
            DvfsAction::Step(s) => s < 0,
            DvfsAction::Set(target) => target < ctx.current,
        };
        if is_down
            && self
                .shared
                .lock()
                .expect("blackboard poisoned")
                .other_domain_saturated(self.slot)
        {
            self.vetoes += 1;
            return None;
        }
        Some(action)
    }

    fn name(&self) -> &'static str {
        "adaptive-centralized"
    }
}

/// Builds the coordinated controller set: one shared blackboard, one
/// controller per back-end domain (paper defaults, saturation 0.75).
pub fn coordinated_controllers() -> impl FnMut(DomainId) -> Box<dyn DvfsController> {
    let shared = Blackboard::new(0.75);
    move |domain| {
        Box::new(CoordinatedController::new(
            AdaptiveConfig::for_domain(domain),
            domain,
            Arc::clone(&shared),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_power::{OpIndex, TimePs, VfCurve};

    fn ctx<'a>(curve: &'a VfCurve, now: TimePs, current: OpIndex) -> ControllerCtx<'a> {
        ControllerCtx {
            now,
            domain: DomainId::Fp,
            current,
            curve,
            in_transition: false,
            single_step_time: TimePs::from_ns(172),
            sample_period: TimePs::from_ns(4),
            retired: 0,
        }
    }

    /// Drives one coordinated FP controller at empty queue while a fake
    /// INT utilization is posted to the blackboard.
    fn drive_with_int_pressure(int_util: f64, samples: u64) -> (u64, u64) {
        let shared = Blackboard::new(0.75);
        let mut fp = CoordinatedController::new(
            AdaptiveConfig::for_domain(DomainId::Fp),
            DomainId::Fp,
            Arc::clone(&shared),
        );
        shared
            .lock()
            .unwrap()
            .post(DomainId::Int.backend_index(), int_util);
        let curve = VfCurve::mcd_default();
        let mut now = TimePs::ZERO;
        let mut actions = 0;
        for _ in 0..samples {
            now += TimePs::from_ns(4);
            let c = ctx(&curve, now, curve.max_index());
            if fp
                .on_sample(
                    &c,
                    QueueSample {
                        occupancy: 0,
                        capacity: 16,
                    },
                )
                .is_some()
            {
                actions += 1;
            }
            // Keep the INT pressure posted (the FP sample overwrote only
            // its own slot).
            shared
                .lock()
                .unwrap()
                .post(DomainId::Int.backend_index(), int_util);
        }
        (actions, fp.vetoes())
    }

    #[test]
    fn down_steps_vetoed_under_foreign_saturation() {
        let (actions, vetoes) = drive_with_int_pressure(0.9, 2_000);
        assert_eq!(actions, 0, "all down-steps should be vetoed");
        assert!(vetoes > 0);
    }

    #[test]
    fn down_steps_allowed_when_no_domain_saturated() {
        let (actions, vetoes) = drive_with_int_pressure(0.3, 2_000);
        assert!(actions > 0, "descent should proceed normally");
        assert_eq!(vetoes, 0);
    }

    #[test]
    fn up_steps_never_vetoed() {
        let shared = Blackboard::new(0.75);
        shared.lock().unwrap().post(0, 1.0);
        let mut fp = CoordinatedController::new(
            AdaptiveConfig::for_domain(DomainId::Fp)
                .with_windows(0.0, 0.0)
                .with_delays(4.0, 4.0)
                .with_conversions(1.0, 1.0),
            DomainId::Fp,
            shared,
        );
        let curve = VfCurve::mcd_default();
        let c0 = ctx(&curve, TimePs::from_ns(4), OpIndex(100));
        assert_eq!(
            fp.on_sample(
                &c0,
                QueueSample {
                    occupancy: 4,
                    capacity: 16
                }
            ),
            None
        );
        let c1 = ctx(&curve, TimePs::from_ns(8), OpIndex(100));
        let a = fp.on_sample(
            &c1,
            QueueSample {
                occupancy: 8,
                capacity: 16,
            },
        );
        assert_eq!(a, Some(DvfsAction::Step(2)), "up-step must pass the veto");
    }

    #[test]
    fn blackboard_saturation_logic() {
        let b = Blackboard::new(0.75);
        b.lock().unwrap().utilization = [0.8, 0.1, 0.1];
        assert!(b.lock().unwrap().other_domain_saturated(1));
        assert!(b.lock().unwrap().other_domain_saturated(2));
        assert!(!b.lock().unwrap().other_domain_saturated(0));
    }

    #[test]
    fn factory_builds_distinct_controllers_sharing_state() {
        let mut factory = coordinated_controllers();
        let a = factory(DomainId::Int);
        let b = factory(DomainId::Fp);
        assert_eq!(a.name(), "adaptive-centralized");
        assert_eq!(b.name(), "adaptive-centralized");
    }

    #[test]
    #[should_panic(expected = "saturation out of range")]
    fn zero_saturation_panics() {
        let _ = Blackboard::new(0.0);
    }
}
