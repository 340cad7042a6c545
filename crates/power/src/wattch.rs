//! Wattch-style effective-capacitance energy model.
//!
//! Wattch models the dynamic energy of each microarchitectural structure as
//! `E = α · C_eff · V²` per access, plus a clock-distribution cost per
//! cycle, with *aggressive clock gating*: structures that are idle in a
//! cycle still draw a small residual fraction of their nominal power.
//!
//! Absolute wattages are irrelevant to the paper's evaluation (every result
//! is a ratio against the full-speed baseline), so the per-access energies
//! below are plausible relative magnitudes for a ~0.18 µm out-of-order core,
//! normalized at the maximum supply voltage. What matters — and what the
//! tests pin down — is that (a) every access scales with `V²`, (b) clock
//! energy scales with cycle count (hence with `f · t`), and (c) the
//! per-domain split roughly matches the front-end/INT/FP/LS proportions of
//! the Semeraro et al. MCD studies.

use crate::types::{Energy, Voltage};

/// The class of clock domain a per-cycle clock-energy charge belongs to.
///
/// The MCD floorplan of the paper (Figure 1) has four on-chip domains; main
/// memory is external and unmetered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainClass {
    /// Fetch, decode, rename, dispatch, ROB and L1 I-cache.
    FrontEnd,
    /// Integer issue queue and integer ALUs.
    Integer,
    /// Floating-point issue queue and FP ALUs.
    FloatingPoint,
    /// Load/store queue, L1 D-cache and the L2 cache.
    LoadStore,
}

impl DomainClass {
    /// All four on-chip domain classes, in Figure 1 order.
    pub const ALL: [DomainClass; 4] = [
        DomainClass::FrontEnd,
        DomainClass::Integer,
        DomainClass::FloatingPoint,
        DomainClass::LoadStore,
    ];
}

/// A microarchitectural activity that consumes dynamic energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityEvent {
    /// One instruction fetched from the L1 I-cache.
    Fetch,
    /// Branch-predictor lookup.
    BpredLookup,
    /// Branch-predictor update on resolve.
    BpredUpdate,
    /// Decode + rename of one instruction.
    DecodeRename,
    /// Dispatch (ROB allocation + issue-queue write) of one instruction.
    Dispatch,
    /// Issue-queue wakeup/select for one issued instruction.
    Issue,
    /// Physical register file read (per operand).
    RegRead,
    /// Physical register file write (per result).
    RegWrite,
    /// One integer ALU operation.
    IntAlu,
    /// One integer multiply/divide operation.
    IntMul,
    /// One FP add/sub/convert operation.
    FpAlu,
    /// One FP multiply operation.
    FpMul,
    /// One FP divide or square root.
    FpDiv,
    /// Load/store queue insertion or search.
    LsqAccess,
    /// L1 D-cache access.
    L1DAccess,
    /// L2 cache access.
    L2Access,
    /// Off-chip memory access (bus + controller energy charged on chip).
    MemAccess,
    /// One instruction committed from the ROB.
    Commit,
}

impl ActivityEvent {
    /// Every event kind (for exhaustive accounting tests).
    pub const ALL: [ActivityEvent; 18] = [
        ActivityEvent::Fetch,
        ActivityEvent::BpredLookup,
        ActivityEvent::BpredUpdate,
        ActivityEvent::DecodeRename,
        ActivityEvent::Dispatch,
        ActivityEvent::Issue,
        ActivityEvent::RegRead,
        ActivityEvent::RegWrite,
        ActivityEvent::IntAlu,
        ActivityEvent::IntMul,
        ActivityEvent::FpAlu,
        ActivityEvent::FpMul,
        ActivityEvent::FpDiv,
        ActivityEvent::LsqAccess,
        ActivityEvent::L1DAccess,
        ActivityEvent::L2Access,
        ActivityEvent::MemAccess,
        ActivityEvent::Commit,
    ];
}

/// Residual activity factor of a clock-gated idle structure: Wattch's
/// "aggressive clock gating" residual of 10 %.
const GATED_FRACTION: f64 = 0.10;

/// Per-structure energy table, normalized at a reference (maximum) voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    v_ref: Voltage,
}

impl EnergyModel {
    /// Builds the default model, normalized at `v_ref` (the curve's maximum
    /// voltage), with Wattch's "aggressive clock gating" residual of 10 %.
    pub fn new(v_ref: Voltage) -> Self {
        EnergyModel { v_ref }
    }

    /// The reference (normalization) voltage.
    pub fn reference_voltage(&self) -> Voltage {
        self.v_ref
    }

    /// Energy of one `event` at the reference voltage, in picojoules.
    pub fn event_pj_at_ref(&self, event: ActivityEvent) -> f64 {
        use ActivityEvent::*;
        match event {
            Fetch => 3.0,       // L1 I-cache read, per instruction
            BpredLookup => 1.0, // combined predictor + BTB
            BpredUpdate => 0.8,
            DecodeRename => 2.0, // decode PLA + rename map
            Dispatch => 1.6,     // ROB + issue-queue write
            Issue => 1.2,        // wakeup/select CAM
            RegRead => 0.8,
            RegWrite => 1.0,
            IntAlu => 1.5,
            IntMul => 4.5,
            FpAlu => 3.0,
            FpMul => 5.0,
            FpDiv => 6.5,
            LsqAccess => 1.2,
            L1DAccess => 3.5,
            L2Access => 9.0,
            MemAccess => 20.0, // on-chip bus/controller share
            Commit => 1.0,
        }
    }

    /// `(v / v_ref)²`: the factor every per-access and per-cycle energy is
    /// scaled by at supply voltage `v`.
    pub fn voltage_factor(&self, v: Voltage) -> f64 {
        v.squared_ratio(self.v_ref)
    }

    /// Energy of one `event` at the reference voltage.
    pub fn event_energy_at_ref(&self, event: ActivityEvent) -> Energy {
        Energy::from_pj(self.event_pj_at_ref(event))
    }

    /// Energy of one `event` at supply voltage `v`.
    pub fn event_energy(&self, event: ActivityEvent, v: Voltage) -> Energy {
        self.event_energy_at_ref(event)
            .scaled(self.voltage_factor(v))
    }

    /// Clock-distribution energy per cycle for one domain at the reference
    /// voltage, in picojoules. (GALS removes the *global* clock tree; what
    /// remains is each domain's local tree, roughly sized by domain area.)
    pub fn clock_pj_at_ref(&self, class: DomainClass) -> f64 {
        match class {
            DomainClass::FrontEnd => 5.5,
            DomainClass::Integer => 5.0,
            DomainClass::FloatingPoint => 4.5,
            DomainClass::LoadStore => 5.0,
        }
    }

    /// Per-cycle domain overhead (clock tree + idle structures) at voltage
    /// `v`, given the fraction `utilization ∈ [0, 1]` of the domain's
    /// structures active this cycle.
    ///
    /// With aggressive clock gating, an idle domain still burns
    /// 10 % of its nominal clock power.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `utilization` is outside `[0, 1]`.
    pub fn cycle_energy(&self, class: DomainClass, utilization: f64, v: Voltage) -> Energy {
        self.cycle_energy_at_ref(class, utilization)
            .scaled(self.voltage_factor(v))
    }

    /// [`EnergyModel::cycle_energy`] at the reference voltage.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `utilization` is outside `[0, 1]`.
    pub fn cycle_energy_at_ref(&self, class: DomainClass, utilization: f64) -> Energy {
        debug_assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization {utilization} out of range"
        );
        let activity = GATED_FRACTION + (1.0 - GATED_FRACTION) * utilization;
        Energy::from_pj(self.clock_pj_at_ref(class) * activity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::new(Voltage::from_volts(1.2))
    }

    #[test]
    fn every_event_has_positive_energy() {
        let m = model();
        for &e in &ActivityEvent::ALL {
            assert!(m.event_pj_at_ref(e) > 0.0, "{e:?} has no energy");
        }
    }

    #[test]
    fn event_energy_scales_with_v_squared() {
        let m = model();
        let full = m.event_energy(ActivityEvent::IntAlu, Voltage::from_volts(1.2));
        let half = m.event_energy(ActivityEvent::IntAlu, Voltage::from_volts(0.6));
        assert!((half.as_pj() * 4.0 - full.as_pj()).abs() < 1e-9);
    }

    #[test]
    fn cycle_energy_interpolates_gating() {
        let m = model();
        let v = Voltage::from_volts(1.2);
        let idle = m.cycle_energy(DomainClass::Integer, 0.0, v);
        let busy = m.cycle_energy(DomainClass::Integer, 1.0, v);
        assert!((idle.as_pj() - 0.5).abs() < 1e-9); // 10% residual of 5.0 pJ
        assert!((busy.as_pj() - 5.0).abs() < 1e-9);
        let half = m.cycle_energy(DomainClass::Integer, 0.5, v);
        assert!(idle < half && half < busy);
    }

    #[test]
    fn memory_hierarchy_energies_are_ordered() {
        let m = model();
        assert!(
            m.event_pj_at_ref(ActivityEvent::L1DAccess)
                < m.event_pj_at_ref(ActivityEvent::L2Access)
        );
        assert!(
            m.event_pj_at_ref(ActivityEvent::L2Access)
                < m.event_pj_at_ref(ActivityEvent::MemAccess)
        );
    }

    #[test]
    fn all_domain_classes_have_clock_energy() {
        let m = model();
        for &c in &DomainClass::ALL {
            assert!(m.clock_pj_at_ref(c) > 0.0);
        }
    }
}
