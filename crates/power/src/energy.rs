//! Per-domain energy accounting.
//!
//! Each simulated clock domain owns a [`DomainEnergyMeter`]; the simulator
//! charges it a cycle cost on every local clock edge and an event cost for
//! every structure access, at whatever supply voltage the domain's regulator
//! reports at that instant.

use crate::types::{Energy, Voltage};
use crate::wattch::{ActivityEvent, DomainClass, EnergyModel};

/// Coarse category an [`ActivityEvent`] is accounted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyCategory {
    /// Clock distribution and gated idle power.
    Clock,
    /// Functional-unit execution energy.
    Compute,
    /// Cache and memory hierarchy energy.
    Memory,
    /// Pipeline bookkeeping: fetch/decode/rename/dispatch/issue/commit,
    /// predictor and register-file traffic.
    Pipeline,
    /// Static (leakage) energy: proportional to time and voltage, not to
    /// activity.
    Leakage,
}

impl EnergyCategory {
    /// Every category, for iteration/reporting.
    pub const ALL: [EnergyCategory; 5] = [
        EnergyCategory::Clock,
        EnergyCategory::Compute,
        EnergyCategory::Memory,
        EnergyCategory::Pipeline,
        EnergyCategory::Leakage,
    ];

    /// The category an event belongs to.
    pub fn of(event: ActivityEvent) -> EnergyCategory {
        use ActivityEvent::*;
        match event {
            IntAlu | IntMul | FpAlu | FpMul | FpDiv => EnergyCategory::Compute,
            L1DAccess | L2Access | MemAccess => EnergyCategory::Memory,
            Fetch | BpredLookup | BpredUpdate | DecodeRename | Dispatch | Issue | RegRead
            | RegWrite | LsqAccess | Commit => EnergyCategory::Pipeline,
        }
    }
}

/// Energy totals split by [`EnergyCategory`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Clock distribution + gated idle energy.
    pub clock: Energy,
    /// Functional-unit energy.
    pub compute: Energy,
    /// Memory-hierarchy energy.
    pub memory: Energy,
    /// Pipeline bookkeeping energy.
    pub pipeline: Energy,
    /// Static (leakage) energy.
    pub leakage: Energy,
}

impl EnergyBreakdown {
    /// Sum over all categories.
    pub fn total(&self) -> Energy {
        self.clock + self.compute + self.memory + self.pipeline + self.leakage
    }

    /// Adds `e` under `category`.
    pub fn add(&mut self, category: EnergyCategory, e: Energy) {
        match category {
            EnergyCategory::Clock => self.clock += e,
            EnergyCategory::Compute => self.compute += e,
            EnergyCategory::Memory => self.memory += e,
            EnergyCategory::Pipeline => self.pipeline += e,
            EnergyCategory::Leakage => self.leakage += e,
        }
    }

    /// Element-wise sum of two breakdowns.
    pub fn merged(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            clock: self.clock + other.clock,
            compute: self.compute + other.compute,
            memory: self.memory + other.memory,
            pipeline: self.pipeline + other.pipeline,
            leakage: self.leakage + other.leakage,
        }
    }

    /// Serializes every category total bit-exactly.
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        w.put_f64(self.clock.as_joules());
        w.put_f64(self.compute.as_joules());
        w.put_f64(self.memory.as_joules());
        w.put_f64(self.pipeline.as_joules());
        w.put_f64(self.leakage.as_joules());
    }

    /// Restores state captured by [`EnergyBreakdown::save_state`].
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        self.clock = Energy::from_joules(r.take_f64()?);
        self.compute = Energy::from_joules(r.take_f64()?);
        self.memory = Energy::from_joules(r.take_f64()?);
        self.pipeline = Energy::from_joules(r.take_f64()?);
        self.leakage = Energy::from_joules(r.take_f64()?);
        Ok(())
    }
}

/// Accumulates the energy spent by one clock domain.
///
/// ```
/// use mcd_power::{DomainEnergyMeter, EnergyModel, Voltage, ActivityEvent};
/// use mcd_power::wattch::DomainClass;
///
/// let model = EnergyModel::new(Voltage::from_volts(1.2));
/// let mut meter = DomainEnergyMeter::new(DomainClass::Integer, model);
/// let v = Voltage::from_volts(1.2);
/// meter.charge_cycle(0.5, v);
/// meter.charge_event(ActivityEvent::IntAlu, v);
/// assert!(meter.total().as_pj() > 0.0);
/// assert_eq!(meter.cycles(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DomainEnergyMeter {
    class: DomainClass,
    model: EnergyModel,
    breakdown: EnergyBreakdown,
    cycles: u64,
    events: u64,
    /// [`EnergyModel::event_energy_at_ref`] of every event, indexed by
    /// `event as usize` (the [`ActivityEvent::ALL`] order).
    event_at_ref: [Energy; ActivityEvent::ALL.len()],
    /// Bits of the last supply voltage charged at, and its
    /// [`EnergyModel::voltage_factor`]. A domain charges many events and
    /// cycles at one voltage, so each charge is one multiply. This pair
    /// and the utilization pair below are pure functions of their keys and
    /// are never serialized.
    factor_volts: u64,
    factor: f64,
    /// Bits of the last utilization charged at, and its
    /// [`EnergyModel::cycle_energy_at_ref`]: idle and steadily busy
    /// domains repeat one utilization edge after edge.
    cycle_util: u64,
    cycle_at_ref: Energy,
}

impl DomainEnergyMeter {
    /// Creates a zeroed meter for a domain of class `class`.
    pub fn new(class: DomainClass, model: EnergyModel) -> Self {
        let v_ref = model.reference_voltage();
        DomainEnergyMeter {
            class,
            event_at_ref: ActivityEvent::ALL.map(|e| model.event_energy_at_ref(e)),
            factor_volts: v_ref.as_volts().to_bits(),
            factor: model.voltage_factor(v_ref),
            cycle_util: 0.0f64.to_bits(),
            cycle_at_ref: model.cycle_energy_at_ref(class, 0.0),
            model,
            breakdown: EnergyBreakdown::default(),
            cycles: 0,
            events: 0,
        }
    }

    /// The model's voltage factor at `v`, recomputed only when `v` differs
    /// from the last voltage charged at.
    fn factor_at(&mut self, v: Voltage) -> f64 {
        let bits = v.as_volts().to_bits();
        if bits != self.factor_volts {
            self.factor_volts = bits;
            self.factor = self.model.voltage_factor(v);
        }
        self.factor
    }

    /// The domain class this meter charges clock energy for.
    pub fn class(&self) -> DomainClass {
        self.class
    }

    /// The underlying energy model.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Charges one local clock cycle at utilization `utilization` and
    /// voltage `v`.
    pub fn charge_cycle(&mut self, utilization: f64, v: Voltage) {
        let bits = utilization.to_bits();
        if bits != self.cycle_util {
            self.cycle_util = bits;
            self.cycle_at_ref = self.model.cycle_energy_at_ref(self.class, utilization);
        }
        let e = self.cycle_at_ref.scaled(self.factor_at(v));
        self.breakdown.add(EnergyCategory::Clock, e);
        self.cycles += 1;
    }

    /// Charges one structure access at voltage `v`.
    pub fn charge_event(&mut self, event: ActivityEvent, v: Voltage) {
        let e = self.event_at_ref[event as usize].scaled(self.factor_at(v));
        self.breakdown.add(EnergyCategory::of(event), e);
        self.events += 1;
    }

    /// Charges static (leakage) energy directly.
    pub fn charge_leakage(&mut self, e: Energy) {
        self.breakdown.add(EnergyCategory::Leakage, e);
    }

    /// Charges `n` identical accesses at voltage `v`.
    pub fn charge_events(&mut self, event: ActivityEvent, n: u64, v: Voltage) {
        if n == 0 {
            return;
        }
        let e = self.event_at_ref[event as usize]
            .scaled(self.factor_at(v))
            .scaled(n as f64);
        self.breakdown.add(EnergyCategory::of(event), e);
        self.events += n;
    }

    /// Total energy charged so far.
    pub fn total(&self) -> Energy {
        self.breakdown.total()
    }

    /// Category breakdown of the charged energy.
    pub fn breakdown(&self) -> &EnergyBreakdown {
        &self.breakdown
    }

    /// Local clock cycles charged.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Structure accesses charged.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Serializes the meter's evolving state (energy totals and counters);
    /// the class and energy model come from construction.
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        self.breakdown.save_state(w);
        w.put_u64(self.cycles);
        w.put_u64(self.events);
    }

    /// Restores state captured by [`DomainEnergyMeter::save_state`] into a
    /// meter built with the same class and model.
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        self.breakdown.load_state(r)?;
        self.cycles = r.take_u64()?;
        self.events = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Voltage;

    fn meter() -> DomainEnergyMeter {
        DomainEnergyMeter::new(
            DomainClass::Integer,
            EnergyModel::new(Voltage::from_volts(1.2)),
        )
    }

    #[test]
    fn categories_cover_all_events() {
        for &e in &ActivityEvent::ALL {
            // `of` is total; this is a compile-time-ish exhaustiveness check.
            let _ = EnergyCategory::of(e);
        }
        assert_eq!(
            EnergyCategory::of(ActivityEvent::FpDiv),
            EnergyCategory::Compute
        );
        assert_eq!(
            EnergyCategory::of(ActivityEvent::L2Access),
            EnergyCategory::Memory
        );
        assert_eq!(
            EnergyCategory::of(ActivityEvent::Fetch),
            EnergyCategory::Pipeline
        );
    }

    #[test]
    fn breakdown_total_is_sum_of_parts() {
        let mut b = EnergyBreakdown::default();
        b.add(EnergyCategory::Clock, Energy::from_pj(1.0));
        b.add(EnergyCategory::Compute, Energy::from_pj(2.0));
        b.add(EnergyCategory::Memory, Energy::from_pj(3.0));
        b.add(EnergyCategory::Pipeline, Energy::from_pj(4.0));
        assert!((b.total().as_pj() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn merged_breakdowns_add_elementwise() {
        let mut a = EnergyBreakdown::default();
        a.add(EnergyCategory::Clock, Energy::from_pj(1.0));
        let mut b = EnergyBreakdown::default();
        b.add(EnergyCategory::Clock, Energy::from_pj(2.0));
        b.add(EnergyCategory::Memory, Energy::from_pj(5.0));
        let m = a.merged(&b);
        assert!((m.clock.as_pj() - 3.0).abs() < 1e-9);
        assert!((m.memory.as_pj() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn meter_counts_cycles_and_events() {
        let mut m = meter();
        let v = Voltage::from_volts(1.0);
        m.charge_cycle(1.0, v);
        m.charge_cycle(0.0, v);
        m.charge_event(ActivityEvent::IntAlu, v);
        m.charge_events(ActivityEvent::Issue, 3, v);
        m.charge_events(ActivityEvent::Issue, 0, v);
        assert_eq!(m.cycles(), 2);
        assert_eq!(m.events(), 4);
        assert!(m.breakdown().clock.as_pj() > 0.0);
        assert!(m.breakdown().compute.as_pj() > 0.0);
        assert!(m.breakdown().pipeline.as_pj() > 0.0);
        assert_eq!(m.breakdown().memory, Energy::ZERO);
    }

    #[test]
    fn lower_voltage_cycles_cost_less() {
        let mut hi = meter();
        let mut lo = meter();
        hi.charge_cycle(1.0, Voltage::from_volts(1.2));
        lo.charge_cycle(1.0, Voltage::from_volts(0.65));
        assert!(lo.total() < hi.total());
        let ratio = lo.total().as_joules() / hi.total().as_joules();
        let expect = (0.65f64 / 1.2).powi(2);
        assert!((ratio - expect).abs() < 1e-9);
    }

    /// Charges every event at `n ∈ {1, 7}` and a cycle between voltage
    /// switches, into `m` and into `reference` through the model's per-call
    /// formulas.
    fn charge_all(m: &mut DomainEnergyMeter, reference: &mut EnergyBreakdown, volts: &[f64]) {
        let model = m.model().clone();
        for (k, &volts) in volts.iter().enumerate() {
            let v = Voltage::from_volts(volts);
            for &e in &ActivityEvent::ALL {
                m.charge_event(e, v);
                reference.add(EnergyCategory::of(e), model.event_energy(e, v));
                m.charge_events(e, 7, v);
                reference.add(EnergyCategory::of(e), model.event_energy(e, v).scaled(7.0));
            }
            // Each utilization twice in a row, so its cache both hits and misses.
            let util = (k / 2 % 5) as f64 / 4.0;
            m.charge_cycle(util, v);
            reference.add(
                EnergyCategory::Clock,
                model.cycle_energy(m.class(), util, v),
            );
        }
    }

    fn assert_bits_eq(a: &EnergyBreakdown, b: &EnergyBreakdown) {
        for (name, x, y) in [
            ("clock", a.clock, b.clock),
            ("compute", a.compute, b.compute),
            ("memory", a.memory, b.memory),
            ("pipeline", a.pipeline, b.pipeline),
            ("leakage", a.leakage, b.leakage),
        ] {
            assert_eq!(x.as_joules().to_bits(), y.as_joules().to_bits(), "{name}");
        }
    }

    #[test]
    fn event_table_follows_the_all_order() {
        for (i, &e) in ActivityEvent::ALL.iter().enumerate() {
            assert_eq!(e as usize, i, "{e:?}");
        }
    }

    /// The meter's cached voltage factor and event table charge exactly
    /// what the model's per-call formulas give, through voltage changes
    /// (cache invalidation) and across a snapshot into a fresh meter whose
    /// cache starts cold at the reference voltage.
    #[test]
    fn cached_charges_are_bit_identical_to_the_model() {
        let volts = [0.9, 0.9, 1.2, 0.65, 0.9, 1.0375, 0.65, 0.65, 1.2, 0.9];
        let mut m = meter();
        let mut reference = EnergyBreakdown::default();
        charge_all(&mut m, &mut reference, &volts);
        assert_bits_eq(m.breakdown(), &reference);
        assert_eq!(m.events(), 18 * 8 * volts.len() as u64);

        let mut w = mcd_snap::SnapWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = meter();
        restored
            .load_state(&mut mcd_snap::SnapReader::new(&bytes))
            .expect("round trip");
        assert_bits_eq(restored.breakdown(), &reference);
        // Continue at the voltage the saved meter last charged at, then
        // keep switching.
        let rest = [0.9, 0.65, 1.2, 0.8, 0.9];
        let mut reference_b = reference;
        charge_all(&mut m, &mut reference, &rest);
        charge_all(&mut restored, &mut reference_b, &rest);
        assert_bits_eq(m.breakdown(), &reference);
        assert_bits_eq(restored.breakdown(), &reference_b);
        assert_eq!(restored.cycles(), m.cycles());
        assert_eq!(restored.events(), m.events());
    }

    #[test]
    fn charge_events_batches_match_singles() {
        let v = Voltage::from_volts(0.9);
        let mut a = meter();
        let mut b = meter();
        a.charge_events(ActivityEvent::L1DAccess, 5, v);
        for _ in 0..5 {
            b.charge_event(ActivityEvent::L1DAccess, v);
        }
        assert!((a.total().as_pj() - b.total().as_pj()).abs() < 1e-9);
    }
}
