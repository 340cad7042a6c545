//! The voltage/frequency operating-point table of the MCD processor.
//!
//! Following the paper's Table 1, each clock domain may run anywhere in the
//! 250 MHz–1.0 GHz / 0.65 V–1.20 V range; the DVFS mechanism moves between
//! **320 discrete steps** of 2.34375 MHz (and 1.71875 mV) each, and a single
//! triggered action increments or decrements the setting by one step.

use crate::types::{Frequency, Voltage};

/// Index of an operating point in a [`VfCurve`].
///
/// `OpIndex(0)` is the minimum point (250 MHz / 0.65 V for the default
/// curve); the maximum index equals the number of steps (320 by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpIndex(pub u16);

impl OpIndex {
    /// Index moved by `delta` steps, clamped to `[0, max]`.
    pub fn stepped(self, delta: i32, max: OpIndex) -> OpIndex {
        let raw = self.0 as i32 + delta;
        OpIndex(raw.clamp(0, max.0 as i32) as u16)
    }
}

/// A single voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPoint {
    /// Position in the curve's step table.
    pub index: OpIndex,
    /// Clock frequency at this point.
    pub frequency: Frequency,
    /// Supply voltage at this point.
    pub voltage: Voltage,
}

/// A linear voltage/frequency curve discretized into equal frequency steps.
///
/// The curve is the authoritative map between step indices, frequencies and
/// voltages; everything else in the simulator stores [`OpIndex`] values and
/// asks the curve for physics.
///
/// ```
/// use mcd_power::{VfCurve, OpIndex};
///
/// let curve = VfCurve::mcd_default();
/// assert_eq!(curve.steps(), 320);
/// let mid = curve.point(OpIndex(160));
/// assert!((mid.frequency.as_mhz() - 625.0).abs() < 1e-6);
/// assert!((mid.voltage.as_volts() - 0.925).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VfCurve {
    f_min: Frequency,
    f_max: Frequency,
    v_min: Voltage,
    v_max: Voltage,
    steps: u16,
}

impl VfCurve {
    /// Builds a curve over `[f_min, f_max]` × `[v_min, v_max]` with `steps`
    /// equal frequency increments.
    ///
    /// # Panics
    ///
    /// Panics if `f_min >= f_max`, `v_min > v_max`, or `steps == 0`.
    pub fn new(
        f_min: Frequency,
        f_max: Frequency,
        v_min: Voltage,
        v_max: Voltage,
        steps: u16,
    ) -> Self {
        assert!(f_min < f_max, "f_min must be below f_max");
        assert!(v_min <= v_max, "v_min must not exceed v_max");
        assert!(steps > 0, "need at least one step");
        VfCurve {
            f_min,
            f_max,
            v_min,
            v_max,
            steps,
        }
    }

    /// The paper's Table 1 configuration: 250 MHz–1.0 GHz, 0.65 V–1.20 V,
    /// 320 steps (≈2.34 MHz and ≈1.72 mV per step).
    pub fn mcd_default() -> Self {
        VfCurve::new(
            Frequency::from_mhz(250.0),
            Frequency::from_ghz(1.0),
            Voltage::from_volts(0.65),
            Voltage::from_volts(1.20),
            320,
        )
    }

    /// Number of steps between the minimum and maximum points (the number of
    /// valid indices is `steps() + 1`).
    pub fn steps(&self) -> u16 {
        self.steps
    }

    /// The highest valid index.
    pub fn max_index(&self) -> OpIndex {
        OpIndex(self.steps)
    }

    /// Frequency distance between adjacent operating points.
    pub fn freq_step(&self) -> Frequency {
        Frequency::from_hz((self.f_max.as_hz() - self.f_min.as_hz()) / self.steps as u64)
    }

    /// Voltage distance between adjacent operating points.
    pub fn volt_step(&self) -> Voltage {
        Voltage::from_volts((self.v_max.as_volts() - self.v_min.as_volts()) / self.steps as f64)
    }

    /// The operating point at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`VfCurve::max_index`].
    #[inline]
    pub fn point(&self, index: OpIndex) -> OpPoint {
        assert!(
            index.0 <= self.steps,
            "operating-point index {} out of range 0..={}",
            index.0,
            self.steps
        );
        let frac = index.0 as f64 / self.steps as f64;
        let hz = self.f_min.as_hz()
            + ((self.f_max.as_hz() - self.f_min.as_hz()) as f64 * frac).round() as u64;
        let volts = self.v_min.as_volts() + (self.v_max.as_volts() - self.v_min.as_volts()) * frac;
        OpPoint {
            index,
            frequency: Frequency::from_hz(hz),
            voltage: Voltage::from_volts(volts),
        }
    }

    /// The minimum operating point.
    pub fn min(&self) -> OpPoint {
        self.point(OpIndex(0))
    }

    /// The maximum operating point.
    #[inline]
    pub fn max(&self) -> OpPoint {
        self.point(self.max_index())
    }

    /// The operating point whose frequency is nearest to `f` (clamped to the
    /// curve's range).
    pub fn point_for_frequency(&self, f: Frequency) -> OpPoint {
        let f = f.as_hz().clamp(self.f_min.as_hz(), self.f_max.as_hz());
        let span = (self.f_max.as_hz() - self.f_min.as_hz()) as f64;
        let idx = ((f - self.f_min.as_hz()) as f64 / span * self.steps as f64).round() as u16;
        self.point(OpIndex(idx))
    }

    /// Voltage the regulator must supply for a *continuous* frequency `f`
    /// (linear interpolation; used while a transition is in flight).
    pub fn voltage_for_frequency(&self, f: Frequency) -> Voltage {
        let f = f.as_hz().clamp(self.f_min.as_hz(), self.f_max.as_hz());
        let span = (self.f_max.as_hz() - self.f_min.as_hz()) as f64;
        let frac = (f - self.f_min.as_hz()) as f64 / span;
        Voltage::from_volts(
            self.v_min.as_volts() + (self.v_max.as_volts() - self.v_min.as_volts()) * frac,
        )
    }
}

impl Default for VfCurve {
    fn default() -> Self {
        VfCurve::mcd_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_curve_matches_table1() {
        let c = VfCurve::mcd_default();
        assert_eq!(c.min().frequency, Frequency::from_mhz(250.0));
        assert_eq!(c.max().frequency, Frequency::from_ghz(1.0));
        assert!((c.min().voltage.as_volts() - 0.65).abs() < 1e-12);
        assert!((c.max().voltage.as_volts() - 1.20).abs() < 1e-12);
        // ~2.34 MHz per step, as discussed in Section 5.1.
        assert!((c.freq_step().as_mhz() - 2.34375).abs() < 1e-6);
    }

    #[test]
    fn point_roundtrip_via_frequency() {
        let c = VfCurve::mcd_default();
        for idx in [0u16, 1, 7, 160, 319, 320] {
            let p = c.point(OpIndex(idx));
            let q = c.point_for_frequency(p.frequency);
            assert_eq!(p.index, q.index, "index {idx} did not round-trip");
        }
    }

    #[test]
    fn frequency_clamps_to_range() {
        let c = VfCurve::mcd_default();
        assert_eq!(
            c.point_for_frequency(Frequency::from_mhz(100.0)).index,
            OpIndex(0)
        );
        assert_eq!(
            c.point_for_frequency(Frequency::from_ghz(2.0)).index,
            c.max_index()
        );
    }

    #[test]
    fn stepping_clamps() {
        let c = VfCurve::mcd_default();
        let max = c.max_index();
        assert_eq!(OpIndex(0).stepped(-5, max), OpIndex(0));
        assert_eq!(OpIndex(0).stepped(3, max), OpIndex(3));
        assert_eq!(max.stepped(10, max), max);
        assert_eq!(OpIndex(100).stepped(-100, max), OpIndex(0));
    }

    #[test]
    fn voltage_interpolation_is_linear() {
        let c = VfCurve::mcd_default();
        let v = c.voltage_for_frequency(Frequency::from_mhz(625.0));
        assert!((v.as_volts() - 0.925).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let c = VfCurve::mcd_default();
        let _ = c.point(OpIndex(321));
    }

    #[test]
    #[should_panic(expected = "f_min must be below f_max")]
    fn inverted_range_panics() {
        let _ = VfCurve::new(
            Frequency::from_ghz(1.0),
            Frequency::from_mhz(250.0),
            Voltage::from_volts(0.65),
            Voltage::from_volts(1.2),
            320,
        );
    }
}
