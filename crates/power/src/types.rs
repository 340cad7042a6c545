//! Strongly-typed physical units used throughout the MCD simulator.
//!
//! The newtypes here follow the "static distinctions" pattern: simulated
//! time, clock frequency, supply voltage and consumed energy are all plain
//! numbers underneath, but mixing them up is a compile error.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in integer picoseconds.
///
/// One picosecond is fine enough to resolve the paper's 300 ps
/// synchronization window and ±10 ps clock jitter, while `u64` picoseconds
/// cover ~214 days of simulated time — far beyond any experiment here.
///
/// ```
/// use mcd_power::TimePs;
/// let t = TimePs::from_ns(4) + TimePs::new(500);
/// assert_eq!(t.as_ps(), 4_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimePs(u64);

impl TimePs {
    /// Time zero (simulation start).
    pub const ZERO: TimePs = TimePs(0);

    /// Creates a time from raw picoseconds.
    pub const fn new(ps: u64) -> Self {
        TimePs(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        TimePs(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        TimePs(us * 1_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in nanoseconds (lossy).
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time in microseconds (lossy).
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time in seconds (lossy).
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    pub fn saturating_sub(self, rhs: TimePs) -> TimePs {
        TimePs(self.0.saturating_sub(rhs.0))
    }

    /// `self` advanced by a fractional number of picoseconds, rounded to the
    /// nearest integer picosecond.
    pub fn advance_f64(self, ps: f64) -> TimePs {
        debug_assert!(ps >= 0.0, "cannot advance time backwards");
        TimePs(self.0 + ps.round() as u64)
    }
}

impl Add for TimePs {
    type Output = TimePs;
    fn add(self, rhs: TimePs) -> TimePs {
        TimePs(self.0 + rhs.0)
    }
}

impl AddAssign for TimePs {
    fn add_assign(&mut self, rhs: TimePs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimePs {
    type Output = TimePs;
    fn sub(self, rhs: TimePs) -> TimePs {
        TimePs(self.0 - rhs.0)
    }
}

impl SubAssign for TimePs {
    fn sub_assign(&mut self, rhs: TimePs) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimePs {
    type Output = TimePs;
    fn mul(self, rhs: u64) -> TimePs {
        TimePs(self.0 * rhs)
    }
}

impl fmt::Display for TimePs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3} us", self.as_us())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} ns", self.as_ns())
        } else {
            write!(f, "{} ps", self.0)
        }
    }
}

/// A clock frequency, stored in integer hertz.
///
/// The MCD operating range (250 MHz–1.0 GHz in 320 steps of 2.34375 MHz) is
/// exactly representable in integer hertz, so operating points compare
/// exactly.
///
/// ```
/// use mcd_power::Frequency;
/// let f = Frequency::from_mhz(500.0);
/// assert_eq!(f.as_hz(), 500_000_000);
/// assert!((f.period_ps() - 2000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from raw hertz.
    pub const fn from_hz(hz: u64) -> Self {
        Frequency(hz)
    }

    /// Creates a frequency from megahertz (rounded to the nearest hertz).
    pub fn from_mhz(mhz: f64) -> Self {
        Frequency((mhz * 1e6).round() as u64)
    }

    /// Creates a frequency from gigahertz (rounded to the nearest hertz).
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency((ghz * 1e9).round() as u64)
    }

    /// Raw hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Frequency in megahertz.
    pub fn as_mhz(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Frequency in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Clock period in (fractional) picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[inline]
    pub fn period_ps(self) -> f64 {
        assert!(self.0 > 0, "zero frequency has no period");
        1e12 / self.0 as f64
    }

    /// Fraction of `max` this frequency represents (the paper's relative
    /// frequency `f̂ = f / f_max`).
    pub fn relative_to(self, max: Frequency) -> f64 {
        self.0 as f64 / max.0 as f64
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} MHz", self.as_mhz())
    }
}

/// A supply voltage in volts.
///
/// Stored as `f64`; exact identity of operating points is tracked via
/// [`crate::OpIndex`], not by comparing voltages.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Voltage(f64);

impl Voltage {
    /// Creates a voltage from volts.
    ///
    /// # Panics
    ///
    /// Panics if `volts` is negative or non-finite.
    #[inline]
    pub fn from_volts(volts: f64) -> Self {
        assert!(volts.is_finite() && volts >= 0.0, "invalid voltage {volts}");
        Voltage(volts)
    }

    /// Creates a voltage from millivolts.
    pub fn from_mv(mv: f64) -> Self {
        Voltage::from_volts(mv / 1e3)
    }

    /// Volts.
    pub const fn as_volts(self) -> f64 {
        self.0
    }

    /// Millivolts.
    pub fn as_mv(self) -> f64 {
        self.0 * 1e3
    }

    /// `(self / reference)^2` — the CMOS dynamic-energy scaling factor.
    pub fn squared_ratio(self, reference: Voltage) -> f64 {
        let r = self.0 / reference.0;
        r * r
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mV", self.as_mv())
    }
}

/// An amount of energy in joules.
///
/// ```
/// use mcd_power::Energy;
/// let e = Energy::from_pj(1500.0);
/// assert!((e.as_nj() - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    pub const fn from_joules(j: f64) -> Self {
        Energy(j)
    }

    /// Creates an energy from picojoules.
    pub fn from_pj(pj: f64) -> Self {
        Energy(pj / 1e12)
    }

    /// Joules.
    pub const fn as_joules(self) -> f64 {
        self.0
    }

    /// Nanojoules.
    pub fn as_nj(self) -> f64 {
        self.0 * 1e9
    }

    /// Picojoules.
    pub fn as_pj(self) -> f64 {
        self.0 * 1e12
    }

    /// Millijoules.
    pub fn as_mj(self) -> f64 {
        self.0 * 1e3
    }

    /// Scales the energy by a dimensionless factor.
    pub fn scaled(self, factor: f64) -> Energy {
        Energy(self.0 * factor)
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |acc, e| acc + e)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e-3 {
            write!(f, "{:.3} mJ", self.as_mj())
        } else if self.0.abs() >= 1e-6 {
            write!(f, "{:.3} uJ", self.0 * 1e6)
        } else {
            write!(f, "{:.3} nJ", self.as_nj())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_construction_and_conversion() {
        assert_eq!(TimePs::from_ns(1).as_ps(), 1000);
        assert_eq!(TimePs::from_us(1).as_ps(), 1_000_000);
        assert_eq!(TimePs::new(2500).as_ns(), 2.5);
        assert_eq!(TimePs::from_us(3).as_us(), 3.0);
        assert_eq!(TimePs::from_us(2).as_secs(), 2e-6);
    }

    #[test]
    fn time_arithmetic() {
        let a = TimePs::new(100);
        let b = TimePs::new(40);
        assert_eq!((a + b).as_ps(), 140);
        assert_eq!((a - b).as_ps(), 60);
        assert_eq!(b.saturating_sub(a), TimePs::ZERO);
        assert_eq!((a * 3).as_ps(), 300);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ps(), 140);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn time_advance_rounds_to_nearest() {
        assert_eq!(TimePs::new(10).advance_f64(1.4).as_ps(), 11);
        assert_eq!(TimePs::new(10).advance_f64(1.6).as_ps(), 12);
    }

    #[test]
    fn time_display_picks_unit() {
        assert_eq!(format!("{}", TimePs::new(12)), "12 ps");
        assert_eq!(format!("{}", TimePs::from_ns(2)), "2.000 ns");
        assert_eq!(format!("{}", TimePs::from_us(5)), "5.000 us");
    }

    #[test]
    fn frequency_periods() {
        assert_eq!(Frequency::from_ghz(1.0).period_ps(), 1000.0);
        assert_eq!(Frequency::from_mhz(250.0).period_ps(), 4000.0);
    }

    #[test]
    fn frequency_relative() {
        let max = Frequency::from_ghz(1.0);
        assert_eq!(Frequency::from_mhz(500.0).relative_to(max), 0.5);
    }

    #[test]
    #[should_panic(expected = "zero frequency")]
    fn zero_frequency_period_panics() {
        let _ = Frequency::from_hz(0).period_ps();
    }

    #[test]
    fn voltage_scaling() {
        let v = Voltage::from_volts(0.6);
        let vmax = Voltage::from_volts(1.2);
        assert!((v.squared_ratio(vmax) - 0.25).abs() < 1e-12);
        assert_eq!(Voltage::from_mv(650.0).as_volts(), 0.65);
    }

    #[test]
    #[should_panic(expected = "invalid voltage")]
    fn negative_voltage_panics() {
        let _ = Voltage::from_volts(-0.1);
    }

    #[test]
    fn energy_arithmetic_and_sum() {
        let e1 = Energy::from_pj(500.0);
        let e2 = Energy::from_pj(250.0);
        assert!(((e1 + e2).as_pj() - 750.0).abs() < 1e-9);
        assert!(((e1 - e2).as_pj() - 250.0).abs() < 1e-9);
        assert!((e1.scaled(2.0).as_pj() - 1000.0).abs() < 1e-9);
        assert!(((e1 * 2.0).as_pj() - 1000.0).abs() < 1e-9);
        assert!((e1 / e2 - 2.0).abs() < 1e-12);
        let total: Energy = [e1, e2, e2].into_iter().sum();
        assert!((total.as_pj() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn energy_display_picks_unit() {
        assert!(format!("{}", Energy::from_pj(10.0)).ends_with("nJ"));
        assert!(format!("{}", Energy::from_joules(0.5)).ends_with("mJ"));
        assert!(format!("{}", Energy::from_joules(5e-5)).ends_with("uJ"));
    }
}
