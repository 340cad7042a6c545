//! Per-domain clock generation with jitter and DVFS-driven periods.

use mcd_power::{DvfsStyle, Frequency, OpIndex, Regulator, TimePs, VfCurve, Voltage};

use crate::jitter::JitterCursor;

/// An independently-generated domain clock.
///
/// Each edge is one local cycle. The period follows the domain's
/// [`Regulator`] (so it shifts continuously during an XScale-style
/// transition), and each edge is perturbed by normally-distributed jitter
/// clamped to ±3σ — the paper's "±10 ps, normally distributed".
#[derive(Debug, Clone)]
pub struct DomainClock {
    regulator: Regulator,
    next_edge: TimePs,
    /// Carries the sub-picosecond part of the period between edges so long
    /// runs do not accumulate rounding drift.
    frac_carry: f64,
    sigma_ps: f64,
    /// Cursor into the process-wide memoized normal stream for this
    /// clock's seed; `None` for jitterless clocks, which never draw
    /// (σ = 0 must not consume random numbers).
    jitter: Option<JitterCursor>,
    edges: u64,
    /// Frequency/voltage/period snapshot, valid while no transition is in
    /// flight. Domains sit at a steady operating point for almost every
    /// edge, so this spares the regulator interpolation and unit
    /// conversions on the simulator's hottest path. Holds exactly the
    /// values the per-call computation returns (never recomputed through a
    /// different formula), and is dropped whenever the regulator could be
    /// retargeted ([`DomainClock::regulator_mut`]).
    steady: Option<Steady>,
    /// The regulator's frequency at the last ticked edge, kept only while
    /// a transition was in flight there. The engine reads frequency,
    /// voltage and cycle times at the edge it just ticked several times
    /// per edge, and mid-transition each read would re-interpolate. Same
    /// lifetime rules as `steady`.
    moving: Option<Moving>,
    /// The regulator's one-step slew time, a function of the curve and
    /// style alone.
    single_step: TimePs,
}

/// Cached steady-state (non-transitioning) clock properties.
#[derive(Debug, Clone, Copy)]
struct Steady {
    freq: Frequency,
    voltage: Voltage,
    period_ps: f64,
    one_cycle: TimePs,
}

/// Mid-transition clock properties at one edge.
#[derive(Debug, Clone, Copy)]
struct Moving {
    at: TimePs,
    freq: Frequency,
    period_ps: f64,
}

impl DomainClock {
    /// Creates a clock starting at operating point `initial`, first edge at
    /// one period past time zero.
    pub fn new(
        curve: VfCurve,
        style: DvfsStyle,
        initial: OpIndex,
        sigma_ps: f64,
        seed: u64,
    ) -> Self {
        let regulator = Regulator::new(curve, style, initial);
        let period = regulator.frequency_at(TimePs::ZERO).period_ps();
        DomainClock {
            next_edge: TimePs::ZERO.advance_f64(period),
            frac_carry: 0.0,
            sigma_ps,
            jitter: (sigma_ps != 0.0).then(|| JitterCursor::new(seed)),
            edges: 0,
            steady: None,
            moving: None,
            single_step: regulator.single_step_time(),
            regulator,
        }
    }

    /// The cached steady-state snapshot, if valid at `now`; refreshes the
    /// cache when the regulator has settled.
    fn steady_at(&mut self, now: TimePs) -> Option<Steady> {
        if self.regulator.is_transitioning(now) {
            return None;
        }
        if let Some(s) = self.steady {
            return Some(s);
        }
        let freq = self.regulator.frequency_at(now);
        let period_ps = freq.period_ps();
        let s = Steady {
            freq,
            voltage: self.regulator.voltage_at(now),
            period_ps,
            one_cycle: TimePs::ZERO.advance_f64(period_ps),
        };
        self.steady = Some(s);
        Some(s)
    }

    /// Read-only variant of [`DomainClock::steady_at`] for `&self`
    /// accessors: uses the cache only if [`DomainClock::tick`] already
    /// filled it.
    #[inline]
    fn steady_ro(&self, now: TimePs) -> Option<Steady> {
        match self.steady {
            Some(s) if !self.regulator.is_transitioning(now) => Some(s),
            _ => None,
        }
    }

    /// The mid-transition memo, if [`DomainClock::tick`] filled it at
    /// `now`.
    #[inline]
    fn moving_at(&self, now: TimePs) -> Option<Moving> {
        self.moving.filter(|m| m.at == now)
    }

    /// The next clock edge.
    pub fn next_edge(&self) -> TimePs {
        self.next_edge
    }

    /// Total edges generated so far.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// The regulator driving this clock.
    pub fn regulator(&self) -> &Regulator {
        &self.regulator
    }

    /// Mutable access to the regulator (for DVFS retargeting). Drops the
    /// steady-state and mid-transition caches, since the caller may start
    /// or re-aim a transition.
    pub fn regulator_mut(&mut self) -> &mut Regulator {
        self.steady = None;
        self.moving = None;
        &mut self.regulator
    }

    /// Time to slew one curve step ([`Regulator::single_step_time`]).
    pub fn single_step_time(&self) -> TimePs {
        self.single_step
    }

    /// Effective frequency at `now`.
    #[inline]
    pub fn frequency_at(&self, now: TimePs) -> Frequency {
        if let Some(s) = self.steady_ro(now) {
            return s.freq;
        }
        match self.moving_at(now) {
            Some(m) => m.freq,
            None => self.regulator.frequency_at(now),
        }
    }

    /// Supply voltage at `now`.
    pub fn voltage_at(&self, now: TimePs) -> Voltage {
        if let Some(s) = self.steady_ro(now) {
            return s.voltage;
        }
        match self.moving_at(now) {
            // The regulator's own formula, on the frequency it would
            // interpolate.
            Some(m) => self.regulator.curve().voltage_for_frequency(m.freq),
            None => self.regulator.voltage_at(now),
        }
    }

    /// Consumes the pending edge and schedules the next one.
    ///
    /// Returns the time of the edge that just fired.
    ///
    /// # Panics
    ///
    /// Panics (debug) if called before the pending edge's time has been
    /// reached by the caller's event loop.
    pub fn tick(&mut self) -> TimePs {
        let edge = self.next_edge;
        self.edges += 1;
        let nominal = match self.steady_at(edge) {
            Some(s) => s.period_ps,
            None => {
                let freq = self.regulator.frequency_at(edge);
                let period_ps = freq.period_ps();
                self.moving = Some(Moving {
                    at: edge,
                    freq,
                    period_ps,
                });
                period_ps
            }
        };
        let period = nominal + self.frac_carry;
        let whole = period.floor();
        self.frac_carry = period - whole;
        let jitter = self.sample_jitter();
        // Jitter perturbs the edge position but never reorders edges.
        let step = (whole + jitter).max(1.0);
        self.next_edge = edge.advance_f64(step);
        edge
    }

    /// Local cycles that elapse per `duration` at the current frequency
    /// (used to convert latency-in-cycles to absolute times).
    #[inline]
    pub fn cycles_to_time(&self, cycles: u32, now: TimePs) -> TimePs {
        match self.steady_ro(now) {
            // `period * 1.0 == period`, so the cached one-cycle time is
            // exactly what the computation below rounds to.
            Some(s) if cycles == 1 => s.one_cycle,
            Some(s) => TimePs::ZERO.advance_f64(s.period_ps * cycles as f64),
            None => {
                let period = match self.moving_at(now) {
                    Some(m) => m.period_ps,
                    None => self.regulator.frequency_at(now).period_ps(),
                };
                TimePs::ZERO.advance_f64(period * cycles as f64)
            }
        }
    }

    /// Serializes the clock's evolving state. The VF curve, DVFS style, σ
    /// and jitter seed come from construction; the steady-state and
    /// mid-transition caches are pure functions of the regulator and are
    /// rebuilt lazily after restore.
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        self.regulator.save_state(w);
        w.put_u64(self.next_edge.as_ps());
        w.put_f64(self.frac_carry);
        w.put_u64(self.edges);
        match &self.jitter {
            None => w.put_bool(false),
            Some(cursor) => {
                w.put_bool(true);
                let (chunk_idx, pos) = cursor.position();
                w.put_u64(chunk_idx);
                w.put_u64(pos);
            }
        }
    }

    /// Restores state captured by [`DomainClock::save_state`] into a clock
    /// built with the same construction parameters.
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        self.regulator.load_state(r)?;
        self.next_edge = TimePs::new(r.take_u64()?);
        self.frac_carry = r.take_f64()?;
        self.edges = r.take_u64()?;
        let has_jitter = r.take_bool()?;
        if has_jitter != self.jitter.is_some() {
            return Err(mcd_snap::SnapError::Mismatch(format!(
                "jitter cursor presence mismatch: snapshot {has_jitter}, clock {}",
                self.jitter.is_some()
            )));
        }
        if let Some(cursor) = self.jitter.as_mut() {
            let chunk_idx = r.take_u64()?;
            let pos = r.take_u64()?;
            // A jittered clock draws exactly one value per edge, so the
            // edge count fixes the cursor. Checked before seeking, which
            // generates every chunk up to the position into the stream
            // all later runs share.
            if JitterCursor::draws_at(chunk_idx, pos) != Some(self.edges) {
                return Err(mcd_snap::SnapError::Mismatch(format!(
                    "jitter cursor at chunk {chunk_idx} pos {pos} does not match {} edges",
                    self.edges
                )));
            }
            cursor.seek(chunk_idx, pos)?;
        }
        self.steady = None;
        self.moving = None;
        Ok(())
    }

    /// Box–Muller normal sample, clamped to ±3σ.
    ///
    /// The standard-normal variate comes from the shared per-seed stream
    /// (see [`crate::jitter`]); only the σ scaling is per-clock. This is
    /// the same value, bit for bit, that drawing and transforming inline
    /// used to produce.
    fn sample_jitter(&mut self) -> f64 {
        match self.jitter.as_mut() {
            None => 0.0,
            Some(cursor) => {
                let z = cursor.next_z();
                (z * self.sigma_ps).clamp(-3.0 * self.sigma_ps, 3.0 * self.sigma_ps)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(sigma: f64) -> DomainClock {
        let curve = VfCurve::mcd_default();
        let max = curve.max_index();
        DomainClock::new(curve, DvfsStyle::XScale, max, sigma, 42)
    }

    #[test]
    fn jitterless_clock_ticks_at_exact_period() {
        let mut c = clock(0.0);
        let mut last = TimePs::ZERO;
        for i in 1..=100 {
            let edge = c.tick();
            assert_eq!(edge.as_ps(), i * 1000, "edge {i}");
            assert!(edge > last);
            last = edge;
        }
        assert_eq!(c.edges(), 100);
    }

    #[test]
    fn jitter_stays_within_bounds_and_preserves_order() {
        let mut c = clock(10.0 / 3.0);
        let mut last = TimePs::ZERO;
        for i in 1..=10_000u64 {
            let edge = c.tick();
            assert!(edge > last, "edges must be monotone");
            // Cumulative drift stays near nominal: each edge within ±10ps of
            // its neighbours' spacing.
            let spacing = (edge - last).as_ps() as i64;
            assert!((spacing - 1000).abs() <= 11, "edge {i}: spacing {spacing}");
            last = edge;
        }
    }

    #[test]
    fn frequency_change_lengthens_period() {
        let mut c = clock(0.0);
        // Warm up a few edges at 1 GHz.
        for _ in 0..5 {
            c.tick();
        }
        let now = c.next_edge();
        c.regulator_mut().request(OpIndex(0), now);
        // Drain the transition (~55 us) by ticking until past its end.
        let end = c.regulator().transition_end().expect("transition started");
        let mut edge = TimePs::ZERO;
        while edge < end {
            edge = c.tick();
        }
        let e1 = c.tick();
        let e2 = c.tick();
        // At 250 MHz the period is 4000 ps.
        assert_eq!((e2 - e1).as_ps(), 4000);
    }

    #[test]
    fn cycles_to_time_scales_with_frequency() {
        let c = clock(0.0);
        assert_eq!(c.cycles_to_time(12, TimePs::ZERO).as_ps(), 12_000);
        let curve = VfCurve::mcd_default();
        let slow = DomainClock::new(curve, DvfsStyle::XScale, OpIndex(0), 0.0, 1);
        assert_eq!(slow.cycles_to_time(12, TimePs::ZERO).as_ps(), 48_000);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = clock(3.0);
        let mut b = clock(3.0);
        for _ in 0..1000 {
            assert_eq!(a.tick(), b.tick());
        }
    }

    /// Ticks `c` through `n` edges, checking at each that the clock's
    /// accessors return exactly what the regulator computes there; returns
    /// how many of those edges were mid-transition.
    fn tick_and_check(c: &mut DomainClock, n: usize) -> usize {
        let mut moving = 0;
        for _ in 0..n {
            let e = c.tick();
            let reg = c.regulator();
            moving += usize::from(reg.is_transitioning(e));
            let f = reg.frequency_at(e);
            assert_eq!(c.frequency_at(e), f, "frequency at {e}");
            assert_eq!(
                c.voltage_at(e).as_volts().to_bits(),
                reg.voltage_at(e).as_volts().to_bits(),
                "voltage at {e}"
            );
            for cycles in [1u32, 12] {
                let want = TimePs::ZERO.advance_f64(f.period_ps() * cycles as f64);
                assert_eq!(c.cycles_to_time(cycles, e), want, "{cycles} cycles at {e}");
            }
            // Off the ticked edge the clock falls back to the regulator.
            let off = e + TimePs::new(1);
            assert_eq!(c.frequency_at(off), reg.frequency_at(off));
        }
        moving
    }

    /// The mid-transition memo is invisible: through a transition, a
    /// second retarget in flight, and a snapshot into a fresh clock.
    #[test]
    fn mid_transition_reads_match_the_regulator() {
        let mut c = clock(10.0 / 3.0);
        assert_eq!(c.single_step_time(), c.regulator().single_step_time());
        assert_eq!(tick_and_check(&mut c, 5), 0);
        let now = c.next_edge();
        c.regulator_mut().request(OpIndex(0), now);
        assert_eq!(tick_and_check(&mut c, 2_000), 2_000);

        let now = c.next_edge();
        let max = c.regulator().curve().max_index();
        c.regulator_mut().request(OpIndex(max.0 - 40), now);
        assert_eq!(tick_and_check(&mut c, 2_000), 2_000);

        let mut w = mcd_snap::SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = clock(10.0 / 3.0);
        restored
            .load_state(&mut mcd_snap::SnapReader::new(&bytes))
            .expect("round trip");
        assert_eq!(restored.single_step_time(), c.single_step_time());
        // Both run out the transition and settle, edge for edge.
        let end = c.regulator().transition_end().expect("in flight");
        let mut total = 0;
        while c.next_edge() < end + TimePs::from_us(1) {
            let expect = c.next_edge();
            total += tick_and_check(&mut c, 1);
            assert_eq!(tick_and_check(&mut restored, 1), usize::from(expect < end));
            assert_eq!(restored.next_edge(), c.next_edge());
        }
        assert!(total > 0);
        assert!(!c.regulator().is_transitioning(c.next_edge()));
    }

    #[test]
    fn long_run_has_no_systematic_drift() {
        let mut c = clock(10.0 / 3.0);
        let mut edge = TimePs::ZERO;
        let n = 100_000u64;
        for _ in 0..n {
            edge = c.tick();
        }
        // Mean period should be 1000 ps within a tiny tolerance.
        let mean = edge.as_ps() as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 0.5, "mean period {mean}");
    }
}
