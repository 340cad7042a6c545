//! Precisely-shaped synthetic workloads for controlled experiments.
//!
//! The named benchmarks model real programs; the constructors here build
//! workloads with *exact* variation wavelengths, which is what the
//! wavelength-sweep experiments need (how does each DVFS scheme's benefit
//! change as workload variation gets faster?).

use crate::benchmarks::{BenchmarkSpec, Suite, VariabilityClass};
use crate::mix::InstructionMix;
use crate::phase::PhaseSpec;

/// A square-wave workload: FP-burst phases alternating with integer
/// phases, with a full period of `period_ops` dynamic instructions and
/// the given duty cycle (fraction of the period spent in the FP burst).
///
/// # Panics
///
/// Panics unless `period_ops >= 200` and `duty` is in `(0, 1)`.
pub fn square_wave(period_ops: u64, duty: f64) -> BenchmarkSpec {
    assert!(period_ops >= 200, "period too short to form two phases");
    assert!(duty > 0.0 && duty < 1.0, "duty must be inside (0, 1)");
    let hi = ((period_ops as f64 * duty).round() as u64).max(100);
    let lo = (period_ops - hi).max(100);
    BenchmarkSpec {
        name: "synthetic_square",
        suite: Suite::MediaBench,
        description: "square-wave FP/integer alternation with exact wavelength",
        phases: vec![
            PhaseSpec::new("burst", InstructionMix::fp_burst(), hi)
                .with_dep_mean(8.0)
                .with_misses(0.03, 0.2),
            PhaseSpec::new("quiet", InstructionMix::integer_kernel(), lo)
                .with_dep_mean(4.0)
                .with_misses(0.02, 0.2),
        ],
        loops: true,
        expected_variability: if period_ops <= 120_000 {
            VariabilityClass::Fast
        } else {
            VariabilityClass::Slow
        },
    }
}

/// The μ–f resonance probe: one steady integer-bound phase with a fixed
/// dependency structure, used to measure throughput against pinned
/// operating points (the `repro resonance` experiment).
///
/// A *flat* workload is the point: with no phase variation, any
/// throughput structure observed while sweeping the pinned back-end
/// frequency comes from the synchronization interface itself — the
/// clock-edge coincidence patterns at rational frequency ratios (5:8 at
/// 625 MHz on the default curve) that the PR 3 investigation root-caused
/// and the default ±10 ps clock jitter normally breaks up.
pub fn resonance_probe() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "synthetic_resonance",
        suite: Suite::MediaBench,
        description: "steady integer phase for rational-ratio resonance sweeps",
        phases: vec![
            PhaseSpec::new("steady", InstructionMix::integer_typical(), 10_000)
                .with_dep_mean(4.0)
                .with_misses(0.01, 0.2),
        ],
        loops: true,
        expected_variability: VariabilityClass::Slow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::stats::TraceStats;

    #[test]
    fn square_wave_period_is_exact() {
        let b = square_wave(20_000, 0.4);
        assert_eq!(b.cycle_length(), 20_000);
        assert_eq!(b.phases[0].len_ops, 8_000);
        assert_eq!(b.phases[1].len_ops, 12_000);
        assert!(b.loops);
    }

    #[test]
    fn square_wave_alternates_fp() {
        let b = square_wave(10_000, 0.5);
        let ops: Vec<_> = TraceGenerator::new(&b, 10_000, 1).collect();
        let first_half = TraceStats::from_trace(&ops[..5_000]);
        let second_half = TraceStats::from_trace(&ops[5_000..]);
        assert!(first_half.fp_fraction() > 0.3);
        assert!(second_half.fp_fraction() < 0.05);
    }

    #[test]
    fn short_periods_are_designed_fast() {
        assert_eq!(
            square_wave(20_000, 0.5).expected_variability,
            VariabilityClass::Fast
        );
        assert_eq!(
            square_wave(400_000, 0.5).expected_variability,
            VariabilityClass::Slow
        );
    }

    #[test]
    #[should_panic(expected = "duty must be inside")]
    fn bad_duty_panics() {
        let _ = square_wave(10_000, 1.0);
    }

    #[test]
    fn resonance_probe_is_flat() {
        let b = resonance_probe();
        assert!(b.loops, "the probe must sustain any measurement length");
        assert_eq!(
            b.phases.len(),
            1,
            "phase variation would confound the sweep"
        );
        let ops: Vec<_> = TraceGenerator::new(&b, 20_000, 1).collect();
        let first = TraceStats::from_trace(&ops[..10_000]);
        let second = TraceStats::from_trace(&ops[10_000..]);
        assert!(first.fp_fraction() < 0.05);
        assert!((first.fp_fraction() - second.fp_fraction()).abs() < 0.02);
    }
}
