//! Closed-loop frequency response: what workload-variation wavelengths can
//! the controller actually track?
//!
//! From the linearized system (12), the transfer function from arrival
//! rate λ to service rate μ is
//!
//! ```text
//! H(s) = (K_l·s + K_m) / (s² + K_l·s + K_m)
//! ```
//!
//! `|H(jω)| ≈ 1` means the loop tracks a variation at angular frequency ω
//! (service follows load); `|H| ≪ 1` means the variation is too fast and
//! the loop averages over it. The −3 dB point is the loop's *tracking
//! bandwidth* — the analytic counterpart of the empirical wavelength sweep
//! (`repro ablate-wavelength`).

use crate::stability::SystemParams;

/// `|H(jω)|` of the λ→μ transfer at angular frequency `omega`.
///
/// # Panics
///
/// Panics if `omega` is negative or non-finite.
pub fn magnitude(sys: &SystemParams, omega: f64) -> f64 {
    assert!(
        omega.is_finite() && omega >= 0.0,
        "invalid frequency {omega}"
    );
    let km = sys.k_m();
    let kl = sys.k_l();
    // Numerator: K_m + jω·K_l ; denominator: (K_m − ω²) + jω·K_l.
    let num = (km * km + omega * omega * kl * kl).sqrt();
    let den_re = km - omega * omega;
    let den = (den_re * den_re + omega * omega * kl * kl).sqrt();
    num / den
}

/// The −3 dB tracking bandwidth: the lowest ω at which `|H|` drops below
/// `1/√2` and stays below (bisection after a geometric scan).
pub fn tracking_bandwidth(sys: &SystemParams) -> f64 {
    let target = std::f64::consts::FRAC_1_SQRT_2;
    // |H(0)| = 1; scan up geometrically until below target.
    let mut hi = 1e-9;
    while magnitude(sys, hi) >= target {
        hi *= 2.0;
        assert!(
            hi < 1e12,
            "response never rolls off — degenerate parameters?"
        );
    }
    // The last scanned point still above target brackets the crossing.
    let mut lo = hi / 2.0;
    for _ in 0..80 {
        let mid = (lo + hi) / 2.0;
        if magnitude(sys, mid) >= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The shortest trackable wavelength `2π/ω_bw` in the system's time units.
pub fn min_trackable_wavelength(sys: &SystemParams) -> f64 {
    2.0 * std::f64::consts::PI / tracking_bandwidth(sys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_gain_is_unity() {
        let sys = SystemParams::paper_default();
        assert!((magnitude(&sys, 0.0) - 1.0).abs() < 1e-12);
        // Very slow variations track almost perfectly.
        assert!(magnitude(&sys, 1e-6) > 0.999);
    }

    #[test]
    fn high_frequencies_roll_off() {
        let sys = SystemParams::paper_default();
        let mid = magnitude(&sys, 1.0);
        let high = magnitude(&sys, 100.0);
        assert!(high < mid);
        // Single-pole-like rolloff at high ω: |H| ≈ K_l/ω.
        assert!((high - sys.k_l() / 100.0).abs() / high < 0.05);
    }

    #[test]
    fn bandwidth_brackets_the_minus_3db_point() {
        let sys = SystemParams::paper_default();
        let bw = tracking_bandwidth(&sys);
        assert!(magnitude(&sys, bw * 0.98) >= std::f64::consts::FRAC_1_SQRT_2 - 1e-6);
        assert!(magnitude(&sys, bw * 1.02) < std::f64::consts::FRAC_1_SQRT_2 + 1e-3);
    }

    #[test]
    fn smaller_delays_widen_the_bandwidth_remark2() {
        let slow = SystemParams::paper_default();
        let fast = SystemParams {
            t_m0: 12.5,
            t_l0: 2.0,
            ..slow
        };
        assert!(tracking_bandwidth(&fast) > tracking_bandwidth(&slow));
        assert!(min_trackable_wavelength(&fast) < min_trackable_wavelength(&slow));
    }

    #[test]
    fn paper_setting_tracks_only_long_wavelengths() {
        // With K_l = 0.5 the loop's bandwidth is below one radian per
        // sampling period: variations must span many samples to be
        // tracked, consistent with the empirical sweep.
        let sys = SystemParams::paper_default();
        let min_lambda = min_trackable_wavelength(&sys);
        assert!(
            min_lambda > 5.0,
            "minimum trackable wavelength {min_lambda} suspiciously short"
        );
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn negative_frequency_panics() {
        let _ = magnitude(&SystemParams::paper_default(), -1.0);
    }
}
