//! Ablations beyond the paper's figures: the design knobs Section 3 calls
//! out (`q_ref` as the energy/performance trade-off; step size for
//! XScale- vs Transmeta-style DVFS).

use mcd_power::DvfsStyle;

use crate::error::RunError;
use crate::runner::{pct, run_machine, Outcome, RunConfig, RunSet, Scheme};
use crate::table::Table;

/// A small representative benchmark set (one per behaviour class).
pub const REPRESENTATIVES: [&str; 4] = ["gzip", "wupwise", "mpeg2_decode", "mcf"];

/// The `q_ref` trade-off: raising the reference occupancy is more
/// aggressive about energy, at a performance cost (Section 3.1).
pub fn run_qref(rs: &RunSet, cfg: &RunConfig) -> Result<String, RunError> {
    const SCALES: [f64; 5] = [0.5, 0.75, 1.0, 1.5, 2.0];
    let mut tasks = Vec::with_capacity(SCALES.len() * REPRESENTATIVES.len());
    for &scale in &SCALES {
        for &n in &REPRESENTATIVES {
            tasks.push((scale, n));
        }
    }
    // q_ref only affects the adaptive controller, so every scale shares
    // the same four memoized baselines.
    let outcomes = rs
        .par(tasks, |(scale, n)| {
            let base = rs.baseline(n, cfg)?;
            let mut c = cfg.clone();
            c.q_ref_scale = scale;
            Ok(Outcome::versus(&rs.run(n, Scheme::Adaptive, &c)?, &base))
        })
        .into_iter()
        .collect::<Result<Vec<_>, RunError>>()?;

    let mut t = Table::new([
        "q_ref scale",
        "Energy savings",
        "Perf degradation",
        "EDP gain",
    ]);
    for (scale, os) in SCALES
        .iter()
        .zip(outcomes.chunks_exact(REPRESENTATIVES.len()))
    {
        let o = Outcome::mean(os);
        t.row([
            format!("{scale:.2}"),
            pct(o.energy_savings),
            pct(o.perf_degradation),
            pct(o.edp_improvement),
        ]);
    }
    Ok(format!(
        "Ablation: reference queue occupancy (energy/performance trade-off knob)\n\
         benchmarks: {REPRESENTATIVES:?}\n\n{}",
        t.render()
    ))
}

/// Step-size ablation, including a Transmeta-style configuration
/// (large steps, stall-during-transition).
pub fn run_step(rs: &RunSet, cfg: &RunConfig) -> Result<String, RunError> {
    const POINTS: [(DvfsStyle, i32); 5] = [
        (DvfsStyle::XScale, 1),
        (DvfsStyle::XScale, 4),
        (DvfsStyle::XScale, 16),
        (DvfsStyle::Transmeta, 16),
        (DvfsStyle::Transmeta, 64),
    ];
    let mut tasks = Vec::with_capacity(POINTS.len() * REPRESENTATIVES.len());
    for &point in &POINTS {
        for &n in &REPRESENTATIVES {
            tasks.push((point, n));
        }
    }
    // Larger steps need higher trigger thresholds (Section 3's
    // switching-cost argument): scale the delays with the step.
    let outcomes = rs
        .par(tasks, |((style, step), n)| {
            use mcd_adaptive::{AdaptiveConfig, AdaptiveDvfsController};
            use mcd_sim::{DomainId, Machine};
            use mcd_workloads::{registry, TraceGenerator};
            let mut c = cfg.clone();
            c.sim.dvfs_style = style;
            let base = rs.baseline(n, &c)?;
            let spec = registry::by_name(n)
                .ok_or_else(|| RunError::Workload(format!("unknown benchmark {n}")))?;
            let trace =
                TraceGenerator::try_new(&spec, c.ops, c.seed).map_err(RunError::Workload)?;
            let mut m = Machine::try_new(c.sim.clone(), trace)?;
            for &d in &DomainId::BACKEND {
                let acfg = AdaptiveConfig::for_domain(d)
                    .with_step(step)
                    .with_delays(50.0 * step as f64, 8.0 * step as f64);
                m = m.with_controller(d, Box::new(AdaptiveDvfsController::new(acfg)));
            }
            let label = format!(
                "ablate-step|{n}|style={style:?}|step={step}|ops={}|seed={}",
                c.ops, c.seed
            );
            let run = rs.run_custom(&label, |sink| run_machine(m, sink))?;
            Ok(Outcome::versus(&run, &base))
        })
        .into_iter()
        .collect::<Result<Vec<_>, RunError>>()?;

    let mut t = Table::new([
        "style",
        "step",
        "Energy savings",
        "Perf degradation",
        "EDP gain",
    ]);
    for ((style, step), os) in POINTS
        .iter()
        .zip(outcomes.chunks_exact(REPRESENTATIVES.len()))
    {
        let o = Outcome::mean(os);
        t.row([
            format!("{style:?}"),
            step.to_string(),
            pct(o.energy_savings),
            pct(o.perf_degradation),
            pct(o.edp_improvement),
        ]);
    }
    Ok(format!(
        "Ablation: action step size and DVFS style (Section 3's switching-cost trade-off)\n\
         benchmarks: {REPRESENTATIVES:?}\n\n{}\n\
         Note: Transmeta-style DVFS stalls the domain for the whole (10x slower)\n\
         transition, so at sub-millisecond workload timescales *any* triggered\n\
         action is ruinous — exactly Section 3's warning that slow-switching\n\
         implementations need coarse steps and high trigger thresholds, and are\n\
         only viable when workload phases last tens of milliseconds.\n",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qref_ablation_renders_all_scales() {
        let rs = RunSet::new(crate::parallel::default_jobs());
        let out = run_qref(&rs, &RunConfig::quick().with_ops(10_000)).expect("valid sweep");
        assert!(out.contains("0.50") && out.contains("2.00"));
    }

    #[test]
    fn step_ablation_includes_transmeta() {
        let rs = RunSet::new(crate::parallel::default_jobs());
        let out = run_step(&rs, &RunConfig::quick().with_ops(10_000)).expect("valid sweep");
        assert!(out.contains("Transmeta"));
    }
}
