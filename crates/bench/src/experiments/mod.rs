//! One module per reproduced artifact (see DESIGN.md §3 for the index).

pub mod ablations;
pub mod bakeoff;
pub mod extensions;
pub mod fig7;
pub mod fig8;
pub mod hardware;
pub mod headline;
pub mod intervals;
pub mod schemes;
pub mod stability;
pub mod table1;
pub mod table2;

use std::time::Instant;

use crate::checkpoint::CompletedRun;
use crate::error::RunError;
use crate::runner::{RunConfig, RunSet};

/// An experiment's driver: renders its report from runs on the set.
type Runner = fn(&RunSet, &RunConfig) -> Result<String, RunError>;

/// The experiment registry: every id the `repro` binary accepts, in
/// `repro all` order, with its [`Kind`] and driver. [`ALL`], [`kind`],
/// [`run_on`] and [`complete`] all read this one table.
#[rustfmt::skip]
const REGISTRY: &[(&str, Kind, Runner)] = &[
    ("table1", Kind::Analysis, |_, cfg| Ok(table1::run(cfg))),
    ("table2", Kind::Simulation, table2::run),
    ("fig7", Kind::Simulation, fig7::run),
    ("fig8", Kind::Simulation, fig8::run),
    ("fig9", Kind::Simulation, headline::run),
    ("fig10", Kind::Simulation, schemes::run),
    ("fig11", Kind::Simulation, schemes::run_fast_group),
    ("table3", Kind::Simulation, intervals::run),
    ("stability", Kind::Analysis, |_, _| Ok(stability::run_roots())),
    ("overshoot", Kind::Analysis, |_, _| Ok(stability::run_overshoot())),
    ("sampling", Kind::Analysis, |_, _| Ok(stability::run_sampling())),
    ("bandwidth", Kind::Analysis, |_, _| Ok(stability::run_bandwidth())),
    ("hardware", Kind::Analysis, |_, _| Ok(hardware::run())),
    ("ablate-qref", Kind::Simulation, ablations::run_qref),
    ("ablate-step", Kind::Simulation, ablations::run_step),
    ("ablate-wavelength", Kind::Simulation, extensions::run_wavelength),
    ("ablate-sync", Kind::Simulation, extensions::run_sync),
    ("ablate-static", Kind::Simulation, extensions::run_static),
    ("ext-centralized", Kind::Simulation, extensions::run_centralized),
    ("energy-breakdown", Kind::Simulation, extensions::run_energy_breakdown),
    ("bakeoff", Kind::Simulation, bakeoff::run),
    ("resonance", Kind::Simulation, bakeoff::run_resonance),
];

/// Every experiment id accepted by the `repro` binary.
pub const ALL: [&str; REGISTRY.len()] = {
    let mut ids = [""; REGISTRY.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = REGISTRY[i].0;
        i += 1;
    }
    ids
};

/// What an experiment does with the machine: drives cycle-level
/// simulations, or evaluates closed-form / tabulated analysis only.
///
/// The benchmark-regression gate keys off this: analysis experiments run
/// zero simulations, so their throughput numbers are meaningless and
/// their wall-clock is pure formatting noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Runs cycle-level simulations on the [`RunSet`].
    Simulation,
    /// Closed-form or tabulated analysis; no simulations.
    Analysis,
}

impl Kind {
    /// Lower-case label used in the bench JSON record.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Simulation => "simulation",
            Kind::Analysis => "analysis",
        }
    }
}

/// The registry entry for `id`.
fn entry(id: &str) -> Result<&'static (&'static str, Kind, Runner), RunError> {
    REGISTRY
        .iter()
        .find(|e| e.0 == id)
        .ok_or_else(|| RunError::Config(format!("unknown experiment id {id}")))
}

/// The registry id a user-facing experiment name refers to (`headline`
/// is a friendlier alias for the reconstructed Figure 9); `None` for
/// unknown names.
pub fn resolve(name: &str) -> Option<&'static str> {
    let name = if name == "headline" { "fig9" } else { name };
    entry(name).ok().map(|e| e.0)
}

/// Classifies an experiment id (see [`Kind`]); `None` for unknown ids.
pub fn kind(id: &str) -> Option<Kind> {
    entry(id).ok().map(|e| e.1)
}

/// Runs the experiment named `id` on `rs` and returns its report, or a
/// typed [`RunError`] describing why it could not be produced (unknown
/// id, bad configuration, diverged run, …).
pub fn run_on(rs: &RunSet, id: &str, cfg: &RunConfig) -> Result<String, RunError> {
    crate::fault::injected_fault(id)?;
    (entry(id)?.2)(rs, cfg)
}

/// Runs the experiment named `id` under its own tag on `rs` and builds
/// its record — the one rule behind every [`CompletedRun`], whether
/// `repro` writes it or `mcd-serve` answers with it.
///
/// The tag is cleared first, so a retried attempt does not double-charge
/// its first try. The counters and the per-run p50/p99 are the tag's
/// (exact nearest-rank values over its segment samples); the memoized
/// baseline computes the experiment triggers are charged to the set's
/// totals only, since which requester pays for one is a scheduling
/// accident. `wall_s` is the tag's summed compute for a simulation
/// experiment — the driver's elapsed clock would include other
/// experiments' runs interleaving on a shared pool — and the elapsed
/// time for one that ran no simulation of its own.
pub fn complete(rs: &RunSet, id: &str, cfg: &RunConfig) -> Result<CompletedRun, RunError> {
    let &(id, kind, _) = entry(id)?;
    rs.reset_tag(id);
    let start = Instant::now();
    let report = rs.with_tag(id, || run_on(rs, id, cfg))?;
    let elapsed_s = start.elapsed().as_secs_f64();
    let exp = rs.tag_stats(id);
    let wall_s = if kind == Kind::Simulation && exp.compute_us > 0 {
        exp.compute_s()
    } else {
        elapsed_s
    };
    Ok(CompletedRun {
        report,
        kind: kind.label().to_string(),
        wall_s,
        runs: exp.stats.runs,
        instructions: exp.stats.instructions,
        baseline_requests: exp.stats.baseline_requests,
        events_processed: exp.stats.events_processed,
        cycles_skipped: exp.stats.cycles_skipped,
        run_wall_p50_s: exp.run_wall_p50_s(),
        run_wall_p99_s: exp.run_wall_p99_s(),
    })
}
