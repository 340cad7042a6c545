//! Trace tooling tour: summarize a generated trace, simulate it, and
//! analyze the queue-occupancy series with the spectral toolkit
//! (spectrum, band variance, autocorrelation).
//!
//! ```text
//! cargo run --release --example trace_tools
//! ```

use mcd_analysis::spectrum::{dominant_wavelength, multitaper};
use mcd_analysis::WorkloadClassifier;
use mcd_sim::{DomainId, Machine, SimConfig};
use mcd_workloads::{synthetic, TraceGenerator, TraceStats};

fn main() {
    // A square wave with a 30k-instruction period.
    let spec = synthetic::square_wave(30_000, 0.5);
    let ops = 240_000;

    let trace: Vec<_> = TraceGenerator::new(&spec, ops, 3).collect();
    let stats = TraceStats::from_trace(&trace);
    println!(
        "{} ops: fp fraction {:.3}, mem fraction {:.3}, mean dep distance {:.1}\n",
        trace.len(),
        stats.fp_fraction(),
        stats.mem_fraction(),
        stats.mean_dep_distance
    );

    // Simulate with traces on, then analyze the FP queue's occupancy.
    let result = Machine::new(SimConfig::default().with_traces(), trace.into_iter()).run();
    let occupancy = result
        .metrics
        .occupancy_series(DomainId::Fp.backend_index());
    println!("FP queue: {} samples recorded", occupancy.len());

    let spectrum = multitaper(&occupancy, 4);
    println!(
        "total occupancy variance: {:.2} entries^2",
        spectrum.total_variance()
    );

    let c = WorkloadClassifier::default().classify(&occupancy);
    println!(
        "fast-band variance: {:.2} entries^2 -> {}",
        c.fast_variance,
        if c.is_fast {
            "FAST workload"
        } else {
            "slow workload"
        }
    );

    if let Some(w) = dominant_wavelength(&occupancy) {
        println!(
            "dominant wavelength from autocorrelation: ~{w:.0} samples \
             (~{:.0}k instructions at the observed rate)",
            w * result.instructions as f64 / result.metrics.samples as f64 / 1e3
        );
    }
}
