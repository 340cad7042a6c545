//! Synthetic workload generation for MCD DVFS studies.
//!
//! The HPCA 2005 paper drives its simulator with MediaBench and SPEC2000
//! binaries. Running those binaries requires an Alpha-ISA functional
//! simulator and the original input sets — neither of which is available
//! here — so this crate substitutes **seeded synthetic micro-op trace
//! generators**, one per named benchmark, whose *phase structure*
//! (instruction mix, dependency distances, memory locality, branch
//! behaviour, burst cadence) is designed to reproduce each benchmark's
//! published queue-occupancy character. The DVFS controllers under study
//! observe nothing but per-domain queue occupancies, so preserving the
//! occupancy dynamics preserves the experiment (see DESIGN.md, S3).
//!
//! # Example
//!
//! ```
//! use mcd_workloads::{registry, TraceGenerator};
//!
//! let spec = registry::by_name("epic_decode").expect("known benchmark");
//! let trace: Vec<_> = TraceGenerator::new(&spec, 10_000, 42).collect();
//! assert_eq!(trace.len(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod benchmarks;
pub mod generator;
pub mod mix;
pub mod phase;
pub mod registry;
pub mod stats;
pub mod synthetic;
pub mod uop;

pub use benchmarks::{BenchmarkSpec, Suite, VariabilityClass};
pub use generator::TraceGenerator;
pub use mix::InstructionMix;
pub use phase::PhaseSpec;
pub use stats::TraceStats;
pub use uop::{ExecDomain, MicroOp, OpClass};
