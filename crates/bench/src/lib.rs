//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 5), plus the Section 3/4 analyses and a set of
//! ablations. See DESIGN.md for the experiment index and EXPERIMENTS.md
//! for paper-vs-measured records.
//!
//! The `repro` binary dispatches one subcommand per artifact:
//!
//! ```text
//! cargo run --release -p mcd-bench --bin repro -- table1
//! cargo run --release -p mcd-bench --bin repro -- all --ops 600000
//! ```
//!
//! # Example
//!
//! ```
//! use mcd_bench::runner::{RunConfig, Scheme};
//!
//! let cfg = RunConfig::quick();
//! let result = mcd_bench::runner::run("adpcm_encode", Scheme::Adaptive, &cfg)
//!     .expect("known benchmark under a valid configuration");
//! assert!(result.instructions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod experiments;
pub mod fault;
pub mod parallel;
pub mod replay;
pub mod runner;
pub mod snapstore;
pub mod table;
pub mod trace_analyze;

pub use error::RunError;
pub use runner::{RunConfig, RunSet, Scheme};
pub use table::Table;
