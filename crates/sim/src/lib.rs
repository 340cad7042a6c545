//! Cycle-level multiple-clock-domain (MCD) processor simulator.
//!
//! This crate is the reproduction's substitute for the paper's
//! SimpleScalar + Wattch + MCD-extension stack (DESIGN.md, S2). It models
//! the 4-domain GALS processor of Semeraro et al. (paper Figure 1):
//!
//! * **Front end** — fetch (L1 I-cache + combined branch predictor),
//!   decode/rename/dispatch, ROB and in-order retirement; runs at the
//!   fixed maximum frequency, as in the paper's experiments.
//! * **INT** — integer issue queue and ALUs.
//! * **FP** — floating-point issue queue and ALUs.
//! * **LS** — load/store queue, L1 D-cache, L2 cache, and the interface to
//!   the external, frequency-independent main memory.
//!
//! Each domain has an independently-generated clock with ±10 ps
//! normally-distributed jitter; inter-domain queue traffic is subject to a
//! 300 ps synchronization window (data arriving too close to a consumer
//! clock edge is not visible until the next edge). The INT/FP/LS domains
//! can each be driven by a [`controller::DvfsController`] — the paper's
//! adaptive controller lives in the `mcd-adaptive` crate, the
//! fixed-interval baselines in `mcd-baselines`.
//!
//! # Example
//!
//! ```
//! use mcd_sim::{Machine, SimConfig};
//! use mcd_workloads::{registry, TraceGenerator};
//!
//! let cfg = SimConfig::default();
//! let spec = registry::by_name("adpcm_encode").expect("known benchmark");
//! let trace = TraceGenerator::new(&spec, 20_000, 1);
//! let result = Machine::new(cfg, trace).run();
//! assert_eq!(result.instructions, 20_000);
//! assert!(result.ipc() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpred;
pub mod cache;
pub mod clock;
pub mod config;
pub mod controller;
pub mod engine;
pub mod error;
mod jitter;
pub mod memory;
pub mod metrics;
pub mod onset;
pub mod queue;
pub mod regfile;
pub mod result;
pub mod rob;
pub mod scheduler;
pub mod scoreboard;
pub mod snapshot;
pub mod telemetry;
pub mod trace;

pub use clock::DomainClock;
pub use config::{DomainId, SimConfig, SyncModel};
pub use controller::{ControllerCtx, DvfsAction, DvfsController, QueueSample};
pub use engine::Machine;
pub use error::SimError;
pub use metrics::{FreqTracePoint, Metrics};
pub use onset::{OnsetEffect, OnsetTracker};
pub use result::{DomainResult, SimResult};
pub use snapshot::{SnapshotSource, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC};
pub use telemetry::{SimTelemetry, TelemetrySink};
pub use trace::{
    CtrlEvent, NullSink, ResetReason, SignalKind, StepDir, TraceEvent, TraceSink, VecSink,
};
