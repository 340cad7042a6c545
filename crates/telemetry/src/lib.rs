//! Unified telemetry primitives for the MCD reproduction stack
//! (DESIGN.md §9).
//!
//! Two layers share these types:
//!
//! * **Histograms** ([`Histogram`]) — fixed-bucket, log-scale,
//!   atomic-counter distributions. The simulator records per-domain
//!   reaction-time and queue-occupancy distributions through them, the
//!   harness summarizes trace analyses with them, and the service
//!   records request latency per endpoint and outcome. `record` is a
//!   single relaxed `fetch_add` per bucket — lock-free and safe to share
//!   across worker threads.
//! * **Prometheus** ([`prometheus::PromText`]) — renders counters,
//!   gauges, and histogram snapshots in the text exposition format
//!   served by `GET /metrics`, plus [`prometheus::lint`], the
//!   format-validity check CI runs against every rendered page.
//!
//! The crate is std-only and dependency-free so every layer of the
//! workspace (simulator, harness, service) can use it without pulling
//! anything else in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod prometheus;

pub use histogram::{Histogram, HistogramSnapshot};
pub use prometheus::PromText;
