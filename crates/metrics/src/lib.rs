//! # iorch-metrics — measurement primitives for the IOrchestra reproduction
//!
//! Everything the experiments record flows through this crate:
//!
//! * [`LatencyHistogram`] — mergeable log-linear histogram with exact mean
//!   and ~3%-accurate percentiles across the full nanosecond range;
//! * [`cdf`]/[`cdf_at_fractions`] — latency-distribution curves (paper
//!   Figs. 5–6);
//! * [`WindowedRate`] / [`Throughput`] — bandwidth monitoring (the
//!   blktrace stand-in that drives the flush policy) and run throughput;
//! * [`TimeWeightedGauge`] — time-weighted averages such as utilization
//!   (paper Fig. 10c);
//! * [`LatencySummary`] / [`Table`] — the row/series formatting used by
//!   every bench harness;
//! * [`TelemetryHub`] / [`LiveReport`] — live fixed-cadence export of
//!   p50/p99/SLO-violation streams for long runs (the `trace`-tap bridge).

#![warn(missing_docs)]

mod cdf;
mod export;
mod gauge;
mod histogram;
mod rate;
mod summary;

pub use cdf::{cdf, cdf_at_fractions, standard_grid, CdfPoint};
pub use export::{LiveReport, ReportSink, SharedHub, TelemetryHub};
pub use gauge::TimeWeightedGauge;
pub use histogram::LatencyHistogram;
pub use rate::{Throughput, WindowedRate};
pub use summary::{
    fmt_ms, fmt_pct, fmt_ratio, fmt_us, latency_improvement_pct, normalized,
    throughput_improvement_pct, LatencySummary, Table,
};
