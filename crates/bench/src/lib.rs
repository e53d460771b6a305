//! # iorch-bench — experiment harnesses for every table and figure
//!
//! One runner function per experiment family ([`runner`]); the
//! declarative layer ([`exp`]) registers every paper figure/table as a
//! named [`exp::Spec`] — axes, repeats, spans and smoke/full profiles as
//! data — executed by one engine that renders console tables and writes
//! per-figure JSON/CSV artifacts; the `experiments` binary drives the
//! registry from the command line. Runs are
//! deterministic given a seed; durations are scaled down from the
//! paper's 10-minute/1-hour runs to seconds of simulated time (the
//! steady-state shapes emerge well before that — see EXPERIMENTS.md).

pub mod exp;
pub mod runner;
pub mod timing;
pub mod tracereplay;

pub use runner::*;
