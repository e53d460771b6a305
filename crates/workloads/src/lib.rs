//! # iorch-workloads — the paper's application models
//!
//! Every workload the SC '15 evaluation runs, modelled by its I/O shape
//! and drive mode:
//!
//! * [`ycsb`] — YCSB1/YCSB2 over a Cassandra-like store (zipfian reads,
//!   commit-log appends, memtable flush bursts, multi-node forwarding,
//!   optional §5.6 bursty arrivals);
//! * [`olio`] — the three-tier Olio social-events app driven closed-loop
//!   by a CloudStone/Faban-style client emulator, with per-tier recording;
//! * [`blast`] — mpiBLAST partitioned sequential scans + master
//!   coordination over the network;
//! * [`cloud9`] — the CPU-intensive co-runner;
//! * [`filebench`] — FS / WS / VS / multi-stream read;
//! * [`arrivals`] — Poisson VM arrivals with random sizes and fixed
//!   problem sizes (Table 2, Figs. 10–11);
//! * [`common`] — [`VmRef`], latency [`Recorder`]s, provisioning helpers.

#![warn(missing_docs)]

pub mod arrivals;
pub mod blast;
pub mod cloud9;
pub mod common;
pub mod filebench;
pub mod olio;
pub mod ycsb;

pub use arrivals::{spawn_arrivals, ArrivalApp, ArrivalParams, ArrivalStats, StatsHandle};
pub use blast::{spawn_blast, BlastParams};
pub use cloud9::{spawn_cloud9, Cloud9Params};
pub use common::{provision_files, recorder, recorder_live, Rec, Recorder, VmRef};
pub use filebench::{
    spawn_fileserver, spawn_multistream, spawn_videoserver, spawn_webserver, FsParams,
    MultiStreamParams, VsParams, WsParams,
};
pub use olio::{spawn_olio, OlioParams, OlioRecorders};
pub use ycsb::{spawn_ycsb, YcsbParams};
