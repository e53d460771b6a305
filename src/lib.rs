//! # iorchestra-suite — umbrella crate for the IOrchestra (SC '15) reproduction
//!
//! Re-exports every crate in the workspace so examples and integration tests
//! have a single import root. See the individual crates for the real APIs:
//!
//! * [`simcore`] — deterministic discrete-event engine
//! * [`metrics`] — latency histograms, CDFs, rate/utilization tracking
//! * [`storage`] — SSD/RAID0 device models, host queue, blktrace monitor
//! * [`guestos`] — simulated Linux guest I/O stack (page cache, writeback,
//!   request queue with congestion avoidance)
//! * [`hypervisor`] — Xen-like machine: system store, rings, NUMA, I/O cores
//! * [`netsim`] — inter-node network model for scale-out experiments
//! * [`core`] — IOrchestra itself: monitoring/management modules and the
//!   three collaborative policies, plus the Baseline/SDC/DIF comparators
//! * [`workloads`] — Olio, YCSB, mpiBLAST, Cloud9, FileBench models

pub use iorch_guestos as guestos;
pub use iorch_hypervisor as hypervisor;
pub use iorch_metrics as metrics;
pub use iorch_netsim as netsim;
pub use iorch_simcore as simcore;
pub use iorch_storage as storage;
pub use iorch_workloads as workloads;
pub use iorchestra as core;
