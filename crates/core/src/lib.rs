//! # iorchestra — the paper's collaborative-virtualization framework
//!
//! Reproduction of *IOrchestra: Supporting High-Performance Data-Intensive
//! Applications in the Cloud via Collaborative Virtualization* (SC '15).
//!
//! IOrchestra bridges the **semantic gap** between guest VMs and the
//! hypervisor for I/O: guests publish key state (dirty pages, congestion
//! intents) into a shared system store; a hypervisor-side monitoring
//! module watches device and I/O-core status; a management module computes
//! new configurations and publishes them back, and guest-side driver
//! callbacks apply them. Three functions ride on that channel:
//!
//! 1. **Cross-domain flush control** (Algorithm 1): flush the guest with
//!    the most dirty pages when the device is under 1/10 utilized;
//! 2. **Collaborative congestion control** (Algorithm 2): a guest about to
//!    enable congestion avoidance first asks the host; false triggers get
//!    a `release_request` instead of a sleep, and truly congested guests
//!    are woken FIFO with random 0–99 ms interleave on relief;
//! 3. **Inter-domain I/O co-scheduling** (Algorithm 3 + §3.3 formulas in
//!    [`formulas`]): per-socket dedicated cores with deficit-round-robin
//!    quanta `Q_i = BW_max · S^{VMi}_{SKT}` and inverse-latency weight
//!    distribution for cross-socket VMs.
//!
//! Every control plane — the paper's system, its `FunctionSet` ablations,
//! and the comparison systems (Baseline/SDC, DIF \[17\]) — is a
//! [`policy::PolicySet`] executed by the [`policy::PolicyEngine`]: rules
//! attached to typed enforcement points, engine-owned enforcement. See the
//! [`policy`] module for the architecture and its determinism contract;
//! [`SystemKind`] provisions any plane onto a machine. The pre-redesign
//! hand-fused planes survive in [`legacy`] as the byte-identity oracle.

#![warn(missing_docs)]

pub mod anomaly;
pub mod cluster;
pub mod formulas;
pub mod keys;
pub mod legacy;
pub mod monitor;
pub mod planes;
pub mod policy;
mod system;

pub use anomaly::{AnomalyDetector, AnomalyParams};
pub use cluster::{ClusterTier, NodeAgent, NodeCaps};
pub use monitor::MonitorReport;
pub use planes::{FunctionSet, IOrchestraConfig, PlaneStats};
pub use policy::{Action, PolicyCtx, PolicyEngine, PolicySet, Rule};
pub use system::SystemKind;
