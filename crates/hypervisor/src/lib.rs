//! # iorch-hypervisor — the Xen-like machine model
//!
//! The host-side half of the semantic gap, and the substrate IOrchestra's
//! policies plug into:
//!
//! * [`XenStore`] — the shared system store: hierarchical keys, per-domain
//!   permissions, watches (publish–subscribe) and transactions (paper §4);
//! * [`Ring`] — frontend/backend request rings with doorbell batching;
//! * [`IoCore`] — dedicated polling I/O cores running Algorithm 3's
//!   deficit round-robin over per-VM buffers, with NUMA-aware copy costs;
//! * [`NumaTopology`] / [`CpuAccounting`] — 2-socket testbed topology,
//!   VCPU placement and utilization accounting;
//! * [`Machine`] / [`Cluster`] — the composed host(s): guests, storage,
//!   store and I/O paths driven by one deterministic event loop;
//! * [`ControlPlane`] — the hook trait the `iorchestra` crate implements
//!   (Baseline / SDC / DIF / IOrchestra are all control planes).

#![warn(missing_docs)]

mod cpu;
mod domain;
mod faults;
pub mod iocore;
mod machine;
mod numa;
mod ring;
mod xenstore;
pub mod xenstore_legacy;

pub use cpu::CpuAccounting;
pub use domain::{DomainId, VmSpec};
pub use iocore::IoCore;
pub use machine::{
    Cluster, ControlPlane, Domain, IoPathMode, Machine, MachineConfig, OpHandler, OpResult,
    PlacementCaps, Sched, Waiter,
};
pub use numa::{CoreId, NumaTopology};
pub use ring::{Ring, RingPush};
pub use xenstore::{
    AsStorePath, IntoStoreValue, Perms, StoreError, StorePath, StoreQuota, TxnId, WatchEvent,
    WatchId, XenStore, DOM0,
};
