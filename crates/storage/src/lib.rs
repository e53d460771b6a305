//! # iorch-storage — block-device substrate for the IOrchestra reproduction
//!
//! Models the paper's testbed storage (a RAID0 array of eight Intel
//! 520-class SSDs) and the host-side block layer the policies act on:
//!
//! * [`IoRequest`]/[`StreamId`] — the request currency of the whole stack;
//! * [`DeviceModel`] implementations: [`SsdModel`] and the [`Raid0`]
//!   striping combinator;
//! * [`WfqQueue`] — start-time weighted fair queueing, the stand-in for
//!   Linux cgroup blkio weights that IOrchestra's co-scheduler programs;
//! * [`StorageSubsystem`] — queue + device channels + monitoring composed
//!   into the passive state machine the hypervisor event loop drives;
//! * [`DeviceMonitor`] — the blktrace stand-in producing the bandwidth /
//!   idleness signals the management module consumes (flush fires when
//!   usage is below [`IDLE_BANDWIDTH_FRACTION`] of capacity).

#![warn(missing_docs)]

mod device;
mod monitor;
mod raid;
mod request;
mod ssd;
mod subsystem;
mod wfq;

pub use device::{DeviceModel, ServiceNoise};
pub use monitor::{DeviceMonitor, IDLE_BANDWIDTH_FRACTION};
pub use raid::Raid0;
pub use request::{IoKind, IoRequest, RequestId, RequestIdAlloc, StreamId};
pub use ssd::{SsdModel, SsdParams};
pub use subsystem::StorageSubsystem;
pub use wfq::{WfqQueue, DEFAULT_WEIGHT};

/// Build the paper's testbed volume: RAID0 over eight Intel 520-class SSDs
/// (960 GB, ~4 GB/s aggregate) wrapped in a ready-to-drive subsystem.
pub fn paper_testbed_storage(seed: u64) -> StorageSubsystem {
    let members = (0..8)
        .map(|_| SsdModel::new(SsdParams::intel520()))
        .collect();
    let raid = Raid0::new(members, 64 * 1024);
    StorageSubsystem::new(Box::new(raid), iorch_simcore::SimRng::new(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_has_expected_geometry() {
        let sub = paper_testbed_storage(1);
        assert!(sub.device_name().starts_with("raid0x8"));
        // 8 drives x 4 channels x 130 MiB/s read
        assert_eq!(sub.device_bandwidth(), 8 * 4 * 130 * 1024 * 1024);
    }
}
