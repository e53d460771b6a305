//! The monitoring module: samples device status for the management
//! module (paper §3: "the monitoring module collects and processes system
//! statistics, such as latency, throughput, performance counters and
//! access patterns").

use iorch_hypervisor::Machine;
use iorch_simcore::SimTime;

/// One sample of host-side status: the two signals the planes act on.
#[derive(Clone, Copy, Debug)]
pub struct MonitorReport {
    /// Device bandwidth over the monitoring window below the paper's 1/10
    /// idleness threshold (blktrace stand-in)?
    pub device_underutilized: bool,
    /// Host queue deep enough to call the device overcrowded?
    pub device_congested: bool,
}

/// Take a sample of the machine's status at `now`.
pub fn sample(m: &mut Machine, now: SimTime) -> MonitorReport {
    MonitorReport {
        device_underutilized: m.storage.monitor_mut().is_underutilized(now),
        device_congested: m.storage.is_congested(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iorch_hypervisor::{Cluster, IoPathMode, MachineConfig};

    #[test]
    fn idle_machine_reports_underutilized() {
        let mut cl = Cluster::new();
        let idx = cl.add_machine(MachineConfig::paper_testbed(
            1,
            IoPathMode::DedicatedCores { per_socket: true },
        ));
        let rep = sample(cl.machine_mut(idx), SimTime::from_secs(1));
        assert!(rep.device_underutilized);
        assert!(!rep.device_congested);
    }
}
