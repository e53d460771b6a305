//! The four systems under test, as one enum the bench harness sweeps.

use iorch_hypervisor::{Cluster, IoPathMode, MachineConfig, Sched};

use crate::planes::{FunctionSet, IOrchestraConfig};
use crate::policy::{PolicyEngine, PolicySet};

/// Which system a machine runs — the comparison axis of every figure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// Stock Linux 3.5 + Xen 4.0 paravirtualization.
    Baseline,
    /// Static dedicated I/O core, equal shares, single-socket assumption
    /// [22, 29].
    Sdc,
    /// Disk-idleness-based flushing \[17\] on the paravirt path.
    Dif,
    /// The full IOrchestra prototype (all three functions).
    IOrchestra,
    /// IOrchestra with a subset of functions enabled (§5.3–§5.5 ablations).
    IOrchestraWith(FunctionSet),
}

impl SystemKind {
    /// The four headline systems, in the paper's plotting order.
    pub fn headline() -> [SystemKind; 4] {
        [
            SystemKind::Baseline,
            SystemKind::Sdc,
            SystemKind::Dif,
            SystemKind::IOrchestra,
        ]
    }

    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Baseline => "Baseline",
            SystemKind::Sdc => "SDC",
            SystemKind::Dif => "DIF",
            SystemKind::IOrchestra => "IOrchestra",
            SystemKind::IOrchestraWith(f) => {
                if f.flush && !f.congestion && !f.cosched {
                    "IOrch(flush)"
                } else if f.congestion && !f.flush && !f.cosched {
                    "IOrch(cong)"
                } else if f.cosched && !f.flush && !f.congestion {
                    "IOrch(cosched)"
                } else {
                    "IOrch(subset)"
                }
            }
        }
    }

    /// I/O path this system uses.
    pub fn io_mode(&self) -> IoPathMode {
        match self {
            SystemKind::Baseline | SystemKind::Dif => IoPathMode::Paravirt,
            SystemKind::Sdc => IoPathMode::DedicatedCores { per_socket: false },
            SystemKind::IOrchestra => IoPathMode::DedicatedCores { per_socket: true },
            SystemKind::IOrchestraWith(f) => {
                if f.cosched {
                    IoPathMode::DedicatedCores { per_socket: true }
                } else {
                    // Single-function flush/congestion ablations run on the
                    // stock paravirt path so only that function differs
                    // from baseline.
                    IoPathMode::Paravirt
                }
            }
        }
    }

    /// Policy set of this system's control plane.
    pub fn policy_set(&self, seed: u64) -> PolicySet {
        match self {
            SystemKind::Baseline => PolicySet::baseline(),
            SystemKind::Sdc => PolicySet::sdc(),
            SystemKind::Dif => PolicySet::dif(),
            SystemKind::IOrchestra => PolicySet::iorchestra(IOrchestraConfig::new(seed)),
            SystemKind::IOrchestraWith(f) => {
                PolicySet::iorchestra(IOrchestraConfig::new(seed).with_functions(*f))
            }
        }
    }

    /// Add a machine running this system to the cluster (installs the
    /// matching control plane).
    pub fn provision(&self, cl: &mut Cluster, s: &mut Sched, seed: u64) -> usize {
        let idx = cl.add_machine(MachineConfig::paper_testbed(seed, self.io_mode()));
        let control: Box<dyn iorch_hypervisor::ControlPlane> =
            Box::new(PolicyEngine::new(self.policy_set(seed)));
        cl.install_control(s, idx, control);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_modes() {
        assert_eq!(SystemKind::Baseline.label(), "Baseline");
        assert_eq!(SystemKind::Baseline.io_mode(), IoPathMode::Paravirt);
        assert_eq!(SystemKind::Dif.io_mode(), IoPathMode::Paravirt);
        assert_eq!(
            SystemKind::Sdc.io_mode(),
            IoPathMode::DedicatedCores { per_socket: false }
        );
        assert_eq!(
            SystemKind::IOrchestra.io_mode(),
            IoPathMode::DedicatedCores { per_socket: true }
        );
        assert_eq!(
            SystemKind::IOrchestraWith(FunctionSet::flush_only()).io_mode(),
            IoPathMode::Paravirt
        );
        assert_eq!(
            SystemKind::IOrchestraWith(FunctionSet::flush_only()).label(),
            "IOrch(flush)"
        );
        assert_eq!(
            SystemKind::IOrchestraWith(FunctionSet::cosched_only()).io_mode(),
            IoPathMode::DedicatedCores { per_socket: true }
        );
    }

    #[test]
    fn provisioning_installs_controls() {
        use iorch_simcore::Simulation;
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        for kind in SystemKind::headline() {
            let idx = kind.provision(cl, s, 42);
            let expect = match kind {
                SystemKind::Baseline => "baseline",
                SystemKind::Sdc => "sdc",
                SystemKind::Dif => "dif",
                _ => "iorchestra",
            };
            assert_eq!(cl.machine(idx).control_name(), expect);
        }
    }
}
