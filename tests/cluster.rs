//! Cluster control tier at scale: 4 nodes × 64 domains, one node lost.
//!
//! The acceptance run for the cluster tier: place a full catalog across
//! four IOrchestra machines, kill one node for good, and require every
//! orphaned domain to be re-placed on the survivors with zero duplicated
//! ownership and the quota math still respected.

use iorchestra_suite::core::cluster::{ClusterTier, VCPU_OVERCOMMIT};
use iorchestra_suite::core::SystemKind;
use iorchestra_suite::hypervisor::{Cluster, VmSpec};
use iorchestra_suite::simcore::{
    FaultKind, FaultPlan, FaultWindow, SimDuration, SimTime, Simulation,
};

#[test]
fn four_nodes_64_domains_fail_over_without_duplicates() {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let machines: Vec<usize> = (0..4)
        .map(|m| SystemKind::IOrchestra.provision(cl, s, 0xD0 + m as u64))
        .collect();
    let tier = ClusterTier::install(cl, s, &machines);
    {
        let mut t = tier.borrow_mut();
        for i in 0..64u32 {
            t.submit_domain(VmSpec::new(1 + i % 2, 1).with_disk_gb(4));
        }
        // Node 2 dies at 1.5 s and never comes back within the horizon.
        t.install_faults(
            s,
            &FaultPlan::new().with(
                FaultWindow::always(),
                FaultKind::NodeCrash {
                    node: 2,
                    at: SimTime::from_millis(1500),
                    recover_after: SimDuration::from_secs(60),
                },
            ),
        );
    }

    // Phase 1: the catalog spreads over all four nodes.
    sim.run_until(SimTime::from_millis(1400));
    {
        let (cl, _s) = sim.parts_mut();
        let t = tier.borrow();
        let per_node: Vec<usize> = t.agents().iter().map(|a| a.owned().len()).collect();
        assert_eq!(per_node.iter().sum::<usize>(), 64, "all 64 domains placed");
        assert!(
            per_node.iter().all(|&n| n > 0),
            "placement must use every node, got {per_node:?}"
        );
        assert!(t.ownership_violations(cl).is_empty());
        let lost = per_node[2];
        assert!(lost > 0, "node 2 must own something to orphan");
    }

    // Phase 2: leases expire, orphans fail over to the three survivors.
    sim.run_until(SimTime::from_secs(6));
    let (cl, _s) = sim.parts_mut();
    let t = tier.borrow();
    assert!(t.agents()[2].is_down(), "node 2 stays dead");
    assert!(
        !t.controller().members()[&2].alive,
        "controller must have declared node 2 dead"
    );
    assert!(
        t.controller().stats().failovers > 0,
        "orphans must be re-placed via failover"
    );

    // Every logical domain is owned exactly once, all on survivors.
    let mut owners: Vec<(u32, u32)> = Vec::new();
    for a in t.agents() {
        if a.is_down() {
            continue;
        }
        for &ldom in a.owned().keys() {
            owners.push((ldom, a.node()));
        }
    }
    owners.sort_unstable();
    let ldoms: Vec<u32> = owners.iter().map(|&(l, _)| l).collect();
    let catalog: Vec<u32> = t.controller().catalog().keys().copied().collect();
    assert_eq!(ldoms, catalog, "all orphans re-placed, each exactly once");
    assert!(
        t.ownership_violations(cl).is_empty(),
        "no duplicated ownership"
    );

    // Quota math holds on the survivors: placed vcpus within overcommit.
    for a in t.agents() {
        if a.is_down() {
            continue;
        }
        let m = cl.machine(a.machine());
        let caps = m.placement_caps();
        assert!(
            caps.placed_vcpus <= caps.total_cores * VCPU_OVERCOMMIT,
            "node {} over quota: {} vcpus on {} cores x{VCPU_OVERCOMMIT}",
            a.node(),
            caps.placed_vcpus,
            caps.total_cores
        );
    }
}
