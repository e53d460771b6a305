//! Multi-machine integration: clusters, the network model and the
//! scale-out workloads running together.

use std::cell::RefCell;
use std::rc::Rc;

use iorchestra_suite::core::SystemKind;
use iorchestra_suite::hypervisor::{Cluster, VmSpec};
use iorchestra_suite::netsim::{Network, NodeId};
use iorchestra_suite::simcore::{SimTime, Simulation};
use iorchestra_suite::workloads::{
    recorder, spawn_blast, spawn_ycsb, BlastParams, VmRef, YcsbParams,
};

#[test]
fn blast_runs_across_four_machines() {
    let mut sim = Simulation::new(Cluster::new());
    let machines = 4;
    let net = Rc::new(RefCell::new(Network::new(machines + 1)));
    let mut workers = Vec::new();
    let mut ids = Vec::new();
    for m in 0..machines {
        let (cl, s) = sim.parts_mut();
        let idx = SystemKind::IOrchestra.provision(cl, s, m as u64);
        let dom = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(20), |_| {});
        workers.push(VmRef { machine: idx, dom });
        ids.push(NodeId(m));
    }
    let rec = recorder(SimTime::ZERO);
    {
        let (cl, s) = sim.parts_mut();
        spawn_blast(
            cl,
            s,
            &workers,
            Some((Rc::clone(&net), ids, NodeId(machines))),
            BlastParams {
                scan_per_query: 8 << 20,
                max_queries: 3,
                ..BlastParams::default()
            },
            Rc::clone(&rec),
        );
    }
    sim.run_until(SimTime::from_secs(30));
    let r = rec.borrow();
    assert!(r.finished, "all three queries must complete");
    assert!(r.ops > 0);
    // Coordination traffic flowed: each worker reported per query.
    let sent: u64 = (0..machines)
        .map(|m| net.borrow().msgs_sent(NodeId(m)))
        .sum();
    assert!(sent >= 3 * machines as u64, "sent={sent}");
}

#[test]
fn multinode_ycsb_pays_for_forwarding() {
    // A 4-node store spread over 4 machines must show higher mean latency
    // than a single-node store: forwarded requests pay two network hops
    // and replication crosses machines.
    let run = |machines: usize| {
        let mut sim = Simulation::new(Cluster::new());
        let net = Rc::new(RefCell::new(Network::new(machines)));
        let mut nodes = Vec::new();
        let mut ids = Vec::new();
        for m in 0..machines {
            let (cl, s) = sim.parts_mut();
            let idx = SystemKind::Baseline.provision(cl, s, 40 + m as u64);
            let dom = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(20), |_| {});
            nodes.push(VmRef { machine: idx, dom });
            ids.push(NodeId(m));
        }
        let rec = recorder(SimTime::from_millis(500));
        {
            let (cl, s) = sim.parts_mut();
            spawn_ycsb(
                cl,
                s,
                &nodes,
                Some((net, ids)),
                YcsbParams::ycsb1(800.0, 123),
                Rc::clone(&rec),
            );
        }
        sim.run_until(SimTime::from_secs(3));
        let m = rec.borrow().hist.mean();
        assert!(rec.borrow().ops > 500);
        m
    };
    let single = run(1);
    let four = run(4);
    assert!(
        four > single,
        "scale-out must add inter-node latency: 1={single} 4={four}"
    );
}
