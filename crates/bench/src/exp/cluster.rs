//! The `cluster` experiment: control-tier robustness across node counts.
//!
//! For each node count on the axis, a fleet of IOrchestra machines runs
//! under the cluster control tier with a full domain catalog, and three
//! fault mixes are injected in turn — a node crash/reboot, a network
//! partition on a lossy bus, and a controller crash. Each faulted run is
//! then stepped on a 100 ms grid until its steady-state digest
//! ([`ClusterTier::steady_digest`]) is byte-identical to the no-fault
//! run's, yielding a *measured convergence time* per `(nodes, fault)`
//! cell. The run gates on every cell converging within the horizon with
//! zero duplicated ownership. Its figure is also the repo-root
//! `BENCH_cluster.json`, which only the `experiments` binary writes
//! ([`gate::write_root_artifact`](super::gate::write_root_artifact)), so test runs leave it untouched.
//!
//! Everything here is simulated virtual time (`timing: false`), so the
//! artifact is byte-deterministic per `(profile, seed)` and swept by the
//! golden byte-identity gates like any other experiment.

use std::cell::RefCell;
use std::rc::Rc;

use iorch_hypervisor::{Cluster, VmSpec};
use iorch_simcore::{FaultKind, FaultPlan, FaultWindow, SimDuration, SimTime, Simulation};
use iorchestra::cluster::ClusterTier;
use iorchestra::SystemKind;

use super::{Ctx, Figure};

/// A provisioned fleet under the control tier.
struct Fleet {
    sim: Simulation<Cluster>,
    tier: Rc<RefCell<ClusterTier>>,
}

impl Fleet {
    fn new(nodes: u32, doms: u32, seed: u64, plan: &FaultPlan) -> Fleet {
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let machines: Vec<usize> = (0..nodes)
            .map(|m| SystemKind::IOrchestra.provision(cl, s, seed ^ u64::from(m)))
            .collect();
        let tier = ClusterTier::install(cl, s, &machines);
        {
            let mut t = tier.borrow_mut();
            for i in 0..doms {
                t.submit_domain(VmSpec::new(1 + i % 2, 1).with_disk_gb(4));
            }
            t.install_faults(s, plan);
        }
        Fleet { sim, tier }
    }

    fn digest(&mut self) -> String {
        let (cl, _s) = self.sim.parts_mut();
        self.tier.borrow().steady_digest(cl)
    }

    fn violations(&mut self) -> usize {
        let (cl, _s) = self.sim.parts_mut();
        self.tier.borrow().ownership_violations(cl).len()
    }
}

/// The three fault mixes per node count: `(name, plan, fault_end_ms)`.
fn mixes(nodes: u32) -> Vec<(&'static str, FaultPlan, u64)> {
    let ms = SimTime::from_millis;
    vec![
        (
            "node_crash",
            FaultPlan::new().with(
                FaultWindow::always(),
                FaultKind::NodeCrash {
                    node: 1,
                    at: ms(1000),
                    recover_after: SimDuration::from_millis(700),
                },
            ),
            1700,
        ),
        (
            "net_partition",
            FaultPlan::new()
                .with(
                    FaultWindow::new(ms(1000), ms(2200)),
                    FaultKind::NetPartition {
                        group: 1u64 << (nodes - 1),
                    },
                )
                .with(
                    FaultWindow::new(ms(1000), ms(2600)),
                    FaultKind::NetUnreliable {
                        drop_1_in: 11,
                        dup_1_in: 9,
                        reorder: true,
                    },
                ),
            2600,
        ),
        (
            "controller_crash",
            FaultPlan::new().with(
                FaultWindow::always(),
                FaultKind::ControllerCrash {
                    at: ms(1200),
                    recover_after: SimDuration::from_millis(500),
                },
            ),
            1700,
        ),
    ]
}

/// The family run function (see the module docs). Gate: every
/// `(nodes, fault)` cell converges within the horizon with zero
/// duplicated ownership.
pub(crate) fn run_cluster(ctx: &Ctx) -> Vec<Figure> {
    let [doms_per_node] = ctx.p.axis2 else {
        panic!("cluster: axis2 must be [domains_per_node]");
    };
    let doms_per_node = *doms_per_node as u32;
    const HORIZON_MS: u64 = 10_000;
    let mut f = Figure::new(
        "cluster",
        "Cluster tier — convergence after node/network/controller faults",
        "nodes/fault",
        "mixed",
        vec![
            "converged".into(),
            "converge_ms".into(),
            "failovers".into(),
            "msgs_delivered".into(),
            "dup_ownership".into(),
        ],
    );
    for &n in ctx.p.axis {
        let nodes = n as u32;
        let doms = nodes * doms_per_node;
        let mut base = Fleet::new(nodes, doms, ctx.seed, &FaultPlan::new());
        base.sim.run_until(SimTime::from_millis(HORIZON_MS));
        let want = base.digest();
        assert_eq!(
            base.violations(),
            0,
            "cluster: no-fault run at {nodes} nodes has ownership violations"
        );
        for (mix, plan, fault_end_ms) in mixes(nodes) {
            let mut run = Fleet::new(nodes, doms, ctx.seed, &plan);
            run.sim.run_until(SimTime::from_millis(fault_end_ms));
            // Step on the controller-tick grid until the steady state is
            // byte-identical to the no-fault run's.
            let mut converge_ms = None;
            let mut t = fault_end_ms;
            while t <= HORIZON_MS {
                if run.digest() == want {
                    converge_ms = Some(t - fault_end_ms);
                    break;
                }
                t += 100;
                run.sim.run_until(SimTime::from_millis(t));
            }
            let converged = converge_ms.is_some();
            let dup = run.violations();
            let stats = run.tier.borrow().controller().stats();
            let bus = run.tier.borrow().bus_stats();
            f.row(
                format!("{nodes}/{mix}"),
                vec![
                    u64::from(converged) as f64,
                    converge_ms.unwrap_or(HORIZON_MS) as f64,
                    stats.failovers as f64,
                    bus.delivered as f64,
                    dup as f64,
                ],
            );
            f.samples += bus.delivered;
            assert!(
                converged,
                "cluster gate: {nodes} nodes / {mix} did not converge to the \
                 no-fault steady state within {HORIZON_MS} ms"
            );
            assert_eq!(
                dup, 0,
                "cluster gate: {nodes} nodes / {mix} left duplicated ownership"
            );
        }
    }
    vec![f]
}
