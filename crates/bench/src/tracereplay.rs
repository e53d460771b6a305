//! Deterministic trace replay: named fault scenarios that any debugging
//! session can re-run from a `(SystemKind, seed, scenario)` tuple and get
//! a byte-identical event timeline out of.
//!
//! Each scenario builds a cluster, installs a [`FaultPlan`], runs the
//! simulation under an installed trace recorder and returns the recorded
//! events. The `tracedump` binary renders them as a human-readable
//! timeline, a decision log, or Chrome `about:tracing` JSON. The presets
//! mirror the fault-injection suite (`tests/faults.rs`) so a failing
//! scenario there can be replayed here with full event visibility.

use std::cell::RefCell;
use std::rc::Rc;

use iorch_guestos::{FileOp, GuestConfig};
use iorch_hypervisor::{Cluster, DomainId, Sched, VmSpec};
use iorch_simcore::trace::{TraceEvent, TraceSession};
use iorch_simcore::{FaultKind, FaultPlan, FaultWindow, SimDuration, SimTime, Simulation};
use iorch_workloads::{recorder, spawn_multistream, MultiStreamParams, Rec, VmRef};
use iorchestra::cluster::ClusterTier;
use iorchestra::SystemKind;

/// Named scenarios: `(name, one-line description)`.
pub const SCENARIOS: &[(&str, &str)] = &[
    (
        "mixed8",
        "8 domains: readers driving congestion, dirty writers flushed, a store hammer quarantined",
    ),
    (
        "unresponsive_flush",
        "a guest ignores flush_now: timeout, fallback to the next-dirtiest, quarantine",
    ),
    (
        "store_hammer",
        "a guest hammers the system store and is quarantined while a co-resident keeps working",
    ),
    (
        "device_stall",
        "the device stalls completions for 400 ms mid-run; the workload must resume",
    ),
    (
        "plane_crash",
        "dom0 crashes mid-run and recovers: quarantine and flush state rebuilt from the store",
    ),
    (
        "lossy_bus",
        "XenBus drops, duplicates and reorders events; epoch-stamped commands keep the protocol safe",
    ),
    (
        "node_crash",
        "a cluster node dies mid-run: lease expiry, failover to survivors, reconcile on rejoin",
    ),
    (
        "net_partition",
        "a node is cut off on a lossy network: the cluster serves degraded and heals to steady state",
    ),
];

/// Installs a machine (and its control plane) into the cluster and
/// returns the machine index. Scenarios are written against this seam so
/// the same workload can run under a [`SystemKind`] *or* an arbitrary
/// boxed control plane — the policy-equivalence oracle uses it to replay
/// every scenario under both the legacy hand-fused planes and the policy
/// engine and compare the traces byte for byte.
pub type Provision<'a> = &'a mut dyn FnMut(&mut Cluster, &mut Sched) -> usize;

/// Parse a system name as accepted by the `tracedump` CLI.
pub fn parse_system(name: &str) -> Option<SystemKind> {
    Some(match name {
        "baseline" => SystemKind::Baseline,
        "sdc" => SystemKind::Sdc,
        "dif" => SystemKind::Dif,
        "iorchestra" => SystemKind::IOrchestra,
        _ => return None,
    })
}

/// Run `scenario` under a trace recorder and return the recorded events.
/// Returns `None` for an unknown scenario name. With tracing compiled
/// out (`--cfg iorch_trace_off`) the scenario still runs but the event
/// list is empty.
pub fn run_scenario(kind: SystemKind, seed: u64, scenario: &str) -> Option<Vec<TraceEvent>> {
    run_scenario_with(&mut |cl, s| kind.provision(cl, s, seed), seed, scenario)
}

/// [`run_scenario`] with an explicit provisioner: the scenario runs on
/// whatever machine/control-plane combination `prov` installs. `seed`
/// still drives the workload generators.
pub fn run_scenario_with(prov: Provision, seed: u64, scenario: &str) -> Option<Vec<TraceEvent>> {
    let session = TraceSession::new();
    let known = run_scenario_sim_with(prov, seed, scenario, FaultPlan::new());
    let rec = session.finish();
    known.map(|_| rec.into_events())
}

/// Run `scenario` with `extra` faults layered on top of the scenario's own
/// plan, and return the finished simulation for post-run inspection. The
/// convergence oracle uses this to inject a [`FaultKind::PlaneCrash`] at
/// every tick boundary and then compare the steady state reached against
/// the no-crash run's. `extra` must not carry bus/watch/device faults — a
/// second machine-level install would replace the scenario's own plan.
pub fn run_scenario_sim(
    kind: SystemKind,
    seed: u64,
    scenario: &str,
    extra: FaultPlan,
) -> Option<(Simulation<Cluster>, usize)> {
    run_scenario_sim_with(
        &mut |cl, s| kind.provision(cl, s, seed),
        seed,
        scenario,
        extra,
    )
}

/// [`run_scenario_sim`] with an explicit provisioner (see [`Provision`]).
pub fn run_scenario_sim_with(
    prov: Provision,
    seed: u64,
    scenario: &str,
    extra: FaultPlan,
) -> Option<(Simulation<Cluster>, usize)> {
    Some(match scenario {
        "mixed8" => mixed8(prov, seed, extra),
        "unresponsive_flush" => unresponsive_flush(prov, seed, extra),
        "store_hammer" => store_hammer(prov, seed, extra),
        "device_stall" => device_stall(prov, seed, extra),
        "plane_crash" => plane_crash(prov, seed, extra),
        "lossy_bus" => lossy_bus(prov, seed, extra),
        "node_crash" | "net_partition" => {
            let (sim, _tier, idx) = run_cluster_scenario(prov, seed, scenario, extra)?;
            (sim, idx)
        }
        _ => return None,
    })
}

/// Run a cluster-tier scenario and return the tier alongside the finished
/// simulation, for post-run inspection (steady-state digests, ownership
/// checks). `extra` is installed on the tier, so the cluster convergence
/// oracle can layer [`FaultKind::NodeCrash`] / [`FaultKind::ControllerCrash`]
/// events on top of the scenario's own plan. Returns `None` for scenarios
/// that are not cluster-tier ones.
#[allow(clippy::type_complexity)]
pub fn run_cluster_scenario(
    prov: Provision,
    seed: u64,
    scenario: &str,
    extra: FaultPlan,
) -> Option<(Simulation<Cluster>, Rc<RefCell<ClusterTier>>, usize)> {
    let plan = match scenario {
        // Node 1 dies at 1 s (well past one lease TTL) and reboots 800 ms
        // later; a transient network-delay window stresses the retry path
        // while the rejoined node is being reconciled.
        "node_crash" => FaultPlan::new()
            .with(
                FaultWindow::always(),
                FaultKind::NodeCrash {
                    node: 1,
                    at: SimTime::from_millis(1000),
                    recover_after: SimDuration::from_millis(800),
                },
            )
            .with(
                FaultWindow::new(SimTime::from_millis(3000), SimTime::from_millis(4000)),
                FaultKind::NetDelay {
                    extra: SimDuration::from_millis(2),
                },
            ),
        // Node 2 is cut off from everyone for 1.5 s while the rest of the
        // network drops every 9th, duplicates every 7th and reorders
        // delivery batches: the controller declares it dead and fails its
        // domains over; the partitioned node keeps serving; after heal the
        // duplicate copies are reconciled away make-before-break.
        "net_partition" => FaultPlan::new()
            .with(
                FaultWindow::new(SimTime::from_millis(1000), SimTime::from_millis(2500)),
                FaultKind::NetPartition { group: 1 << 2 },
            )
            .with(
                FaultWindow::new(SimTime::from_millis(1000), SimTime::from_millis(3500)),
                FaultKind::NetUnreliable {
                    drop_1_in: 9,
                    dup_1_in: 7,
                    reorder: true,
                },
            ),
        _ => return None,
    };
    let (mut sim, idx) = sim_with(prov);
    let (cl, s) = sim.parts_mut();
    // Two more IOrchestra nodes alongside the provisioned machine: the
    // provisioner seam stays single-shot so the policy-equivalence oracle
    // can still swap machine 0's plane.
    let m1 = SystemKind::IOrchestra.provision(cl, s, seed ^ 1);
    let m2 = SystemKind::IOrchestra.provision(cl, s, seed ^ 2);
    let tier = ClusterTier::install(cl, s, &[idx, m1, m2]);
    {
        let mut t = tier.borrow_mut();
        for i in 0..8u32 {
            t.submit_domain(VmSpec::new(1 + i % 2, 1).with_disk_gb(8));
        }
        t.install_faults(s, &plan);
        t.install_faults(s, &extra);
    }
    sim.run_until(SimTime::from_secs(10));
    Some((sim, tier, idx))
}

fn sim_with(prov: Provision) -> (Simulation<Cluster>, usize) {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = prov(cl, s);
    (sim, idx)
}

/// Stock (slow) writeback clocks: only the collaborative flush can drain
/// dirty pages within the few simulated seconds a scenario runs.
fn slow_wb(g: &mut GuestConfig) {
    g.wb.periodic_interval = SimDuration::from_secs(30);
    g.wb.dirty_expire = SimDuration::from_secs(60);
}

/// Dirty `mb` MiB of page cache in `dom` (a buffered write, no sync).
fn dirty_mb(cl: &mut Cluster, s: &mut Sched, idx: usize, dom: DomainId, mb: u64) {
    let file = cl
        .machine_mut(idx)
        .kernel_mut(dom)
        .unwrap()
        .create_file((4 * mb) << 20)
        .unwrap();
    cl.submit_op(
        s,
        idx,
        dom,
        0,
        FileOp::Write {
            file,
            offset: 0,
            len: mb << 20,
        },
        None,
    );
}

/// A reader VM with a small request queue and deep readahead — the
/// congestion-query workhorse from the fault suite.
fn greedy_reader(cl: &mut Cluster, s: &mut Sched, idx: usize, seed: u64, rec: &Rec) -> DomainId {
    let dom = cl.create_domain(s, idx, VmSpec::new(4, 4).with_disk_gb(20), |g| {
        g.queue.nr_requests = 64;
        g.readahead_chunks = 16;
    });
    spawn_multistream(
        cl,
        s,
        VmRef { machine: idx, dom },
        MultiStreamParams {
            streams: 8,
            file_size: 1 << 30,
            read_size: 4 << 20,
            seed,
        },
        Rc::clone(rec),
    );
    dom
}

/// The 8-domain showcase: three greedy readers (congestion queries →
/// release / confirm decisions), three slow-writeback dirty writers
/// (collaborative flush decisions), one store hammer (quarantine), and
/// one light reader for background traffic.
fn mixed8(prov: Provision, seed: u64, extra: FaultPlan) -> (Simulation<Cluster>, usize) {
    let (mut sim, idx) = sim_with(prov);
    let (cl, s) = sim.parts_mut();
    let rec = recorder(SimTime::ZERO);
    for v in 0..3u64 {
        greedy_reader(cl, s, idx, seed ^ v, &rec);
    }
    for mb in [16u64, 12, 8] {
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), slow_wb);
        dirty_mb(cl, s, idx, dom, mb);
    }
    let evil = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(8), |_| {});
    let light = cl.create_domain(s, idx, VmSpec::new(2, 2).with_disk_gb(8), |_| {});
    spawn_multistream(
        cl,
        s,
        VmRef {
            machine: idx,
            dom: light,
        },
        MultiStreamParams {
            streams: 2,
            file_size: 256 << 20,
            read_size: 1 << 20,
            seed: seed ^ 7,
        },
        Rc::clone(&rec),
    );
    let plan = FaultPlan::new().with(
        FaultWindow::new(SimTime::ZERO, SimTime::from_millis(1500)),
        FaultKind::StoreHammer {
            dom: evil.0,
            period: SimDuration::from_micros(200),
        },
    );
    cl.install_faults(s, idx, plan);
    cl.install_faults(s, idx, extra);
    // Phase 1: readers saturate the device (congestion queries, release /
    // confirm decisions) while the hammer earns its quarantine.
    sim.run_until(SimTime::from_millis(1200));
    // Phase 2: stop the readers so the device drains and goes quiet —
    // Algorithm 1 only flushes an idle device — and let the collaborative
    // flush work through the dirty writers.
    rec.borrow_mut().stopped = true;
    sim.run_until(SimTime::from_millis(4000));
    (sim, idx)
}

/// Mirror of `unresponsive_guest_flush_falls_back_and_quarantines`.
fn unresponsive_flush(
    prov: Provision,
    _seed: u64,
    extra: FaultPlan,
) -> (Simulation<Cluster>, usize) {
    let (mut sim, idx) = sim_with(prov);
    let (cl, s) = sim.parts_mut();
    let slacker = cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), slow_wb);
    let _healthy = cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), slow_wb);
    dirty_mb(cl, s, idx, slacker, 16);
    dirty_mb(cl, s, idx, _healthy, 8);
    let plan = FaultPlan::new().with(
        FaultWindow::always(),
        FaultKind::IgnoreFlushNow { dom: slacker.0 },
    );
    cl.install_faults(s, idx, plan);
    cl.install_faults(s, idx, extra);
    sim.run_until(SimTime::from_secs(8));
    (sim, idx)
}

/// Mirror of `store_hammer_is_quarantined_and_operator_clear_restores`
/// (without the operator clear — the quarantine decision is the point).
fn store_hammer(prov: Provision, seed: u64, extra: FaultPlan) -> (Simulation<Cluster>, usize) {
    let (mut sim, idx) = sim_with(prov);
    let (cl, s) = sim.parts_mut();
    let evil = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(8), |_| {});
    let good = cl.create_domain(s, idx, VmSpec::new(2, 2).with_disk_gb(8), |_| {});
    let rec = recorder(SimTime::ZERO);
    spawn_multistream(
        cl,
        s,
        VmRef {
            machine: idx,
            dom: good,
        },
        MultiStreamParams {
            streams: 2,
            file_size: 256 << 20,
            read_size: 1 << 20,
            seed,
        },
        Rc::clone(&rec),
    );
    let plan = FaultPlan::new().with(
        FaultWindow::new(SimTime::ZERO, SimTime::from_millis(1500)),
        FaultKind::StoreHammer {
            dom: evil.0,
            period: SimDuration::from_micros(200),
        },
    );
    cl.install_faults(s, idx, plan);
    cl.install_faults(s, idx, extra);
    sim.run_until(SimTime::from_secs(2));
    (sim, idx)
}

/// Mirror of `device_stall_is_survived`.
fn device_stall(prov: Provision, seed: u64, extra: FaultPlan) -> (Simulation<Cluster>, usize) {
    let (mut sim, idx) = sim_with(prov);
    let (cl, s) = sim.parts_mut();
    let dom = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(20), |_| {});
    let rec = recorder(SimTime::ZERO);
    spawn_multistream(
        cl,
        s,
        VmRef { machine: idx, dom },
        MultiStreamParams {
            streams: 4,
            file_size: 1 << 30,
            read_size: 1 << 20,
            seed,
        },
        Rc::clone(&rec),
    );
    let plan = FaultPlan::new().with(
        FaultWindow::new(SimTime::from_millis(200), SimTime::from_millis(600)),
        FaultKind::DeviceStall,
    );
    cl.install_faults(s, idx, plan);
    cl.install_faults(s, idx, extra);
    sim.run_until(SimTime::from_millis(2500));
    (sim, idx)
}

/// dom0's management plane crashes at 1.1 s — after the store hammer has
/// earned its quarantine — and recovers 400 ms later: the quarantine set,
/// health counters and any in-flight flush must be rebuilt from the store
/// (`plane_crash` / `plane_recover` decisions bracket the outage).
fn plane_crash(prov: Provision, seed: u64, extra: FaultPlan) -> (Simulation<Cluster>, usize) {
    let (mut sim, idx) = sim_with(prov);
    let (cl, s) = sim.parts_mut();
    let rec = recorder(SimTime::ZERO);
    greedy_reader(cl, s, idx, seed, &rec);
    for mb in [16u64, 8] {
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), slow_wb);
        dirty_mb(cl, s, idx, dom, mb);
    }
    let evil = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(8), |_| {});
    let crash_at = SimTime::from_millis(1100);
    let recover_after = SimDuration::from_millis(400);
    let plan = FaultPlan::new()
        .with(
            FaultWindow::new(SimTime::ZERO, SimTime::from_millis(800)),
            FaultKind::StoreHammer {
                dom: evil.0,
                period: SimDuration::from_micros(200),
            },
        )
        .with(
            FaultWindow::new(crash_at, crash_at + recover_after),
            FaultKind::PlaneCrash {
                at: crash_at,
                recover_after,
            },
        );
    cl.install_faults(s, idx, plan);
    cl.install_faults(s, idx, extra);
    // Phase 1: reader traffic plus the hammer, then the outage itself.
    sim.run_until(SimTime::from_millis(1800));
    // Phase 2: quiesce the reader so the recovered plane can drain the
    // dirty writers through the collaborative flush.
    rec.borrow_mut().stopped = true;
    sim.run_until(SimTime::from_secs(6));
    (sim, idx)
}

/// XenBus drops every 7th, duplicates every 5th and reorders each delivery
/// batch: dropped `flush_now` commands retry through the timeout path, and
/// duplicated commands are discarded by the guests' epoch cursors
/// (`stale_command` decisions in the dump).
fn lossy_bus(prov: Provision, seed: u64, extra: FaultPlan) -> (Simulation<Cluster>, usize) {
    let (mut sim, idx) = sim_with(prov);
    let (cl, s) = sim.parts_mut();
    let rec = recorder(SimTime::ZERO);
    greedy_reader(cl, s, idx, seed, &rec);
    for mb in [16u64, 8] {
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), slow_wb);
        dirty_mb(cl, s, idx, dom, mb);
    }
    let plan = FaultPlan::new().with(
        FaultWindow::always(),
        FaultKind::BusUnreliable {
            drop_1_in: 7,
            dup_1_in: 5,
            reorder: true,
        },
    );
    cl.install_faults(s, idx, plan);
    cl.install_faults(s, idx, extra);
    sim.run_until(SimTime::from_millis(1200));
    rec.borrow_mut().stopped = true;
    sim.run_until(SimTime::from_secs(6));
    (sim, idx)
}
