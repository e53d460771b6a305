//! Deterministic fault-scenario suite: every fault the
//! [`FaultPlan`](iorchestra_suite::simcore::FaultPlan) subsystem can
//! inject, run across a seed sweep, with liveness and safety invariants
//! asserted on the observable state (the `/iorchestra/health` subtree,
//! guest kernel counters, workload recorders).
//!
//! Every scenario is a pure function of its seed: the harness runs each
//! `(scenario, seed)` pair **twice** and demands byte-identical summary
//! strings, so any failure printed below (`seed 0x…`) replays exactly.

use std::rc::Rc;

use iorchestra_suite::core::{keys, FunctionSet, SystemKind};
use iorchestra_suite::guestos::FileOp;
use iorchestra_suite::hypervisor::{Cluster, DomainId, Machine, Sched, VmSpec, DOM0};
use iorchestra_suite::simcore::{
    gen, FaultKind, FaultPlan, FaultWindow, SimDuration, SimTime, Simulation,
};
use iorchestra_suite::workloads::{recorder, spawn_multistream, MultiStreamParams, VmRef};

/// Seeds per scenario (each run twice for the determinism check).
const SEEDS: usize = 8;

fn sim_with(kind: SystemKind, seed: u64) -> (Simulation<Cluster>, usize) {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = kind.provision(cl, s, seed);
    (sim, idx)
}

/// Stock (slow) writeback clocks: only the collaborative flush can drain
/// dirty pages within the few simulated seconds a scenario runs.
fn slow_wb(g: &mut iorchestra_suite::guestos::GuestConfig) {
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

/// Read a `/iorchestra/health/<id>/<key>` counter ("0" if never
/// published — the plane only writes health keys on change).
fn health(m: &Machine, dom: DomainId, key: &str) -> String {
    m.store
        .read(DOM0, format!("{}/{}", keys::health_base(dom), key))
        .unwrap_or_else(|_| "0".to_string())
}

/// Run `scenario` twice per seed across the sweep and require the two
/// summaries to be byte-identical (bit-for-bit replay from the seed).
fn sweep(base: u64, scenario: impl Fn(u64) -> String) {
    gen::for_each_seed(base, SEEDS, |seed, _rng| {
        let a = scenario(seed);
        let b = scenario(seed);
        assert_eq!(
            a, b,
            "seed {seed:#018x}: scenario is not reproducible from its seed"
        );
    });
}

// --------------------------------------------------------------------
// Scenario 1: unresponsive guest (ignores flush_now)
// --------------------------------------------------------------------

/// A guest that never acks `flush_now` must not wedge the flush loop:
/// the command times out, the next-dirtiest domain gets the slot, and
/// after `flush_max_retries` consecutive timeouts the slacker is
/// quarantined — all visible in the health subtree.
#[test]
fn unresponsive_guest_flush_falls_back_and_quarantines() {
    sweep(0xFA_0001, |seed| {
        let kind = SystemKind::IOrchestraWith(FunctionSet::flush_only());
        let (mut sim, idx) = sim_with(kind, seed);
        let (cl, s) = sim.parts_mut();
        let slacker = cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), slow_wb);
        let healthy = cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), slow_wb);
        // The slacker is dirtier, so Algorithm 1's argmax picks it first.
        dirty_mb(cl, s, idx, slacker, 16);
        dirty_mb(cl, s, idx, healthy, 8);
        let plan = FaultPlan::new().with(
            FaultWindow::always(),
            FaultKind::IgnoreFlushNow { dom: slacker.0 },
        );
        cl.install_faults(s, idx, plan);
        sim.run_until(SimTime::from_secs(8));
        let m = sim.world().machine(idx);
        assert_eq!(
            m.domain(healthy).unwrap().kernel.dirty_pages(),
            0,
            "seed {seed:#x}: healthy guest starved behind an unresponsive peer"
        );
        let timeouts: u64 = health(m, slacker, "flush_timeouts").parse().unwrap();
        assert!(
            timeouts >= 1,
            "seed {seed:#x}: unacked flush_now never timed out"
        );
        assert_eq!(
            health(m, slacker, "quarantined"),
            "1",
            "seed {seed:#x}: persistently unresponsive guest must be quarantined"
        );
        assert_eq!(health(m, healthy, "quarantined"), "0", "seed {seed:#x}");
        format!(
            "slacker: timeouts={timeouts} dirty={} | healthy: dirty={}",
            m.domain(slacker).unwrap().kernel.dirty_pages(),
            m.domain(healthy).unwrap().kernel.dirty_pages(),
        )
    });
}

// --------------------------------------------------------------------
// Scenario 2: store hammer → quarantine → operator clear
// --------------------------------------------------------------------

/// A guest hammering the store is quarantined by the anomaly detector
/// while its co-resident keeps working; an operator write to
/// `/iorchestra/control/<id>/clear` restores collaboration.
#[test]
fn store_hammer_is_quarantined_and_operator_clear_restores() {
    sweep(0xFA_0002, |seed| {
        let (mut sim, idx) = sim_with(SystemKind::IOrchestra, seed);
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
        // 5000 writes/s for 1.5 s — far over the 200-per-second budget.
        let plan = FaultPlan::new().with(
            FaultWindow::new(SimTime::ZERO, SimTime::from_millis(1500)),
            FaultKind::StoreHammer {
                dom: evil.0,
                period: SimDuration::from_micros(200),
            },
        );
        cl.install_faults(s, idx, plan);
        sim.run_until(SimTime::from_secs(2));
        {
            let m = sim.world().machine(idx);
            assert_eq!(
                health(m, evil, "quarantined"),
                "1",
                "seed {seed:#x}: store hammer escaped quarantine"
            );
            assert_eq!(
                health(m, good, "quarantined"),
                "0",
                "seed {seed:#x}: co-resident wrongly quarantined"
            );
        }
        let ops_at_clear = rec.borrow().ops;
        assert!(
            ops_at_clear > 0,
            "seed {seed:#x}: co-resident made no progress under the hammer"
        );
        // Operator clear through the control channel (dom0-only subtree).
        let (cl, s) = sim.parts_mut();
        let path = keys::clear_quarantine(evil);
        cl.cp_action(s, idx, move |m, _s| {
            let _ = m.store.write(DOM0, &path, "1");
        });
        sim.run_until(SimTime::from_millis(2600));
        let m = sim.world().machine(idx);
        assert_eq!(
            health(m, evil, "quarantined"),
            "0",
            "seed {seed:#x}: operator clear did not restore the domain"
        );
        let ops = rec.borrow().ops;
        format!(
            "ops_at_clear={ops_at_clear} ops={ops} writes_evil={}",
            m.store.write_count(evil)
        )
    });
}

// --------------------------------------------------------------------
// Scenario 3: permission violator (probes another domain's subtree)
// --------------------------------------------------------------------

/// A guest probing a co-resident's `flush_now` key is denied by the
/// store's permission model on every attempt, trips the (much tighter)
/// denied-operation budget, and is quarantined; the victim's key is
/// never corrupted and the victim stays in good standing.
#[test]
fn permission_violator_is_denied_and_quarantined() {
    sweep(0xFA_0003, |seed| {
        let (mut sim, idx) = sim_with(SystemKind::IOrchestra, seed);
        let (cl, s) = sim.parts_mut();
        let evil = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(8), |_| {});
        let victim = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(8), |_| {});
        let plan = FaultPlan::new().with(
            FaultWindow::new(SimTime::ZERO, SimTime::from_secs(1)),
            FaultKind::StoreViolation {
                dom: evil.0,
                victim: victim.0,
                period: SimDuration::from_millis(5),
            },
        );
        cl.install_faults(s, idx, plan);
        sim.run_until(SimTime::from_secs(2));
        let m = sim.world().machine(idx);
        let denied: u64 = health(m, evil, "store_denied").parse().unwrap();
        assert!(
            denied > 0,
            "seed {seed:#x}: permission violations not accounted"
        );
        assert_eq!(
            health(m, evil, "quarantined"),
            "1",
            "seed {seed:#x}: permission violator escaped quarantine"
        );
        assert_eq!(health(m, victim, "quarantined"), "0", "seed {seed:#x}");
        // Safety: the poison value never landed in the victim's key.
        let flush_now = m.store.read(DOM0, keys::flush_now(victim)).unwrap();
        assert_ne!(
            flush_now, "31337",
            "seed {seed:#x}: cross-domain write reached the victim"
        );
        format!("denied={denied} victim_flush_now={flush_now}")
    });
}

// --------------------------------------------------------------------
// Scenario 4: degraded device — IOrchestra never worse than Baseline
// --------------------------------------------------------------------

/// With the device degraded (4× service-time slowdown mid-run),
/// IOrchestra on the same seed and plan must not fall meaningfully
/// behind Baseline: collaboration may not help a slow disk, but it must
/// never hurt.
#[test]
fn degraded_device_never_worse_than_baseline() {
    fn run(kind: SystemKind, seed: u64) -> u64 {
        let (mut sim, idx) = sim_with(kind, seed);
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
            FaultWindow::new(SimTime::from_millis(500), SimTime::from_millis(1500)),
            FaultKind::DeviceSlowdown { factor: 4.0 },
        );
        cl.install_faults(s, idx, plan);
        sim.run_until(SimTime::from_millis(2500));
        let ops = rec.borrow().ops;
        ops
    }
    sweep(0xFA_0004, |seed| {
        let base = run(SystemKind::Baseline, seed);
        let iorch = run(SystemKind::IOrchestra, seed);
        assert!(
            iorch as f64 >= base as f64 * 0.9,
            "seed {seed:#x}: IOrchestra ({iorch} ops) fell behind Baseline ({base} ops) on a degraded device"
        );
        assert!(base > 0, "seed {seed:#x}: baseline made no progress");
        format!("base={base} iorch={iorch}")
    });
}

// --------------------------------------------------------------------
// Scenario 5: device stall — liveness across the outage
// --------------------------------------------------------------------

/// A full device stall freezes completions for its window but must not
/// wedge anything: the workload resumes and keeps completing ops after
/// the window closes.
#[test]
fn device_stall_is_survived() {
    sweep(0xFA_0005, |seed| {
        let (mut sim, idx) = sim_with(SystemKind::IOrchestra, seed);
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
        sim.run_until(SimTime::from_millis(700));
        let during = rec.borrow().ops;
        sim.run_until(SimTime::from_millis(2500));
        let after = rec.borrow().ops;
        assert!(
            after > during,
            "seed {seed:#x}: no progress after the stall window ({during} -> {after})"
        );
        // The closed loop keeps streams running to the end of the run, so
        // recovery means real throughput, not a single straggler.
        assert!(
            after >= during + 10,
            "seed {seed:#x}: device barely recovered ({during} -> {after})"
        );
        format!("during={during} after={after}")
    });
}

// --------------------------------------------------------------------
// Scenario 6: watch-event delay — choreography still converges
// --------------------------------------------------------------------

/// With every XenBus watch delivery delayed, the flush choreography
/// still converges (just later): the dirty pages drain and the
/// `flush_now` round trip completes.
#[test]
fn delayed_watches_still_converge() {
    sweep(0xFA_0006, |seed| {
        let kind = SystemKind::IOrchestraWith(FunctionSet::flush_only());
        let (mut sim, idx) = sim_with(kind, seed);
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(20), slow_wb);
        dirty_mb(cl, s, idx, dom, 16);
        let plan = FaultPlan::new().with(
            FaultWindow::always(),
            FaultKind::WatchDelay {
                extra: SimDuration::from_millis(50),
            },
        );
        cl.install_faults(s, idx, plan);
        sim.run_until(SimTime::from_secs(5));
        let m = sim.world().machine(idx);
        assert_eq!(
            m.domain(dom).unwrap().kernel.dirty_pages(),
            0,
            "seed {seed:#x}: flush choreography never converged under watch delay"
        );
        assert_eq!(
            m.store.read(DOM0, keys::flush_now(dom)).unwrap(),
            "0",
            "seed {seed:#x}: flush_now round trip incomplete"
        );
        assert_eq!(health(m, dom, "quarantined"), "0", "seed {seed:#x}");
        format!(
            "dirty={} timeouts={}",
            m.domain(dom).unwrap().kernel.dirty_pages(),
            health(m, dom, "flush_timeouts"),
        )
    });
}

// --------------------------------------------------------------------
// Scenario 7: guest ignores release_request
// --------------------------------------------------------------------

/// A guest that ignores `release_request` simply degrades itself to
/// Baseline congestion behaviour (sleeping); nothing wedges and the
/// workload still makes progress.
#[test]
fn ignored_release_request_degrades_gracefully() {
    sweep(0xFA_0007, |seed| {
        let kind = SystemKind::IOrchestraWith(FunctionSet::congestion_only());
        let (mut sim, idx) = sim_with(kind, seed);
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(4, 4).with_disk_gb(20), |g| {
            g.queue.nr_requests = 64;
            g.readahead_chunks = 16;
        });
        let rec = recorder(SimTime::ZERO);
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
            Rc::clone(&rec),
        );
        let plan = FaultPlan::new().with(
            FaultWindow::always(),
            FaultKind::IgnoreReleaseRequest { dom: dom.0 },
        );
        cl.install_faults(s, idx, plan);
        sim.run_until(SimTime::from_secs(3));
        let m = sim.world().machine(idx);
        let k = &m.domain(dom).unwrap().kernel;
        assert_eq!(
            k.bypass_grants(),
            0,
            "seed {seed:#x}: the guest ignores releases, so none may be applied"
        );
        let ops = rec.borrow().ops;
        assert!(
            ops > 10,
            "seed {seed:#x}: workload wedged when release_request was ignored (ops={ops})"
        );
        format!(
            "ops={ops} congestion_entries={} bypass={}",
            k.congestion_entries(),
            k.bypass_grants()
        )
    });
}

// --------------------------------------------------------------------
// Quarantine semantics: monitoring keys of a flagged domain are inert
// --------------------------------------------------------------------

/// Once quarantined, a domain's monitoring keys are dead letters: even
/// if it advertises an enormous dirty-page count, the management tick
/// never orders it to flush — the slot goes to a well-behaved domain.
#[test]
fn quarantined_domain_monitoring_is_ignored() {
    sweep(0xFA_0008, |seed| {
        let kind = SystemKind::IOrchestraWith(FunctionSet::flush_only());
        let (mut sim, idx) = sim_with(kind, seed);
        let (cl, s) = sim.parts_mut();
        let evil = cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), slow_wb);
        let healthy = cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), slow_wb);
        let plan = FaultPlan::new().with(
            FaultWindow::new(SimTime::ZERO, SimTime::from_millis(800)),
            FaultKind::StoreHammer {
                dom: evil.0,
                period: SimDuration::from_micros(200),
            },
        );
        cl.install_faults(s, idx, plan);
        sim.run_until(SimTime::from_millis(1500));
        assert_eq!(
            health(sim.world().machine(idx), evil, "quarantined"),
            "1",
            "seed {seed:#x}: hammer not quarantined"
        );
        // The quarantined guest baits the flush policy with a huge
        // advertised dirty count; the healthy guest has real dirty pages.
        let (cl, s) = sim.parts_mut();
        dirty_mb(cl, s, idx, healthy, 8);
        let bait_flag = keys::has_dirty_pages(evil);
        let bait_nr = keys::nr_dirty(evil);
        cl.cp_action(s, idx, move |m, _s| {
            let _ = m.store.write(evil, &bait_flag, "1");
            let _ = m.store.write(evil, &bait_nr, "999999999");
        });
        sim.run_until(SimTime::from_secs(4));
        let m = sim.world().machine(idx);
        assert_eq!(
            m.store.read(DOM0, keys::flush_now(evil)).unwrap(),
            "0",
            "seed {seed:#x}: management tick acted on a quarantined domain's keys"
        );
        assert_eq!(
            m.domain(healthy).unwrap().kernel.dirty_pages(),
            0,
            "seed {seed:#x}: healthy guest should have received the flush slot"
        );
        format!(
            "evil_flush_now={} healthy_dirty={}",
            m.store.read(DOM0, keys::flush_now(evil)).unwrap(),
            m.domain(healthy).unwrap().kernel.dirty_pages(),
        )
    });
}
