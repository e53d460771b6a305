//! Integration tests for the collaborative machinery itself: the store
//! choreography of Algorithms 1 and 2 observed end to end, failure
//! injection, and the anomaly path.

use std::rc::Rc;

use iorchestra_suite::core::{FunctionSet, SystemKind};
use iorchestra_suite::guestos::FileOp;
use iorchestra_suite::hypervisor::{Cluster, VmSpec, DOM0};
use iorchestra_suite::simcore::{SimDuration, SimTime, Simulation};
use iorchestra_suite::workloads::{recorder, spawn_multistream, MultiStreamParams, VmRef};

fn sim_with(kind: SystemKind, seed: u64) -> (Simulation<Cluster>, usize) {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = kind.provision(cl, s, seed);
    (sim, idx)
}

/// Algorithm 1 end to end: a guest dirties pages, publishes
/// `has_dirty_pages`, and the management module orders a flush once the
/// device goes idle; the dirty pages reach the device without any app
/// `sync()`.
#[test]
fn flush_choreography_drains_dirty_pages() {
    let (mut sim, idx) = sim_with(SystemKind::IOrchestraWith(FunctionSet::flush_only()), 3);
    let (cl, s) = sim.parts_mut();
    let dom = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(20), |g| {
        // Stock (slow) writeback clocks: only IOrchestra can flush early.
        g.wb.periodic_interval = SimDuration::from_secs(30);
        g.wb.dirty_expire = SimDuration::from_secs(60);
    });
    let file = cl
        .machine_mut(idx)
        .kernel_mut(dom)
        .unwrap()
        .create_file(64 << 20)
        .unwrap();
    cl.submit_op(
        s,
        idx,
        dom,
        0,
        FileOp::Write {
            file,
            offset: 0,
            len: 16 << 20,
        },
        None,
    );
    // Before any policy action the pages are dirty.
    assert!(cl.machine(idx).domain(dom).unwrap().kernel.dirty_pages() > 0);
    sim.run_until(SimTime::from_secs(3));
    let m = sim.world().machine(idx);
    // The store shows the full round trip: has_dirty_pages back to 0 and
    // flush_now back to 0.
    assert_eq!(
        m.store
            .read(DOM0, "/local/domain/1/virt-dev/has_dirty_pages")
            .unwrap(),
        "0"
    );
    assert_eq!(
        m.store
            .read(DOM0, "/local/domain/1/virt-dev/flush_now")
            .unwrap(),
        "0"
    );
    assert_eq!(m.domain(dom).unwrap().kernel.dirty_pages(), 0);
    // And the 16 MiB actually reached the device.
    let (_, writes) = m.storage.monitor().byte_counts();
    assert!(writes >= 16 << 20, "writes={writes}");
}

/// Algorithm 2 end to end: a false congestion trigger is released through
/// the store (`congested` → `release_request` → bypass), so the guest
/// keeps more requests in flight than its descriptor limit.
#[test]
fn congestion_choreography_releases_false_triggers() {
    let kind = SystemKind::IOrchestraWith(FunctionSet::congestion_only());
    let (mut sim, idx) = sim_with(kind, 4);
    let (cl, s) = sim.parts_mut();
    let dom = cl.create_domain(s, idx, VmSpec::new(4, 4).with_disk_gb(20), |g| {
        g.queue.nr_requests = 64;
        g.readahead_chunks = 16;
    });
    let vm = VmRef { machine: idx, dom };
    let rec = recorder(SimTime::ZERO);
    spawn_multistream(
        cl,
        s,
        vm,
        MultiStreamParams {
            streams: 8,
            file_size: 1 << 30,
            read_size: 4 << 20,
            seed: 4,
        },
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_secs(3));
    let m = sim.world().machine(idx);
    let k = &m.domain(dom).unwrap().kernel;
    assert!(
        k.bypass_grants() >= 1,
        "the release_request path never engaged"
    );
    assert!(rec.borrow().ops > 10);
}

/// Same scenario under baseline: congestion engages and sleeps submitters
/// instead.
#[test]
fn baseline_congestion_sleeps_instead() {
    let (mut sim, idx) = sim_with(SystemKind::Baseline, 4);
    let (cl, s) = sim.parts_mut();
    let dom = cl.create_domain(s, idx, VmSpec::new(4, 4).with_disk_gb(20), |g| {
        g.queue.nr_requests = 64;
        g.readahead_chunks = 16;
    });
    let vm = VmRef { machine: idx, dom };
    let rec = recorder(SimTime::ZERO);
    spawn_multistream(
        cl,
        s,
        vm,
        MultiStreamParams {
            streams: 8,
            file_size: 1 << 30,
            read_size: 4 << 20,
            seed: 4,
        },
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_secs(3));
    let m = sim.world().machine(idx);
    let k = &m.domain(dom).unwrap().kernel;
    assert!(k.congestion_entries() >= 1, "congestion never triggered");
    assert_eq!(k.bypass_grants(), 0, "baseline must never bypass");
}

/// Failure injection: a guest that ignores `flush_now` (we simulate by
/// tearing the domain down right after the command) must not wedge the
/// management module — other domains still get flushed.
#[test]
fn unresponsive_guest_does_not_wedge_flush_policy() {
    let (mut sim, idx) = sim_with(SystemKind::IOrchestraWith(FunctionSet::flush_only()), 8);
    let (cl, s) = sim.parts_mut();
    let doomed = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(8), |g| {
        g.wb.periodic_interval = SimDuration::from_secs(30);
        g.wb.dirty_expire = SimDuration::from_secs(60);
    });
    let healthy = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(8), |g| {
        g.wb.periodic_interval = SimDuration::from_secs(30);
        g.wb.dirty_expire = SimDuration::from_secs(60);
    });
    for dom in [doomed, healthy] {
        let file = cl
            .machine_mut(idx)
            .kernel_mut(dom)
            .unwrap()
            .create_file(32 << 20)
            .unwrap();
        cl.submit_op(
            s,
            idx,
            dom,
            0,
            FileOp::Write {
                file,
                offset: 0,
                len: 8 << 20,
            },
            None,
        );
    }
    // Give the policy a moment, then kill the first domain mid-protocol.
    sim.run_until(SimTime::from_millis(150));
    let (cl, s) = sim.parts_mut();
    cl.destroy_domain(s, idx, doomed);
    sim.run_until(SimTime::from_secs(4));
    let m = sim.world().machine(idx);
    assert_eq!(
        m.domain(healthy).unwrap().kernel.dirty_pages(),
        0,
        "healthy guest must still be flushed"
    );
}

/// A malicious guest hammering the store gets flagged by the anomaly
/// detector while well-behaved guests stay clean.
#[test]
fn store_spammer_is_flagged() {
    let (mut sim, idx) = sim_with(SystemKind::IOrchestra, 15);
    let (cl, s) = sim.parts_mut();
    let evil = cl.create_domain(s, idx, VmSpec::new(1, 1), |_| {});
    let good = cl.create_domain(s, idx, VmSpec::new(1, 1), |_| {});
    // The malicious driver writes its keys in a tight loop.
    let path = format!("/local/domain/{}/virt-dev/spam", evil.0);
    s.schedule_every(SimDuration::from_micros(200), move |cl: &mut Cluster, s| {
        let m = cl.machine_mut(idx);
        let _ = m.store.write(evil, &path, "x");
        s.now() < SimTime::from_secs(2)
    });
    sim.run_until(SimTime::from_secs(3));
    let m = sim.world().machine(idx);
    assert!(m.store.write_count(evil) > 1_000);
    assert!(m.store.write_count(good) < 100);
    // The write counts are the detector's input; verify through the
    // machine-level accounting that the spammer dominates.
    assert!(m.store.write_count(evil) > 50 * m.store.write_count(good).max(1));
}
