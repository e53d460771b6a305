//! Policy-level integration tests: the IOrchestra plane's store
//! choreography, statistics and per-function toggles observed directly.

use iorch_guestos::FileOp;
use iorch_hypervisor::{Cluster, IoPathMode, MachineConfig, VmSpec, DOM0};
use iorch_simcore::{SimDuration, SimTime, Simulation};
use iorchestra::{keys, FunctionSet, IOrchestraConfig, PolicyEngine, PolicySet, SystemKind};

#[test]
fn store_keys_are_registered_on_domain_creation() {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = SystemKind::IOrchestra.provision(cl, s, 1);
    let dom = cl.create_domain(s, idx, VmSpec::new(2, 4), |_| {});
    let m = cl.machine(idx);
    for key in [
        keys::flush_now(dom),
        keys::congested(dom),
        keys::release_request(dom),
        keys::has_dirty_pages(dom),
    ] {
        assert_eq!(m.store.read(DOM0, &key).unwrap(), "0", "{key}");
    }
}

#[test]
fn dirty_publication_flows_to_store() {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = SystemKind::IOrchestraWith(FunctionSet::flush_only()).provision(cl, s, 2);
    let dom = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(10), |g| {
        // Slow stock clocks so only the policy flushes.
        g.wb.periodic_interval = SimDuration::from_secs(60);
        g.wb.dirty_expire = SimDuration::from_secs(120);
    });
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
            len: 4 << 20,
        },
        None,
    );
    // Right after the write (before the first 100 ms management tick can
    // flush it) the store must show has_dirty_pages=1 and a fresh nr.
    sim.run_until(SimTime::from_millis(5));
    let m = sim.world().machine(idx);
    assert_eq!(m.store.read(DOM0, keys::has_dirty_pages(dom)).unwrap(), "1");
    let nr: u64 = m
        .store
        .read(DOM0, keys::nr_dirty(dom))
        .unwrap()
        .parse()
        .unwrap();
    assert!(nr >= 1024, "nr={nr}"); // 4 MiB = 1024 pages
                                    // Eventually the device idles and Algorithm 1 flushes it.
    sim.run_until(SimTime::from_secs(3));
    let m = sim.world().machine(idx);
    assert_eq!(m.store.read(DOM0, keys::has_dirty_pages(dom)).unwrap(), "0");
}

#[test]
fn plane_stats_count_activations() {
    // Drive the flush choreography and check PlaneStats via a plane we
    // hold the configuration of (provisioned manually).
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = cl.add_machine(MachineConfig::paper_testbed(3, IoPathMode::Paravirt));
    let plane = PolicyEngine::new(PolicySet::iorchestra(
        IOrchestraConfig::new(3).with_functions(FunctionSet::flush_only()),
    ));
    cl.install_control(s, idx, Box::new(plane));
    let dom = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(10), |g| {
        g.wb.periodic_interval = SimDuration::from_secs(60);
        g.wb.dirty_expire = SimDuration::from_secs(120);
    });
    let file = cl
        .machine_mut(idx)
        .kernel_mut(dom)
        .unwrap()
        .create_file(32 << 20)
        .unwrap();
    for i in 0..4u64 {
        cl.submit_op(
            s,
            idx,
            dom,
            0,
            FileOp::Write {
                file,
                offset: i * (4 << 20),
                len: 4 << 20,
            },
            None,
        );
    }
    sim.run_until(SimTime::from_secs(4));
    // The flush round trip completed: dirty drained and flush_now reset.
    let m = sim.world().machine(idx);
    assert_eq!(m.store.read(DOM0, keys::flush_now(dom)).unwrap(), "0");
    assert_eq!(m.domain(dom).unwrap().kernel.dirty_pages(), 0);
    let (_, wbytes) = m.storage.monitor().byte_counts();
    assert!(wbytes >= 16 << 20);
}

#[test]
fn cosched_programs_weights_for_cross_socket_vm() {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = SystemKind::IOrchestra.provision(cl, s, 4);
    // A 10-VCPU VM must span both sockets (2x6 cores, 2 reserved).
    let dom = cl.create_domain(s, idx, VmSpec::new(10, 8).with_disk_gb(20), |_| {});
    sim.run_until(SimTime::from_secs(3));
    let m = sim.world().machine(idx);
    // The management module published per-socket weights to the store.
    let w0 = m.store.read(DOM0, keys::socket_weight(dom, 0));
    let w1 = m.store.read(DOM0, keys::socket_weight(dom, 1));
    assert!(
        w0.is_ok() && w1.is_ok(),
        "weights not published: {w0:?} {w1:?}"
    );
    let w0: f64 = w0.unwrap().parse().unwrap();
    let w1: f64 = w1.unwrap().parse().unwrap();
    assert!(
        (w0 + w1 - 1.0).abs() < 0.01,
        "weights must sum to 1: {w0} {w1}"
    );
    assert!(w0 > 0.0 && w1 > 0.0, "a cross-socket VM uses both sockets");
}

/// Satellite contract for the operator clear channel: a `clear` written
/// while the domain is *not* quarantined, and a second clear right after a
/// first one, are strict no-ops — no health-key writes, no
/// quarantine-cleared decisions, no anomaly/streak resets riding along.
#[test]
fn clear_without_quarantine_and_double_clear_are_noops() {
    iorch_simcore::gen::for_each_seed(0xC1EA12, 8, |seed, rng| {
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let idx = SystemKind::IOrchestra.provision(cl, s, seed);
        let doms = 1 + rng.below(3);
        let mut ids = Vec::new();
        for _ in 0..doms {
            ids.push(cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), |_| {}));
        }
        sim.run_until(SimTime::from_secs(1));
        let health = |m: &iorch_hypervisor::Machine, dom| {
            (
                m.store
                    .read(DOM0, keys::health_quarantined(dom))
                    .unwrap_or_default(),
                m.store
                    .read(DOM0, keys::health_flush_timeouts(dom))
                    .unwrap_or_default(),
                m.store
                    .read(DOM0, keys::health_store_denied(dom))
                    .unwrap_or_default(),
            )
        };
        let before: Vec<_> = {
            let m = sim.world().machine(idx);
            ids.iter().map(|&d| health(m, d)).collect()
        };
        for (i, b) in before.iter().enumerate() {
            assert_eq!(b.0, "0", "seed {seed}: dom {i} must start unquarantined");
        }
        let session = iorch_simcore::trace::TraceSession::new();
        // Two clears for every (unquarantined) domain: the first is a
        // clear-without-quarantine, the second a double clear.
        let mut t = SimTime::from_secs(1);
        for _round in 0..2 {
            let (cl, s) = sim.parts_mut();
            for &dom in &ids {
                let path = keys::clear_quarantine(dom);
                cl.cp_action(s, idx, move |m, _s| {
                    let _ = m.store.write(DOM0, path.as_str(), "1");
                });
            }
            t += SimDuration::from_millis(500);
            sim.run_until(t);
        }
        let events = session.finish().into_events();
        if iorch_simcore::trace::COMPILED {
            let decisions = iorch_simcore::trace::render_decision_log(&events);
            assert!(
                !decisions.contains("quarantine_cleared"),
                "seed {seed}: clear of an unquarantined domain emitted a decision"
            );
        }
        let m = sim.world().machine(idx);
        for (i, &dom) in ids.iter().enumerate() {
            assert_eq!(
                health(m, dom),
                before[i],
                "seed {seed}: no-op clear changed dom {i}'s health keys"
            );
            // The command edge was consumed, so the channel is re-armed.
            assert_eq!(
                m.store
                    .read(DOM0, keys::clear_quarantine(dom))
                    .unwrap_or_default(),
                "0",
                "seed {seed}: clear command not consumed"
            );
        }
    });
}

#[test]
fn dif_and_baseline_planes_never_touch_the_store() {
    for plane in [true, false] {
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let idx = cl.add_machine(MachineConfig::paper_testbed(5, IoPathMode::Paravirt));
        if plane {
            cl.install_control(s, idx, Box::new(PolicyEngine::new(PolicySet::dif())));
        } else {
            cl.install_control(s, idx, Box::new(PolicyEngine::new(PolicySet::baseline())));
        }
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(6), |_| {});
        let file = cl
            .machine_mut(idx)
            .kernel_mut(dom)
            .unwrap()
            .create_file(8 << 20)
            .unwrap();
        cl.submit_op(
            s,
            idx,
            dom,
            0,
            FileOp::Write {
                file,
                offset: 0,
                len: 2 << 20,
            },
            None,
        );
        sim.run_until(SimTime::from_secs(2));
        let m = sim.world().machine(idx);
        // Neither comparison system uses the IOrchestra keys.
        assert!(m.store.read(DOM0, keys::flush_now(dom)).is_err());
        assert!(m.store.read(DOM0, keys::congested(dom)).is_err());
    }
}

#[test]
fn rate_limit_rule_caps_only_its_domain_on_the_paravirt_ring() {
    use std::cell::Cell;
    use std::rc::Rc;

    use iorch_hypervisor::DomainId;
    use iorch_simcore::trace::{TraceEventKind, TraceSession, COMPILED};
    use iorchestra::policy::EnforcementPoint;
    use iorchestra::{Action, PolicyCtx, Rule};

    const CAP: u64 = 4 << 20;
    /// Caps one domain's backend dispatch from the first tick on.
    struct CapOne(Rc<Cell<Option<DomainId>>>);
    impl Rule for CapOne {
        fn on_tick(&mut self, _ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
            if let Some(dom) = self.0.take() {
                out.push(Action::RateLimit {
                    dom,
                    bytes_per_sec: Some(CAP),
                });
            }
        }
    }

    let session = COMPILED.then(TraceSession::new);
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = cl.add_machine(MachineConfig::paper_testbed(4, IoPathMode::Paravirt));
    let target = Rc::new(Cell::new(None));
    let set = PolicySet::custom("cap-one", IOrchestraConfig::new(4))
        .rule(EnforcementPoint::RingPush, CapOne(Rc::clone(&target)));
    cl.install_control(s, idx, Box::new(PolicyEngine::new(set)));
    // Two identical sequential readers, each asking for ~26 MB/s.
    const FILE: u64 = 256 << 20;
    const READ: u64 = 256 << 10;
    let doms: Vec<_> = (0..2)
        .map(|_| {
            let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(2), |_| {});
            let file = cl
                .machine_mut(idx)
                .kernel_mut(dom)
                .unwrap()
                .create_file(FILE)
                .unwrap();
            let mut next = 0u64;
            s.schedule_every(SimDuration::from_millis(10), move |cl: &mut Cluster, s| {
                let op = FileOp::Read {
                    file,
                    offset: next % FILE,
                    len: READ,
                };
                next += READ;
                cl.submit_op(s, idx, dom, 0, op, None);
                true
            });
            dom
        })
        .collect();
    let (capped, free) = (doms[0], doms[1]);
    target.set(Some(capped));

    sim.run_until(SimTime::from_secs(1));
    let m = sim.world().machine(idx);
    let start = (m.io_bytes(capped), m.io_bytes(free));
    sim.run_until(SimTime::from_secs(3));
    let m = sim.world().machine(idx);
    let rate = |now: u64, then: u64| (now - then) / 2;
    let capped_bps = rate(m.io_bytes(capped), start.0);
    let free_bps = rate(m.io_bytes(free), start.1);
    // The window may catch one request more than the cap admits.
    assert!(
        capped_bps <= CAP + READ,
        "capped domain ran at {capped_bps} B/s, cap {CAP}"
    );
    assert!(
        capped_bps >= CAP * 3 / 4,
        "capped domain starved: {capped_bps} B/s"
    );
    assert!(free_bps > 3 * CAP, "neighbour only reached {free_bps} B/s");
    assert_eq!(m.rate_limit(capped), Some(CAP));
    assert_eq!(m.rate_limit(free), None);

    if let Some(session) = session {
        let deferred: Vec<u32> = session
            .finish()
            .into_events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::RateLimitDefer { dom, .. } => Some(dom),
                _ => None,
            })
            .collect();
        assert!(!deferred.is_empty(), "the limiter never deferred a request");
        assert!(
            deferred.iter().all(|&d| d == capped.0),
            "a RateLimitDefer named an uncapped domain"
        );
    }
}
