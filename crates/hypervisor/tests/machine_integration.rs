//! Machine-level integration tests exercising the full I/O path and the
//! control-plane hook surface without the policy crate.

use std::cell::RefCell;
use std::rc::Rc;

use iorch_guestos::{FileOp, KernelSignal};
use iorch_hypervisor::{
    Cluster, ControlPlane, DomainId, IoPathMode, Machine, MachineConfig, Sched, VmSpec, Waiter,
    WatchEvent, DOM0,
};
use iorch_simcore::{SimDuration, SimTime, Simulation};

/// A recording control plane: counts every hook invocation.
#[derive(Default)]
struct Recorder {
    signals: Rc<RefCell<Vec<(DomainId, KernelSignal)>>>,
    store_events: Rc<RefCell<Vec<WatchEvent>>>,
    ticks: Rc<RefCell<u32>>,
}

impl ControlPlane for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn tick_period(&self) -> Option<SimDuration> {
        Some(SimDuration::from_millis(50))
    }
    fn on_kernel_signal(
        &mut self,
        m: &mut Machine,
        s: &mut Sched,
        dom: DomainId,
        sig: KernelSignal,
    ) {
        self.signals.borrow_mut().push((dom, sig));
        if sig == KernelSignal::CongestionQuery {
            m.cp_enter_congestion(s, dom);
        }
    }
    fn on_store_event(&mut self, _m: &mut Machine, _s: &mut Sched, ev: WatchEvent) {
        self.store_events.borrow_mut().push(ev);
    }
    fn on_tick(&mut self, _m: &mut Machine, _s: &mut Sched) {
        *self.ticks.borrow_mut() += 1;
    }
}

#[test]
fn control_plane_receives_signals_events_and_ticks() {
    let mut sim = Simulation::new(Cluster::new());
    let recorder = Recorder::default();
    let signals = Rc::clone(&recorder.signals);
    let events = Rc::clone(&recorder.store_events);
    let ticks = Rc::clone(&recorder.ticks);
    let (cl, s) = sim.parts_mut();
    let idx = cl.add_machine(MachineConfig::paper_testbed(1, IoPathMode::Paravirt));
    cl.install_control(s, idx, Box::new(recorder));
    let dom = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(10), |_| {});
    // Register a watch, then write through the store so the event flows
    // through XenBus latency to the control plane.
    cl.machine_mut(idx).store.watch(DOM0, "/local");
    let file = cl
        .machine_mut(idx)
        .kernel_mut(dom)
        .unwrap()
        .create_file(64 << 20)
        .unwrap();
    cl.machine_mut(idx)
        .store
        .write(DOM0, "/local/domain/1/test", "ping")
        .unwrap();
    // A buffered write triggers DirtyStatusChanged.
    cl.submit_op(
        s,
        idx,
        dom,
        0,
        FileOp::Write {
            file,
            offset: 0,
            len: 1 << 20,
        },
        None,
    );
    sim.run_until(SimTime::from_secs(1));
    assert!(
        signals
            .borrow()
            .iter()
            .any(|(d, s)| *d == dom && matches!(s, KernelSignal::DirtyStatusChanged(true))),
        "dirty signal must reach the control plane"
    );
    assert!(
        events
            .borrow()
            .iter()
            .any(|e| &*e.path == "/local/domain/1/test"),
        "watch event must be delivered"
    );
    assert!(*ticks.borrow() >= 15, "ticks={}", *ticks.borrow());
}

#[test]
fn io_paths_have_expected_overhead_ordering() {
    // The same single cold read must be cheaper through a polling core
    // than through the paravirt doorbell/interrupt path.
    let run = |mode: IoPathMode| {
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let idx = cl.add_machine(MachineConfig::paper_testbed(2, mode));
        let dom = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(10), |_| {});
        let file = cl
            .machine_mut(idx)
            .kernel_mut(dom)
            .unwrap()
            .create_file(16 << 20)
            .unwrap();
        let out: Rc<RefCell<Option<SimDuration>>> = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        cl.submit_op(
            s,
            idx,
            dom,
            0,
            FileOp::Read {
                file,
                offset: 0,
                len: 64 << 10,
            },
            Some(Waiter::from_fn(move |_, _, r| {
                *out2.borrow_mut() = r.map(|r| r.latency());
            })),
        );
        sim.run_until(SimTime::from_millis(50));
        let v = out.borrow().expect("read completes");
        v
    };
    let paravirt = run(IoPathMode::Paravirt);
    let polled = run(IoPathMode::DedicatedCores { per_socket: true });
    assert!(
        polled < paravirt,
        "polled {polled} must beat paravirt {paravirt}"
    );
}

#[test]
fn blkio_weights_shift_device_share() {
    // Two VMs flooding the device; tripling one VM's blkio weight must
    // move completed bytes toward it.
    let run = |weighted: bool| {
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let idx = cl.add_machine(MachineConfig::paper_testbed(3, IoPathMode::Paravirt));
        let a = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(10), |_| {});
        let b = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(10), |_| {});
        if weighted {
            cl.machine_mut(idx).cp_set_blkio_weight(a, 600);
            cl.machine_mut(idx).cp_set_blkio_weight(b, 200);
        }
        for dom in [a, b] {
            let file = cl
                .machine_mut(idx)
                .kernel_mut(dom)
                .unwrap()
                .create_file(2 << 30)
                .unwrap();
            // Enough 1 MiB reads to keep the host queue backed up, so the
            // weighted-fair queue actually arbitrates.
            for i in 0..400u64 {
                cl.submit_op(
                    s,
                    idx,
                    dom,
                    (i % 2) as u32,
                    FileOp::Read {
                        file,
                        offset: (i * 509) % 1_900 * (1 << 20),
                        len: 1 << 20,
                    },
                    None,
                );
            }
        }
        // Sample mid-backlog, before either VM's work completes.
        sim.run_until(SimTime::from_millis(80));
        let m = sim.world().machine(idx);
        (m.io_bytes(a), m.io_bytes(b))
    };
    let (ua, ub) = run(false);
    let (wa, wb) = run(true);
    let unweighted_ratio = ua as f64 / ub.max(1) as f64;
    let weighted_ratio = wa as f64 / wb.max(1) as f64;
    assert!(
        weighted_ratio > unweighted_ratio * 1.2,
        "weights must bias service: {unweighted_ratio:.2} -> {weighted_ratio:.2}"
    );
}

#[test]
fn cluster_machines_are_isolated() {
    // I/O on machine 0 must not affect machine 1's device counters.
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let m0 = cl.add_machine(MachineConfig::paper_testbed(4, IoPathMode::Paravirt));
    let m1 = cl.add_machine(MachineConfig::paper_testbed(5, IoPathMode::Paravirt));
    let dom = cl.create_domain(s, m0, VmSpec::new(2, 4).with_disk_gb(10), |_| {});
    let file = cl
        .machine_mut(m0)
        .kernel_mut(dom)
        .unwrap()
        .create_file(16 << 20)
        .unwrap();
    cl.submit_op(
        s,
        m0,
        dom,
        0,
        FileOp::Read {
            file,
            offset: 0,
            len: 1 << 20,
        },
        None,
    );
    sim.run_until(SimTime::from_millis(100));
    let w = sim.world();
    let (r0, _) = w.machine(m0).storage.monitor().byte_counts();
    let (r1, w1) = w.machine(m1).storage.monitor().byte_counts();
    assert!(r0 >= 1 << 20);
    assert_eq!((r1, w1), (0, 0));
}
