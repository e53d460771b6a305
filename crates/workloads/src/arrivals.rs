//! Dynamic VM arrivals — the §5.3/§5.5 methodology: VMs arrive as a
//! Poisson process at λ per minute, with VCPUs/memory drawn uniformly from
//! {2,4,6,8,10}, run one randomly chosen application (FS, YCSB1 or Cloud9)
//! with a fixed problem size, and depart when done. Arrivals are admitted
//! FIFO against a VCPU-capacity limit.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use iorch_hypervisor::{Cluster, DomainId, Sched, VmSpec};
use iorch_simcore::{SimDuration, SimRng, SimTime};

use crate::cloud9::{spawn_cloud9, Cloud9Params};
use crate::common::{recorder, Rec, VmRef};
use crate::filebench::{spawn_fileserver, FsParams};
use crate::ycsb::{spawn_ycsb, YcsbParams};

/// Which app a dynamically arriving VM runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalApp {
    /// FileBench file server, bounded by bytes moved.
    Fs,
    /// YCSB1 (update heavy), bounded by operation count.
    Ycsb1,
    /// Cloud9, bounded by CPU seconds.
    Cloud9,
}

/// Arrival-process parameters.
#[derive(Clone, Copy, Debug)]
pub struct ArrivalParams {
    /// Mean arrivals per minute (λ).
    pub lambda_per_min: f64,
    /// FS problem size: bytes to move before the VM departs
    /// (paper: "2 GB data transmission"; scaled runs shrink it).
    pub fs_bytes: u64,
    /// YCSB problem size: operations (paper: 50 000).
    pub ycsb_ops: u64,
    /// Cloud9 problem size: CPU seconds per thread.
    pub cloud9_cpu_secs: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ArrivalParams {
    fn default() -> Self {
        ArrivalParams {
            lambda_per_min: 8.0,
            fs_bytes: 2 << 30,
            ycsb_ops: 50_000,
            cloud9_cpu_secs: 20.0,
            seed: 1,
        }
    }
}

/// YCSB offered rate (requests/second) while a YCSB VM lives.
const YCSB_RATE: f64 = 2_000.0;
/// VCPUs admitted per physical core of the machine.
const VCPU_OVERCOMMIT: u32 = 2;

/// Live statistics of the arrival experiment.
#[derive(Debug, Default)]
pub struct ArrivalStats {
    /// VMs that arrived.
    pub arrived: u64,
    /// VMs admitted and started.
    pub started: u64,
    /// VMs that finished their problem size and departed.
    pub completed: u64,
    /// Currently waiting in the FIFO admission queue.
    pub queued: usize,
    /// Currently running.
    pub running: usize,
    /// Application payload bytes moved by *completed* VMs (the aggregate
    /// throughput metric of the paper's Table 2, scaled runs).
    pub payload_bytes: u64,
}

/// Shared stats handle.
pub type StatsHandle = Rc<RefCell<ArrivalStats>>;

struct Pending {
    spec: VmSpec,
    app: ArrivalApp,
}

struct Running {
    dom: DomainId,
    vcpus: u32,
    rec: Rec,
}

struct Arrivals {
    p: ArrivalParams,
    machine: usize,
    /// VCPU admission capacity: the machine's cores × [`VCPU_OVERCOMMIT`].
    vcpu_capacity: u32,
    rng: SimRng,
    fifo: VecDeque<Pending>,
    running: Vec<Running>,
    used_vcpus: u32,
    stats: StatsHandle,
    stopped: bool,
    next_seed: u64,
}

type Shared = Rc<RefCell<Arrivals>>;

/// Start the arrival process on a machine, running until `horizon`.
/// Returns the stats handle.
pub fn spawn_arrivals(
    cl: &mut Cluster,
    s: &mut Sched,
    machine: usize,
    p: ArrivalParams,
    horizon: SimTime,
) -> StatsHandle {
    let vcpu_capacity = cl.machine(machine).topology.cores() as u32 * VCPU_OVERCOMMIT;
    assert!(vcpu_capacity >= 10, "must admit the largest VM size");
    let stats: StatsHandle = Rc::new(RefCell::new(ArrivalStats::default()));
    let st = Rc::new(RefCell::new(Arrivals {
        rng: SimRng::new(p.seed),
        machine,
        vcpu_capacity,
        fifo: VecDeque::new(),
        running: Vec::new(),
        used_vcpus: 0,
        stats: Rc::clone(&stats),
        stopped: false,
        next_seed: p.seed.wrapping_mul(0x9E37),
        p,
    }));
    schedule_arrival(&st, s, horizon);
    // Completion reaper: poll running VMs and tear down finished ones.
    let st2 = Rc::clone(&st);
    s.schedule_every(SimDuration::from_millis(100), move |cl, s| {
        reap(&st2, cl, s);
        s.now() < horizon
    });
    stats
}

fn schedule_arrival(state: &Shared, s: &mut Sched, horizon: SimTime) {
    let gap = {
        let mut x = state.borrow_mut();
        if x.stopped {
            return;
        }
        let mean = SimDuration::from_secs_f64(60.0 / x.p.lambda_per_min.max(0.01));
        x.rng.exp_duration(mean)
    };
    if s.now() + gap > horizon {
        return;
    }
    let st = Rc::clone(state);
    s.schedule_in(gap, move |cl, s| {
        on_arrival(&st, cl, s);
        schedule_arrival(&st, s, horizon);
    });
}

fn on_arrival(state: &Shared, cl: &mut Cluster, s: &mut Sched) {
    {
        let mut x = state.borrow_mut();
        let size = *x.rng.pick(&[2u32, 4, 6, 8, 10]);
        let app = *x
            .rng
            .pick(&[ArrivalApp::Fs, ArrivalApp::Ycsb1, ArrivalApp::Cloud9]);
        let spec = VmSpec::new(size, size as u64).with_disk_gb(12);
        x.stats.borrow_mut().arrived += 1;
        x.fifo.push_back(Pending { spec, app });
        x.stats.borrow_mut().queued = x.fifo.len();
    }
    admit(state, cl, s);
}

fn admit(state: &Shared, cl: &mut Cluster, s: &mut Sched) {
    loop {
        let next = {
            let mut x = state.borrow_mut();
            match x.fifo.front() {
                Some(p) if x.used_vcpus + p.spec.vcpus <= x.vcpu_capacity => {
                    let p = x.fifo.pop_front().unwrap();
                    x.stats.borrow_mut().queued = x.fifo.len();
                    Some(p)
                }
                _ => None,
            }
        };
        let Some(pending) = next else { break };
        start_vm(state, cl, s, pending);
    }
}

fn start_vm(state: &Shared, cl: &mut Cluster, s: &mut Sched, pending: Pending) {
    let (machine, seed, params) = {
        let mut x = state.borrow_mut();
        x.next_seed = x.next_seed.wrapping_add(0x9E37_79B9);
        (x.machine, x.next_seed, x.p)
    };
    let dom = cl.create_domain(s, machine, pending.spec, |g| {
        // Dynamic VMs exercise writeback quickly.
        g.wb.periodic_interval = SimDuration::from_secs(1);
        g.wb.dirty_expire = SimDuration::from_secs(5);
    });
    let vm = VmRef { machine, dom };
    let rec = recorder(s.now());
    let threads = pending.spec.vcpus.min(4);
    match pending.app {
        ArrivalApp::Fs => {
            let p = FsParams {
                threads,
                max_bytes: params.fs_bytes,
                seed,
                ..FsParams::default()
            };
            spawn_fileserver(cl, s, vm, p, Rc::clone(&rec));
        }
        ArrivalApp::Ycsb1 => {
            let p = YcsbParams::ycsb1(YCSB_RATE, seed).with_max_ops(params.ycsb_ops);
            spawn_ycsb(cl, s, &[vm], None, p, Rc::clone(&rec));
        }
        ArrivalApp::Cloud9 => {
            let p = Cloud9Params {
                threads,
                cpu_budget_secs: params.cloud9_cpu_secs,
                seed,
                ..Cloud9Params::default()
            };
            spawn_cloud9(cl, s, vm, p, Rc::clone(&rec));
        }
    }
    let mut x = state.borrow_mut();
    x.used_vcpus += pending.spec.vcpus;
    x.running.push(Running {
        dom,
        vcpus: pending.spec.vcpus,
        rec,
    });
    let mut st = x.stats.borrow_mut();
    st.started += 1;
    st.running = x.running.len();
}

fn reap(state: &Shared, cl: &mut Cluster, s: &mut Sched) {
    let finished: Vec<(DomainId, u32)> = {
        let x = state.borrow();
        x.running
            .iter()
            .filter(|r| r.rec.borrow().finished)
            .map(|r| (r.dom, r.vcpus))
            .collect()
    };
    for (dom, vcpus) in finished {
        {
            let mut x = state.borrow_mut();
            let payload: u64 = x
                .running
                .iter()
                .filter(|r| r.dom == dom)
                .map(|r| r.rec.borrow().bytes)
                .sum();
            x.running.retain(|r| r.dom != dom);
            x.used_vcpus -= vcpus;
            let mut st = x.stats.borrow_mut();
            st.completed += 1;
            st.running = x.running.len();
            st.payload_bytes += payload;
        }
        let machine = state.borrow().machine;
        cl.destroy_domain(s, machine, dom);
    }
    admit(state, cl, s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_default() {
        assert!(ArrivalParams::default().lambda_per_min > 0.0);
    }
}
