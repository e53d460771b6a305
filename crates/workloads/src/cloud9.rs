//! Cloud9 — the CPU-intensive co-runner (distributed symbolic-execution
//! testing service). It mostly burns CPU, with light periodic I/O
//! (loading test targets, writing reports). The paper uses it to show
//! IOrchestra leaves CPU-bound workloads untouched (§5.2) and as the
//! compute half of the §5.5 mixed big-VM experiment.

use std::cell::RefCell;
use std::rc::Rc;

use iorch_guestos::{FileId, FileOp};
use iorch_hypervisor::{Cluster, Sched, Waiter};
use iorch_simcore::{SimDuration, SimRng};

use crate::common::{provision_files, Rec, VmRef};

/// Cloud9 parameters.
#[derive(Clone, Copy, Debug)]
pub struct Cloud9Params {
    /// Worker threads (one per VCPU typically).
    pub threads: u32,
    /// First VCPU to pin threads onto.
    pub first_vcpu: u32,
    /// Total CPU seconds per thread before the job finishes
    /// (`f64::INFINITY` = unbounded).
    pub cpu_budget_secs: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Cloud9Params {
    fn default() -> Self {
        Cloud9Params {
            threads: 2,
            first_vcpu: 0,
            cpu_budget_secs: f64::INFINITY,
            seed: 1,
        }
    }
}

/// CPU burst per symbolic-execution step.
const BURST: SimDuration = SimDuration::from_millis(10);
/// Probability a step does a small I/O after its burst.
const IO_FRACTION: f64 = 0.05;
/// Size of that I/O.
const IO_SIZE: u64 = 64 << 10;
// Cloud9 is CPU-bound.
const _: () = assert!(IO_FRACTION < 0.2 && BURST.as_nanos() >= 1_000_000);

struct Cloud9 {
    p: Cloud9Params,
    vm: VmRef,
    scratch: FileId,
    rng: SimRng,
    spent: Vec<f64>,
    live_threads: u32,
    rec: Rec,
}

type Shared = Rc<RefCell<Cloud9>>;

/// Launch Cloud9 on a VM.
pub fn spawn_cloud9(cl: &mut Cluster, s: &mut Sched, vm: VmRef, p: Cloud9Params, rec: Rec) {
    let scratch = provision_files(cl, vm, 1, 1 << 30)[0];
    let st = Rc::new(RefCell::new(Cloud9 {
        rng: SimRng::new(p.seed),
        spent: vec![0.0; p.threads as usize],
        live_threads: p.threads,
        p,
        vm,
        scratch,
        rec,
    }));
    for t in 0..p.threads {
        step(Rc::clone(&st), cl, s, t);
    }
}

fn step(st: Shared, cl: &mut Cluster, s: &mut Sched, thread: u32) {
    let (vm, vcpu, stop) = {
        let mut x = st.borrow_mut();
        let exhausted = x.spent[thread as usize] >= x.p.cpu_budget_secs;
        let stop = x.rec.borrow().stopped || exhausted;
        if exhausted {
            x.live_threads -= 1;
            if x.live_threads == 0 {
                x.rec.borrow_mut().finished = true;
            }
        }
        (x.vm, x.p.first_vcpu + thread, stop)
    };
    if stop {
        return;
    }
    let started = s.now();
    let st2 = Rc::clone(&st);
    cl.run_cpu(
        s,
        vm.machine,
        vm.dom,
        vcpu,
        BURST,
        Waiter::from_fn(move |cl, s, _| {
            let io = {
                let mut x = st2.borrow_mut();
                x.spent[thread as usize] += BURST.as_secs_f64();
                let now = s.now();
                x.rec
                    .borrow_mut()
                    .record(now, now.saturating_since(started), 0);
                if x.rng.chance(IO_FRACTION) {
                    let off = x.rng.below((1 << 30) - IO_SIZE);
                    Some(FileOp::Write {
                        file: x.scratch,
                        offset: off,
                        len: IO_SIZE,
                    })
                } else {
                    None
                }
            };
            if let Some(op) = io {
                let st3 = Rc::clone(&st2);
                cl.submit_op(
                    s,
                    vm.machine,
                    vm.dom,
                    vcpu,
                    op,
                    Some(Waiter::from_fn(move |cl, s, _| {
                        step(Rc::clone(&st3), cl, s, thread);
                    })),
                );
            } else {
                step(Rc::clone(&st2), cl, s, thread);
            }
        }),
    );
}
