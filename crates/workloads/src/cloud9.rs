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
    /// CPU burst per symbolic-execution step.
    pub burst: SimDuration,
    /// Probability a step does a small I/O after its burst.
    pub io_fraction: f64,
    /// Size of that I/O.
    pub io_size: u64,
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
            burst: SimDuration::from_millis(10),
            io_fraction: 0.05,
            io_size: 64 << 10,
            cpu_budget_secs: f64::INFINITY,
            seed: 1,
        }
    }
}

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
    let (vm, vcpu, burst, stop) = {
        let mut x = st.borrow_mut();
        let exhausted = x.spent[thread as usize] >= x.p.cpu_budget_secs;
        let stop = x.rec.borrow().stopped || exhausted;
        if exhausted {
            x.live_threads -= 1;
            if x.live_threads == 0 {
                x.rec.borrow_mut().finished = true;
            }
        }
        (x.vm, x.p.first_vcpu + thread, x.p.burst, stop)
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
        burst,
        Waiter::from_fn(move |cl, s, _| {
            let (do_io, op) = {
                let mut x = st2.borrow_mut();
                x.spent[thread as usize] += x.p.burst.as_secs_f64();
                let now = s.now();
                x.rec
                    .borrow_mut()
                    .record(now, now.saturating_since(started), 0);
                let frac = x.p.io_fraction;
                if x.rng.chance(frac) {
                    let io_size = x.p.io_size;
                    let off = x.rng.below((1 << 30) - io_size);
                    (
                        true,
                        Some(FileOp::Write {
                            file: x.scratch,
                            offset: off,
                            len: x.p.io_size,
                        }),
                    )
                } else {
                    (false, None)
                }
            };
            if do_io {
                let st3 = Rc::clone(&st2);
                cl.submit_op(
                    s,
                    vm.machine,
                    vm.dom,
                    vcpu,
                    op.unwrap(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cpu_heavy() {
        let p = Cloud9Params::default();
        assert!(p.io_fraction < 0.2, "Cloud9 must be CPU-bound");
        assert!(p.burst >= SimDuration::from_millis(1));
    }
}
