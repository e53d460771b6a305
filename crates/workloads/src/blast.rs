//! mpiBLAST — parallel sequence search over a partitioned database [3, 19].
//!
//! Each worker VM owns one partition of the NCBI NT/NR database and scans
//! it sequentially per query (BLAST "sequentially checks the patterns" —
//! §5.2), alternating large reads with CPU-heavy alignment work, then
//! reports hits to the master over the network. More machines mean smaller
//! partitions per query but extra coordination traffic.

use std::cell::RefCell;
use std::rc::Rc;

use iorch_guestos::{FileId, FileOp};
use iorch_hypervisor::{Cluster, Sched, Waiter};
use iorch_netsim::{Network, NodeId};
use iorch_simcore::{SimDuration, SimTime};

use crate::common::{provision_files, Rec, VmRef};

/// mpiBLAST parameters.
#[derive(Clone, Copy, Debug)]
pub struct BlastParams {
    /// Total database size, split evenly across workers (NT is ~60 GB; we
    /// scan a window per query).
    pub db_bytes_per_worker: u64,
    /// Bytes scanned per query per worker.
    pub scan_per_query: u64,
    /// Read size per I/O.
    pub read_size: u64,
    /// CPU per byte scanned (alignment work), as time per MiB.
    pub cpu_per_mib: SimDuration,
    /// Result-message size sent to the master after each query.
    pub result_msg: u64,
    /// Number of queries (`u64::MAX` = run until stopped).
    pub max_queries: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BlastParams {
    fn default() -> Self {
        BlastParams {
            db_bytes_per_worker: 4 << 30,
            scan_per_query: 64 << 20,
            read_size: 2 << 20,
            cpu_per_mib: SimDuration::from_micros(700),
            result_msg: 64 << 10,
            max_queries: u64::MAX,
            seed: 1,
        }
    }
}

struct Blast {
    p: BlastParams,
    workers: Vec<VmRef>,
    dbs: Vec<FileId>,
    positions: Vec<u64>,
    net: Option<Rc<RefCell<Network>>>,
    net_ids: Vec<Option<NodeId>>,
    master_net: Option<NodeId>,
    /// Per-query outstanding worker count (barrier at the master).
    outstanding: u64,
    queries_done: u64,
    rec: Rec,
}

type Shared = Rc<RefCell<Blast>>;

/// Launch mpiBLAST over `workers` (worker 0's machine hosts the master).
/// `net` carries result messages for multi-machine runs.
pub fn spawn_blast(
    cl: &mut Cluster,
    s: &mut Sched,
    workers: &[VmRef],
    net: Option<(Rc<RefCell<Network>>, Vec<NodeId>, NodeId)>,
    p: BlastParams,
    rec: Rec,
) {
    assert!(!workers.is_empty());
    let dbs: Vec<FileId> = workers
        .iter()
        .map(|&vm| provision_files(cl, vm, 1, p.db_bytes_per_worker)[0])
        .collect();
    let (net_rc, net_ids, master) = match net {
        Some((n, ids, master)) => {
            assert_eq!(ids.len(), workers.len());
            (Some(n), ids.into_iter().map(Some).collect(), Some(master))
        }
        None => (None, vec![None; workers.len()], None),
    };
    let st = Rc::new(RefCell::new(Blast {
        positions: vec![0; workers.len()],
        outstanding: 0,
        queries_done: 0,
        workers: workers.to_vec(),
        dbs,
        net: net_rc,
        net_ids,
        master_net: master,
        p,
        rec,
    }));
    start_query(&st, cl, s);
}

fn start_query(state: &Shared, cl: &mut Cluster, s: &mut Sched) {
    let n = {
        let mut x = state.borrow_mut();
        if x.rec.borrow().stopped || x.queries_done >= x.p.max_queries {
            return;
        }
        x.outstanding = x.workers.len() as u64;
        x.workers.len()
    };
    for w in 0..n {
        worker_scan(Rc::clone(state), cl, s, w, 0);
    }
}

fn worker_scan(st: Shared, cl: &mut Cluster, s: &mut Sched, worker: usize, scanned: u64) {
    let (vm, op, cpu, done_scan) = {
        let mut x = st.borrow_mut();
        if x.rec.borrow().stopped {
            return;
        }
        if scanned >= x.p.scan_per_query {
            (x.workers[worker], None, SimDuration::ZERO, true)
        } else {
            let rsz = x.p.read_size;
            let dbsz = x.p.db_bytes_per_worker;
            let pos = x.positions[worker];
            let offset = pos % (dbsz - rsz).max(1);
            x.positions[worker] = pos + rsz;
            let cpu = x.p.cpu_per_mib.mul_f64(rsz as f64 / (1 << 20) as f64);
            (
                x.workers[worker],
                Some(FileOp::Read {
                    file: x.dbs[worker],
                    offset,
                    len: rsz,
                }),
                cpu,
                false,
            )
        }
    };
    if done_scan {
        report_to_master(st, cl, s, worker);
        return;
    }
    let op = op.unwrap();
    let started = s.now();
    let st2 = Rc::clone(&st);
    cl.submit_op(
        s,
        vm.machine,
        vm.dom,
        0,
        op,
        Some(Waiter::from_fn(move |cl, s, _| {
            let now = s.now();
            let rsz = {
                let x = st2.borrow();
                let rsz = x.p.read_size;
                // The figure-7 metric: per-I/O latency at the worker.
                x.rec
                    .borrow_mut()
                    .record(now, now.saturating_since(started), rsz);
                rsz
            };
            // Alignment CPU on the freshly read block.
            let st3 = Rc::clone(&st2);
            let cpu = {
                let x = st2.borrow();
                x.p.cpu_per_mib.mul_f64(rsz as f64 / (1 << 20) as f64)
            };
            cl.run_cpu(
                s,
                vm.machine,
                vm.dom,
                0,
                cpu,
                Waiter::from_fn(move |cl, s, _| {
                    worker_scan(Rc::clone(&st3), cl, s, worker, scanned + rsz);
                }),
            );
        })),
    );
    let _ = cpu;
}

fn report_to_master(st: Shared, cl: &mut Cluster, s: &mut Sched, worker: usize) {
    let delivery: SimTime = {
        let x = st.borrow_mut();
        let msg = x.p.result_msg;
        match (x.net.clone(), x.net_ids[worker], x.master_net) {
            (Some(net), Some(src), Some(dst)) => {
                net.borrow_mut().transfer_time(src, dst, msg, s.now())
            }
            _ => s.now(),
        }
    };
    let st2 = Rc::clone(&st);
    s.schedule_at(delivery, move |cl, s| {
        let all_done = {
            let mut x = st2.borrow_mut();
            x.outstanding -= 1;
            if x.outstanding == 0 {
                x.queries_done += 1;
                if x.queries_done >= x.p.max_queries {
                    x.rec.borrow_mut().finished = true;
                }
                true
            } else {
                false
            }
        };
        if all_done {
            start_query(&st2, cl, s);
        }
    });
    let _ = cl;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let p = BlastParams::default();
        assert!(p.scan_per_query >= p.read_size);
        assert!(p.db_bytes_per_worker > p.scan_per_query);
    }
}
