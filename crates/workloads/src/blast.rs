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
    /// Bytes scanned per query per worker.
    pub scan_per_query: u64,
    /// Number of queries (`u64::MAX` = run until stopped).
    pub max_queries: u64,
}

impl Default for BlastParams {
    fn default() -> Self {
        BlastParams {
            scan_per_query: 64 << 20,
            max_queries: u64::MAX,
        }
    }
}

/// Database partition per worker (NT is ~60 GB; a query scans a window).
const DB_BYTES_PER_WORKER: u64 = 4 << 30;
/// Read size per I/O.
const READ_SIZE: u64 = 2 << 20;
/// Alignment CPU per MiB scanned.
const CPU_PER_MIB: SimDuration = SimDuration::from_micros(700);
/// Result-message size sent to the master after each query.
const RESULT_MSG: u64 = 64 << 10;
// Scan offsets wrap within the partition.
const _: () = assert!(READ_SIZE < DB_BYTES_PER_WORKER);

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
        .map(|&vm| provision_files(cl, vm, 1, DB_BYTES_PER_WORKER)[0])
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
    let (vm, op) = {
        let mut x = st.borrow_mut();
        if x.rec.borrow().stopped {
            return;
        }
        if scanned >= x.p.scan_per_query {
            (x.workers[worker], None)
        } else {
            let pos = x.positions[worker];
            let offset = pos % (DB_BYTES_PER_WORKER - READ_SIZE);
            x.positions[worker] = pos + READ_SIZE;
            let op = FileOp::Read {
                file: x.dbs[worker],
                offset,
                len: READ_SIZE,
            };
            (x.workers[worker], Some(op))
        }
    };
    let Some(op) = op else {
        report_to_master(st, cl, s, worker);
        return;
    };
    let started = s.now();
    cl.submit_op(
        s,
        vm.machine,
        vm.dom,
        0,
        op,
        Some(Waiter::from_fn(move |cl, s, _| {
            let now = s.now();
            // The figure-7 metric: per-I/O latency at the worker.
            st.borrow()
                .rec
                .borrow_mut()
                .record(now, now.saturating_since(started), READ_SIZE);
            // Alignment CPU on the freshly read block.
            let cpu = CPU_PER_MIB.mul_f64(READ_SIZE as f64 / (1 << 20) as f64);
            let st2 = Rc::clone(&st);
            cl.run_cpu(
                s,
                vm.machine,
                vm.dom,
                0,
                cpu,
                Waiter::from_fn(move |cl, s, _| {
                    worker_scan(Rc::clone(&st2), cl, s, worker, scanned + READ_SIZE);
                }),
            );
        })),
    );
}

fn report_to_master(st: Shared, cl: &mut Cluster, s: &mut Sched, worker: usize) {
    let delivery: SimTime = {
        let x = st.borrow_mut();
        match (x.net.clone(), x.net_ids[worker], x.master_net) {
            (Some(net), Some(src), Some(dst)) => {
                net.borrow_mut()
                    .transfer_time(src, dst, RESULT_MSG, s.now())
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
        assert!(p.scan_per_query >= READ_SIZE);
        assert!(DB_BYTES_PER_WORKER > p.scan_per_query);
    }
}
