//! YCSB over a Cassandra-like key-value store.
//!
//! The paper's YCSB1 (update-heavy, 50:50) and YCSB2 (read-mostly, 95:5)
//! core workloads \[13\] against multi-VM Cassandra data stores. The node
//! model captures the I/O shape that matters:
//!
//! * **reads** hit the sstable region at a Zipf-popular offset — hot keys
//!   live in the guest page cache, cold keys go to the device;
//! * **updates** append to the commit log (buffered sequential write) and
//!   fill a memtable; every `memtable_flush_bytes` the memtable is flushed
//!   as a large sequential write plus `sync()` — the write bursts that
//!   exercise flush control;
//! * **multi-node stores** forward requests whose key-owner is another
//!   node (and replicate writes), adding inter-node network hops — the
//!   scale-out cost of Fig. 7.
//!
//! Request arrivals are open-loop Poisson at a target rate, optionally
//! shaped into the synchronized bursts of §5.6 [5, 25].

use std::cell::RefCell;
use std::rc::Rc;

use iorch_guestos::{FileId, FileOp};
use iorch_hypervisor::{Cluster, OpHandler, OpResult, Sched, Waiter};
use iorch_netsim::{Network, NodeId};
use iorch_simcore::{SimDuration, SimRng, SimTime, Zipfian};

use crate::common::{Rec, VmRef};

/// Bursty-arrival shaping (paper §5.6): synchronized burst windows where
/// the rate is capped at `peak_factor`× the overall average.
#[derive(Clone, Copy, Debug)]
pub struct BurstParams {
    /// Cycle period.
    pub period: SimDuration,
    /// Burst window at the start of each cycle (50 or 100 ms).
    pub burst_len: SimDuration,
    /// Peak rate multiplier (paper: 10×).
    pub peak_factor: f64,
}

/// YCSB workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct YcsbParams {
    /// Fraction of reads (0.5 for YCSB1, 0.95 for YCSB2).
    pub read_ratio: f64,
    /// Record size in bytes.
    pub record_size: u64,
    /// Number of records in the data set.
    pub records: u64,
    /// Zipfian skew (YCSB default 0.99).
    pub zipf_theta: f64,
    /// Target aggregate request rate (requests/second).
    pub rate_per_sec: f64,
    /// Memtable flush threshold in bytes.
    pub memtable_flush_bytes: u64,
    /// Per-op CPU cost (parse, serialize, memtable update).
    pub op_cpu: SimDuration,
    /// Stop after this many operations (bounded runs); `u64::MAX` = run
    /// until the recorder is stopped.
    pub max_ops: u64,
    /// Inter-VM RPC delay for co-located nodes (virtio-net loopback);
    /// replication acks ride on this when no network model is attached.
    pub ipc_delay: SimDuration,
    /// Burst shaping, if any.
    pub burst: Option<BurstParams>,
    /// RNG seed.
    pub seed: u64,
}

impl YcsbParams {
    /// YCSB workload A analogue — update heavy, 50:50 (the paper's YCSB1).
    pub fn ycsb1(rate_per_sec: f64, seed: u64) -> Self {
        YcsbParams {
            read_ratio: 0.5,
            record_size: 1024,
            records: 4_000_000, // ~4 GB per node: exceeds the 4 GB VM cache
            zipf_theta: 0.99,
            rate_per_sec,
            memtable_flush_bytes: 32 << 20,
            op_cpu: SimDuration::from_micros(40),
            max_ops: u64::MAX,
            ipc_delay: SimDuration::from_micros(120),
            burst: None,
            seed,
        }
    }

    /// YCSB workload B analogue — read mostly, 95:5 (the paper's YCSB2).
    pub fn ycsb2(rate_per_sec: f64, seed: u64) -> Self {
        YcsbParams {
            read_ratio: 0.95,
            ..Self::ycsb1(rate_per_sec, seed)
        }
    }

    /// Add the §5.6 burst shaping.
    pub fn with_burst(mut self, burst_len: SimDuration) -> Self {
        self.burst = Some(BurstParams {
            period: SimDuration::from_secs(1),
            burst_len,
            peak_factor: 10.0,
        });
        self
    }

    /// Bound the run to a fixed number of operations.
    pub fn with_max_ops(mut self, n: u64) -> Self {
        self.max_ops = n;
        self
    }
}

struct Node {
    vm: VmRef,
    data: FileId,
    commitlog: FileId,
    commit_off: u64,
    commitlog_size: u64,
    sstable_off: u64,
    data_size: u64,
    bytes_since_flush: u64,
    net: Option<NodeId>,
}

struct YcsbState {
    p: YcsbParams,
    nodes: Vec<Node>,
    rng: SimRng,
    zipf: Zipfian,
    rec: Rec,
    net: Option<Rc<RefCell<Network>>>,
    issued: u64,
    completed: u64,
    next_coord: usize,
    next_vcpu: u32,
    /// Requests in flight, indexed by token; `free_ops` lists the
    /// reusable slots.
    ops: Vec<Request>,
    free_ops: Vec<u32>,
}

/// One request in flight.
#[derive(Clone, Copy)]
struct Request {
    owner: usize,
    coord: usize,
    is_read: bool,
    key: u64,
    vcpu: u32,
    arrival: SimTime,
    /// The op in flight is the replica's commit-log write.
    replicating: bool,
}

impl YcsbState {
    fn alloc(&mut self, req: Request) -> u64 {
        match self.free_ops.pop() {
            Some(t) => {
                self.ops[t as usize] = req;
                t as u64
            }
            None => {
                self.ops.push(req);
                self.ops.len() as u64 - 1
            }
        }
    }
}

/// The YCSB client: one handler for all requests; a wake's token is the
/// request's slot in `YcsbState::ops`.
struct Ycsb(RefCell<YcsbState>);

type Shared = Rc<Ycsb>;

/// Launch a YCSB client against a Cassandra-like store spanning `nodes`.
/// Each node gets a data file, commit log and sstable region provisioned
/// on its virtual disk. `net` + per-node ids enable inter-node hops for
/// multi-machine stores.
pub fn spawn_ycsb(
    cl: &mut Cluster,
    s: &mut Sched,
    node_vms: &[VmRef],
    net: Option<(Rc<RefCell<Network>>, Vec<NodeId>)>,
    p: YcsbParams,
    rec: Rec,
) {
    assert!(!node_vms.is_empty());
    let (net_rc, net_ids) = match net {
        Some((n, ids)) => {
            assert_eq!(ids.len(), node_vms.len());
            (Some(n), ids.into_iter().map(Some).collect())
        }
        None => (None, vec![None; node_vms.len()]),
    };
    let per_node_records = p.records / node_vms.len() as u64;
    let nodes: Vec<Node> = node_vms
        .iter()
        .zip(net_ids)
        .map(|(&vm, net_id)| {
            let kernel = cl
                .machine_mut(vm.machine)
                .kernel_mut(vm.dom)
                .expect("dead VM");
            let data_size = per_node_records * p.record_size;
            let data = kernel.create_file(data_size.max(1 << 20)).unwrap();
            let commitlog_size = 1 << 30;
            let commitlog = kernel.create_file(commitlog_size).unwrap();
            Node {
                vm,
                data,
                commitlog,
                commit_off: 0,
                commitlog_size,
                sstable_off: 0,
                data_size,
                bytes_since_flush: 0,
                net: net_id,
            }
        })
        .collect();
    let state = Rc::new(Ycsb(RefCell::new(YcsbState {
        rng: SimRng::new(p.seed),
        zipf: Zipfian::new(p.records.max(2), p.zipf_theta),
        nodes,
        rec,
        net: net_rc,
        issued: 0,
        completed: 0,
        next_coord: 0,
        next_vcpu: 0,
        ops: Vec::new(),
        free_ops: Vec::new(),
        p,
    })));
    schedule_next_arrival(&state, s);
}

fn current_rate(p: &YcsbParams, now: SimTime) -> f64 {
    match p.burst {
        None => p.rate_per_sec,
        Some(b) => {
            let phase = SimDuration::from_nanos(now.as_nanos() % b.period.as_nanos().max(1));
            let peak = p.rate_per_sec * b.peak_factor;
            // Requests-per-cycle is conserved: the burst carries what the
            // peak cap allows, the remainder spreads over the off window.
            let in_burst = peak * b.burst_len.as_secs_f64();
            let per_cycle = p.rate_per_sec * b.period.as_secs_f64();
            if phase < b.burst_len {
                peak
            } else {
                let off_window = (b.period - b.burst_len).as_secs_f64();
                ((per_cycle - in_burst).max(0.0) / off_window).max(0.01)
            }
        }
    }
}

fn schedule_next_arrival(state: &Shared, s: &mut Sched) {
    let st = Rc::clone(state);
    let (gap, stop) = {
        let mut y = state.0.borrow_mut();
        let stopped = y.rec.borrow().stopped || y.issued >= y.p.max_ops;
        let now = s.now();
        let rate = current_rate(&y.p, now).max(0.01);
        let mut gap = y.rng.exp_duration(SimDuration::from_secs_f64(1.0 / rate));
        // A gap sampled in a quiet window must not sleep through the next
        // burst (with an all-in-burst shape the off rate is ~0 and the
        // naive sample would jump past every future cycle): clamp to the
        // next cycle boundary, where the rate is resampled.
        if let Some(b) = y.p.burst {
            let period_ns = b.period.as_nanos().max(1);
            let to_boundary = SimDuration::from_nanos(period_ns - now.as_nanos() % period_ns);
            if gap > to_boundary {
                gap = to_boundary;
            }
        }
        (gap, stopped)
    };
    if stop {
        return;
    }
    s.schedule_in(gap, move |cl, s| {
        issue_op(&st, cl, s);
        schedule_next_arrival(&st, s);
    });
}

fn issue_op(state: &Shared, cl: &mut Cluster, s: &mut Sched) {
    let arrival = s.now();
    let (coord_idx, owner_idx, is_read, key, vcpu) = {
        let mut y = state.0.borrow_mut();
        if y.rec.borrow().stopped || y.issued >= y.p.max_ops {
            return;
        }
        y.issued += 1;
        let coord = y.next_coord;
        y.next_coord = (y.next_coord + 1) % y.nodes.len();
        let zipf = y.zipf.clone();
        let key = zipf.sample(&mut y.rng);
        let owner = (key % y.nodes.len() as u64) as usize;
        let read = {
            let r = y.p.read_ratio;
            y.rng.chance(r)
        };
        let vcpu = y.next_vcpu;
        y.next_vcpu = y.next_vcpu.wrapping_add(1);
        (coord, owner, read, key, vcpu)
    };
    // Forward hop if the owner is a different node on another machine.
    let st = Rc::clone(state);
    let hop = {
        let y = state.0.borrow_mut();
        let remote = owner_idx != coord_idx
            && y.nodes[owner_idx].vm.machine != y.nodes[coord_idx].vm.machine;
        if remote {
            let (src, dst) = (y.nodes[coord_idx].net, y.nodes[owner_idx].net);
            if let (Some(net), Some(src), Some(dst)) = (y.net.clone(), src, dst) {
                let record = y.p.record_size;
                Some(net.borrow_mut().transfer_time(src, dst, record, arrival))
            } else {
                None
            }
        } else {
            None
        }
    };
    let token = state.0.borrow_mut().alloc(Request {
        owner: owner_idx,
        coord: coord_idx,
        is_read,
        key,
        vcpu,
        arrival,
        replicating: false,
    });
    match hop {
        Some(at) => {
            s.schedule_at(at, move |cl, s| run_on_owner(st, cl, s, token));
        }
        None => run_on_owner(st, cl, s, token),
    }
}

/// The owner node's request-handling CPU; the handler then does the I/O.
fn run_on_owner(state: Shared, cl: &mut Cluster, s: &mut Sched, token: u64) {
    let (vm, cpu, vcpu) = {
        let y = state.0.borrow();
        let req = y.ops[token as usize];
        (y.nodes[req.owner].vm, y.p.op_cpu, req.vcpu)
    };
    cl.run_cpu(s, vm.machine, vm.dom, vcpu, cpu, Waiter::new(state, token));
}

/// The owner's storage op: a record read or a commit-log append.
fn do_io(state: Shared, cl: &mut Cluster, s: &mut Sched, token: u64) {
    let (vm, vcpu, op) = {
        let mut y = state.0.borrow_mut();
        let req = y.ops[token as usize];
        let n_nodes = y.nodes.len() as u64;
        let record = y.p.record_size;
        let node = &mut y.nodes[req.owner];
        let op = if req.is_read {
            let local_key = req.key / n_nodes;
            let offset = (local_key * record) % node.data_size.max(record);
            FileOp::Read {
                file: node.data,
                offset,
                len: record,
            }
        } else {
            let off = node.commit_off;
            node.commit_off = (node.commit_off + record) % (node.commitlog_size - record);
            FileOp::Write {
                file: node.commitlog,
                offset: off,
                len: record,
            }
        };
        (node.vm, req.vcpu, op)
    };
    let waiter = Waiter::new(state, token);
    cl.submit_op(s, vm.machine, vm.dom, vcpu, op, Some(waiter));
}

impl OpHandler for Ycsb {
    fn wake(self: Rc<Self>, cl: &mut Cluster, s: &mut Sched, token: u64, r: Option<OpResult>) {
        let req = self.0.borrow().ops[token as usize];
        if r.is_none() {
            do_io(self, cl, s, token);
        } else if req.replicating {
            // Ack back to the owner, then the normal response path.
            let at = s.now() + self.0.borrow().p.ipc_delay;
            s.schedule_at(at, move |cl, s| finish_read_path(&self, cl, s, token));
        } else {
            finish_op(self, cl, s, token);
        }
    }
}

fn finish_op(state: Shared, cl: &mut Cluster, s: &mut Sched, token: u64) {
    // Post-write bookkeeping: memtable accounting and flushes; updates on
    // a multi-node store additionally wait for the replica's commit-log
    // write (Cassandra replication factor 2, consistency ONE at the
    // replica set).
    if !state.0.borrow().ops[token as usize].is_read {
        let waits_for_replica = after_update(&state, cl, s, token);
        if waits_for_replica {
            return; // the replica ack path finishes the op
        }
    }
    finish_read_path(&state, cl, s, token);
}

/// Response hop back to the coordinator (if forwarded), then record.
/// Retires the request's token.
fn finish_read_path(state: &Shared, cl: &mut Cluster, s: &mut Sched, token: u64) {
    let (hop_back, arrival) = {
        let mut y = state.0.borrow_mut();
        let Request {
            owner: owner_idx,
            coord: coord_idx,
            arrival,
            ..
        } = y.ops[token as usize];
        y.free_ops.push(token as u32);
        let remote = owner_idx != coord_idx
            && y.nodes[owner_idx].vm.machine != y.nodes[coord_idx].vm.machine;
        let hop_back = if remote {
            let (src, dst) = (y.nodes[owner_idx].net, y.nodes[coord_idx].net);
            if let (Some(net), Some(src), Some(dst)) = (y.net.clone(), src, dst) {
                let record = y.p.record_size;
                Some(net.borrow_mut().transfer_time(src, dst, record, s.now()))
            } else {
                None
            }
        } else {
            None
        };
        (hop_back, arrival)
    };
    let st = Rc::clone(state);
    let record_done = move |_cl: &mut Cluster, s: &mut Sched| {
        let mut y = st.0.borrow_mut();
        let now = s.now();
        let bytes = y.p.record_size;
        y.rec
            .borrow_mut()
            .record(now, now.saturating_since(arrival), bytes);
        y.completed += 1;
        if y.completed >= y.p.max_ops {
            y.rec.borrow_mut().finished = true;
        }
    };
    match hop_back {
        Some(at) => {
            s.schedule_at(at, record_done);
        }
        None => record_done(cl, s),
    }
}

fn after_update(state: &Shared, cl: &mut Cluster, s: &mut Sched, token: u64) -> bool {
    // Memtable fill; flush as a big sequential sstable write + sync when
    // the threshold is crossed.
    let owner_idx = state.0.borrow().ops[token as usize].owner;
    let flush = {
        let mut y = state.0.borrow_mut();
        let record = y.p.record_size;
        let threshold = y.p.memtable_flush_bytes;
        let data_size = y.nodes[owner_idx].data_size;
        let node = &mut y.nodes[owner_idx];
        node.bytes_since_flush += record;
        if node.bytes_since_flush >= threshold {
            node.bytes_since_flush = 0;
            let off = node.sstable_off % data_size.saturating_sub(threshold).max(1);
            node.sstable_off += threshold;
            Some((node.vm, node.data, off, threshold))
        } else {
            None
        }
    };
    if let Some((vm, file, offset, len)) = flush {
        // Cassandra's default commit-log mode is periodic sync: the
        // memtable flush is a large buffered write left to the OS
        // writeback path — exactly the dirty mass Algorithm 1 manages.
        cl.submit_op(
            s,
            vm.machine,
            vm.dom,
            0,
            FileOp::Write { file, offset, len },
            None,
        );
    }
    // Synchronous replication to the next node of the store: the update
    // acks only once the replica has the commit-log write.
    let repl = {
        let mut y = state.0.borrow_mut();
        if y.nodes.len() > 1 {
            let record = y.p.record_size;
            let next = (owner_idx + 1) % y.nodes.len();
            let ipc = y.p.ipc_delay;
            // Cross-machine replicas ride the network model; co-located
            // ones pay the loopback IPC delay.
            let hop = match (y.net.clone(), y.nodes[owner_idx].net, y.nodes[next].net) {
                (Some(net), Some(src), Some(dst))
                    if y.nodes[owner_idx].vm.machine != y.nodes[next].vm.machine =>
                {
                    net.borrow_mut().transfer_time(src, dst, record, s.now())
                }
                _ => s.now() + ipc,
            };
            y.ops[token as usize].replicating = true;
            let node = &mut y.nodes[next];
            let off = node.commit_off;
            node.commit_off = (node.commit_off + record) % (node.commitlog_size - record);
            Some((node.vm, node.commitlog, off, record, hop))
        } else {
            None
        }
    };
    if let Some((vm, file, offset, len, hop)) = repl {
        let st = Rc::clone(state);
        s.schedule_at(hop, move |cl, s| {
            let op = FileOp::Write { file, offset, len };
            cl.submit_op(s, vm.machine, vm.dom, 1, op, Some(Waiter::new(st, token)));
        });
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let a = YcsbParams::ycsb1(1000.0, 1);
        let b = YcsbParams::ycsb2(1000.0, 1);
        assert_eq!(a.read_ratio, 0.5);
        assert_eq!(b.read_ratio, 0.95);
        assert_eq!(a.record_size, b.record_size);
        let c = a.with_burst(SimDuration::from_millis(50)).with_max_ops(100);
        assert!(c.burst.is_some());
        assert_eq!(c.max_ops, 100);
    }

    #[test]
    fn burst_rate_peaks_then_dips() {
        let p = YcsbParams::ycsb1(1000.0, 1).with_burst(SimDuration::from_millis(50));
        let in_burst = current_rate(&p, SimTime::from_millis(10));
        let off_burst = current_rate(&p, SimTime::from_millis(500));
        assert!((in_burst - 10_000.0).abs() < 1e-6, "in={in_burst}");
        assert!(off_burst < 1000.0, "off={off_burst}");
        // Mean over the cycle is conserved (~1000 rps).
        let mean = (in_burst * 0.05 + off_burst * 0.95) / 1.0;
        assert!((mean - 1000.0).abs() < 10.0, "mean={mean}");
    }

    #[test]
    fn unshaped_rate_is_flat() {
        let p = YcsbParams::ycsb1(500.0, 1);
        assert_eq!(current_rate(&p, SimTime::ZERO), 500.0);
        assert_eq!(current_rate(&p, SimTime::from_millis(123)), 500.0);
    }
}
