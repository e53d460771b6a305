//! Dedicated polling I/O cores with deficit-round-robin buffer scheduling —
//! the paper's Algorithm 3.
//!
//! Each core keeps one request buffer per active VM and polls them with a
//! per-VM credit `C_i`, refilled by a quantum `Q_i = BW_max · S^{VMi}_{SKT}`
//! each round. A request is processed when its size fits in the credit; an
//! emptied buffer zeroes the credit (no banking for idle VMs). Processing a
//! request costs a fixed poll/handling overhead plus the grant-copy of its
//! payload — slower when the data lives on a remote socket.

use std::collections::VecDeque;

use iorch_simcore::trace::TraceEventKind;
use iorch_simcore::{trace_event, IdMap, SimDuration, SimTime};
use iorch_storage::IoRequest;

use crate::domain::DomainId;
use crate::numa::CoreId;

/// Fixed per-request handling cost (descriptor parse, submit).
pub const PER_REQ_OVERHEAD: SimDuration = SimDuration::from_micros(3);
/// Grant-copy bandwidth for same-socket payloads, bytes/s.
pub const COPY_BW_LOCAL: u64 = 6_000_000_000;
/// Grant-copy bandwidth for cross-socket payloads, bytes/s.
pub const COPY_BW_REMOTE: u64 = 4_000_000_000;
/// Quantum in bytes of a VM whose quantum was never set (1 MiB).
pub const DEFAULT_QUANTUM: u64 = 1 << 20;

#[derive(Clone, Copy, Debug)]
struct Buffered {
    req: IoRequest,
    remote: bool,
    enqueued: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct InProcess {
    dom: DomainId,
    req: IoRequest,
    enqueued: SimTime,
}

/// One VM's DRR state on a core.
#[derive(Clone, Debug)]
struct DrrDomain {
    /// The VM's request buffer `B_i`.
    buf: VecDeque<Buffered>,
    /// Its credit `C_i`.
    credit: u64,
    /// Its quantum `Q_i`.
    quantum: u64,
    /// Whether the VM waits in the rotation.
    in_rotation: bool,
}

/// One dedicated polling I/O core.
#[derive(Clone, Debug)]
pub struct IoCore {
    socket: usize,
    core: CoreId,
    /// DRR state of every VM that buffered a request or had its quantum
    /// set, until [`IoCore::remove_domain`].
    doms: IdMap<DomainId, DrrDomain>,
    /// Round-robin order of domains with buffered work.
    rotation: VecDeque<DomainId>,
    current: Option<DomainId>,
    in_process: Option<InProcess>,
    ewma_latency_us: f64,
    processed: u64,
}

impl IoCore {
    /// A polling core on `socket`, pinned to physical `core`.
    pub fn new(socket: usize, core: CoreId) -> Self {
        IoCore {
            socket,
            core,
            doms: IdMap::default(),
            rotation: VecDeque::new(),
            current: None,
            in_process: None,
            ewma_latency_us: 0.0,
            processed: 0,
        }
    }

    /// The socket this core serves.
    pub fn socket(&self) -> usize {
        self.socket
    }

    /// The physical core it spins on.
    pub fn core(&self) -> CoreId {
        self.core
    }

    fn dom_mut(&mut self, dom: DomainId) -> &mut DrrDomain {
        self.doms.entry(dom).or_insert_with(|| DrrDomain {
            buf: VecDeque::new(),
            credit: 0,
            quantum: DEFAULT_QUANTUM,
            in_rotation: false,
        })
    }

    /// Set a VM's quantum (Q_i = BW_max · share). IOrchestra updates this
    /// from the system store; SDC leaves all quanta equal.
    pub fn set_quantum(&mut self, dom: DomainId, bytes: u64) {
        self.dom_mut(dom).quantum = bytes.max(4096);
    }

    /// Current quantum for a VM.
    pub fn quantum(&self, dom: DomainId) -> u64 {
        self.doms.get(&dom).map_or(DEFAULT_QUANTUM, |d| d.quantum)
    }

    /// Is the core currently processing a request?
    pub fn busy(&self) -> bool {
        self.in_process.is_some()
    }

    /// Total buffered requests across all VMs.
    pub fn backlog(&self) -> usize {
        self.doms.values().map(|d| d.buf.len()).sum()
    }

    /// Buffered requests for one VM.
    pub fn backlog_of(&self, dom: DomainId) -> usize {
        self.doms.get(&dom).map_or(0, |d| d.buf.len())
    }

    /// EWMA of request latency through this core (the `L_i` of §3.3).
    pub fn avg_latency(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.ewma_latency_us)
    }

    /// Requests processed so far.
    pub fn processed_count(&self) -> u64 {
        self.processed
    }

    /// Entries in the DRR state: per-VM records (buffer, credit, quantum)
    /// and the rotation. [`IoCore::remove_domain`] drops a VM from both.
    pub fn domain_entries(&self) -> [usize; 2] {
        [self.doms.len(), self.rotation.len()]
    }

    /// Enqueue a request into a VM's buffer. `remote` marks a payload on a
    /// different socket than this core.
    pub fn enqueue(&mut self, dom: DomainId, req: IoRequest, remote: bool, now: SimTime) {
        let current = self.current;
        let d = self.dom_mut(dom);
        let newly_active = d.buf.is_empty();
        d.buf.push_back(Buffered {
            req,
            remote,
            enqueued: now,
        });
        if newly_active && current != Some(dom) && !d.in_rotation {
            d.in_rotation = true;
            self.rotation.push_back(dom);
        }
    }

    /// Begin processing the next request per DRR. Returns its completion
    /// time, or `None` if the core is busy or has no work.
    pub fn start_next(&mut self, now: SimTime) -> Option<SimTime> {
        if self.in_process.is_some() {
            return None;
        }
        // Bounded DRR scan: each rotation pass adds one quantum per domain,
        // so any finite request eventually fits.
        for _ in 0..10_000 {
            let (dom, d) = match self.current {
                Some(dom) => (
                    dom,
                    self.doms.get_mut(&dom).expect("current VM has a record"),
                ),
                None => {
                    let dom = self.rotation.pop_front()?;
                    let d = self.doms.get_mut(&dom).expect("rotating VM has a record");
                    d.in_rotation = false;
                    // Visiting a domain refills its credit: C_i += Q_i.
                    d.credit += d.quantum;
                    trace_event!(
                        now,
                        TraceEventKind::DrrVisit {
                            core: self.core.0 as u32,
                            dom: dom.0,
                            credit: d.credit,
                        }
                    );
                    self.current = Some(dom);
                    (dom, d)
                }
            };
            let Some(front) = d.buf.front().copied() else {
                // B_i empty -> C_i = 0, move on.
                d.credit = 0;
                self.current = None;
                continue;
            };
            if front.req.len <= d.credit {
                d.buf.pop_front();
                d.credit -= front.req.len;
                if d.buf.is_empty() {
                    // Emptied by this pop: C_i = 0 and leave the rotation.
                    d.credit = 0;
                    self.current = None;
                } else if d.credit == 0 {
                    d.in_rotation = true;
                    self.rotation.push_back(dom);
                    self.current = None;
                }
                let bw = if front.remote {
                    COPY_BW_REMOTE
                } else {
                    COPY_BW_LOCAL
                };
                let cost =
                    PER_REQ_OVERHEAD + SimDuration::from_secs_f64(front.req.len as f64 / bw as f64);
                self.in_process = Some(InProcess {
                    dom,
                    req: front.req,
                    enqueued: front.enqueued,
                });
                return Some(now + cost);
            }
            // Credit insufficient: break to the next domain in the round,
            // banking the credit (classic deficit round-robin).
            d.in_rotation = true;
            self.rotation.push_back(dom);
            self.current = None;
        }
        None
    }

    /// Finish the in-flight request at `now`; returns `(vm, request)` for
    /// forwarding to the host block layer.
    pub fn finish(&mut self, now: SimTime) -> (DomainId, IoRequest) {
        let ip = self.in_process.take().expect("finish without start");
        let lat_us = now.saturating_since(ip.enqueued).as_micros_f64();
        // EWMA with alpha 0.2 — responsive but stable, matching the paper's
        // "updates every second or on >50% change" cadence.
        self.ewma_latency_us = if self.processed == 0 {
            lat_us
        } else {
            0.8 * self.ewma_latency_us + 0.2 * lat_us
        };
        self.processed += 1;
        (ip.dom, ip.req)
    }

    /// Remove a VM (teardown). Returns how many buffered requests were
    /// dropped; a request already in process still finishes.
    pub fn remove_domain(&mut self, dom: DomainId) -> usize {
        if self.current == Some(dom) {
            self.current = None;
        }
        let Some(d) = self.doms.remove(&dom) else {
            return 0;
        };
        if d.in_rotation {
            self.rotation.retain(|&r| r != dom);
        }
        d.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iorch_storage::{IoKind, RequestId, StreamId};

    fn req(id: u64, len: u64) -> IoRequest {
        IoRequest {
            id: RequestId(id),
            kind: IoKind::Read,
            stream: StreamId(0),
            offset: id * (1 << 20),
            len,
            submitted: SimTime::ZERO,
        }
    }

    fn drain(core: &mut IoCore, mut now: SimTime) -> Vec<(DomainId, u64)> {
        let mut order = Vec::new();
        while let Some(done) = core.start_next(now) {
            now = done;
            let (dom, r) = core.finish(now);
            order.push((dom, r.id.0));
        }
        order
    }

    #[test]
    fn single_vm_fifo() {
        let mut core = IoCore::new(0, CoreId(0));
        for i in 0..5 {
            core.enqueue(DomainId(1), req(i, 4096), false, SimTime::ZERO);
        }
        let order = drain(&mut core, SimTime::ZERO);
        assert_eq!(order, (0..5).map(|i| (DomainId(1), i)).collect::<Vec<_>>());
    }

    #[test]
    fn processing_cost_includes_copy() {
        let mut core = IoCore::new(0, CoreId(0));
        core.enqueue(DomainId(1), req(0, 6_000_000), false, SimTime::ZERO);
        let done = core.start_next(SimTime::ZERO).unwrap();
        // 6 MB at 6 GB/s = 1 ms plus 3us overhead.
        assert!(done >= SimTime::from_millis(1));
        assert!(done < SimTime::from_micros(1100));
        core.finish(done);
        assert_eq!(core.processed_count(), 1);
    }

    #[test]
    fn remote_copy_is_slower() {
        let mut a = IoCore::new(0, CoreId(0));
        let mut b = IoCore::new(0, CoreId(0));
        a.enqueue(DomainId(1), req(0, 1 << 20), false, SimTime::ZERO);
        b.enqueue(DomainId(1), req(0, 1 << 20), true, SimTime::ZERO);
        let la = a.start_next(SimTime::ZERO).unwrap();
        let lb = b.start_next(SimTime::ZERO).unwrap();
        assert!(lb > la);
    }

    #[test]
    fn drr_shares_follow_quanta() {
        let mut core = IoCore::new(0, CoreId(0));
        core.set_quantum(DomainId(1), 3 * 64 * 1024);
        core.set_quantum(DomainId(2), 64 * 1024);
        // Backlog 40 requests of 64 KiB each per VM.
        for i in 0..40 {
            core.enqueue(DomainId(1), req(i, 64 * 1024), false, SimTime::ZERO);
            core.enqueue(DomainId(2), req(100 + i, 64 * 1024), false, SimTime::ZERO);
        }
        // Process 24 requests; expect ~3:1 split.
        let mut now = SimTime::ZERO;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..24 {
            let done = core.start_next(now).unwrap();
            now = done;
            let (dom, _) = core.finish(now);
            *counts.entry(dom).or_insert(0) += 1;
        }
        let c1 = counts[&DomainId(1)];
        let c2 = counts[&DomainId(2)];
        assert!(c1 >= 16 && c2 >= 5, "c1={c1} c2={c2}");
    }

    #[test]
    fn big_request_banks_credit_across_rounds() {
        let mut core = IoCore::new(0, CoreId(0));
        core.set_quantum(DomainId(1), 64 * 1024);
        core.set_quantum(DomainId(2), 64 * 1024);
        // VM1 has one 256 KiB request (needs 4 rounds of credit);
        // VM2 has small requests that flow meanwhile.
        core.enqueue(DomainId(1), req(0, 256 * 1024), false, SimTime::ZERO);
        for i in 0..10 {
            core.enqueue(DomainId(2), req(10 + i, 32 * 1024), false, SimTime::ZERO);
        }
        let order = drain(&mut core, SimTime::ZERO);
        // The big request is eventually served.
        assert!(order.contains(&(DomainId(1), 0)));
        // And VM2 was not starved before it: some VM2 requests precede it.
        let big_pos = order
            .iter()
            .position(|&(d, i)| d == DomainId(1) && i == 0)
            .unwrap();
        assert!(big_pos > 0, "big request should wait for banked credit");
    }

    #[test]
    fn emptied_buffer_forfeits_credit() {
        let mut core = IoCore::new(0, CoreId(0));
        core.set_quantum(DomainId(1), 1 << 20);
        core.enqueue(DomainId(1), req(0, 4096), false, SimTime::ZERO);
        let done = core.start_next(SimTime::ZERO).unwrap();
        core.finish(done);
        // Credit was zeroed when the buffer emptied (Algorithm 3).
        assert_eq!(core.backlog_of(DomainId(1)), 0);
        // New work still flows (fresh quantum on next visit).
        core.enqueue(DomainId(1), req(1, 4096), false, done);
        assert!(core.start_next(done).is_some());
    }

    #[test]
    fn latency_ewma_tracks() {
        let mut core = IoCore::new(0, CoreId(0));
        core.enqueue(DomainId(1), req(0, 4096), false, SimTime::ZERO);
        let done = core.start_next(SimTime::ZERO).unwrap();
        core.finish(done);
        assert!(core.avg_latency() > SimDuration::ZERO);
    }

    #[test]
    fn remove_domain_returns_backlog() {
        let mut core = IoCore::new(0, CoreId(0));
        for i in 0..3 {
            core.enqueue(DomainId(5), req(i, 4096), false, SimTime::ZERO);
        }
        assert_eq!(core.remove_domain(DomainId(5)), 3);
        assert_eq!(core.backlog(), 0);
        assert!(core.start_next(SimTime::ZERO).is_none());
    }

    #[test]
    fn busy_core_refuses_second_start() {
        let mut core = IoCore::new(0, CoreId(0));
        core.enqueue(DomainId(1), req(0, 4096), false, SimTime::ZERO);
        core.enqueue(DomainId(1), req(1, 4096), false, SimTime::ZERO);
        assert!(core.start_next(SimTime::ZERO).is_some());
        assert!(core.busy());
        assert!(core.start_next(SimTime::ZERO).is_none());
    }
}
