//! Differential test for the DRR I/O core: `IoCore` keeps one record per
//! domain (buffer, credit, quantum, in-rotation flag). Over random
//! `enqueue`/`start_next`/`finish`/`set_quantum`/`remove_domain` scripts
//! it must serve the same `(domain, request)` sequence at the same times,
//! and make the same visits with the same credits, as the
//! `BTreeMap`-per-field core it replaced, kept here as a test-only
//! reference.

use iorch_hypervisor::{CoreId, DomainId, IoCore};
use iorch_simcore::trace::{self, TraceEventKind, TraceSession};
use iorch_simcore::{gen, SimTime};
use iorch_storage::{IoKind, IoRequest, RequestId, StreamId};

use reference::RefCore;

const CASES: usize = 96;
const DOMS: u32 = 6;

/// Deficit round-robin with separate `BTreeMap`s for buffers, credits
/// and quanta, and a rotation searched with `contains`.
mod reference {
    use std::collections::{BTreeMap, VecDeque};

    use iorch_hypervisor::iocore::{
        COPY_BW_LOCAL, COPY_BW_REMOTE, DEFAULT_QUANTUM, PER_REQ_OVERHEAD,
    };
    use iorch_hypervisor::DomainId;
    use iorch_simcore::{SimDuration, SimTime};
    use iorch_storage::IoRequest;

    #[derive(Clone, Copy)]
    struct Buffered {
        req: IoRequest,
        remote: bool,
    }

    pub struct RefCore {
        buffers: BTreeMap<DomainId, VecDeque<Buffered>>,
        credits: BTreeMap<DomainId, u64>,
        quanta: BTreeMap<DomainId, u64>,
        rotation: VecDeque<DomainId>,
        current: Option<DomainId>,
        in_process: Option<(DomainId, IoRequest)>,
        /// `(domain, credit)` of every visit, in order.
        pub visits: Vec<(u32, u64)>,
    }

    impl RefCore {
        pub fn new() -> Self {
            RefCore {
                buffers: BTreeMap::new(),
                credits: BTreeMap::new(),
                quanta: BTreeMap::new(),
                rotation: VecDeque::new(),
                current: None,
                in_process: None,
                visits: Vec::new(),
            }
        }

        pub fn set_quantum(&mut self, dom: DomainId, bytes: u64) {
            self.quanta.insert(dom, bytes.max(4096));
        }

        fn quantum(&self, dom: DomainId) -> u64 {
            self.quanta.get(&dom).copied().unwrap_or(DEFAULT_QUANTUM)
        }

        pub fn backlog_of(&self, dom: DomainId) -> usize {
            self.buffers.get(&dom).map_or(0, |b| b.len())
        }

        pub fn rotation_len(&self) -> usize {
            self.rotation.len()
        }

        pub fn enqueue(&mut self, dom: DomainId, req: IoRequest, remote: bool) {
            let buf = self.buffers.entry(dom).or_default();
            let newly_active = buf.is_empty();
            buf.push_back(Buffered { req, remote });
            if newly_active && self.current != Some(dom) && !self.rotation.contains(&dom) {
                self.rotation.push_back(dom);
            }
        }

        pub fn start_next(&mut self, now: SimTime) -> Option<SimTime> {
            if self.in_process.is_some() {
                return None;
            }
            for _ in 0..10_000 {
                let dom = match self.current {
                    Some(d) => d,
                    None => {
                        let d = self.rotation.pop_front()?;
                        let q = self.quantum(d);
                        let c = self.credits.entry(d).or_insert(0);
                        *c += q;
                        self.visits.push((d.0, *c));
                        self.current = Some(d);
                        d
                    }
                };
                let buf = self.buffers.entry(dom).or_default();
                let Some(front) = buf.front().copied() else {
                    self.credits.insert(dom, 0);
                    self.current = None;
                    continue;
                };
                let credit = self.credits.get(&dom).copied().unwrap_or(0);
                if front.req.len <= credit {
                    buf.pop_front();
                    self.credits.insert(dom, credit - front.req.len);
                    if buf.is_empty() {
                        self.credits.insert(dom, 0);
                        self.current = None;
                    } else if self.credits[&dom] == 0 {
                        self.rotation.push_back(dom);
                        self.current = None;
                    }
                    let bw = if front.remote {
                        COPY_BW_REMOTE
                    } else {
                        COPY_BW_LOCAL
                    };
                    let cost = PER_REQ_OVERHEAD
                        + SimDuration::from_secs_f64(front.req.len as f64 / bw as f64);
                    self.in_process = Some((dom, front.req));
                    return Some(now + cost);
                }
                self.rotation.push_back(dom);
                self.current = None;
            }
            None
        }

        pub fn finish(&mut self) -> (DomainId, IoRequest) {
            self.in_process.take().expect("finish without start")
        }

        pub fn remove_domain(&mut self, dom: DomainId) -> usize {
            self.rotation.retain(|&d| d != dom);
            if self.current == Some(dom) {
                self.current = None;
            }
            self.credits.remove(&dom);
            self.quanta.remove(&dom);
            self.buffers.remove(&dom).map_or(0, |b| b.len())
        }
    }
}

fn req(id: u64, len: u64) -> IoRequest {
    IoRequest {
        id: RequestId(id),
        kind: IoKind::Read,
        stream: StreamId(0),
        offset: id << 20,
        len,
        submitted: SimTime::ZERO,
    }
}

#[test]
fn drr_records_match_btreemap_core() {
    gen::for_each_seed(0x10_d44, CASES, |seed, rng| {
        let mut core = IoCore::new(0, CoreId(3));
        let mut oracle = RefCore::new();
        let session = TraceSession::new();
        let mut now = SimTime::ZERO;
        let mut busy_until: Option<SimTime> = None;
        let mut served = Vec::new();
        let mut next_id = 0;
        let steps = 100 + rng.below(600);
        for step in 0..steps {
            let at = format!("seed {seed} step {step}");
            let dom = DomainId(1 + rng.below(u64::from(DOMS)) as u32);
            match rng.below(12) {
                0..=4 => {
                    let len = match rng.below(4) {
                        0 => 4096 * (1 + rng.below(256)),
                        _ => 4096 * (1 + rng.below(16)),
                    };
                    let remote = rng.below(3) == 0;
                    core.enqueue(dom, req(next_id, len), remote, now);
                    oracle.enqueue(dom, req(next_id, len), remote);
                    next_id += 1;
                }
                5..=8 => {
                    if let Some(t) = busy_until.take() {
                        now = t;
                        let (d, r) = core.finish(now);
                        assert_eq!((d, r.id), {
                            let (d, r) = oracle.finish();
                            (d, r.id)
                        });
                        served.push((d, r.id));
                    }
                    let t = core.start_next(now);
                    assert_eq!(t, oracle.start_next(now), "{at}");
                    busy_until = t;
                }
                9 => {
                    let q = 4096 * (1 + rng.below(64));
                    core.set_quantum(dom, q);
                    oracle.set_quantum(dom, q);
                }
                10 => {
                    assert_eq!(core.remove_domain(dom), oracle.remove_domain(dom), "{at}");
                }
                _ => {
                    // Another start: refused while busy.
                    let t = core.start_next(now);
                    assert_eq!(t, oracle.start_next(now), "{at}");
                    if t.is_some() {
                        busy_until = t;
                    }
                }
            }
            assert_eq!(core.backlog_of(dom), oracle.backlog_of(dom), "{at}");
            assert_eq!(core.domain_entries()[1], oracle.rotation_len(), "{at}");
        }
        // Drain what is left.
        loop {
            if let Some(t) = busy_until.take() {
                now = t;
                let (d, r) = core.finish(now);
                assert_eq!((d, r.id), {
                    let (d, r) = oracle.finish();
                    (d, r.id)
                });
                served.push((d, r.id));
            }
            let t = core.start_next(now);
            assert_eq!(t, oracle.start_next(now), "seed {seed} drain");
            if t.is_none() {
                break;
            }
            busy_until = t;
        }
        assert_eq!(core.backlog(), 0, "seed {seed}");
        assert!(!served.is_empty(), "seed {seed}");
        let visits: Vec<(u32, u64)> = session
            .finish()
            .events()
            .filter_map(|ev| match ev.kind {
                TraceEventKind::DrrVisit { core, dom, credit } => {
                    assert_eq!(core, 3);
                    Some((dom, credit))
                }
                _ => None,
            })
            .collect();
        // Visits are read from the trace, which `--cfg iorch_trace_off`
        // compiles out; the served order above is checked either way.
        if trace::COMPILED {
            assert_eq!(visits, oracle.visits, "seed {seed}");
        }
    });
}
