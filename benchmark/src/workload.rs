//! The four fixed workloads, built only from the simulator's public API.
//!
//! Every workload runs on the IOrchestra system (`SystemKind::IOrchestra`)
//! on one machine. Sizes are constants of the benchmark: the same on every
//! commit, so host times compare across commits. The seed only changes the
//! generated inputs (file picks, arrival gaps, think times).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use iorch_guestos::KernelStats;
use iorch_hypervisor::{Cluster, DomainId, Machine, Sched, VmSpec};
use iorch_simcore::{SimDuration, SimTime, Simulation};
use iorch_workloads::{
    recorder, spawn_fileserver, spawn_olio, spawn_webserver, spawn_ycsb, FsParams, OlioParams,
    OlioRecorders, Rec, VmRef, WsParams, YcsbParams,
};
use iorchestra::SystemKind;

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Fig. 9 WS cell: the docroot fits the page cache, so nearly all host
    /// time is the inline page-cache-hit path.
    Webserver,
    /// Fig. 9 FS cell at its heaviest point: a working set as large as
    /// guest memory, so writes, writeback, misses, ring and device all run.
    Fileserver,
    /// Fig. 4 at the top of its axis: Olio plus two open-loop YCSB stores,
    /// all three algorithms live; dense, cheap events.
    Colocated,
    /// Tenant churn: one domain destroyed and one created every
    /// simulated millisecond under live traffic; stresses store and watches.
    Churn,
}

/// Run length: the full benchmark size or a small smoke size for tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The benchmark's fixed size.
    Full,
    /// A short run with the same world, for self-tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// Simulated time the drain runs after generators stop, untimed.
pub const DRAIN: SimDuration = SimDuration::from_secs(5);

/// Seed of the simulated machine itself (device service-time noise, I/O
/// routing, policy randomness): part of the fixed system under test, like
/// the sizes. `--seed` drives the workload generators only. With the
/// machine seed varying too, the host cost of `fileserver` and `churn`
/// moved by up to ~30% between seeds, because the number of redundant
/// device-completion events the machine keeps scheduling depends on it.
const SYSTEM_SEED: u64 = 42;

/// Churn: live tenants and the simulated gap between churn steps.
const CHURN_LIVE: usize = 256;
const CHURN_EVERY: SimDuration = SimDuration::from_millis(1);

impl Workload {
    /// Every workload, in the order `run.sh` starts from.
    pub const ALL: [Workload; 4] = [
        Workload::Webserver,
        Workload::Fileserver,
        Workload::Colocated,
        Workload::Churn,
    ];

    /// Name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Webserver => "webserver",
            Workload::Fileserver => "fileserver",
            Workload::Colocated => "colocated",
            Workload::Churn => "churn",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated warm-up and measured span.
    pub fn spans(self, size: Size) -> (SimDuration, SimDuration) {
        let ms = SimDuration::from_millis;
        match (self, size) {
            (Workload::Webserver, Size::Full) => (ms(1000), ms(4000)),
            (Workload::Fileserver, Size::Full) => (ms(5000), ms(50_000)),
            (Workload::Colocated, Size::Full) => (ms(5000), ms(300_000)),
            (Workload::Churn, Size::Full) => (ms(1000), ms(16_000)),
            (Workload::Webserver, Size::Smoke) => (ms(100), ms(200)),
            (Workload::Fileserver, Size::Smoke) => (ms(500), ms(1000)),
            (Workload::Colocated, Size::Smoke) => (ms(500), ms(2000)),
            (Workload::Churn, Size::Smoke) => (ms(50), ms(100)),
        }
    }
}

/// Sum of guest-kernel statistics over a set of domains.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct GuestTotals {
    pub reads: u64,
    pub writes: u64,
    pub syncs: u64,
    pub cache_hit_chunks: u64,
    pub cache_miss_chunks: u64,
    pub congestion_blocked_ops: u64,
    pub throttled_writes: u64,
}

impl GuestTotals {
    fn add(&mut self, s: &KernelStats) {
        self.reads += s.reads;
        self.writes += s.writes;
        self.syncs += s.syncs;
        self.cache_hit_chunks += s.cache_hit_chunks;
        self.cache_miss_chunks += s.cache_miss_chunks;
        self.congestion_blocked_ops += s.congestion_blocked_ops;
        self.throttled_writes += s.throttled_writes;
    }

    fn zip(&self, other: &GuestTotals, f: impl Fn(u64, u64) -> u64) -> GuestTotals {
        let (a, b) = (self.words(), other.words());
        let w: [u64; 7] = std::array::from_fn(|i| f(a[i], b[i]));
        GuestTotals {
            reads: w[0],
            writes: w[1],
            syncs: w[2],
            cache_hit_chunks: w[3],
            cache_miss_chunks: w[4],
            congestion_blocked_ops: w[5],
            throttled_writes: w[6],
        }
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &GuestTotals) -> GuestTotals {
        self.zip(earlier, |a, b| a - b)
    }

    /// The fields in a fixed order, for the digest.
    pub fn words(&self) -> [u64; 7] {
        [
            self.reads,
            self.writes,
            self.syncs,
            self.cache_hit_chunks,
            self.cache_miss_chunks,
            self.congestion_blocked_ops,
            self.throttled_writes,
        ]
    }
}

/// Kernel statistics summed over the machine's live domains.
fn live_totals(m: &Machine) -> GuestTotals {
    let mut t = GuestTotals::default();
    for dom in m.domains() {
        if let Some(d) = m.domain(dom) {
            t.add(&d.kernel.stats());
        }
    }
    t
}

/// Tenant-churn generator state.
pub struct Churn {
    live: VecDeque<DomainId>,
    next_tenant: u64,
    seed: u64,
    stopped: bool,
    rec: Rec,
    /// Domains destroyed so far (their outstanding requests are drained
    /// by the destroy, not completed).
    pub destroyed: Vec<DomainId>,
    /// Kernel statistics of destroyed domains, taken just before destroy.
    pub retired: GuestTotals,
}

/// A built simulation plus the handles the runner needs.
pub struct World {
    pub sim: Simulation<Cluster>,
    pub idx: usize,
    /// Recorders whose ops are the workload's ops (Olio counts its
    /// end-to-end recorder only, not the per-tier ones).
    pub recs: Vec<Rec>,
    pub churn: Option<Rc<RefCell<Churn>>>,
}

impl World {
    /// Guest statistics of every domain that ever ran: live plus retired.
    pub fn guest_totals(&self) -> GuestTotals {
        let live = live_totals(self.sim.world().machine(self.idx));
        match &self.churn {
            Some(c) => live.zip(&c.borrow().retired, |a, b| a + b),
            None => live,
        }
    }

    /// Stop every generator, churn included; in-flight ops finish.
    pub fn stop(&self) {
        for r in &self.recs {
            r.borrow_mut().stopped = true;
        }
        if let Some(c) = &self.churn {
            c.borrow_mut().stopped = true;
        }
    }
}

/// Build the workload's world at time zero; the warm-up is the caller's.
pub fn build(w: Workload, seed: u64, size: Size) -> World {
    let (warmup, _) = w.spans(size);
    let record_after = SimTime::ZERO + warmup;
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = SystemKind::IOrchestra.provision(cl, s, SYSTEM_SEED);
    let rec = recorder(record_after);
    let mut recs = vec![Rc::clone(&rec)];
    let mut churn = None;
    match w {
        Workload::Webserver | Workload::Fileserver => {
            let n_vms = if w == Workload::Webserver { 10 } else { 20 };
            for v in 0..n_vms {
                let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(8), |g| {
                    g.queue.nr_requests = 64;
                });
                let vm = VmRef { machine: idx, dom };
                let seed = seed ^ (v as u64) << 8;
                if w == Workload::Webserver {
                    let p = WsParams {
                        threads: 2,
                        seed,
                        ..WsParams::default()
                    };
                    spawn_webserver(cl, s, vm, p, Rc::clone(&rec));
                } else {
                    let p = FsParams {
                        threads: 2,
                        pool: 8_000,
                        seed,
                        ..FsParams::default()
                    };
                    spawn_fileserver(cl, s, vm, p, Rc::clone(&rec));
                }
            }
        }
        Workload::Colocated => {
            let mut vm = |disk_gb| {
                let dom = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(disk_gb), |g| {
                    // Writeback clocks compressed to the run length, as in
                    // the Fig. 4 experiment.
                    g.wb.periodic_interval = SimDuration::from_millis(1000);
                    g.wb.dirty_expire = SimDuration::from_millis(3000);
                });
                VmRef { machine: idx, dom }
            };
            let (web, db, file) = (vm(10), vm(60), vm(40));
            let (y1a, y1b, y2a, y2b) = (vm(20), vm(20), vm(20), vm(20));
            let olio = OlioRecorders::new(record_after);
            recs = vec![Rc::clone(&olio.total)];
            let p = OlioParams {
                clients: 300,
                seed: seed ^ 0x01,
                ..OlioParams::default()
            };
            spawn_olio(cl, s, web, db, file, p, olio);
            for (vms, mut p) in [
                ([y1a, y1b], YcsbParams::ycsb1(3000.0, seed ^ 0x02)),
                ([y2a, y2b], YcsbParams::ycsb2(3000.0, seed ^ 0x03)),
            ] {
                p.memtable_flush_bytes = 2 << 20;
                let r = recorder(record_after);
                spawn_ycsb(cl, s, &vms, None, p, Rc::clone(&r));
                recs.push(r);
            }
        }
        Workload::Churn => {
            let state = Rc::new(RefCell::new(Churn {
                live: VecDeque::with_capacity(CHURN_LIVE + 1),
                next_tenant: 0,
                seed,
                stopped: false,
                rec: Rc::clone(&rec),
                destroyed: Vec::new(),
                retired: GuestTotals::default(),
            }));
            for _ in 0..CHURN_LIVE {
                add_tenant(&state, cl, s, idx);
            }
            let st = Rc::clone(&state);
            s.schedule_every(CHURN_EVERY, move |cl: &mut Cluster, s| {
                if st.borrow().stopped {
                    return false;
                }
                let oldest = st.borrow_mut().live.pop_front();
                if let Some(dom) = oldest {
                    if let Some(d) = cl.machine(idx).domain(dom) {
                        st.borrow_mut().retired.add(&d.kernel.stats());
                    }
                    cl.destroy_domain(s, idx, dom);
                    st.borrow_mut().destroyed.push(dom);
                }
                add_tenant(&st, cl, s, idx);
                true
            });
            churn = Some(state);
        }
    }
    World {
        sim,
        idx,
        recs,
        churn,
    }
}

/// Create one churn tenant: a 1-VCPU domain running a one-thread web
/// server over 200 pages with 50 ms of CPU per request.
fn add_tenant(st: &Rc<RefCell<Churn>>, cl: &mut Cluster, s: &mut Sched, idx: usize) {
    let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(2), |_| {});
    let (seed, rec) = {
        let mut c = st.borrow_mut();
        c.live.push_back(dom);
        c.next_tenant += 1;
        (c.seed ^ c.next_tenant << 16, Rc::clone(&c.rec))
    };
    let p = WsParams {
        threads: 1,
        pages: 200,
        op_cpu: SimDuration::from_millis(50),
        seed,
        ..WsParams::default()
    };
    spawn_webserver(cl, s, VmRef { machine: idx, dom }, p, rec);
}
