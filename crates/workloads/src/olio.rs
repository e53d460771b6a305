//! Olio — the three-tier Web 2.0 social-events application (§5.1).
//!
//! Three VMs: Apache+PHP web frontend, MySQL database (~40 GB data set),
//! and a file server for static content. A CloudStone/Faban-style emulator
//! drives it closed-loop: each of N emulated clients thinks, then issues a
//! request that flows web → db (1–2 queries, occasional insert) → file
//! server → web render. Per-tier latencies are recorded separately so
//! Fig. 6's tier-by-tier distributions can be regenerated.

use std::cell::RefCell;
use std::rc::Rc;

use iorch_guestos::{FileId, FileOp};
use iorch_hypervisor::{Cluster, OpHandler, OpResult, Sched, Waiter};
use iorch_simcore::{SimDuration, SimRng, SimTime, Zipfian};

use crate::common::{provision_files, recorder, Rec, VmRef};

/// Olio load parameters.
#[derive(Clone, Copy, Debug)]
pub struct OlioParams {
    /// Emulated concurrent clients (the paper sweeps 50–300).
    pub clients: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OlioParams {
    fn default() -> Self {
        OlioParams {
            clients: 100,
            seed: 1,
        }
    }
}

/// Mean think time between a response and the next request.
const THINK_TIME: SimDuration = SimDuration::from_millis(400);
/// Database size in bytes (paper: ~40 GB for 500 users).
const DB_SIZE: u64 = 40 << 30;
/// Static files on the file-server VM.
const STATIC_FILES: usize = 2_000;
/// Static file size.
const STATIC_SIZE: u64 = 128 << 10;
/// Database queries per request.
const QUERIES_PER_REQ: u32 = 2;
/// Fraction of requests that write (add an event).
const WRITE_FRACTION: f64 = 0.1;
/// PHP CPU per request (frontend).
const WEB_CPU: SimDuration = SimDuration::from_micros(1500);
/// CPU per DB query.
const DB_CPU: SimDuration = SimDuration::from_micros(200);
/// Render CPU after data arrives.
const RENDER_CPU: SimDuration = SimDuration::from_micros(1000);
// Olio is read-mostly, and every request queries the database.
const _: () = assert!(WRITE_FRACTION < 0.5 && QUERIES_PER_REQ >= 1);

/// Per-tier recorders (Fig. 6) plus the end-to-end one (Fig. 4a/4d).
#[derive(Clone)]
pub struct OlioRecorders {
    /// End-to-end request latency.
    pub total: Rec,
    /// Web-tier time (PHP + static asset read at the frontend).
    pub web: Rec,
    /// Database-tier time (queries + inserts).
    pub db: Rec,
    /// File-server-tier time.
    pub file: Rec,
}

impl OlioRecorders {
    /// Fresh recorders that start recording at `after`.
    pub fn new(after: SimTime) -> Self {
        OlioRecorders {
            total: recorder(after),
            web: recorder(after),
            db: recorder(after),
            file: recorder(after),
        }
    }
}

struct OlioState {
    web: VmRef,
    db: VmRef,
    file: VmRef,
    web_pages: Vec<FileId>,
    db_data: FileId,
    db_log: FileId,
    db_log_off: u64,
    statics: Vec<FileId>,
    zipf_db: Zipfian,
    zipf_static: Zipfian,
    rng: SimRng,
    recs: OlioRecorders,
    clients: Vec<Client>,
}

/// The step of a request a client waits on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    WebCpu,
    WebRead,
    DbCpu,
    DbOp,
    FileRead,
    Render,
}

/// One emulated client's request in flight.
#[derive(Clone, Copy)]
struct Client {
    stage: Stage,
    /// The op to issue once the stage's CPU is done.
    op: FileOp,
    arrival: SimTime,
    /// Start of the current tier's part of the request.
    tier_start: SimTime,
    /// Database queries done.
    done: u32,
    /// Whether the database op in flight is a query (more follow).
    more: bool,
}

/// The Olio client emulator: one handler for all clients; a wake's token
/// is the client index.
struct Olio(RefCell<OlioState>);

type Shared = Rc<Olio>;

/// Deploy Olio across three VMs and start the client emulator.
pub fn spawn_olio(
    cl: &mut Cluster,
    s: &mut Sched,
    web: VmRef,
    db: VmRef,
    file: VmRef,
    p: OlioParams,
    recs: OlioRecorders,
) {
    let web_pages = provision_files(cl, web, 200, 8 << 10);
    let db_data = provision_files(cl, db, 1, DB_SIZE)[0];
    let db_log = provision_files(cl, db, 1, 1 << 30)[0];
    let statics = provision_files(cl, file, STATIC_FILES, STATIC_SIZE);
    let idle = Client {
        stage: Stage::Render,
        op: FileOp::Sync,
        arrival: SimTime::ZERO,
        tier_start: SimTime::ZERO,
        done: 0,
        more: false,
    };
    let st = Rc::new(Olio(RefCell::new(OlioState {
        zipf_db: Zipfian::new((DB_SIZE / (16 << 10)).max(2), 0.9),
        zipf_static: Zipfian::new(STATIC_FILES as u64, 0.8),
        rng: SimRng::new(p.seed),
        clients: vec![idle; p.clients as usize],
        web,
        db,
        file,
        web_pages,
        db_data,
        db_log,
        db_log_off: 0,
        statics,
        recs,
    })));
    for c in 0..p.clients {
        client_think(Rc::clone(&st), s, c);
    }
}

fn client_think(st: Shared, s: &mut Sched, client: u32) {
    let (gap, stop) = {
        let mut x = st.0.borrow_mut();
        let stop = x.recs.total.borrow().stopped;
        (x.rng.exp_duration(THINK_TIME), stop)
    };
    if stop {
        return;
    }
    s.schedule_in(gap, move |cl, s| {
        web_stage(st, cl, s, client, s.now());
    });
}

/// Run `cpu` on `vm` for `client`, then wake the client's handler.
fn client_cpu(
    st: Shared,
    cl: &mut Cluster,
    s: &mut Sched,
    client: u32,
    vm: VmRef,
    cpu: SimDuration,
) {
    let waiter = Waiter::new(st, client as u64);
    cl.run_cpu(s, vm.machine, vm.dom, client % 2, cpu, waiter);
}

/// Issue `op` on `vm` for `client`, then wake the client's handler.
fn client_op(st: Shared, cl: &mut Cluster, s: &mut Sched, client: u32, vm: VmRef, op: FileOp) {
    let waiter = Waiter::new(st, client as u64);
    cl.submit_op(s, vm.machine, vm.dom, client % 2, op, Some(waiter));
}

/// Stage 1 — web tier: PHP handling plus one hot static asset read.
fn web_stage(st: Shared, cl: &mut Cluster, s: &mut Sched, client: u32, arrival: SimTime) {
    let (web, cpu) = {
        let mut x = st.0.borrow_mut();
        let n = x.web_pages.len() as u64;
        let i = x.rng.below(n) as usize;
        let op = FileOp::Read {
            file: x.web_pages[i],
            offset: 0,
            len: 8 << 10,
        };
        let c = &mut x.clients[client as usize];
        c.stage = Stage::WebCpu;
        c.op = op;
        c.arrival = arrival;
        (x.web, WEB_CPU)
    };
    client_cpu(st, cl, s, client, web, cpu);
}

/// Stage 2 — database tier: `QUERIES_PER_REQ` random-index reads and an
/// occasional event insert (log append).
fn db_stage(st: Shared, cl: &mut Cluster, s: &mut Sched, client: u32, done: u32) {
    let (db, cpu) = {
        let mut x = st.0.borrow_mut();
        let (op, more) = if done < QUERIES_PER_REQ {
            let zipf = x.zipf_db.clone();
            let row = zipf.sample(&mut x.rng);
            let offset = (row * (16 << 10)) % (DB_SIZE - (16 << 10));
            let op = FileOp::Read {
                file: x.db_data,
                offset,
                len: 16 << 10,
            };
            (op, true)
        } else {
            if x.rng.chance(WRITE_FRACTION) {
                let off = x.db_log_off;
                x.db_log_off = (x.db_log_off + (8 << 10)) % ((1 << 30) - (8 << 10));
                let op = FileOp::Write {
                    file: x.db_log,
                    offset: off,
                    len: 8 << 10,
                };
                (op, false)
            } else {
                // No write: go straight to the file-server tier.
                let now = s.now();
                let db_start = x.clients[client as usize].tier_start;
                x.recs
                    .db
                    .borrow_mut()
                    .record(now, now.saturating_since(db_start), 0);
                drop(x);
                file_stage(st, cl, s, client, now);
                return;
            }
        };
        let c = &mut x.clients[client as usize];
        c.stage = Stage::DbCpu;
        c.op = op;
        c.done = done;
        c.more = more;
        (x.db, DB_CPU)
    };
    client_cpu(st, cl, s, client, db, cpu);
}

/// Stage 3 — file-server tier: fetch one static object.
fn file_stage(st: Shared, cl: &mut Cluster, s: &mut Sched, client: u32, fs_start: SimTime) {
    let (file_vm, op) = {
        let mut x = st.0.borrow_mut();
        let zipf = x.zipf_static.clone();
        let idx = zipf.sample(&mut x.rng) as usize;
        let op = FileOp::Read {
            file: x.statics[idx.min(x.statics.len() - 1)],
            offset: 0,
            len: STATIC_SIZE,
        };
        let c = &mut x.clients[client as usize];
        c.stage = Stage::FileRead;
        c.tier_start = fs_start;
        (x.file, op)
    };
    client_op(st, cl, s, client, file_vm, op);
}

/// Stage 4 — web render, then record the end-to-end latency and think.
fn render_stage(st: Shared, cl: &mut Cluster, s: &mut Sched, client: u32) {
    let (web, cpu) = {
        let mut x = st.0.borrow_mut();
        x.clients[client as usize].stage = Stage::Render;
        (x.web, RENDER_CPU)
    };
    client_cpu(st, cl, s, client, web, cpu);
}

impl OpHandler for Olio {
    fn wake(self: Rc<Self>, cl: &mut Cluster, s: &mut Sched, token: u64, _: Option<OpResult>) {
        let client = token as u32;
        let now = s.now();
        let mut x = self.0.borrow_mut();
        let c = x.clients[client as usize];
        match c.stage {
            Stage::WebCpu => {
                x.clients[client as usize].stage = Stage::WebRead;
                let web = x.web;
                drop(x);
                client_op(self, cl, s, client, web, c.op);
            }
            Stage::WebRead => {
                x.recs
                    .web
                    .borrow_mut()
                    .record(now, now.saturating_since(c.arrival), 8 << 10);
                x.clients[client as usize].tier_start = now;
                drop(x);
                db_stage(self, cl, s, client, 0);
            }
            Stage::DbCpu => {
                x.clients[client as usize].stage = Stage::DbOp;
                let db = x.db;
                drop(x);
                client_op(self, cl, s, client, db, c.op);
            }
            Stage::DbOp if c.more => {
                drop(x);
                db_stage(self, cl, s, client, c.done + 1);
            }
            Stage::DbOp => {
                x.recs
                    .db
                    .borrow_mut()
                    .record(now, now.saturating_since(c.tier_start), 8 << 10);
                drop(x);
                file_stage(self, cl, s, client, now);
            }
            Stage::FileRead => {
                x.recs.file.borrow_mut().record(
                    now,
                    now.saturating_since(c.tier_start),
                    STATIC_SIZE,
                );
                drop(x);
                render_stage(self, cl, s, client);
            }
            Stage::Render => {
                x.recs
                    .total
                    .borrow_mut()
                    .record(now, now.saturating_since(c.arrival), 0);
                drop(x);
                client_think(self, s, client);
            }
        }
    }
}
