//! FileBench-suite workload models \[18\]: file server (FS), web server
//! (WS), video server (VS) and multi-stream read — the synthetic drivers
//! behind the paper's Figs. 8–10.

use std::cell::RefCell;
use std::rc::Rc;

use iorch_guestos::{FileId, FileOp};
use iorch_hypervisor::{Cluster, OpHandler, OpResult, Sched, Waiter};
use iorch_simcore::{SimDuration, SimRng, SimTime};

use crate::common::{provision_files, Rec, VmRef};

/// File-server (FS) parameters: create/write/read/append/delete over a
/// directory tree; write-dominated.
#[derive(Clone, Copy, Debug)]
pub struct FsParams {
    /// Worker threads.
    pub threads: u32,
    /// Size of each file.
    pub file_size: u64,
    /// Live file pool size. With `file_size` this sets the working set —
    /// Fig. 8 keeps it above twice the VM memory.
    pub pool: usize,
    /// CPU per file operation.
    pub op_cpu: SimDuration,
    /// Stop once this many payload bytes moved (Table 2's "2 GB data
    /// transmission"); `u64::MAX` = unbounded.
    pub max_bytes: u64,
    /// If set, each thread works in waves: `0` cycles of activity followed
    /// by an exponentially distributed idle period with mean `1` — the
    /// request-wave pattern of a real file server. `None` = closed loop.
    pub burst: Option<(u32, SimDuration)>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FsParams {
    fn default() -> Self {
        FsParams {
            threads: 4,
            file_size: 128 << 10,
            pool: 400,
            op_cpu: SimDuration::from_micros(60),
            max_bytes: u64::MAX,
            burst: None,
            seed: 1,
        }
    }
}

/// FS append size per cycle.
const APPEND_SIZE: u64 = 16 << 10;

struct FsState {
    p: FsParams,
    vm: VmRef,
    files: Vec<FileId>,
    rng: SimRng,
    rec: Rec,
    threads: Vec<FsThread>,
}

/// Where one FS thread is in its cycle: the three file ops of the cycle,
/// the next one to issue, and the cycle's start.
#[derive(Clone, Copy)]
struct FsThread {
    ops: [FileOp; 3],
    next: usize,
    started: SimTime,
    bytes: u64,
    in_burst: u32,
}

/// The FS generator: one handler for all threads; a wake's token is the
/// thread index.
struct Fs(RefCell<FsState>);

/// Launch the FS workload on a VM.
pub fn spawn_fileserver(cl: &mut Cluster, s: &mut Sched, vm: VmRef, p: FsParams, rec: Rec) {
    let files = provision_files(cl, vm, p.pool, p.file_size);
    let idle = FsThread {
        ops: [FileOp::Sync; 3],
        next: 0,
        started: SimTime::ZERO,
        bytes: 0,
        in_burst: 0,
    };
    let st = Rc::new(Fs(RefCell::new(FsState {
        rng: SimRng::new(p.seed),
        threads: vec![idle; p.threads as usize],
        p,
        vm,
        files,
        rec,
    })));
    for t in 0..p.threads {
        fs_cycle(Rc::clone(&st), cl, s, t, 0);
    }
}

/// One FS cycle: rewrite a file (the churn: delete+create modelled as a
/// full overwrite), read another whole, append to a third. With wave mode
/// on, a thread rests after its burst of cycles.
fn fs_cycle(st: Rc<Fs>, cl: &mut Cluster, s: &mut Sched, thread: u32, in_burst: u32) {
    let (vm, cpu, stop, rest) = {
        let mut x = st.0.borrow_mut();
        let r = x.rec.borrow();
        let stop = r.stopped || r.finished;
        drop(r);
        let rest = match x.p.burst {
            Some((cycles, idle)) if in_burst >= cycles => Some(x.rng.exp_duration(idle)),
            _ => None,
        };
        x.threads[thread as usize].in_burst = in_burst;
        (x.vm, x.p.op_cpu, stop, rest)
    };
    if stop {
        return;
    }
    if let Some(idle) = rest {
        s.schedule_in(idle, move |cl, s| fs_cycle(st, cl, s, thread, 0));
        return;
    }
    let vcpu_done = Waiter::new(st, thread as u64);
    cl.run_cpu(s, vm.machine, vm.dom, thread, cpu, vcpu_done);
}

impl OpHandler for Fs {
    fn wake(self: Rc<Self>, cl: &mut Cluster, s: &mut Sched, token: u64, r: Option<OpResult>) {
        let thread = token as usize;
        let (vm, op) = {
            let mut x = self.0.borrow_mut();
            if r.is_none() {
                // The cycle's CPU is done: pick its files.
                let started = s.now();
                let n = x.files.len() as u64;
                let fsz = x.p.file_size;
                let iw = x.rng.below(n) as usize;
                let ir = x.rng.below(n) as usize;
                let ia = x.rng.below(n) as usize;
                let (fw, fr, fa) = (x.files[iw], x.files[ir], x.files[ia]);
                let t = &mut x.threads[thread];
                t.ops = [
                    FileOp::Write {
                        file: fw,
                        offset: 0,
                        len: fsz,
                    },
                    FileOp::Read {
                        file: fr,
                        offset: 0,
                        len: fsz,
                    },
                    FileOp::Write {
                        file: fa,
                        offset: fsz - APPEND_SIZE,
                        len: APPEND_SIZE,
                    },
                ];
                t.next = 0;
                t.started = started;
                t.bytes = fsz * 2 + APPEND_SIZE;
            }
            // Chain: write -> read -> append -> record -> next cycle.
            let vm = x.vm;
            let t = &mut x.threads[thread];
            if t.next == t.ops.len() {
                let (started, bytes, in_burst) = (t.started, t.bytes, t.in_burst);
                let now = s.now();
                let mut rec = x.rec.borrow_mut();
                rec.record(now, now.saturating_since(started), bytes);
                if rec.bytes >= x.p.max_bytes {
                    rec.finished = true;
                }
                drop(rec);
                drop(x);
                fs_cycle(self, cl, s, token as u32, in_burst + 1);
                return;
            }
            t.next += 1;
            (vm, t.ops[t.next - 1])
        };
        let waiter = Waiter::new(self, token);
        cl.submit_op(s, vm.machine, vm.dom, token as u32, op, Some(waiter));
    }
}

/// Web-server (WS) parameters: read a set of pages, append to a log.
#[derive(Clone, Copy, Debug)]
pub struct WsParams {
    /// Worker threads.
    pub threads: u32,
    /// Page files in the docroot.
    pub pages: usize,
    /// CPU per request.
    pub op_cpu: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WsParams {
    fn default() -> Self {
        WsParams {
            threads: 4,
            pages: 5_000,
            op_cpu: SimDuration::from_micros(120),
            seed: 1,
        }
    }
}

/// WS page size.
const PAGE_SIZE: u64 = 16 << 10;
/// WS pages read per request.
const READS_PER_REQ: usize = 10;
/// WS log append size per request.
const LOG_APPEND: u64 = 8 << 10;
// A request ends with the log append that follows its last page read.
const _: () = assert!(READS_PER_REQ >= 1);

struct WsState {
    p: WsParams,
    vm: VmRef,
    pages: Vec<FileId>,
    log: FileId,
    log_off: u64,
    rng: SimRng,
    rec: Rec,
    threads: Vec<WsThread>,
}

/// Where one WS thread is in its request.
#[derive(Clone, Copy)]
struct WsThread {
    /// Page reads completed; the log append follows the last one.
    reads_done: usize,
    started: SimTime,
}

/// The WS generator: one handler for all threads; a wake's token is the
/// thread index.
struct Ws(RefCell<WsState>);

/// Launch the WS workload on a VM.
pub fn spawn_webserver(cl: &mut Cluster, s: &mut Sched, vm: VmRef, p: WsParams, rec: Rec) {
    let pages = provision_files(cl, vm, p.pages, PAGE_SIZE);
    let log = provision_files(cl, vm, 1, 1 << 30)[0];
    let idle = WsThread {
        reads_done: 0,
        started: SimTime::ZERO,
    };
    let st = Rc::new(Ws(RefCell::new(WsState {
        rng: SimRng::new(p.seed),
        threads: vec![idle; p.threads as usize],
        p,
        vm,
        pages,
        log,
        log_off: 0,
        rec,
    })));
    for t in 0..p.threads {
        ws_start(Rc::clone(&st), cl, s, t);
    }
}

/// Begin a WS request: request-handling CPU first, then the page reads.
fn ws_start(st: Rc<Ws>, cl: &mut Cluster, s: &mut Sched, thread: u32) {
    let (vm, cpu) = {
        let mut x = st.0.borrow_mut();
        if x.rec.borrow().stopped {
            return;
        }
        x.threads[thread as usize] = WsThread {
            reads_done: 0,
            started: s.now(),
        };
        (x.vm, x.p.op_cpu)
    };
    let cpu_done = Waiter::new(st, thread as u64);
    cl.run_cpu(s, vm.machine, vm.dom, thread, cpu, cpu_done);
}

/// Issue the thread's next op: a page read, or the log append after the
/// last read.
fn ws_cycle(st: Rc<Ws>, cl: &mut Cluster, s: &mut Sched, thread: u32) {
    let (vm, op) = {
        let mut x = st.0.borrow_mut();
        if x.rec.borrow().stopped {
            return;
        }
        let op = if x.threads[thread as usize].reads_done < READS_PER_REQ {
            let n = x.pages.len() as u64;
            let i = x.rng.below(n) as usize;
            FileOp::Read {
                file: x.pages[i],
                offset: 0,
                len: PAGE_SIZE,
            }
        } else {
            let off = x.log_off;
            x.log_off = (x.log_off + LOG_APPEND) % ((1 << 30) - LOG_APPEND);
            FileOp::Write {
                file: x.log,
                offset: off,
                len: LOG_APPEND,
            }
        };
        (x.vm, op)
    };
    let waiter = Waiter::new(st, thread as u64);
    cl.submit_op(s, vm.machine, vm.dom, thread, op, Some(waiter));
}

impl OpHandler for Ws {
    fn wake(self: Rc<Self>, cl: &mut Cluster, s: &mut Sched, token: u64, r: Option<OpResult>) {
        let thread = token as u32;
        if r.is_some() {
            let mut x = self.0.borrow_mut();
            let t = &mut x.threads[thread as usize];
            if t.reads_done < READS_PER_REQ {
                t.reads_done += 1;
            } else {
                // The log append finished the request. Its latency covers
                // handling CPU + page reads + log append, and so does its
                // payload.
                let started = t.started;
                let now = s.now();
                let total = READS_PER_REQ as u64 * PAGE_SIZE + LOG_APPEND;
                x.rec
                    .borrow_mut()
                    .record(now, now.saturating_since(started), total);
                drop(x);
                ws_start(self, cl, s, thread);
                return;
            }
        }
        ws_cycle(self, cl, s, thread);
    }
}

/// Video-server (VS) parameters: streaming readers plus one ingest writer.
#[derive(Clone, Copy, Debug)]
pub struct VsParams {
    /// Concurrent streaming readers.
    pub readers: u32,
    /// Video file size.
    pub video_size: u64,
    /// Library size in files.
    pub library: usize,
}

impl Default for VsParams {
    fn default() -> Self {
        VsParams {
            readers: 4,
            video_size: 64 << 20,
            library: 20,
        }
    }
}

/// VS streaming read chunk.
const CHUNK: u64 = 1 << 20;
/// VS ingest write chunk.
const INGEST_CHUNK: u64 = 1 << 20;

struct VsState {
    p: VsParams,
    vm: VmRef,
    library: Vec<FileId>,
    positions: Vec<u64>,
    ingest_pos: u64,
    ingest_file: usize,
    rec: Rec,
}

/// Launch the VS workload on a VM.
pub fn spawn_videoserver(cl: &mut Cluster, s: &mut Sched, vm: VmRef, p: VsParams, rec: Rec) {
    let library = provision_files(cl, vm, p.library, p.video_size);
    let st = Rc::new(RefCell::new(VsState {
        positions: vec![0; p.readers as usize],
        ingest_pos: 0,
        ingest_file: 0,
        p,
        vm,
        library,
        rec,
    }));
    for t in 0..p.readers {
        vs_read(Rc::clone(&st), cl, s, t);
    }
    vs_ingest(st, cl, s);
}

fn vs_read(st: Rc<RefCell<VsState>>, cl: &mut Cluster, s: &mut Sched, reader: u32) {
    let (vm, op, stop) = {
        let mut x = st.borrow_mut();
        let stop = x.rec.borrow().stopped;
        let vsz = x.p.video_size;
        let pos = x.positions[reader as usize];
        let lib = x.library.len() as u64;
        // Each reader streams one video; at the end it picks another.
        let file_idx = (reader as u64 + (pos / vsz)) % lib;
        let file = x.library[file_idx as usize];
        let offset = pos % (vsz - CHUNK).max(1);
        x.positions[reader as usize] = pos + CHUNK;
        (
            x.vm,
            FileOp::Read {
                file,
                offset,
                len: CHUNK,
            },
            stop,
        )
    };
    if stop {
        return;
    }
    let started = s.now();
    let st2 = Rc::clone(&st);
    cl.submit_op(
        s,
        vm.machine,
        vm.dom,
        reader,
        op,
        Some(Waiter::from_fn(move |cl, s, _| {
            // Stream-processing CPU (demux + copy), and a guard against
            // zero-time loops when the video is fully cached.
            let cpu = SimDuration::from_secs_f64(CHUNK as f64 / 6e9);
            let st3 = Rc::clone(&st2);
            cl.run_cpu(
                s,
                vm.machine,
                vm.dom,
                reader,
                cpu,
                Waiter::from_fn(move |cl, s, _| {
                    let now = s.now();
                    {
                        let x = st3.borrow();
                        x.rec
                            .borrow_mut()
                            .record(now, now.saturating_since(started), CHUNK);
                    }
                    vs_read(Rc::clone(&st3), cl, s, reader);
                }),
            );
        })),
    );
}

fn vs_ingest(st: Rc<RefCell<VsState>>, cl: &mut Cluster, s: &mut Sched) {
    let (vm, op, stop) = {
        let mut x = st.borrow_mut();
        let stop = x.rec.borrow().stopped;
        let vsz = x.p.video_size;
        if x.ingest_pos + INGEST_CHUNK > vsz {
            x.ingest_pos = 0;
            x.ingest_file = (x.ingest_file + 1) % x.library.len();
        }
        let file = x.library[x.ingest_file];
        let off = x.ingest_pos;
        x.ingest_pos += INGEST_CHUNK;
        (
            x.vm,
            FileOp::Write {
                file,
                offset: off,
                len: INGEST_CHUNK,
            },
            stop,
        )
    };
    if stop {
        return;
    }
    let st2 = Rc::clone(&st);
    cl.submit_op(
        s,
        vm.machine,
        vm.dom,
        0,
        op,
        Some(Waiter::from_fn(move |cl, s, _| {
            // Transcode/ingest CPU between chunks.
            let cpu = SimDuration::from_secs_f64(INGEST_CHUNK as f64 / 2e9);
            let st3 = Rc::clone(&st2);
            cl.run_cpu(
                s,
                vm.machine,
                vm.dom,
                0,
                cpu,
                Waiter::from_fn(move |cl, s, _| {
                    vs_ingest(Rc::clone(&st3), cl, s);
                }),
            );
        })),
    );
}

/// Multi-stream sequential read parameters (§5.5's I/O-intensive half).
#[derive(Clone, Copy, Debug)]
pub struct MultiStreamParams {
    /// Concurrent streams (threads).
    pub streams: u32,
    /// Per-stream file size.
    pub file_size: u64,
    /// Read size per op.
    pub read_size: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MultiStreamParams {
    fn default() -> Self {
        MultiStreamParams {
            streams: 4,
            file_size: 1 << 30,
            read_size: 1 << 20,
            seed: 1,
        }
    }
}

struct MsState {
    p: MultiStreamParams,
    vm: VmRef,
    files: Vec<FileId>,
    positions: Vec<u64>,
    rec: Rec,
}

/// Launch multi-stream sequential reads on a VM (one file per stream;
/// stream `i` runs on VCPU `i`).
pub fn spawn_multistream(
    cl: &mut Cluster,
    s: &mut Sched,
    vm: VmRef,
    p: MultiStreamParams,
    rec: Rec,
) {
    let files = provision_files(cl, vm, p.streams as usize, p.file_size);
    let st = Rc::new(RefCell::new(MsState {
        positions: vec![0; p.streams as usize],
        p,
        vm,
        files,
        rec,
    }));
    for t in 0..p.streams {
        ms_read(Rc::clone(&st), cl, s, t);
    }
}

fn ms_read(st: Rc<RefCell<MsState>>, cl: &mut Cluster, s: &mut Sched, stream: u32) {
    // Copying the payload to userspace costs CPU (~8 GB/s memcpy); this
    // also keeps a fully-cached stream from looping in zero simulated time.
    const COPY_BW: f64 = 8e9;
    let (vm, op, stop) = {
        let mut x = st.borrow_mut();
        let stop = x.rec.borrow().stopped;
        let rsz = x.p.read_size;
        let fsz = x.p.file_size;
        let pos = x.positions[stream as usize];
        let offset = pos % (fsz - rsz).max(1);
        x.positions[stream as usize] = pos + rsz;
        let file = x.files[stream as usize];
        (
            x.vm,
            FileOp::Read {
                file,
                offset,
                len: rsz,
            },
            stop,
        )
    };
    if stop {
        return;
    }
    let started = s.now();
    let st2 = Rc::clone(&st);
    cl.submit_op(
        s,
        vm.machine,
        vm.dom,
        stream,
        op,
        Some(Waiter::from_fn(move |cl, s, _| {
            let rsz = {
                let x = st2.borrow();
                x.p.read_size
            };
            let copy = SimDuration::from_secs_f64(rsz as f64 / COPY_BW);
            let st3 = Rc::clone(&st2);
            cl.run_cpu(
                s,
                vm.machine,
                vm.dom,
                stream,
                copy,
                Waiter::from_fn(move |cl, s, _| {
                    let now = s.now();
                    {
                        let x = st3.borrow();
                        x.rec
                            .borrow_mut()
                            .record(now, now.saturating_since(started), rsz);
                    }
                    ms_read(Rc::clone(&st3), cl, s, stream);
                }),
            );
        })),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_defaults_sane() {
        let fs = FsParams::default();
        assert!(fs.pool as u64 * fs.file_size > 32 << 20);
        let vs = VsParams::default();
        assert!(vs.video_size > CHUNK);
        let ms = MultiStreamParams::default();
        assert!(ms.file_size > ms.read_size);
    }
}
