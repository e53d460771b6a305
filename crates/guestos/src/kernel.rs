//! The guest kernel: VFS + page cache + writeback + request queue composed
//! into one passive state machine.
//!
//! The hypervisor's machine event loop drives it through four entry points
//! — [`GuestKernel::start_op`], [`GuestKernel::on_block_complete`],
//! [`GuestKernel::on_timer`] and the collaborative hooks
//! ([`enter_congestion`](GuestKernel::enter_congestion),
//! [`grant_bypass`](GuestKernel::grant_bypass),
//! [`remote_sync`](GuestKernel::remote_sync)) — and collects block requests
//! for the frontend ring, asynchronously completed file operations, and
//! edge-triggered [`KernelSignal`]s from [`GuestKernel::swap_outputs`]. An
//! op that completes inside `start_op` is reported by its return value
//! ([`OpStart::Done`]) and never enters the outputs.

use std::collections::VecDeque;

use iorch_simcore::trace::TraceEventKind;
use iorch_simcore::{trace_event, IdMap, SimTime};
use iorch_storage::{IoKind, IoRequest, RequestId, RequestIdAlloc, StreamId};

use crate::pagecache::{chunks_of, ChunkIdx, PageCache, CHUNK_PAGES, CHUNK_SIZE, PAGE_SIZE};
use crate::queue::{GuestQueue, GuestQueueParams, QueueEvent, Submit, WAKE_DELAY};
use crate::vfs::{FileId, Vfs, VfsError};
use crate::writeback::{coalesce_chunks, run_to_bytes, Writeback, WritebackParams};

/// Identifies a file operation in flight inside one guest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct OpId(pub u64);

/// A file-level operation submitted by a workload.
#[derive(Clone, Copy, Debug)]
pub enum FileOp {
    /// Read `len` bytes at `offset`.
    Read {
        /// Target file.
        file: FileId,
        /// Byte offset within the file.
        offset: u64,
        /// Byte count.
        len: u64,
    },
    /// Write `len` bytes at `offset` (buffered; completes when the pages
    /// are dirtied unless the writer is throttled).
    Write {
        /// Target file.
        file: FileId,
        /// Byte offset within the file.
        offset: u64,
        /// Byte count.
        len: u64,
    },
    /// `sync()`: flush all dirty pages; completes when they hit the disk.
    Sync,
}

/// What kind of op completed (for per-class accounting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// A read.
    Read,
    /// A buffered write.
    Write,
    /// A sync barrier.
    Sync,
}

/// A finished file operation.
#[derive(Clone, Copy, Debug)]
pub struct CompletedOp {
    /// The operation.
    pub op: OpId,
    /// When it was submitted (latency = completion time − this).
    pub started: SimTime,
    /// Operation class.
    pub class: OpClass,
}

/// How [`GuestKernel::start_op`] left an op.
#[derive(Clone, Copy, Debug)]
pub enum OpStart {
    /// Completed inside `start_op` (an all-resident read, a write below
    /// the throttle, a sync with nothing dirty). It never appears in
    /// [`KernelOutputs::completed`].
    Done(CompletedOp),
    /// Waits on block I/O or dirty pressure; its completion arrives in
    /// [`KernelOutputs::completed`].
    Pending(OpId),
}

impl OpStart {
    /// The op's id.
    pub fn op(&self) -> OpId {
        match *self {
            OpStart::Done(c) => c.op,
            OpStart::Pending(op) => op,
        }
    }
}

/// Edge-triggered notifications for the collaboration layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelSignal {
    /// The request queue crossed 7/8 of its limit: Linux would enable
    /// congestion avoidance. The policy layer must answer with
    /// [`GuestKernel::enter_congestion`] (baseline) or
    /// [`GuestKernel::grant_bypass`] (collaborative release).
    CongestionQuery,
    /// The queue fell below 13/16 and the congestion flag cleared.
    CongestionCleared,
    /// `has_dirty_pages` transitioned (the store value in paper Alg. 1).
    DirtyStatusChanged(
        /// New value of `has_dirty_pages`.
        bool,
    ),
    /// A [`GuestKernel::remote_sync`] (IOrchestra `flush_now`) finished.
    RemoteSyncCompleted,
}

/// Fraction of guest memory usable as page cache (the rest is kernel,
/// process memory and free-page reserve).
const CACHE_FRACTION: f64 = 0.75;

/// Static configuration of one guest.
#[derive(Clone, Copy, Debug)]
pub struct GuestConfig {
    /// Guest memory in bytes; the page cache gets 3/4 of it.
    pub mem_bytes: u64,
    /// Virtual disk size in bytes.
    pub vdisk_size: u64,
    /// Storage-layer stream id for this guest's virtual disk.
    pub stream: StreamId,
    /// Request-queue tunables.
    pub queue: GuestQueueParams,
    /// Writeback tunables.
    pub wb: WritebackParams,
    /// Chunks to prefetch on sequential reads.
    pub readahead_chunks: u64,
}

impl GuestConfig {
    /// A guest with the given memory and disk, defaults elsewhere.
    pub fn new(mem_bytes: u64, vdisk_size: u64, stream: StreamId) -> Self {
        GuestConfig {
            mem_bytes,
            vdisk_size,
            stream,
            queue: GuestQueueParams::default(),
            wb: WritebackParams::default(),
            readahead_chunks: 4,
        }
    }

    fn cache_pages(&self) -> u64 {
        (((self.mem_bytes as f64 * CACHE_FRACTION) / PAGE_SIZE as f64) as u64).max(4 * CHUNK_PAGES)
    }
}

/// A contiguous run of chunks: `(first, count)`.
type ChunkRun = (ChunkIdx, u64);

/// Why a block request was issued. Each request covers one contiguous
/// chunk run.
#[derive(Clone, Copy, Debug)]
enum ReqOwner {
    /// Read filling this missing run for an op.
    OpRead { op: OpId, run: ChunkRun },
    /// Prefetch filling this run; nobody waits.
    Readahead { run: ChunkRun },
    /// Writeback of this run; `sync_op` waits if it was a sync() op,
    /// `remote` marks IOrchestra `flush_now` work.
    Writeback {
        run: ChunkRun,
        sync_op: Option<OpId>,
        remote: bool,
    },
}

impl ReqOwner {
    fn run(&self) -> ChunkRun {
        match *self {
            ReqOwner::OpRead { run, .. }
            | ReqOwner::Readahead { run }
            | ReqOwner::Writeback { run, .. } => run,
        }
    }
}

/// The chunks of a run.
fn run_chunks((first, count): ChunkRun) -> std::ops::Range<ChunkIdx> {
    first..first + count
}

#[derive(Clone, Copy, Debug)]
struct OpState {
    started: SimTime,
    pending: usize,
    class: OpClass,
}

#[derive(Clone, Copy, Debug)]
struct PendingSubmit {
    req: IoRequest,
    owner: ReqOwner,
}

/// Everything the kernel produced since the last drain.
#[derive(Debug, Default)]
pub struct KernelOutputs {
    /// Block requests to push into the frontend ring.
    pub to_ring: Vec<IoRequest>,
    /// File operations that completed after the `start_op` call that
    /// started them (inline completions are `start_op`'s return value).
    pub completed: Vec<CompletedOp>,
    /// Edge-triggered signals.
    pub signals: Vec<KernelSignal>,
}

/// Cumulative kernel statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Read ops started.
    pub reads: u64,
    /// Write ops started.
    pub writes: u64,
    /// Sync ops started.
    pub syncs: u64,
    /// Chunk-granularity cache hits.
    pub cache_hit_chunks: u64,
    /// Chunk-granularity cache misses.
    pub cache_miss_chunks: u64,
    /// Ops that had to sleep on a congested queue.
    pub congestion_blocked_ops: u64,
    /// Write ops throttled on the dirty ratio.
    pub throttled_writes: u64,
}

/// Fault-injection misbehaviour modes for a guest driver (all off by
/// default). Set by the hypervisor's fault installer on a clock schedule;
/// the flags model a buggy or adversarial paravirtual driver rather than a
/// different kernel, so all other guest behaviour is unchanged.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Misbehavior {
    /// Ignore `flush_now` commands: [`GuestKernel::remote_sync`] does
    /// nothing and never emits [`KernelSignal::RemoteSyncCompleted`].
    pub ignore_flush_now: bool,
    /// Ignore `release_request` grants: [`GuestKernel::grant_bypass`] does
    /// nothing, so the guest stays asleep until queue hysteresis clears.
    pub ignore_release_request: bool,
}

/// The simulated guest kernel.
pub struct GuestKernel {
    cfg: GuestConfig,
    vfs: Vfs,
    cache: PageCache,
    queue: GuestQueue,
    wb: Writeback,
    ids: RequestIdAlloc,
    next_op: u64,
    ops: IdMap<OpId, OpState>,
    owners: IdMap<RequestId, ReqOwner>,
    blocked: VecDeque<PendingSubmit>,
    throttled: VecDeque<(OpId, SimTime)>,
    remote_sync_inflight: usize,
    /// Set when a synchronous submitter (read / sync) is about to block —
    /// Linux flushes the plug list on `io_schedule`, so these requests
    /// must not wait out the plug timer.
    unplug_now: bool,
    /// When blocked submitters may resume after an un-congestion (the
    /// wake-delay timer).
    blocked_wake_at: Option<SimTime>,
    /// Future instant at which the oldest throttled writer's pause ends
    /// (None when no timer is needed).
    throttle_timer_at: Option<SimTime>,
    had_dirty: bool,
    misbehavior: Misbehavior,
    /// Newest `flush_now` command epoch this driver has accepted. Epochs
    /// stamp control commands so a recovering (re-issuing) management
    /// plane and a duplicating XenBus are both safe: a command whose epoch
    /// is ≤ the last accepted one is discarded. Lives in the guest — it
    /// must survive a dom0 plane crash.
    flush_epoch_seen: u64,
    /// Newest `release_request` grant epoch accepted (same protocol).
    release_epoch_seen: u64,
    out: KernelOutputs,
    stats: KernelStats,
}

impl GuestKernel {
    /// Boot a guest kernel at time `now`.
    pub fn new(cfg: GuestConfig, now: SimTime) -> Self {
        let mut queue = GuestQueue::new(cfg.queue);
        queue.set_trace_tag(cfg.stream.0);
        GuestKernel {
            vfs: Vfs::new(cfg.vdisk_size),
            cache: PageCache::new(cfg.cache_pages()),
            queue,
            wb: Writeback::new(cfg.wb, now),
            ids: RequestIdAlloc::new(),
            next_op: 0,
            ops: IdMap::default(),
            owners: IdMap::default(),
            blocked: VecDeque::new(),
            throttled: VecDeque::new(),
            remote_sync_inflight: 0,
            unplug_now: false,
            blocked_wake_at: None,
            throttle_timer_at: None,
            had_dirty: false,
            misbehavior: Misbehavior::default(),
            flush_epoch_seen: 0,
            release_epoch_seen: 0,
            out: KernelOutputs::default(),
            stats: KernelStats::default(),
            cfg,
        }
    }

    /// The storage stream this guest's virtual disk maps to.
    pub fn stream(&self) -> StreamId {
        self.cfg.stream
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Current misbehaviour modes (fault injection).
    pub fn misbehavior(&self) -> Misbehavior {
        self.misbehavior
    }

    /// Set misbehaviour modes (fault injection).
    pub fn set_misbehavior(&mut self, m: Misbehavior) {
        self.misbehavior = m;
    }

    /// Offer a `flush_now` command epoch to the driver. Returns `true`
    /// and remembers it if it is newer than anything seen; a stale or
    /// duplicate epoch returns `false` and must be discarded by the
    /// caller (re-acking is safe — acks are idempotent).
    pub fn accept_flush_epoch(&mut self, epoch: u64) -> bool {
        if epoch > self.flush_epoch_seen {
            self.flush_epoch_seen = epoch;
            true
        } else {
            false
        }
    }

    /// Newest `flush_now` epoch accepted so far (0 = none).
    pub fn flush_epoch_seen(&self) -> u64 {
        self.flush_epoch_seen
    }

    /// Offer a `release_request` grant epoch to the driver; same
    /// semantics as [`GuestKernel::accept_flush_epoch`].
    pub fn accept_release_epoch(&mut self, epoch: u64) -> bool {
        if epoch > self.release_epoch_seen {
            self.release_epoch_seen = epoch;
            true
        } else {
            false
        }
    }

    /// Newest `release_request` epoch accepted so far (0 = none).
    pub fn release_epoch_seen(&self) -> u64 {
        self.release_epoch_seen
    }

    /// Dirty pages (`bdi_writeback.nr` analogue).
    pub fn dirty_pages(&self) -> u64 {
        self.cache.dirty_pages()
    }

    /// Is the request queue currently congested (submitters sleeping)?
    pub fn queue_congested(&self) -> bool {
        self.queue.is_congested()
    }

    /// Times the congestion flag was set.
    pub fn congestion_entries(&self) -> u64 {
        self.queue.congestion_entries()
    }

    /// Times a collaborative bypass was granted.
    pub fn bypass_grants(&self) -> u64 {
        self.queue.bypass_grants()
    }

    /// Create a file on the virtual disk.
    pub fn create_file(&mut self, size: u64) -> Result<FileId, VfsError> {
        self.vfs.create(size)
    }

    /// Size of a file.
    pub fn file_size(&self, file: FileId) -> Result<u64, VfsError> {
        self.vfs.size_of(file)
    }

    /// Earliest internal deadline (plug timer or periodic flusher); the
    /// machine schedules [`GuestKernel::on_timer`] here.
    pub fn next_deadline(&self) -> SimTime {
        let mut t = self.wb.next_wakeup();
        if let Some(p) = self.queue.plug_deadline() {
            t = t.min(p);
        }
        if let Some(w) = self.blocked_wake_at {
            t = t.min(w);
        }
        if let Some(at) = self.throttle_timer_at {
            // Re-check throttled writers when their pause expires. (Only a
            // future deadline: a past-due writer still gated on pressure
            // is woken by writeback completions, not by a spinning timer.)
            t = t.min(at);
        }
        t
    }

    /// Exchange the accumulated outputs with `spare`, which must be fully
    /// drained. The caller drains what it receives (e.g. with
    /// `Vec::drain`) and passes the same buffers back next time, so a
    /// steady-state op allocates no output vectors.
    pub fn swap_outputs(&mut self, spare: &mut KernelOutputs) {
        debug_assert!(
            spare.to_ring.is_empty() && spare.completed.is_empty() && spare.signals.is_empty(),
            "spare outputs must be drained before the swap"
        );
        std::mem::swap(&mut self.out, spare);
    }

    /// Whether anything awaits [`GuestKernel::swap_outputs`].
    pub fn has_outputs(&self) -> bool {
        !(self.out.to_ring.is_empty()
            && self.out.completed.is_empty()
            && self.out.signals.is_empty())
    }

    /// The op a block request belongs to, if any (readahead and background
    /// writeback have no waiting op). The hypervisor uses this to attribute
    /// a ring request to the VCPU that issued the op.
    pub fn op_of_request(&self, id: RequestId) -> Option<OpId> {
        match self.owners.get(&id)? {
            ReqOwner::OpRead { op, .. } => Some(*op),
            ReqOwner::Writeback { sync_op, .. } => *sync_op,
            ReqOwner::Readahead { .. } => None,
        }
    }

    fn alloc_op(&mut self, started: SimTime, class: OpClass, pending: usize) -> OpStart {
        let op = OpId(self.next_op);
        self.next_op += 1;
        if pending == 0 {
            return OpStart::Done(CompletedOp { op, started, class });
        }
        self.ops.insert(
            op,
            OpState {
                started,
                pending,
                class,
            },
        );
        OpStart::Pending(op)
    }

    fn op_progress(&mut self, op: OpId, n: usize) {
        if let Some(state) = self.ops.get_mut(&op) {
            state.pending = state.pending.saturating_sub(n);
            if state.pending == 0 {
                let state = self.ops.remove(&op).unwrap();
                self.out.completed.push(CompletedOp {
                    op,
                    started: state.started,
                    class: state.class,
                });
            }
        }
    }

    /// Submit a file operation. An op that completes at once is returned
    /// as [`OpStart::Done`]; a pending one completes later through
    /// [`KernelOutputs::completed`].
    pub fn start_op(&mut self, op: FileOp, now: SimTime) -> OpStart {
        let start = match op {
            FileOp::Read { file, offset, len } => self.start_read(file, offset, len, now),
            FileOp::Write { file, offset, len } => self.start_write(file, offset, len, now),
            FileOp::Sync => self.start_sync(now),
        };
        self.housekeeping(now);
        start
    }

    fn start_read(&mut self, file: FileId, offset: u64, len: u64, now: SimTime) -> OpStart {
        self.stats.reads += 1;
        let len = len.max(1);
        let (disk_off, sequential) = match self.vfs.translate_read(file, offset, len) {
            Ok(r) => r,
            Err(_) => {
                debug_assert!(false, "read out of bounds");
                return self.alloc_op(now, OpClass::Read, 0);
            }
        };
        // Partition the range into cached and missing chunks.
        let mut missing: Vec<ChunkIdx> = Vec::new();
        for c in chunks_of(disk_off, len) {
            if self.cache.touch(c) {
                self.stats.cache_hit_chunks += 1;
            } else {
                self.stats.cache_miss_chunks += 1;
                missing.push(c);
            }
        }
        // Sequential readahead.
        // Linux aborts readahead when the device looks congested; under a
        // collaborative bypass the host has said it is not, so the
        // prefetch pipeline is kept alive.
        let ra_allowed = || {
            self.queue.bypass_active()
                || (!self.queue.is_congested()
                    && self.queue.allocated()
                        < crate::queue::congestion_on_threshold(self.cfg.queue.nr_requests))
        };
        let mut ra_chunks: Vec<ChunkIdx> = Vec::new();
        if sequential && ra_allowed() && self.cfg.readahead_chunks > 0 {
            let file_size = self.vfs.size_of(file).unwrap_or(0);
            let next = offset + len;
            let ra_len =
                (self.cfg.readahead_chunks * CHUNK_SIZE).min(file_size.saturating_sub(next));
            if ra_len > 0 {
                if let Ok(ra_off) = self.vfs.translate(file, next, ra_len) {
                    for c in chunks_of(ra_off, ra_len) {
                        if !self.cache.contains(c) && !missing.contains(&c) {
                            ra_chunks.push(c);
                        }
                    }
                }
            }
        }
        if missing.is_empty() && ra_chunks.is_empty() {
            return self.alloc_op(now, OpClass::Read, 0);
        }
        let runs = coalesce_chunks(missing, 8);
        if !runs.is_empty() {
            // The reader is about to block on these requests.
            self.unplug_now = true;
        }
        let start = self.alloc_op(now, OpClass::Read, runs.len());
        let op = start.op();
        for run in runs {
            self.submit_block(IoKind::Read, ReqOwner::OpRead { op, run }, now);
        }
        for run in coalesce_chunks(ra_chunks, 8) {
            self.submit_block(IoKind::Read, ReqOwner::Readahead { run }, now);
        }
        start
    }

    fn start_write(&mut self, file: FileId, offset: u64, len: u64, now: SimTime) -> OpStart {
        self.stats.writes += 1;
        let len = len.max(1);
        let disk_off = match self.vfs.translate(file, offset, len) {
            Ok(o) => o,
            Err(_) => {
                debug_assert!(false, "write out of bounds");
                return self.alloc_op(now, OpClass::Write, 0);
            }
        };
        for c in chunks_of(disk_off, len) {
            self.cache.mark_dirty(c, now);
        }
        // Crossing the background ratio kicks the flusher without waiting
        // for the periodic timer.
        if self.wb.background_needed(&self.cache) {
            let taken = self.wb.on_background(&mut self.cache);
            self.issue_writeback(taken, None, false, now);
        }
        if self.wb.should_throttle(&self.cache) {
            // Writer throttling: the op completes only when dirty pressure
            // drops (balance_dirty_pages).
            self.stats.throttled_writes += 1;
            let start = self.alloc_op(now, OpClass::Write, 1);
            self.throttled
                .push_back((start.op(), now + self.cfg.wb.throttle_pause));
            start
        } else {
            self.alloc_op(now, OpClass::Write, 0)
        }
    }

    fn start_sync(&mut self, now: SimTime) -> OpStart {
        self.stats.syncs += 1;
        let taken = self.wb.on_sync(&mut self.cache);
        if !taken.is_empty() {
            trace_event!(
                now,
                TraceEventKind::WritebackIssue {
                    dom: self.cfg.stream.0,
                    pages: taken.len() as u64 * CHUNK_PAGES,
                    remote: false,
                }
            );
        }
        let runs = coalesce_chunks(taken, 16);
        if !runs.is_empty() {
            self.unplug_now = true;
        }
        let start = self.alloc_op(now, OpClass::Sync, runs.len());
        for run in runs {
            let owner = ReqOwner::Writeback {
                run,
                sync_op: Some(start.op()),
                remote: false,
            };
            self.submit_block(IoKind::Write, owner, now);
        }
        start
    }

    /// IOrchestra `flush_now`: trigger `sync()` remotely (paper Alg. 1).
    /// Emits [`KernelSignal::RemoteSyncCompleted`] when the data is on disk.
    pub fn remote_sync(&mut self, now: SimTime) {
        if self.misbehavior.ignore_flush_now {
            // Fault injection: the driver drops the command on the floor —
            // no writeback, and crucially no completion ack.
            return;
        }
        let taken = self.wb.on_sync(&mut self.cache);
        if taken.is_empty() {
            self.out.signals.push(KernelSignal::RemoteSyncCompleted);
            self.housekeeping(now);
            return;
        }
        trace_event!(
            now,
            TraceEventKind::WritebackIssue {
                dom: self.cfg.stream.0,
                pages: taken.len() as u64 * CHUNK_PAGES,
                remote: true,
            }
        );
        self.unplug_now = true;
        for run in coalesce_chunks(taken, 16) {
            self.remote_sync_inflight += 1;
            let owner = ReqOwner::Writeback {
                run,
                sync_op: None,
                remote: true,
            };
            self.submit_block(IoKind::Write, owner, now);
        }
        self.housekeeping(now);
    }

    fn issue_writeback(
        &mut self,
        chunks: Vec<ChunkIdx>,
        sync_op: Option<OpId>,
        remote: bool,
        now: SimTime,
    ) {
        if !chunks.is_empty() {
            trace_event!(
                now,
                TraceEventKind::WritebackIssue {
                    dom: self.cfg.stream.0,
                    pages: chunks.len() as u64 * CHUNK_PAGES,
                    remote,
                }
            );
        }
        for run in coalesce_chunks(chunks, 16) {
            if remote {
                self.remote_sync_inflight += 1;
            }
            let owner = ReqOwner::Writeback {
                run,
                sync_op,
                remote,
            };
            self.submit_block(IoKind::Write, owner, now);
        }
    }

    /// Queue one block request covering `owner`'s chunk run.
    fn submit_block(&mut self, kind: IoKind, owner: ReqOwner, now: SimTime) {
        let (offset, len) = run_to_bytes(owner.run());
        let req = IoRequest {
            id: self.ids.alloc(),
            kind,
            stream: self.cfg.stream,
            offset,
            len,
            submitted: now,
        };
        match self.queue.submit(req, now) {
            Submit::Accepted => {
                self.owners.insert(req.id, owner);
            }
            Submit::Blocked => {
                if matches!(owner, ReqOwner::OpRead { .. }) {
                    self.stats.congestion_blocked_ops += 1;
                }
                self.blocked.push_back(PendingSubmit { req, owner });
            }
        }
    }

    /// A block request this guest issued completed at the device.
    pub fn on_block_complete(&mut self, id: RequestId, now: SimTime) {
        self.queue.on_complete(1, now);
        if let Some(owner) = self.owners.remove(&id) {
            match owner {
                ReqOwner::OpRead { op, run } => {
                    for c in run_chunks(run) {
                        self.cache.insert_clean(c);
                    }
                    self.op_progress(op, 1);
                }
                ReqOwner::Readahead { run } => {
                    for c in run_chunks(run) {
                        self.cache.insert_clean(c);
                    }
                }
                ReqOwner::Writeback {
                    run,
                    sync_op,
                    remote,
                } => {
                    for c in run_chunks(run) {
                        self.wb.on_chunk_done(&mut self.cache, c);
                    }
                    if let Some(op) = sync_op {
                        self.op_progress(op, 1);
                    }
                    if remote {
                        self.remote_sync_inflight -= 1;
                        if self.remote_sync_inflight == 0 {
                            self.out.signals.push(KernelSignal::RemoteSyncCompleted);
                        }
                    }
                    // Window room may have opened for more background work.
                    if self.wb.background_needed(&self.cache) {
                        let taken = self.wb.on_background(&mut self.cache);
                        self.issue_writeback(taken, None, false, now);
                    }
                }
            }
        }
        self.housekeeping(now);
    }

    /// Fire internal timers (plug deadline, periodic flusher).
    pub fn on_timer(&mut self, now: SimTime) {
        if now >= self.wb.next_wakeup() {
            let taken = self.wb.on_periodic(&mut self.cache, now);
            self.issue_writeback(taken, None, false, now);
        }
        self.housekeeping(now);
    }

    /// Baseline response to [`KernelSignal::CongestionQuery`]: sleep
    /// submitters until the off threshold.
    pub fn enter_congestion(&mut self, now: SimTime) {
        self.queue.enter_congestion(now);
    }

    /// Collaborative response: the host is not congested; unplug and keep
    /// submitting (paper Alg. 2's `release_request`).
    pub fn grant_bypass(&mut self, now: SimTime) {
        if self.misbehavior.ignore_release_request {
            // Fault injection: the driver never acts on the grant; the
            // guest stays asleep until normal queue hysteresis wakes it.
            return;
        }
        self.queue.grant_bypass(now);
        self.housekeeping(now);
    }

    /// Drain the queue's edge-triggered events into the signal outputs.
    fn forward_queue_events(&mut self) {
        self.out
            .signals
            .extend(self.queue.poll_events().map(|ev| match ev {
                QueueEvent::CongestionWouldEnter => KernelSignal::CongestionQuery,
                QueueEvent::Uncongested => KernelSignal::CongestionCleared,
            }));
    }

    /// Run the housekeeping pass unless its inputs are idle. Each step of
    /// the pass is then a no-op: with nothing queued, `take_dispatchable`
    /// only clears a plug deadline that the next `submit` overwrites
    /// before anything reads it.
    fn housekeeping(&mut self, now: SimTime) {
        if self.queue.is_idle()
            && self.blocked.is_empty()
            && self.throttled.is_empty()
            && (self.cache.dirty_pages() > 0) == self.had_dirty
        {
            // The other inputs of the pass are set only while one of the
            // above is pending, and congestion only voids a wake deadline.
            debug_assert!(
                self.blocked_wake_at.is_none()
                    && self.throttle_timer_at.is_none()
                    && !self.unplug_now
            );
            return;
        }
        // 1. Queue events -> signals.
        self.forward_queue_events();
        // 2. Retry blocked submissions FIFO while the queue accepts them —
        // but only a wake-delay after the congestion cleared (waking the
        // sleeping process costs a context switch and VCPU scheduling).
        if self.queue.is_congested() {
            // Re-congested before the wake fired: void the pending wake (a
            // stale past deadline would spin the kernel timer forever).
            self.blocked_wake_at = None;
        }
        if !self.blocked.is_empty() && !self.queue.is_congested() {
            match self.blocked_wake_at {
                None => {
                    self.blocked_wake_at = Some(now + WAKE_DELAY);
                }
                Some(wake_at) if now >= wake_at => {
                    self.blocked_wake_at = None;
                    while let Some(pending) = self.blocked.pop_front() {
                        match self.queue.submit(pending.req, now) {
                            Submit::Accepted => {
                                self.owners.insert(pending.req.id, pending.owner);
                            }
                            Submit::Blocked => {
                                self.blocked.push_front(pending);
                                break;
                            }
                        }
                    }
                }
                Some(_) => {}
            }
        }
        // Queue events may have fired again during retries.
        self.forward_queue_events();
        // 3. Wake throttled writers: only after their minimum pause AND
        // once pressure has drained below the hysteresis point.
        while let Some(&(op, earliest)) = self.throttled.front() {
            if now >= earliest && self.wb.may_wake_throttled(&self.cache) {
                self.throttled.pop_front();
                self.op_progress(op, 1);
            } else {
                break;
            }
        }
        // Arm the pause timer only for a future expiry; past-due writers
        // gated on pressure are re-checked on writeback completions.
        self.throttle_timer_at = self
            .throttled
            .front()
            .map(|&(_, earliest)| earliest)
            .filter(|&e| e > now);
        // 4. Dispatch unplugged requests to the ring.
        let force = std::mem::take(&mut self.unplug_now);
        self.out
            .to_ring
            .extend(self.queue.take_dispatchable(now, force));
        // 5. Dirty-status edge for the system store.
        let has_dirty = self.cache.dirty_pages() > 0;
        if has_dirty != self.had_dirty {
            self.had_dirty = has_dirty;
            self.out
                .signals
                .push(KernelSignal::DirtyStatusChanged(has_dirty));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iorch_simcore::SimDuration;

    fn cfg() -> GuestConfig {
        // 64 MiB memory, 1 GiB disk.
        GuestConfig::new(64 << 20, 1 << 30, StreamId(1))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Drain the kernel's outputs into fresh buffers.
    fn take_outputs(k: &mut GuestKernel) -> KernelOutputs {
        let mut out = KernelOutputs::default();
        k.swap_outputs(&mut out);
        out
    }

    /// Drive all ring requests to completion instantly (ideal device).
    fn complete_all(k: &mut GuestKernel, now: SimTime) -> usize {
        let mut n = 0;
        loop {
            let out = take_outputs(k);
            if out.to_ring.is_empty() {
                break;
            }
            for r in out.to_ring {
                k.on_block_complete(r.id, now);
                n += 1;
            }
        }
        n
    }

    #[test]
    fn command_epochs_are_monotonic_per_channel() {
        let mut k = GuestKernel::new(cfg(), t(0));
        assert_eq!(k.flush_epoch_seen(), 0);
        assert!(k.accept_flush_epoch(1), "first command accepted");
        assert!(!k.accept_flush_epoch(1), "duplicate discarded");
        assert!(!k.accept_flush_epoch(0), "stale (pre-crash) discarded");
        assert!(k.accept_flush_epoch(5), "gaps are fine: newer wins");
        assert!(!k.accept_flush_epoch(4));
        assert_eq!(k.flush_epoch_seen(), 5);
        // The two command channels keep independent cursors.
        assert_eq!(k.release_epoch_seen(), 0);
        assert!(k.accept_release_epoch(2));
        assert!(!k.accept_release_epoch(2));
        assert_eq!(k.release_epoch_seen(), 2);
        assert_eq!(k.flush_epoch_seen(), 5);
    }

    #[test]
    fn cold_read_misses_then_hits() {
        let mut k = GuestKernel::new(cfg(), t(0));
        let f = k.create_file(10 << 20).unwrap();
        let op1 = k.start_op(
            FileOp::Read {
                file: f,
                offset: 0,
                len: CHUNK_SIZE,
            },
            t(0),
        );
        // Miss: op pending; the blocking reader unplugs immediately.
        let OpStart::Pending(op1) = op1 else {
            panic!("a miss must not complete inline");
        };
        let out = take_outputs(&mut k);
        assert!(out.completed.is_empty());
        assert_eq!(out.to_ring.len(), 1);
        k.on_block_complete(out.to_ring[0].id, t(1));
        let out = take_outputs(&mut k);
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.completed[0].op, op1);
        assert_eq!(out.completed[0].class, OpClass::Read);
        // Second read of the same range: pure cache hit, instant, and
        // reported only by the return value.
        let op2 = k.start_op(
            FileOp::Read {
                file: f,
                offset: 0,
                len: CHUNK_SIZE,
            },
            t(2),
        );
        let OpStart::Done(done) = op2 else {
            panic!("a hit must complete inline");
        };
        assert_ne!(done.op, op1);
        assert_eq!(done.started, t(2));
        assert_eq!(done.class, OpClass::Read);
        assert!(!k.has_outputs());
        assert!(k.stats().cache_hit_chunks >= 1);
    }

    #[test]
    fn sequential_reads_trigger_readahead() {
        let mut k = GuestKernel::new(cfg(), t(0));
        let f = k.create_file(10 << 20).unwrap();
        k.start_op(
            FileOp::Read {
                file: f,
                offset: 0,
                len: CHUNK_SIZE,
            },
            t(0),
        );
        // Second sequential read announces the pattern.
        k.start_op(
            FileOp::Read {
                file: f,
                offset: CHUNK_SIZE,
                len: CHUNK_SIZE,
            },
            t(1),
        );
        k.on_timer(k.next_deadline());
        let out = take_outputs(&mut k);
        // Demand chunks 0,1 plus 4 readahead chunks => >= 2 requests and
        // total bytes > 2 chunks.
        let total: u64 = out.to_ring.iter().map(|r| r.len).sum();
        assert!(total > 2 * CHUNK_SIZE, "total={total}");
    }

    #[test]
    fn buffered_write_completes_instantly_and_dirties() {
        let mut k = GuestKernel::new(cfg(), t(0));
        let f = k.create_file(10 << 20).unwrap();
        let op = k.start_op(
            FileOp::Write {
                file: f,
                offset: 0,
                len: 4 * CHUNK_SIZE,
            },
            t(0),
        );
        assert!(matches!(op, OpStart::Done(c) if c.class == OpClass::Write));
        let out = take_outputs(&mut k);
        assert!(out.completed.is_empty());
        assert_eq!(k.dirty_pages(), 4 * CHUNK_PAGES);
        assert!(out
            .signals
            .contains(&KernelSignal::DirtyStatusChanged(true)));
    }

    #[test]
    fn sync_flushes_and_completes_when_durable() {
        let mut k = GuestKernel::new(cfg(), t(0));
        let f = k.create_file(10 << 20).unwrap();
        k.start_op(
            FileOp::Write {
                file: f,
                offset: 0,
                len: 8 * CHUNK_SIZE,
            },
            t(0),
        );
        take_outputs(&mut k);
        let sync = k.start_op(FileOp::Sync, t(1)).op();
        // Not complete until the writeback requests finish — but the sync
        // barrier dispatched them to the ring immediately.
        let out = take_outputs(&mut k);
        assert!(out.completed.is_empty());
        assert_eq!(k.dirty_pages(), 0); // moved to writeback
        assert!(!out.to_ring.is_empty());
        let ids: Vec<RequestId> = out.to_ring.iter().map(|r| r.id).collect();
        for id in ids {
            k.on_block_complete(id, t(5));
        }
        let out = take_outputs(&mut k);
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.completed[0].op, sync);
        assert_eq!(out.completed[0].class, OpClass::Sync);
    }

    #[test]
    fn remote_sync_signals_completion() {
        let mut k = GuestKernel::new(cfg(), t(0));
        let f = k.create_file(10 << 20).unwrap();
        k.start_op(
            FileOp::Write {
                file: f,
                offset: 0,
                len: 4 * CHUNK_SIZE,
            },
            t(0),
        );
        take_outputs(&mut k);
        k.remote_sync(t(1));
        k.on_timer(k.next_deadline());
        let out = take_outputs(&mut k);
        let mut signals = out.signals.clone();
        assert!(!out.to_ring.is_empty());
        for r in out.to_ring {
            k.on_block_complete(r.id, t(2));
        }
        signals.extend(take_outputs(&mut k).signals);
        assert!(signals.contains(&KernelSignal::RemoteSyncCompleted));
        // Dirty status must have gone back to false at some point.
        assert!(signals.contains(&KernelSignal::DirtyStatusChanged(false)));
    }

    #[test]
    fn remote_sync_with_nothing_dirty_completes_immediately() {
        let mut k = GuestKernel::new(cfg(), t(0));
        k.remote_sync(t(0));
        let out = take_outputs(&mut k);
        assert!(out.signals.contains(&KernelSignal::RemoteSyncCompleted));
    }

    #[test]
    fn dirty_ratio_throttles_writers() {
        let mut c = cfg();
        c.wb.dirty_ratio = 0.05;
        c.wb.background_ratio = 0.04;
        let mut k = GuestKernel::new(c, t(0));
        let f = k.create_file(100 << 20).unwrap();
        // Dirty far past 5% of a 48 MiB cache (~2.4 MiB) in one op.
        let op = k.start_op(
            FileOp::Write {
                file: f,
                offset: 0,
                len: 8 << 20,
            },
            t(0),
        );
        let OpStart::Pending(op) = op else {
            panic!("writer must be throttled");
        };
        let out = take_outputs(&mut k);
        assert!(out.completed.is_empty());
        assert_eq!(k.stats().throttled_writes, 1);
        // Let writeback complete; the writer wakes.
        k.on_timer(k.next_deadline());
        let mut done = false;
        for _ in 0..100 {
            let out = take_outputs(&mut k);
            for r in out.to_ring {
                k.on_block_complete(r.id, t(10));
            }
            if out.completed.iter().any(|c| c.op == op) {
                done = true;
                break;
            }
            k.on_timer(k.next_deadline());
        }
        assert!(done, "throttled writer never woke");
    }

    #[test]
    fn congestion_query_emitted_and_baseline_blocks() {
        let mut k = GuestKernel::new(cfg(), t(0));
        let f = k.create_file(512 << 20).unwrap();
        // Issue far more single-chunk random reads than nr_requests,
        // accumulating the dispatched ring requests for later completion.
        let mut signalled = false;
        let mut ring: Vec<RequestId> = Vec::new();
        for i in 0..120 {
            k.start_op(
                FileOp::Read {
                    file: f,
                    offset: (i * 331) % 8000 * CHUNK_SIZE,
                    len: CHUNK_SIZE,
                },
                t(0),
            );
            let out = take_outputs(&mut k);
            ring.extend(out.to_ring.iter().map(|r| r.id));
            if out.signals.contains(&KernelSignal::CongestionQuery) {
                signalled = true;
                k.enter_congestion(t(0));
            }
        }
        assert!(signalled, "congestion query never fired");
        assert!(k.queue_congested());
        // Further ops get blocked (descriptor starvation).
        let before = k.stats().congestion_blocked_ops;
        k.start_op(
            FileOp::Read {
                file: f,
                offset: 123 * CHUNK_SIZE,
                len: CHUNK_SIZE,
            },
            t(1),
        );
        assert!(k.stats().congestion_blocked_ops > before);
        // Completing requests un-congests and the blocked op proceeds.
        for id in ring {
            k.on_block_complete(id, t(2));
        }
        complete_all(&mut k, t(2));
        assert!(!k.queue_congested());
    }

    #[test]
    fn bypass_avoids_blocking() {
        let mut k = GuestKernel::new(cfg(), t(0));
        let f = k.create_file(512 << 20).unwrap();
        for i in 0..200 {
            k.start_op(
                FileOp::Read {
                    file: f,
                    offset: (i * 331) % 8000 * CHUNK_SIZE,
                    len: CHUNK_SIZE,
                },
                t(0),
            );
            let out = take_outputs(&mut k);
            if out.signals.contains(&KernelSignal::CongestionQuery) {
                k.grant_bypass(t(0));
            }
        }
        assert!(!k.queue_congested());
        assert_eq!(k.stats().congestion_blocked_ops, 0);
        assert!(k.bypass_grants() >= 1);
    }

    #[test]
    fn periodic_writeback_flushes_expired() {
        let mut c = cfg();
        c.wb.periodic_interval = SimDuration::from_millis(100);
        c.wb.dirty_expire = SimDuration::from_millis(200);
        let mut k = GuestKernel::new(c, t(0));
        let f = k.create_file(10 << 20).unwrap();
        k.start_op(
            FileOp::Write {
                file: f,
                offset: 0,
                len: CHUNK_SIZE,
            },
            t(0),
        );
        take_outputs(&mut k);
        // Before expiry: periodic runs but flushes nothing (below bg ratio).
        k.on_timer(t(100));
        assert_eq!(k.dirty_pages(), CHUNK_PAGES);
        // After expiry.
        k.on_timer(t(300));
        assert_eq!(k.dirty_pages(), 0);
        let out = take_outputs(&mut k);
        assert!(!out.to_ring.is_empty() || !k.queue_congested());
    }

    // Housekeeping returns early when its inputs are idle. A cache hit
    // taken while one input is pending must still act on it.

    fn read(file: FileId, offset: u64) -> FileOp {
        FileOp::Read {
            file,
            offset,
            len: CHUNK_SIZE,
        }
    }

    /// A kernel whose file has its first chunk resident, outputs drained.
    fn warm(c: GuestConfig) -> (GuestKernel, FileId) {
        let mut k = GuestKernel::new(c, t(0));
        let f = k.create_file(512 << 20).unwrap();
        k.start_op(read(f, 0), t(0));
        complete_all(&mut k, t(0));
        (k, f)
    }

    /// Re-read the resident chunk (never sequential, so no readahead); it
    /// must complete inline. Returns what the call left in the outputs.
    fn hit(k: &mut GuestKernel, f: FileId, now: SimTime) -> KernelOutputs {
        let start = k.start_op(read(f, 0), now);
        assert!(matches!(start, OpStart::Done(c) if c.started == now));
        take_outputs(k)
    }

    /// Fill a 16-descriptor queue with misses until the congestion query
    /// fires, and answer it the baseline way.
    fn congest(k: &mut GuestKernel, f: FileId, now: SimTime) -> Vec<RequestId> {
        let mut ring = Vec::new();
        for i in 1.. {
            k.start_op(read(f, i * 7 * CHUNK_SIZE), now);
            let out = take_outputs(k);
            ring.extend(out.to_ring.iter().map(|r| r.id));
            if out.signals.contains(&KernelSignal::CongestionQuery) {
                k.enter_congestion(now);
                return ring;
            }
        }
        unreachable!()
    }

    fn small_queue() -> GuestConfig {
        let mut c = cfg();
        c.queue.nr_requests = 16;
        c
    }

    #[test]
    fn idle_hit_leaves_no_outputs() {
        let (mut k, f) = warm(cfg());
        let deadline = k.next_deadline();
        let out = hit(&mut k, f, t(1));
        assert!(out.to_ring.is_empty() && out.completed.is_empty() && out.signals.is_empty());
        assert_eq!(k.next_deadline(), deadline);
    }

    #[test]
    fn hit_dispatches_a_plugged_request_past_its_deadline() {
        let mut c = cfg();
        c.wb.background_ratio = 0.01;
        c.wb.dirty_ratio = 0.5;
        let (mut k, f) = warm(c);
        // Background writeback waits out the 3 ms plug timer.
        k.start_op(
            FileOp::Write {
                file: f,
                offset: 1 << 20,
                len: 8 * CHUNK_SIZE,
            },
            t(1),
        );
        assert!(take_outputs(&mut k).to_ring.is_empty());
        assert_eq!(k.next_deadline(), t(4));
        assert!(hit(&mut k, f, t(3)).to_ring.is_empty());
        let out = hit(&mut k, f, t(4));
        assert!(!out.to_ring.is_empty(), "the plug deadline passed");
        assert!(out.to_ring.iter().all(|r| r.kind == IoKind::Write));
    }

    #[test]
    fn hit_honours_a_pending_unplug() {
        let mut c = cfg();
        c.wb.background_ratio = 0.01;
        c.wb.dirty_ratio = 0.5;
        let (mut k, f) = warm(c);
        k.start_op(
            FileOp::Write {
                file: f,
                offset: 1 << 20,
                len: 8 * CHUNK_SIZE,
            },
            t(1),
        );
        take_outputs(&mut k);
        // A blocking submitter flushes the plug list before its deadline.
        k.unplug_now = true;
        let out = hit(&mut k, f, t(2));
        assert!(!out.to_ring.is_empty());
        assert!(!k.unplug_now);
    }

    #[test]
    fn hit_forwards_a_pending_queue_event() {
        let (mut k, f) = warm(cfg());
        // The queue has raised an event the kernel has not yet polled.
        k.enter_congestion(t(1));
        k.queue.grant_bypass(t(1));
        let out = hit(&mut k, f, t(1));
        assert_eq!(out.signals, vec![KernelSignal::CongestionCleared]);
    }

    #[test]
    fn hit_resubmits_a_blocked_request_when_its_wake_is_due() {
        let (mut k, f) = warm(small_queue());
        let ring = congest(&mut k, f, t(1));
        k.start_op(read(f, 3 * CHUNK_SIZE), t(1));
        assert_eq!(k.stats().congestion_blocked_ops, 1);
        take_outputs(&mut k);
        // Two completions take the queue below 13/16: the wake is armed
        // one wake delay later.
        for &id in &ring[..2] {
            k.on_block_complete(id, t(2));
        }
        let out = take_outputs(&mut k);
        assert!(out.signals.contains(&KernelSignal::CongestionCleared));
        assert_eq!(k.next_deadline(), t(3));
        let out = hit(&mut k, f, t(3));
        assert!(k.blocked.is_empty(), "the blocked read was resubmitted");
        // It is plugged again, with a fresh deadline.
        assert!(out.to_ring.is_empty());
        assert_eq!(k.next_deadline(), t(6));
    }

    #[test]
    fn hit_voids_the_wake_of_a_recongested_queue() {
        let (mut k, f) = warm(small_queue());
        let ring = congest(&mut k, f, t(1));
        k.start_op(read(f, 3 * CHUNK_SIZE), t(1));
        for &id in &ring[..2] {
            k.on_block_complete(id, t(2));
        }
        take_outputs(&mut k);
        assert_eq!(k.next_deadline(), t(3));
        // The queue congests again before the wake fires.
        k.enter_congestion(t(2));
        hit(&mut k, f, t(2));
        assert_eq!(k.blocked.len(), 1);
        assert!(k.next_deadline() > t(3), "the stale wake is voided");
    }

    #[test]
    fn hit_wakes_a_throttled_writer() {
        let mut c = cfg();
        c.wb.dirty_ratio = 0.05;
        c.wb.background_ratio = 0.04;
        let (mut k, f) = warm(c);
        let OpStart::Pending(writer) = k.start_op(
            FileOp::Write {
                file: f,
                offset: 1 << 20,
                len: 8 << 20,
            },
            t(1),
        ) else {
            panic!("writer must be throttled");
        };
        // Writeback drains the pressure before the writer's pause ends.
        k.on_timer(t(4));
        complete_all(&mut k, t(4));
        assert_eq!(k.dirty_pages(), 0);
        assert_eq!(k.next_deadline(), t(26));
        let out = hit(&mut k, f, t(26));
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.completed[0].op, writer);
        assert_eq!(out.completed[0].class, OpClass::Write);
    }

    #[test]
    fn inline_write_reports_the_dirty_edge() {
        let (mut k, f) = warm(cfg());
        let start = k.start_op(
            FileOp::Write {
                file: f,
                offset: 1 << 20,
                len: CHUNK_SIZE,
            },
            t(1),
        );
        assert!(matches!(start, OpStart::Done(_)));
        let out = take_outputs(&mut k);
        assert_eq!(out.signals, vec![KernelSignal::DirtyStatusChanged(true)]);
        // No edge on the next op: nothing to report.
        assert!(hit(&mut k, f, t(2)).signals.is_empty());
    }

    #[test]
    fn next_deadline_tracks_plug_and_flusher() {
        let mut c = cfg();
        // Make background writeback trip on a small write.
        c.wb.background_ratio = 0.01;
        c.wb.dirty_ratio = 0.5;
        let mut k = GuestKernel::new(c, t(0));
        // Initially only the periodic flusher.
        assert_eq!(
            k.next_deadline(),
            SimTime::ZERO + k.wb.params().periodic_interval
        );
        let f = k.create_file(10 << 20).unwrap();
        // Synchronous reads unplug immediately and leave no plug deadline…
        k.start_op(
            FileOp::Read {
                file: f,
                offset: 0,
                len: CHUNK_SIZE,
            },
            t(0),
        );
        take_outputs(&mut k);
        assert_eq!(
            k.next_deadline(),
            SimTime::ZERO + k.wb.params().periodic_interval
        );
        // …but background writeback requests wait out the 3 ms plug timer.
        k.start_op(
            FileOp::Write {
                file: f,
                offset: 1 << 20,
                len: 8 * CHUNK_SIZE,
            },
            t(0),
        );
        assert_eq!(k.next_deadline(), t(3));
    }
}
