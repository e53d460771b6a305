//! The composed machine model and the cluster world type.
//!
//! A [`Machine`] is one IOrchestra-capable physical host: system store,
//! NUMA topology, storage subsystem, per-domain guest kernels and rings,
//! plus (depending on [`IoPathMode`]) either per-domain paravirt backend
//! threads or dedicated polling I/O cores. A [`Cluster`] is the simulation
//! world: one or more machines driven by a single
//! [`Scheduler<Cluster>`](iorch_simcore::Scheduler).
//!
//! The policy layer (the `iorchestra` crate) plugs in through
//! [`ControlPlane`]: the machine routes guest-kernel signals and system-
//! store watch events to it, and it acts back through the `cp_*` action
//! methods — exactly the paper's monitoring/management-module split.

use std::collections::VecDeque;
use std::rc::Rc;

use iorch_guestos::{
    CompletedOp, FileOp, GuestConfig, GuestKernel, KernelOutputs, KernelSignal, OpClass, OpId,
    OpStart,
};
use iorch_metrics::LatencyHistogram;
use iorch_simcore::trace::TraceEventKind;
use iorch_simcore::{trace_event, FaultPlan, IdMap, Scheduler, SimDuration, SimRng, SimTime};
use iorch_storage::{IoRequest, StorageSubsystem, StreamId};

use crate::cpu::CpuAccounting;
use crate::domain::{DomainId, VmSpec};
use crate::iocore::IoCore;
use crate::numa::{CoreId, NumaTopology, PlacementPolicy};
use crate::ring::{Ring, RingPush};
use crate::xenstore::{Perms, StoreQuota, WatchEvent, XenStore};

/// Scheduler over the cluster world.
pub type Sched = Scheduler<Cluster>;

/// A registered continuation target for file ops and CPU work items.
///
/// A workload registers one handler and passes a [`Waiter`] (the handler
/// plus a `u64` token naming the resumed thread or stage) with each op,
/// so an op carries no code of its own and starting one allocates
/// nothing. Closures `Fn(&mut Cluster, &mut Sched, Option<OpResult>)` are
/// handlers too; they ignore the token (see [`Waiter::from_fn`]).
pub trait OpHandler {
    /// Resume continuation `token`. `result` is the completed op for
    /// [`Cluster::submit_op`] and `None` for [`Cluster::run_cpu`].
    fn wake(self: Rc<Self>, cl: &mut Cluster, s: &mut Sched, token: u64, result: Option<OpResult>);
}

impl<F> OpHandler for F
where
    F: Fn(&mut Cluster, &mut Sched, Option<OpResult>) + 'static,
{
    fn wake(
        self: Rc<Self>,
        cl: &mut Cluster,
        s: &mut Sched,
        _token: u64,
        result: Option<OpResult>,
    ) {
        (*self)(cl, s, result)
    }
}

/// A continuation: a registered [`OpHandler`] and the token it is woken
/// with. Building one from an existing handler is a reference-count
/// increment, not an allocation.
pub struct Waiter {
    handler: Rc<dyn OpHandler>,
    token: u64,
}

impl Waiter {
    /// Wake `handler` with `token`.
    pub fn new(handler: Rc<dyn OpHandler>, token: u64) -> Self {
        Waiter { handler, token }
    }

    /// A one-off continuation from a closure (allocates its handler).
    pub fn from_fn(f: impl Fn(&mut Cluster, &mut Sched, Option<OpResult>) + 'static) -> Self {
        Waiter::new(Rc::new(f), 0)
    }

    fn wake(self, cl: &mut Cluster, s: &mut Sched, result: Option<OpResult>) {
        self.handler.wake(cl, s, self.token, result);
    }
}

/// An op in flight whose completion is not yet known: the VCPU that
/// issued it (ring requests are routed by it) and its continuation.
struct PendingOp {
    vcpu: u32,
    waiter: Option<Waiter>,
}

/// How block I/O reaches the host — the axis the paper's comparisons vary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoPathMode {
    /// Stock paravirtualization: doorbells, per-domain backend threads on
    /// shared cores, interrupt completions (Baseline and DIF).
    Paravirt,
    /// Dedicated polling I/O cores.
    DedicatedCores {
        /// `false`: one core on socket 0, equal shares (SDC, which assumes
        /// single-socket VMs). `true`: one core per socket with per-VM
        /// buffers and policy-programmed quanta (IOrchestra §3.3).
        per_socket: bool,
    },
}

/// Doorbell → backend wakeup (event channel + context switch).
const NOTIFY_LATENCY: SimDuration = SimDuration::from_micros(28);
/// Paravirt backend fixed cost per request (VM exit, grant ops).
const BACKEND_PER_REQ: SimDuration = SimDuration::from_micros(11);
/// Paravirt backend copy bandwidth on shared cores, bytes/s.
const BACKEND_COPY_BW: u64 = 3_200_000_000;
/// Completion interrupt delivery to the guest (paravirt).
const IRQ_LATENCY: SimDuration = SimDuration::from_micros(18);
/// Completion delivery when a polling core handles it.
const POLLED_COMPLETION_LATENCY: SimDuration = SimDuration::from_micros(4);
/// XenBus watch-event delivery latency.
const XENBUS_LATENCY: SimDuration = SimDuration::from_micros(20);

/// Machine-level configuration. Every machine has the paper's testbed
/// shape ([`NumaTopology::paper_testbed`]).
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// RNG seed for this machine's noise sources.
    pub seed: u64,
    /// I/O path (baseline paravirt vs dedicated cores).
    pub io_mode: IoPathMode,
}

impl MachineConfig {
    /// The paper's testbed with a given I/O mode.
    pub fn paper_testbed(seed: u64, io_mode: IoPathMode) -> Self {
        MachineConfig { seed, io_mode }
    }
}

/// Result handed to an op's completion waiter.
#[derive(Clone, Copy, Debug)]
pub struct OpResult {
    /// Machine index.
    pub machine: usize,
    /// Owning domain.
    pub dom: DomainId,
    /// The op.
    pub op: OpId,
    /// Op class.
    pub class: OpClass,
    /// Submission time.
    pub started: SimTime,
    /// Completion time.
    pub finished: SimTime,
}

impl OpResult {
    /// End-to-end latency of the op.
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_since(self.started)
    }
}

/// The pluggable policy layer (Baseline / SDC / DIF / IOrchestra live in
/// the `iorchestra` crate).
pub trait ControlPlane {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// If `Some`, the machine invokes [`ControlPlane::on_tick`] with this
    /// period (the monitoring module's sampling interval).
    fn tick_period(&self) -> Option<SimDuration> {
        None
    }
    /// A domain was created (register store keys, set quanta, …).
    fn on_domain_created(&mut self, _m: &mut Machine, _s: &mut Sched, _dom: DomainId) {}
    /// A domain is being destroyed.
    fn on_domain_destroyed(&mut self, _m: &mut Machine, _s: &mut Sched, _dom: DomainId) {}
    /// A guest kernel raised a signal (congestion query, dirty status, …).
    fn on_kernel_signal(
        &mut self,
        m: &mut Machine,
        s: &mut Sched,
        dom: DomainId,
        sig: KernelSignal,
    );
    /// A system-store watch fired (delivered after XenBus latency).
    fn on_store_event(&mut self, _m: &mut Machine, _s: &mut Sched, _ev: WatchEvent) {}
    /// Periodic monitoring tick.
    fn on_tick(&mut self, _m: &mut Machine, _s: &mut Sched) {}
    /// The management half of the plane crashed: drop every piece of
    /// in-memory decision state. The machine has already unregistered the
    /// plane's watches; ticks and dom0-owned deliveries are suppressed
    /// until [`ControlPlane::on_recover`]. Guest-driver state is not
    /// affected — it lives in the guests, not dom0's toolstack.
    fn on_crash(&mut self, _m: &mut Machine, _s: &mut Sched) {}
    /// The management half restarted after a crash: rebuild decision state
    /// from the store (the single source of truth) and re-arm watches.
    fn on_recover(&mut self, _m: &mut Machine, _s: &mut Sched) {}
}

/// One guest VM as the hypervisor sees it.
pub struct Domain {
    /// Identity.
    pub id: DomainId,
    /// Sizing.
    pub spec: VmSpec,
    /// The simulated guest kernel.
    pub kernel: GuestKernel,
    /// One core per VCPU (placement result).
    pub cores: Vec<CoreId>,
    vcpu_busy: Vec<SimTime>,
    ring: Ring,
    backend_busy_until: SimTime,
    /// Policy rate limit on backend dispatch (bytes/sec); `None` (the
    /// default) disables the limiter entirely.
    rate_limit_bps: Option<u64>,
    /// Rate-limiter ledger: earliest time the next dispatched request may
    /// start service (a token bucket expressed as a time horizon).
    rate_ready_at: SimTime,
    vdisk_base: u64,
    timer_at: SimTime,
    created_at: SimTime,
    /// Dense machine-assigned slot index (recycled LIFO on destroy).
    /// Control planes key per-domain SoA state on it; [`DomainId`]s are
    /// never reused, slots are.
    slot: usize,
    /// Per-socket I/O routing weights (co-scheduler output). Empty means
    /// "route to the issuing VCPU's socket".
    route_weights: Vec<f64>,
    /// Ops started by [`Cluster::submit_op`] that did not complete inline.
    pending_ops: IdMap<OpId, PendingOp>,
    /// Block-level I/O latency (empty until the first completion).
    io_hist: LatencyHistogram,
    /// Bytes moved by completed block requests.
    io_bytes: u64,
    /// File ops completed.
    ops_completed: u64,
}

impl Domain {
    /// Which socket a VCPU lives on (given a topology).
    pub fn vcpu_socket(&self, topo: &NumaTopology, vcpu: u32) -> usize {
        let core = self.cores[vcpu as usize % self.cores.len()];
        topo.socket_of(core)
    }

    /// When this domain was created.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// The domain's dense slot index (see [`Machine::slot_of`]).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Schedule the kernel timer for the guest's next deadline unless one
    /// is already due by then.
    fn arm_timer(&mut self, idx: usize, s: &mut Sched) {
        let deadline = self.kernel.next_deadline();
        if deadline < self.timer_at {
            self.timer_at = deadline;
            let dom = self.id;
            s.schedule_at(deadline, move |cl: &mut Cluster, s| {
                Cluster::kernel_timer(cl, idx, s, dom);
            });
        }
    }
}

/// One physical host.
pub struct Machine {
    /// Index of this machine inside the cluster.
    pub idx: usize,
    /// Configuration.
    pub cfg: MachineConfig,
    /// The system store (XenStore analogue).
    pub store: XenStore,
    /// Host storage subsystem.
    pub storage: StorageSubsystem,
    /// CPU topology and placement state.
    pub topology: NumaTopology,
    /// CPU busy-time ledger.
    pub cpu: CpuAccounting,
    /// Dedicated polling cores (empty in paravirt mode).
    pub iocores: Vec<IoCore>,
    /// Deterministic noise source.
    pub rng: SimRng,
    /// Domains indexed by slot; `None` marks a free slot. The length is
    /// the slot high-water mark.
    domains: Vec<Option<Domain>>,
    /// Slot of every live domain.
    slot_by_id: IdMap<DomainId, u32>,
    /// Live domain ids, ascending. Ids grow with every creation, so a
    /// new domain is appended.
    live: Vec<DomainId>,
    /// FIFO availability time of each physical core for VCPU work.
    core_busy: Vec<SimTime>,
    next_domid: u32,
    /// Free dense slots from destroyed domains, reused LIFO so the slot
    /// space stays as compact as the peak concurrent domain count.
    slot_free: Vec<usize>,
    vdisk_cursor: u64,
    control: Option<Box<dyn ControlPlane>>,
    /// Instant of the device event that will do the next completions;
    /// `MAX` while the device is idle.
    device_event_at: SimTime,
    /// Instants that have a device event scheduled, latest first. A
    /// submit that moves the next completion earlier schedules a new
    /// event but leaves the later one pending. That event does the work
    /// at its instant, so no second event is scheduled there.
    device_pending: Vec<SimTime>,
    /// Device events fired, and those of them that completed nothing.
    device_events_fired: u64,
    device_events_idle: u64,
    /// Reused buffer of one device event's completions.
    done_spare: Vec<IoRequest>,
    /// Reused buffer of one backend wake's ring batch.
    ring_spare: Vec<(IoRequest, SimTime)>,
    pending_signals: VecDeque<(DomainId, KernelSignal)>,
    pending_results: Vec<(OpResult, Option<Waiter>)>,
    /// Drained kernel-output buffers, swapped with a kernel's outputs by
    /// `process_domain_outputs` and handed back empty (see
    /// [`GuestKernel::swap_outputs`]).
    out_spare: KernelOutputs,
    /// Reused buffer of ring requests with their issuing VCPU, filled and
    /// drained by `process_domain_outputs`.
    routed_spare: Vec<(IoRequest, u32)>,
    /// Re-entrancy guard for [`Cluster::drain_results`]: a waiter that
    /// submits an op whose completion is synchronous (pure cache hit) must
    /// not recurse — the outer drain loop picks the new result up.
    draining: bool,
    /// Installed fault plan (watch-delivery faults); `None` in normal runs,
    /// so the event path pays only this `Option` check.
    faults: Option<FaultPlan>,
    /// Whether the management half of the control plane is crashed:
    /// ticks and dom0-owned watch deliveries are suppressed until
    /// [`Cluster::recover_control`] runs.
    control_down: bool,
    /// Monotonic counter over XenBus deliveries driving the deterministic
    /// drop/dup decisions of `BusUnreliable` — never the machine RNG,
    /// which would perturb I/O routing under fault injection.
    bus_seq: u64,
}

/// The simulation world: machines (plus whatever workload state the
/// registered [`OpHandler`]s and event closures hold).
#[derive(Default)]
pub struct Cluster {
    /// The machines.
    pub machines: Vec<Machine>,
}

impl Cluster {
    /// Empty cluster.
    pub fn new() -> Self {
        Cluster::default()
    }

    /// Add a machine; returns its index.
    pub fn add_machine(&mut self, cfg: MachineConfig) -> usize {
        let idx = self.machines.len();
        self.machines.push(Machine::new(idx, cfg));
        idx
    }

    /// Access a machine.
    pub fn machine(&self, idx: usize) -> &Machine {
        &self.machines[idx]
    }

    /// Mutable access to a machine.
    pub fn machine_mut(&mut self, idx: usize) -> &mut Machine {
        &mut self.machines[idx]
    }

    /// Install the policy layer on a machine and start its periodic tick.
    pub fn install_control(&mut self, s: &mut Sched, idx: usize, control: Box<dyn ControlPlane>) {
        let period = control.tick_period();
        self.machines[idx].control = Some(control);
        if let Some(p) = period {
            s.schedule_every(p, move |cl: &mut Cluster, s| {
                Cluster::control_tick(cl, idx, s);
                true
            });
        }
    }

    fn control_tick(cl: &mut Cluster, idx: usize, s: &mut Sched) {
        let m = &mut cl.machines[idx];
        // A crashed plane misses its ticks entirely (the periodic closure
        // cannot be cancelled, so the gate lives here).
        if m.control_down {
            return;
        }
        m.with_control(s, |cp, m, s| cp.on_tick(m, s));
        Cluster::drain_results(cl, idx, s);
    }

    /// Crash the management half of the control plane on machine `idx`:
    /// the plane drops all in-memory decision state
    /// ([`ControlPlane::on_crash`]), its store watches are unregistered,
    /// and ticks plus dom0-owned watch deliveries are suppressed until
    /// [`Cluster::recover_control`]. Guest-driver behaviour (congestion
    /// handshakes, command acks) is untouched — it lives in the guests.
    pub fn crash_control(cl: &mut Cluster, s: &mut Sched, idx: usize) {
        let m = &mut cl.machines[idx];
        if m.control_down {
            return;
        }
        m.control_down = true;
        m.store.unwatch_owner(crate::xenstore::DOM0);
        // Direct invocation, not `with_control`: a dead plane neither
        // flushes store events nor receives queued signals.
        if let Some(mut cp) = m.control.take() {
            cp.on_crash(m, s);
            m.control = Some(cp);
        }
    }

    /// Restart the management plane after [`Cluster::crash_control`]: the
    /// plane rebuilds its decision state from the store and re-arms its
    /// watches ([`ControlPlane::on_recover`]), then normal ticking resumes.
    pub fn recover_control(cl: &mut Cluster, s: &mut Sched, idx: usize) {
        let m = &mut cl.machines[idx];
        if !m.control_down {
            return;
        }
        m.control_down = false;
        m.with_control(s, |cp, m, s| cp.on_recover(m, s));
        Cluster::drain_results(cl, idx, s);
    }

    /// Create a domain on a machine. `tune` may adjust the guest config
    /// (dirty ratios, queue sizes, …) before boot.
    pub fn create_domain(
        &mut self,
        s: &mut Sched,
        idx: usize,
        spec: VmSpec,
        tune: impl FnOnce(&mut GuestConfig),
    ) -> DomainId {
        let dom = self.machines[idx].create_domain_inner(s, spec, tune);
        let m = &mut self.machines[idx];
        m.with_control(s, |cp, m, s| cp.on_domain_created(m, s, dom));
        Cluster::drain_results(self, idx, s);
        dom
    }

    /// Destroy a domain (teardown; in-flight device work completes into
    /// the void).
    pub fn destroy_domain(&mut self, s: &mut Sched, idx: usize, dom: DomainId) {
        let m = &mut self.machines[idx];
        m.with_control(s, |cp, m, s| cp.on_domain_destroyed(m, s, dom));
        self.machines[idx].destroy_domain_inner(dom);
        Cluster::drain_results(self, idx, s);
    }

    /// Submit a file op from `vcpu` of `dom`; `waiter` wakes with the
    /// op's result on completion (inline, before this returns, on a
    /// cache hit). Ops of a destroyed domain never wake.
    pub fn submit_op(
        &mut self,
        s: &mut Sched,
        idx: usize,
        dom: DomainId,
        vcpu: u32,
        op: FileOp,
        waiter: Option<Waiter>,
    ) {
        self.machines[idx].submit_op_inner(s, dom, vcpu, op, waiter);
        Cluster::drain_results(self, idx, s);
    }

    /// Run `work` of CPU time on a VCPU; `k` wakes with no result when
    /// it retires.
    ///
    /// Each physical core serves the work items of the VCPUs placed on it
    /// FIFO, and each VCPU runs one item at a time — so contention costs
    /// only appear when co-resident VCPUs are *actually* busy, not merely
    /// placed together.
    pub fn run_cpu(
        &mut self,
        s: &mut Sched,
        idx: usize,
        dom: DomainId,
        vcpu: u32,
        work: SimDuration,
        k: Waiter,
    ) {
        let m = &mut self.machines[idx];
        let Some(&dslot) = m.slot_by_id.get(&dom) else {
            return; // domain died; drop the continuation
        };
        let d = m.domains[dslot as usize].as_mut().expect("live slot");
        let core = d.cores[vcpu as usize % d.cores.len()];
        let slot = vcpu as usize % d.vcpu_busy.len();
        let now = s.now();
        // Xen credit-scheduler BOOST semantics: a VCPU waking after a
        // genuine idle period preempts CPU-bound co-residents (it jumps
        // the core queue), but its work still consumes core capacity —
        // boost reorders, it never creates cycles. A VCPU running
        // back-to-back work is CPU-bound and waits for the core FIFO.
        const BOOST_IDLE: SimDuration = SimDuration::from_micros(500);
        let boosted = d.vcpu_busy[slot] + BOOST_IDLE <= now;
        let start = if boosted {
            now
        } else {
            d.vcpu_busy[slot].max(m.core_busy[core.0]).max(now)
        };
        let finish = start + work;
        d.vcpu_busy[slot] = finish;
        // Capacity conservation: the core's backlog grows by `work` either
        // way; boosted work pushes CPU-bound co-residents back.
        m.core_busy[core.0] = m.core_busy[core.0].max(start) + work;
        m.cpu.record_busy(core, work);
        s.schedule_at(finish, move |cl: &mut Cluster, s| k.wake(cl, s, None));
    }

    /// Run a deferred control-plane-style action against a machine (e.g. a
    /// staggered wakeup scheduled by a policy), with store events, kernel
    /// signals and op results processed afterwards.
    pub fn cp_action(
        &mut self,
        s: &mut Sched,
        idx: usize,
        f: impl FnOnce(&mut Machine, &mut Sched),
    ) {
        let m = &mut self.machines[idx];
        m.store.set_now(s.now());
        f(m, s);
        m.flush_store_events(s);
        m.dispatch_signals(s);
        Cluster::drain_results(self, idx, s);
    }

    /// Invoke queued op waiters for a machine (must run at cluster level —
    /// waiters receive the whole cluster). Iterative, never re-entrant: a
    /// waiter chain of synchronous completions (cache hits) is unbounded,
    /// so inner calls defer to the outermost loop instead of recursing.
    fn drain_results(cl: &mut Cluster, idx: usize, s: &mut Sched) {
        if cl.machines[idx].draining {
            return;
        }
        cl.machines[idx].draining = true;
        loop {
            let Some((result, waiter)) = cl.machines[idx].pending_results.pop() else {
                break;
            };
            if let Some(w) = waiter {
                w.wake(cl, s, Some(result));
            }
        }
        cl.machines[idx].draining = false;
    }

    // ---- internal event handlers (static, cluster-level) ----

    fn backend_wake(cl: &mut Cluster, idx: usize, s: &mut Sched, dom: DomainId) {
        let m = &mut cl.machines[idx];
        let now = s.now();
        let Some(&slot) = m.slot_by_id.get(&dom) else {
            return;
        };
        let d = m.domains[slot as usize].as_mut().expect("live slot");
        let mut batch = std::mem::take(&mut m.ring_spare);
        d.ring.drain(usize::MAX, &mut batch);
        let mut total_cpu = SimDuration::ZERO;
        for (req, _pushed) in batch.drain(..) {
            let cost = BACKEND_PER_REQ
                + SimDuration::from_secs_f64(req.len as f64 / BACKEND_COPY_BW as f64);
            let mut start = d.backend_busy_until.max(now);
            // Policy rate limit (ring-push enforcement point): a
            // throttled domain's requests start no earlier than the
            // limiter's ready horizon, which each request then pushes out
            // by len/limit. Zero work — and zero trace traffic — when no
            // limit is installed.
            if let Some(bps) = d.rate_limit_bps {
                if d.rate_ready_at > start {
                    trace_event!(
                        now,
                        TraceEventKind::RateLimitDefer {
                            dom: dom.0,
                            req: req.id.0,
                            delay_us: d.rate_ready_at.saturating_since(start).as_nanos() / 1_000,
                        }
                    );
                    start = d.rate_ready_at;
                }
                let pay = SimDuration::from_secs_f64(req.len as f64 / bps as f64);
                d.rate_ready_at = start + pay;
            }
            d.backend_busy_until = start + cost;
            total_cpu += cost;
            s.schedule_at(d.backend_busy_until, move |cl: &mut Cluster, s| {
                Cluster::host_submit(cl, idx, s, req);
            });
        }
        m.ring_spare = batch;
        // Backend kthread burns shared-core CPU (the overhead SDC removes)
        // and delays co-resident VCPU work.
        let core = d.cores[0];
        m.cpu.record_busy(core, total_cpu);
        m.core_busy[core.0] = m.core_busy[core.0].max(now) + total_cpu;
    }

    fn host_submit(cl: &mut Cluster, idx: usize, s: &mut Sched, req: IoRequest) {
        let m = &mut cl.machines[idx];
        m.storage.submit(req, s.now());
        m.ensure_device_event(s);
    }

    /// A device event at `now`. Only the event at `device_event_at`
    /// completes requests; any other returns without touching state.
    fn device_event(cl: &mut Cluster, idx: usize, s: &mut Sched) {
        let now = s.now();
        let m = &mut cl.machines[idx];
        m.device_events_fired += 1;
        if let Some(i) = m.device_pending.iter().rposition(|&t| t == now) {
            m.device_pending.remove(i);
        }
        if now != m.device_event_at {
            m.device_events_idle += 1;
            return;
        }
        m.device_event_at = SimTime::MAX;
        let mut done = std::mem::take(&mut m.done_spare);
        m.storage.complete_due(now, &mut done);
        if done.is_empty() {
            m.device_events_idle += 1;
        }
        let delay = match m.cfg.io_mode {
            IoPathMode::Paravirt => IRQ_LATENCY,
            IoPathMode::DedicatedCores { .. } => POLLED_COMPLETION_LATENCY,
        };
        for req in done.drain(..) {
            // A guest's stream id is its domain id.
            let dom = DomainId(req.stream.0);
            if m.slot_by_id.contains_key(&dom) {
                s.schedule_in(delay, move |cl: &mut Cluster, s| {
                    Cluster::deliver_completion(cl, idx, s, dom, req);
                });
            }
        }
        m.done_spare = done;
        m.ensure_device_event(s);
    }

    fn deliver_completion(
        cl: &mut Cluster,
        idx: usize,
        s: &mut Sched,
        dom: DomainId,
        req: IoRequest,
    ) {
        let now = s.now();
        let m = &mut cl.machines[idx];
        if let Some((slot, d)) = m.live_mut(dom) {
            d.io_hist.record(now.saturating_since(req.submitted));
            d.io_bytes += req.len;
            trace_event!(
                now,
                TraceEventKind::BlockComplete {
                    dom: dom.0,
                    req: req.id.0,
                }
            );
            d.kernel.on_block_complete(req.id, now);
            m.process_domain_outputs(s, slot);
            m.dispatch_signals(s);
        }
        Cluster::drain_results(cl, idx, s);
    }

    fn kernel_timer(cl: &mut Cluster, idx: usize, s: &mut Sched, dom: DomainId) {
        let now = s.now();
        let m = &mut cl.machines[idx];
        let Some((slot, d)) = m.live_mut(dom) else {
            return;
        };
        d.timer_at = SimTime::MAX;
        d.kernel.on_timer(now);
        m.process_domain_outputs(s, slot);
        m.dispatch_signals(s);
        m.ensure_timer(s, dom);
        Cluster::drain_results(cl, idx, s);
    }

    fn iocore_event(cl: &mut Cluster, idx: usize, s: &mut Sched, core_idx: usize) {
        let now = s.now();
        let m = &mut cl.machines[idx];
        let (_dom, req) = m.iocores[core_idx].finish(now);
        // Address remap happened at routing; forward to the host block layer.
        m.storage.submit(req, now);
        m.ensure_device_event(s);
        m.kick_iocore(s, core_idx);
    }

    /// One XenBus delivery sweep: every watch event of one flush arrives
    /// in a single scheduled callback instead of one callback per event.
    /// Per-event behaviour (crashed-plane gating, trace, control-plane
    /// dispatch, result drain) is unchanged — the sweep simply calls the
    /// per-event path in batch order, which is exactly the order the
    /// per-event callbacks fired in before (consecutive scheduler
    /// sequence numbers at one instant). The drained buffer is recycled
    /// into the store.
    fn store_delivery_batch(cl: &mut Cluster, idx: usize, s: &mut Sched, mut evs: Vec<WatchEvent>) {
        for ev in evs.drain(..) {
            Cluster::store_delivery(cl, idx, s, ev);
        }
        cl.machines[idx].store.recycle_events(evs);
    }

    fn store_delivery(cl: &mut Cluster, idx: usize, s: &mut Sched, ev: WatchEvent) {
        let m = &mut cl.machines[idx];
        // A crashed plane's XenBus channel is dead: events addressed to
        // dom0 (the management module's watches) die on the floor and are
        // NOT replayed at recovery — the recovery scan must not need them.
        // Guest-owned deliveries (the guest drivers' watches) still flow.
        if m.control_down && ev.owner == crate::xenstore::DOM0 {
            return;
        }
        trace_event!(
            s.now(),
            TraceEventKind::XenBusDeliver {
                dom: ev.owner.0,
                path: Rc::clone(&ev.path),
                value: ev.value.clone(),
            }
        );
        m.with_control(s, |cp, m, s| cp.on_store_event(m, s, ev));
        Cluster::drain_results(cl, idx, s);
    }
}

/// What a machine can still host — the capacity facts a cluster placement
/// layer needs, decoupled from the machine internals that produce them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlacementCaps {
    /// Cores available to VCPUs (total minus dedicated I/O cores).
    pub total_cores: u32,
    /// Largest unreserved core count on any one socket — the biggest VM
    /// that can stay NUMA-local here.
    pub numa_max_cores: u32,
    /// VCPUs currently placed on the topology.
    pub placed_vcpus: u32,
    /// Guest memory committed to live domains, bytes.
    pub committed_mem: u64,
}

impl Machine {
    fn new(idx: usize, cfg: MachineConfig) -> Self {
        let mut topology = NumaTopology::paper_testbed();
        let cores = topology.cores();
        let mut cpu = CpuAccounting::new(cores, SimTime::ZERO);
        let mut iocores = Vec::new();
        match cfg.io_mode {
            IoPathMode::Paravirt => {}
            IoPathMode::DedicatedCores { per_socket } => {
                let sockets: Vec<usize> = if per_socket {
                    (0..topology.sockets()).collect()
                } else {
                    vec![0]
                };
                for sk in sockets {
                    let core = topology.first_core_of(sk);
                    topology.reserve_io_core(core);
                    cpu.start_spinning(core, SimTime::ZERO);
                    iocores.push(IoCore::new(sk, core));
                }
            }
        }
        // The composed machine installs real-XenStore-style per-domain
        // quotas; a bare `XenStore::new()` (differential oracle, store
        // micro-benches) stays quota-free.
        let mut store = XenStore::new();
        store.set_quota(StoreQuota::generous());
        Machine {
            idx,
            store,
            storage: iorch_storage::paper_testbed_storage(cfg.seed ^ 0x0570_7a6e),
            topology,
            cpu,
            iocores,
            rng: SimRng::new(cfg.seed),
            domains: Vec::new(),
            slot_by_id: IdMap::default(),
            live: Vec::new(),
            core_busy: vec![SimTime::ZERO; cores],
            next_domid: 1,
            slot_free: Vec::new(),
            vdisk_cursor: 0,
            control: None,
            device_event_at: SimTime::MAX,
            device_pending: Vec::new(),
            device_events_fired: 0,
            device_events_idle: 0,
            done_spare: Vec::new(),
            ring_spare: Vec::new(),
            pending_signals: VecDeque::new(),
            pending_results: Vec::new(),
            out_spare: KernelOutputs::default(),
            routed_spare: Vec::new(),
            draining: false,
            faults: None,
            control_down: false,
            bus_seq: 0,
            cfg,
        }
    }

    /// The installed control plane's name (for reports).
    pub fn control_name(&self) -> &'static str {
        self.control.as_ref().map_or("none", |c| c.name())
    }

    /// Whether the management half of the control plane is currently
    /// crashed (between [`Cluster::crash_control`] and
    /// [`Cluster::recover_control`]).
    pub fn is_control_down(&self) -> bool {
        self.control_down
    }

    /// Install the machine-level half of a fault plan (watch-event delay).
    /// Use [`Cluster::install_faults`] to install a whole plan across all
    /// layers.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// Iterate live domain ids in ascending order, without allocating.
    /// Prefer this over [`Machine::domain_ids`] everywhere a borrow of
    /// the machine can be held across the loop.
    pub fn domains(&self) -> impl Iterator<Item = DomainId> + '_ {
        self.live.iter().copied()
    }

    /// Number of live domains.
    pub fn domain_count(&self) -> usize {
        self.live.len()
    }

    /// Collect live domain ids into a fresh `Vec` (ascending). Kept for
    /// call sites that must release the machine borrow (e.g. the frozen
    /// legacy planes); new code should use [`Machine::domains`].
    pub fn domain_ids(&self) -> Vec<DomainId> {
        self.live.clone()
    }

    /// Dense slot index of a live domain. Slots are assigned at creation
    /// and recycled LIFO at destruction, so they stay `< slot_count()`;
    /// unlike [`DomainId`]s they ARE reused, and slot-keyed state must be
    /// reset when the occupying domain changes.
    pub fn slot_of(&self, dom: DomainId) -> Option<usize> {
        self.slot_by_id.get(&dom).map(|&s| s as usize)
    }

    /// High-water slot count: an exclusive upper bound on every live
    /// domain's slot, bounded by the peak concurrent domain count (not by
    /// the total ever created).
    pub fn slot_count(&self) -> usize {
        self.domains.len()
    }

    /// Entries in the machine's per-domain indexes: occupied slots and
    /// the id -> slot map. Every other per-domain datum is a [`Domain`]
    /// field, so destroying a domain frees it with the slot; both stay
    /// equal to the live domain count.
    pub fn domain_entries(&self) -> [usize; 2] {
        [self.domains.iter().flatten().count(), self.slot_by_id.len()]
    }

    /// Device events fired so far.
    pub fn device_events_fired(&self) -> u64 {
        self.device_events_fired
    }

    /// Device events that fired and completed nothing.
    pub fn device_events_idle(&self) -> u64 {
        self.device_events_idle
    }

    /// Capacity snapshot a cluster placement layer scores against: static
    /// topology bounds plus current VCPU/memory commitments.
    pub fn placement_caps(&self) -> PlacementCaps {
        PlacementCaps {
            total_cores: self.topology.unreserved_cores() as u32,
            numa_max_cores: self.topology.max_unreserved_in_socket() as u32,
            placed_vcpus: self.topology.placed_vcpus(),
            committed_mem: self
                .domains
                .iter()
                .flatten()
                .map(|d| d.spec.mem_bytes)
                .sum(),
        }
    }

    /// Access a domain.
    pub fn domain(&self, dom: DomainId) -> Option<&Domain> {
        let slot = *self.slot_by_id.get(&dom)?;
        self.domains[slot as usize].as_ref()
    }

    fn domain_mut(&mut self, dom: DomainId) -> Option<&mut Domain> {
        self.live_mut(dom).map(|(_, d)| d)
    }

    /// A live domain with its slot.
    fn live_mut(&mut self, dom: DomainId) -> Option<(usize, &mut Domain)> {
        let slot = *self.slot_by_id.get(&dom)? as usize;
        self.domains[slot].as_mut().map(|d| (slot, d))
    }

    /// Mutable access to a domain's kernel (policy hooks use this).
    pub fn kernel_mut(&mut self, dom: DomainId) -> Option<&mut GuestKernel> {
        self.domain_mut(dom).map(|d| &mut d.kernel)
    }

    /// Block-level I/O latency histogram of a domain (`None` until its
    /// first block request completes).
    pub fn io_latency(&self, dom: DomainId) -> Option<&LatencyHistogram> {
        self.domain(dom)
            .map(|d| &d.io_hist)
            .filter(|h| !h.is_empty())
    }

    /// Total bytes moved for a domain.
    pub fn io_bytes(&self, dom: DomainId) -> u64 {
        self.domain(dom).map_or(0, |d| d.io_bytes)
    }

    /// File ops completed for a domain.
    pub fn ops_completed(&self, dom: DomainId) -> u64 {
        self.domain(dom).map_or(0, |d| d.ops_completed)
    }

    /// Machine CPU utilization so far.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    fn create_domain_inner(
        &mut self,
        s: &mut Sched,
        spec: VmSpec,
        tune: impl FnOnce(&mut GuestConfig),
    ) -> DomainId {
        let id = DomainId(self.next_domid);
        self.next_domid += 1;
        let slot = self.slot_free.pop().unwrap_or_else(|| {
            self.domains.push(None);
            self.domains.len() - 1
        });
        let cores = self
            .topology
            .place(id, spec.vcpus, PlacementPolicy::PreferSameSocket);
        // Allocate the virtual disk as a region of the host device,
        // wrapping modulo capacity for long arrival/departure runs.
        let dev_capacity: u64 = 960 << 30;
        if self.vdisk_cursor + spec.vdisk_bytes > dev_capacity {
            self.vdisk_cursor = 0;
        }
        let vdisk_base = self.vdisk_cursor;
        self.vdisk_cursor += spec.vdisk_bytes;
        let stream = StreamId(id.0);
        let mut gcfg = GuestConfig::new(spec.mem_bytes, spec.vdisk_bytes, stream);
        tune(&mut gcfg);
        let kernel = GuestKernel::new(gcfg, s.now());
        // Store bootstrap, as Xen tools would do it.
        self.store.set_now(s.now());
        let path = XenStore::domain_path(id);
        let _ = self
            .store
            .mkdir(crate::xenstore::DOM0, &path, Perms::private_to(id));
        let _ = self
            .store
            .write(id, format!("{path}/virt-dev/has_dirty_pages"), "0");
        let vcpus = spec.vcpus as usize;
        self.slot_by_id.insert(id, slot as u32);
        debug_assert!(self.live.last() < Some(&id), "domain ids ascend");
        self.live.push(id);
        self.domains[slot] = Some(Domain {
            id,
            spec,
            kernel,
            cores,
            vcpu_busy: vec![SimTime::ZERO; vcpus],
            ring: Ring::new(1024),
            backend_busy_until: SimTime::ZERO,
            rate_limit_bps: None,
            rate_ready_at: SimTime::ZERO,
            vdisk_base,
            timer_at: SimTime::MAX,
            created_at: s.now(),
            slot,
            route_weights: Vec::new(),
            pending_ops: IdMap::default(),
            io_hist: LatencyHistogram::new(),
            io_bytes: 0,
            ops_completed: 0,
        });
        self.ensure_timer(s, id);
        id
    }

    /// Free a domain's slot and everything in its [`Domain`] record (its
    /// pending ops' continuations included, so they never wake), then
    /// the per-domain state other components hold.
    fn destroy_domain_inner(&mut self, dom: DomainId) {
        let Some(slot) = self.slot_by_id.remove(&dom) else {
            return;
        };
        let d = self.domains[slot as usize]
            .take()
            .expect("live domain has a slot");
        self.slot_free.push(slot as usize);
        let i = self
            .live
            .binary_search(&dom)
            .expect("live domain is listed");
        self.live.remove(i);
        self.topology.unplace(&d.cores);
        self.storage.drain_stream(d.kernel.stream());
        for core in &mut self.iocores {
            core.remove_domain(dom);
        }
        // Remove the subtree before forgetting the domain: the removal
        // events queued for its watches must still be delivered.
        let _ = self
            .store
            .remove(crate::xenstore::DOM0, XenStore::domain_path(dom));
        self.store.forget_domain(dom);
    }

    fn submit_op_inner(
        &mut self,
        s: &mut Sched,
        dom: DomainId,
        vcpu: u32,
        op: FileOp,
        waiter: Option<Waiter>,
    ) {
        let Some(slot) = self.slot_by_id.get(&dom).map(|&s| s as usize) else {
            return;
        };
        let now = s.now();
        let idx = self.idx;
        let d = self.domains[slot].as_mut().expect("live slot");
        match d.kernel.start_op(op, now) {
            OpStart::Done(CompletedOp { op, started, class }) => {
                // Queued ahead of the ops the same call completed
                // asynchronously: the kernel finished this one first.
                d.ops_completed += 1;
                self.pending_results.push((
                    OpResult {
                        machine: idx,
                        dom,
                        op,
                        class,
                        started,
                        finished: now,
                    },
                    waiter,
                ));
            }
            // Registered before output processing routes the op's ring
            // requests by its VCPU.
            OpStart::Pending(op) => {
                d.pending_ops.insert(op, PendingOp { vcpu, waiter });
            }
        }
        if d.kernel.has_outputs() {
            self.process_domain_outputs(s, slot);
        } else {
            d.arm_timer(idx, s);
        }
        self.dispatch_signals(s);
    }

    /// Process the accumulated outputs of the guest kernel in `slot`:
    /// route ring requests by the issuing VCPU of their op, queue op
    /// results, collect signals.
    fn process_domain_outputs(&mut self, s: &mut Sched, slot: usize) {
        let now = s.now();
        let idx = self.idx;
        let d = self.domains[slot].as_mut().expect("live slot");
        let dom = d.id;
        let mut out = std::mem::take(&mut self.out_spare);
        d.kernel.swap_outputs(&mut out);
        // Completed ops -> queued results (invoked at cluster level).
        for CompletedOp {
            op,
            started: at,
            class,
        } in out.completed.drain(..)
        {
            let waiter = d.pending_ops.remove(&op).and_then(|p| p.waiter);
            d.ops_completed += 1;
            self.pending_results.push((
                OpResult {
                    machine: idx,
                    dom,
                    op,
                    class,
                    started: at,
                    finished: now,
                },
                waiter,
            ));
        }
        // Signals -> dispatched to the control plane at a safe point.
        self.pending_signals
            .extend(out.signals.drain(..).map(|sig| (dom, sig)));
        // Ring requests -> backend path.
        if !out.to_ring.is_empty() {
            let mut routed = std::mem::take(&mut self.routed_spare);
            for mut req in out.to_ring.drain(..) {
                let vcpu = d
                    .kernel
                    .op_of_request(req.id)
                    .and_then(|op| d.pending_ops.get(&op))
                    .map_or(0, |p| p.vcpu);
                req.offset += d.vdisk_base;
                trace_event!(
                    now,
                    TraceEventKind::RingPush {
                        dom: dom.0,
                        req: req.id.0,
                    }
                );
                routed.push((req, vcpu));
            }
            match self.cfg.io_mode {
                IoPathMode::Paravirt => {
                    for (req, _vcpu) in routed.drain(..) {
                        match d.ring.push(req, now) {
                            RingPush::NeedDoorbell => {
                                s.schedule_in(NOTIFY_LATENCY, move |cl: &mut Cluster, s| {
                                    Cluster::backend_wake(cl, idx, s, dom);
                                });
                            }
                            RingPush::Queued => {}
                            RingPush::Full => {
                                debug_assert!(false, "ring overflow");
                            }
                        }
                    }
                }
                IoPathMode::DedicatedCores { per_socket } => {
                    for (req, vcpu) in routed.drain(..) {
                        let (core_idx, remote) = self.route_iocore(slot, vcpu, per_socket);
                        self.iocores[core_idx].enqueue(dom, req, remote, now);
                        self.kick_iocore(s, core_idx);
                    }
                }
            }
            self.routed_spare = routed;
        }
        self.out_spare = out;
        if let Some(d) = self.domains[slot].as_mut() {
            d.arm_timer(idx, s);
        }
    }

    /// Choose the I/O core for a request of the domain in `slot` and
    /// whether the copy is remote.
    fn route_iocore(&mut self, slot: usize, vcpu: u32, per_socket: bool) -> (usize, bool) {
        let d = self.domains[slot].as_ref().expect("live slot");
        let vcpu_socket = d.vcpu_socket(&self.topology, vcpu);
        if !per_socket {
            // SDC: single core on socket 0 regardless of where the VCPU is.
            return (0, vcpu_socket != self.iocores[0].socket());
        }
        // IOrchestra: per-socket buffers; the co-scheduler may shift load
        // via route weights (indexed by socket).
        let target_socket = if d.route_weights.len() == self.topology.sockets() {
            let total: f64 = d.route_weights.iter().sum();
            if total > 0.0 {
                let mut x = self.rng.f64() * total;
                let mut chosen = vcpu_socket;
                for (sk, w) in d.route_weights.iter().enumerate() {
                    if x < *w {
                        chosen = sk;
                        break;
                    }
                    x -= w;
                }
                chosen
            } else {
                vcpu_socket
            }
        } else {
            vcpu_socket
        };
        let core_idx = self
            .iocores
            .iter()
            .position(|c| c.socket() == target_socket)
            .unwrap_or(0);
        (core_idx, vcpu_socket != self.iocores[core_idx].socket())
    }

    fn kick_iocore(&mut self, s: &mut Sched, core_idx: usize) {
        let idx = self.idx;
        if let Some(done) = self.iocores[core_idx].start_next(s.now()) {
            s.schedule_at(done, move |cl: &mut Cluster, s| {
                Cluster::iocore_event(cl, idx, s, core_idx);
            });
        }
    }

    /// Point `device_event_at` at the next completion, scheduling an
    /// event there unless one is already pending. Never cancel and
    /// reschedule: the event that works at an instant must be the one
    /// scheduled first for it, or its order against other events at that
    /// instant (I/O-core finishes, host submits) would change.
    fn ensure_device_event(&mut self, s: &mut Sched) {
        let idx = self.idx;
        if let Some(next) = self.storage.next_completion() {
            if next < self.device_event_at {
                self.device_event_at = next;
                if !self.device_pending.contains(&next) {
                    self.device_pending.push(next);
                    s.schedule_at(next, move |cl: &mut Cluster, s| {
                        Cluster::device_event(cl, idx, s);
                    });
                }
            }
        }
    }

    fn ensure_timer(&mut self, s: &mut Sched, dom: DomainId) {
        let idx = self.idx;
        if let Some(d) = self.domain_mut(dom) {
            d.arm_timer(idx, s);
        }
    }

    /// Run `f` with the control plane temporarily detached (so it can act
    /// back on the machine), then flush store watch events and any signals
    /// it produced.
    pub fn with_control(
        &mut self,
        s: &mut Sched,
        f: impl FnOnce(&mut dyn ControlPlane, &mut Machine, &mut Sched),
    ) {
        // The write-rate quota buckets need the current time; trace
        // stamping additionally wants it only while recording.
        self.store.set_now(s.now());
        if let Some(mut cp) = self.control.take() {
            if iorch_simcore::trace::enabled() {
                // Store methods take no clock; stamp trace events with the
                // time of the event-loop entry running the callback.
                self.store.set_trace_now(s.now());
            }
            f(&mut *cp, self, s);
            self.control = Some(cp);
        }
        self.flush_store_events(s);
        self.dispatch_signals(s);
    }

    /// Dispatch queued kernel signals to the control plane (defers cleanly
    /// if the control plane is already on the stack).
    fn dispatch_signals(&mut self, s: &mut Sched) {
        if !self.pending_signals.is_empty() {
            self.store.set_now(s.now());
        }
        if iorch_simcore::trace::enabled() && !self.pending_signals.is_empty() {
            self.store.set_trace_now(s.now());
        }
        while self.control.is_some() {
            let Some((dom, sig)) = self.pending_signals.pop_front() else {
                break;
            };
            let mut cp = self.control.take().unwrap();
            cp.on_kernel_signal(self, s, dom, sig);
            self.control = Some(cp);
            self.flush_store_events(s);
        }
        if self.control.is_none() {
            // Control plane absent entirely: default to stock Linux
            // behaviour so a bare machine still works.
            while let Some((dom, sig)) = self.pending_signals.pop_front() {
                if sig == KernelSignal::CongestionQuery {
                    if let Some(d) = self.domain_mut(dom) {
                        d.kernel.enter_congestion(s.now());
                    }
                }
            }
        }
    }

    /// Queue watch events for delivery after XenBus latency. An installed
    /// `BusUnreliable` fault window drops, duplicates, or reorders events
    /// here, keyed off a deterministic delivery counter.
    fn flush_store_events(&mut self, s: &mut Sched) {
        if !self.store.has_events() {
            return;
        }
        let idx = self.idx;
        let mut delay = XENBUS_LATENCY;
        let mut bus = None;
        if let Some(plan) = &self.faults {
            delay += plan.watch_delay(s.now());
            bus = plan.bus_unreliable(s.now());
        }
        let mut events = self.store.take_events();
        // All events of one flush share the same delivery instant, so they
        // coalesce into ONE scheduled sweep instead of one scheduler entry
        // per (write x watcher). The sweep preserves the exact per-event
        // firing order of the old design: the per-event callbacks carried
        // consecutive sequence numbers at one timestamp, so nothing could
        // ever interleave between them.
        let batch = if let Some(b) = bus {
            if b.reorder && events.len() > 1 {
                events.reverse();
            }
            let mut out = Vec::with_capacity(events.len());
            for ev in events.drain(..) {
                self.bus_seq += 1;
                let seq = self.bus_seq;
                if b.drop_1_in != 0 && seq.is_multiple_of(b.drop_1_in) {
                    trace_event!(
                        s.now(),
                        TraceEventKind::XenBusDrop {
                            dom: ev.owner.0,
                            path: Rc::clone(&ev.path),
                            value: ev.value.clone(),
                        }
                    );
                    continue;
                }
                if b.dup_1_in != 0 && seq.is_multiple_of(b.dup_1_in) {
                    trace_event!(
                        s.now(),
                        TraceEventKind::XenBusDup {
                            dom: ev.owner.0,
                            path: Rc::clone(&ev.path),
                            value: ev.value.clone(),
                        }
                    );
                    // The duplicate rides right behind the original, as it
                    // did when both were scheduled back to back.
                    out.push(ev.clone());
                    out.push(ev);
                    continue;
                }
                out.push(ev);
            }
            self.store.recycle_events(events);
            out
        } else {
            events
        };
        if batch.is_empty() {
            return;
        }
        s.schedule_in(delay, move |cl: &mut Cluster, s| {
            Cluster::store_delivery_batch(cl, idx, s, batch);
        });
    }

    // ---- control-plane action helpers (the guest driver + management
    // module verbs of the paper) ----

    /// Baseline answer to a congestion query: let the guest sleep.
    pub fn cp_enter_congestion(&mut self, s: &mut Sched, dom: DomainId) {
        if let Some(d) = self.domain_mut(dom) {
            d.kernel.enter_congestion(s.now());
        }
    }

    /// Collaborative release (`release_request` in Alg. 2).
    pub fn cp_grant_bypass(&mut self, s: &mut Sched, dom: DomainId) {
        if let Some((slot, d)) = self.live_mut(dom) {
            d.kernel.grant_bypass(s.now());
            self.process_domain_outputs(s, slot);
        }
    }

    /// Remote `sync()` (`flush_now` in Alg. 1).
    pub fn cp_remote_sync(&mut self, s: &mut Sched, dom: DomainId) {
        if let Some((slot, d)) = self.live_mut(dom) {
            d.kernel.remote_sync(s.now());
            self.process_domain_outputs(s, slot);
        }
    }

    /// Program a VM's per-socket I/O routing weights (co-scheduler).
    pub fn cp_set_route_weights(&mut self, dom: DomainId, weights: Vec<f64>) {
        if let Some(d) = self.domain_mut(dom) {
            d.route_weights = weights;
        }
    }

    /// Program a VM's DRR quantum on a socket's I/O core.
    pub fn cp_set_quantum(&mut self, socket: usize, dom: DomainId, bytes: u64) {
        if let Some(core) = self.iocores.iter_mut().find(|c| c.socket() == socket) {
            core.set_quantum(dom, bytes);
        }
    }

    /// Program a VM's cgroup blkio weight at the device.
    pub fn cp_set_blkio_weight(&mut self, dom: DomainId, weight: u32) {
        if let Some(d) = self.domain(dom) {
            self.storage.set_stream_weight(d.kernel.stream(), weight);
        }
    }

    /// Install (or with `None`, lift) a bytes/sec rate limit on a VM's
    /// backend dispatch — the enforcement mechanism behind policy
    /// `RateLimit` actions. Deterministic: throttling only reshapes
    /// request start times, never drops or reorders them.
    ///
    /// The limiter lives in the paravirt backend's ring drain only: on
    /// [`IoPathMode::DedicatedCores`] machines requests bypass that path,
    /// so the limit is recorded ([`rate_limit`](Machine::rate_limit)) but
    /// not enforced.
    pub fn cp_set_rate_limit(&mut self, dom: DomainId, bytes_per_sec: Option<u64>) {
        if let Some(d) = self.domain_mut(dom) {
            d.rate_limit_bps = bytes_per_sec.filter(|&b| b > 0);
            if d.rate_limit_bps.is_none() {
                d.rate_ready_at = SimTime::ZERO;
            }
        }
    }

    /// The currently installed backend rate limit for a VM, if any.
    pub fn rate_limit(&self, dom: DomainId) -> Option<u64> {
        self.domain(dom).and_then(|d| d.rate_limit_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iorch_simcore::Simulation;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn sim_with(io_mode: IoPathMode) -> (Simulation<Cluster>, usize) {
        let mut cluster = Cluster::new();
        let idx = cluster.add_machine(MachineConfig::paper_testbed(7, io_mode));
        (Simulation::new(cluster), idx)
    }

    /// Submit one read op and capture its result.
    fn one_read(
        sim: &mut Simulation<Cluster>,
        idx: usize,
        dom: DomainId,
        file: iorch_guestos::FileId,
        offset: u64,
    ) -> Rc<RefCell<Option<OpResult>>> {
        let slot: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));
        let slot2 = Rc::clone(&slot);
        let (cl, s) = sim.parts_mut();
        cl.submit_op(
            s,
            idx,
            dom,
            0,
            FileOp::Read {
                file,
                offset,
                len: 65536,
            },
            Some(Waiter::from_fn(move |_, _, r| {
                *slot2.borrow_mut() = r;
            })),
        );
        slot
    }

    #[test]
    fn paravirt_read_completes_with_realistic_latency() {
        let (mut sim, idx) = sim_with(IoPathMode::Paravirt);
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(2, 4), |_| {});
        let file = cl.machines[idx]
            .kernel_mut(dom)
            .unwrap()
            .create_file(100 << 20)
            .unwrap();
        let slot = one_read(&mut sim, idx, dom, file, 0);
        sim.run_until(SimTime::from_millis(100));
        let r = slot.borrow().expect("read must complete");
        let lat = r.latency();
        // Doorbell (28us) + backend (11us + copy) + device (~55us + xfer)
        // + irq (18us): a cold 64 KiB read lands in the 100us–1ms band.
        assert!(lat > SimDuration::from_micros(100), "lat={lat}");
        assert!(lat < SimDuration::from_millis(1), "lat={lat}");
        assert_eq!(r.class, OpClass::Read);
        assert_eq!(cl_ops(&sim, idx, dom), 1);
    }

    fn cl_ops(sim: &Simulation<Cluster>, idx: usize, dom: DomainId) -> u64 {
        sim.world().machine(idx).ops_completed(dom)
    }

    #[test]
    fn dedicated_core_read_completes() {
        let (mut sim, idx) = sim_with(IoPathMode::DedicatedCores { per_socket: true });
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(2, 4), |_| {});
        let file = cl.machines[idx]
            .kernel_mut(dom)
            .unwrap()
            .create_file(100 << 20)
            .unwrap();
        let slot = one_read(&mut sim, idx, dom, file, 0);
        sim.run_until(SimTime::from_millis(100));
        assert!(slot.borrow().is_some());
        // The polling core must have processed the request(s).
        let total: u64 = sim
            .world()
            .machine(idx)
            .iocores
            .iter()
            .map(|c| c.processed_count())
            .sum();
        assert!(total >= 1);
    }

    #[test]
    fn writes_then_sync_hit_the_device() {
        let (mut sim, idx) = sim_with(IoPathMode::Paravirt);
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(2, 4), |_| {});
        let file = cl.machines[idx]
            .kernel_mut(dom)
            .unwrap()
            .create_file(100 << 20)
            .unwrap();
        cl.submit_op(
            s,
            idx,
            dom,
            0,
            FileOp::Write {
                file,
                offset: 0,
                len: 4 << 20,
            },
            None,
        );
        let done: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));
        let d2 = Rc::clone(&done);
        cl.submit_op(
            s,
            idx,
            dom,
            0,
            FileOp::Sync,
            Some(Waiter::from_fn(move |_, _, r| *d2.borrow_mut() = r)),
        );
        sim.run_until(SimTime::from_secs(1));
        let r = done.borrow().expect("sync completes");
        assert_eq!(r.class, OpClass::Sync);
        // 4 MiB must have been written to the device.
        let (_, wbytes) = sim.world().machine(idx).storage.monitor().byte_counts();
        assert!(wbytes >= 4 << 20, "wbytes={wbytes}");
    }

    #[test]
    fn deterministic_same_seed_same_latency() {
        let run = || {
            let (mut sim, idx) = sim_with(IoPathMode::Paravirt);
            let (cl, s) = sim.parts_mut();
            let dom = cl.create_domain(s, idx, VmSpec::new(2, 4), |_| {});
            let file = cl.machines[idx]
                .kernel_mut(dom)
                .unwrap()
                .create_file(100 << 20)
                .unwrap();
            let slot = one_read(&mut sim, idx, dom, file, 0);
            sim.run_until(SimTime::from_millis(100));
            let r = slot.borrow().unwrap();
            r.latency()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_cpu_contention_stretches_time() {
        let (mut sim, idx) = sim_with(IoPathMode::Paravirt);
        let (cl, s) = sim.parts_mut();
        // 24 VCPUs on 12 cores -> every core hosts 2 VCPUs; dom1's VCPU 0
        // and dom2's VCPU 0 land on the same socket-filling order.
        let dom1 = cl.create_domain(s, idx, VmSpec::new(12, 4), |_| {});
        let dom2 = cl.create_domain(s, idx, VmSpec::new(12, 4), |_| {});
        // Find a VCPU of dom2 sharing dom1's VCPU-0 core.
        let core0 = cl.machine(idx).domain(dom1).unwrap().cores[0];
        let shared_vcpu = cl
            .machine(idx)
            .domain(dom2)
            .unwrap()
            .cores
            .iter()
            .position(|&c| c == core0)
            .expect("full machine must share cores") as u32;
        let finish: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
        let f2 = Rc::clone(&finish);
        // Two 10ms work items contending for one core: the second one
        // finishes around 20ms (FIFO core sharing).
        cl.run_cpu(
            s,
            idx,
            dom1,
            0,
            SimDuration::from_millis(10),
            Waiter::from_fn(|_, _, _| {}),
        );
        cl.run_cpu(
            s,
            idx,
            dom2,
            shared_vcpu,
            SimDuration::from_millis(10),
            Waiter::from_fn(move |_, s, _| *f2.borrow_mut() = Some(s.now())),
        );
        sim.run_until(SimTime::from_millis(100));
        let t = finish.borrow().expect("cpu work completes");
        assert!(t >= SimTime::from_millis(19), "t={t:?}");
        // An idle co-resident VCPU costs nothing: a fresh item on an
        // uncontended core finishes in ~10ms.
        let (cl, s) = sim.parts_mut();
        let f3: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
        let f4 = Rc::clone(&f3);
        let start = s.now();
        cl.run_cpu(
            s,
            idx,
            dom1,
            5,
            SimDuration::from_millis(10),
            Waiter::from_fn(move |_, s, _| *f4.borrow_mut() = Some(s.now())),
        );
        sim.run_until(SimTime::from_millis(200));
        let t2 = f3.borrow().expect("second work completes");
        assert!(
            t2.saturating_since(start) < SimDuration::from_millis(11),
            "t2={t2:?}"
        );
    }

    /// A saturated device: 600 striped requests with service noise,
    /// submitted on a 5 µs grid so submits share instants with each other
    /// and with completions, against 32 channels. Submits that move the
    /// next completion earlier leave later events pending. Every device
    /// event must still complete something, and no instant may ever have
    /// two device events pending.
    #[test]
    fn saturated_device_fires_one_working_event_per_instant() {
        use iorch_storage::{IoKind, RequestId};

        let (mut sim, idx) = sim_with(IoPathMode::DedicatedCores { per_socket: true });
        let mut rng = SimRng::new(19);
        let n = 600;
        let (_, s) = sim.parts_mut();
        for i in 0..n {
            let at = SimTime::from_micros(5 * rng.below(400));
            // No live domain owns the stream, so completions stop at the
            // device and only the device path runs.
            let req = IoRequest {
                id: RequestId(i),
                kind: if i % 4 == 0 {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
                stream: StreamId(9_999),
                offset: rng.below(1 << 20) * 4096,
                len: 4096 * (1 + rng.below(64)),
                submitted: at,
            };
            s.schedule_at(at, move |cl: &mut Cluster, s| {
                Cluster::host_submit(cl, idx, s, req);
            });
        }
        let (mut max_queued, mut max_pending) = (0, 0);
        while sim.step() {
            let m = sim.world().machine(idx);
            max_queued = max_queued.max(m.storage.queue_depth());
            max_pending = max_pending.max(m.device_pending.len());
            assert!(
                m.device_pending.windows(2).all(|w| w[0] > w[1]),
                "pending device instants repeat or are out of order: {:?}",
                m.device_pending
            );
            assert_eq!(
                m.device_pending.last().copied().unwrap_or(SimTime::MAX),
                m.device_event_at
            );
        }
        let m = sim.world().machine(idx);
        let (reads, writes) = m.storage.monitor().op_counts();
        assert_eq!(reads + writes, n);
        assert!(
            max_queued > 0,
            "more requests than channels were outstanding"
        );
        assert!(max_pending >= 2, "some submit superseded a pending event");
        assert!(m.device_events_fired() > 0);
        assert_eq!(
            m.device_events_idle(),
            0,
            "a device event completed nothing"
        );
        assert!(m.device_pending.is_empty());
    }

    #[test]
    fn destroy_domain_cleans_up() {
        let (mut sim, idx) = sim_with(IoPathMode::DedicatedCores { per_socket: true });
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(2, 4), |_| {});
        assert!(cl.machine(idx).domains().eq([dom]));
        cl.destroy_domain(s, idx, dom);
        assert_eq!(cl.machine(idx).domain_count(), 0);
        // Destroying again is a no-op.
        let (cl, s) = sim.parts_mut();
        cl.destroy_domain(s, idx, dom);
        sim.run_until(SimTime::from_millis(50));
    }

    #[test]
    fn domain_slots_recycle_lifo_and_stay_bounded() {
        let (mut sim, idx) = sim_with(IoPathMode::Paravirt);
        let (cl, s) = sim.parts_mut();
        let a = cl.create_domain(s, idx, VmSpec::new(1, 1), |_| {});
        let b = cl.create_domain(s, idx, VmSpec::new(1, 1), |_| {});
        let m = cl.machine(idx);
        assert_eq!(m.slot_of(a), Some(0));
        assert_eq!(m.slot_of(b), Some(1));
        assert_eq!(m.slot_count(), 2);
        // Churn: each destroy frees the slot, each create reuses it, the
        // DomainId keeps advancing and the slot high-water never grows.
        let mut last = b;
        for _ in 0..32 {
            cl.destroy_domain(s, idx, last);
            let next = cl.create_domain(s, idx, VmSpec::new(1, 1), |_| {});
            assert!(next.0 > last.0, "domain ids are never reused");
            assert_eq!(cl.machine(idx).slot_of(next), Some(1), "slot recycled");
            last = next;
        }
        let m = cl.machine(idx);
        assert_eq!(m.slot_count(), 2, "slot space bounded by peak domains");
        assert_eq!(m.slot_of(last), Some(1));
        assert!(m.slot_of(b).is_none(), "dead domains have no slot");
    }

    /// Recycled slots keep `domains()` in ascending id order, and a
    /// domain in a reused slot starts with fresh per-domain counters.
    #[test]
    fn recycled_slots_keep_id_order_and_start_fresh() {
        let (mut sim, idx) = sim_with(IoPathMode::Paravirt);
        let (cl, s) = sim.parts_mut();
        let [a, b, c] = [(); 3].map(|_| cl.create_domain(s, idx, VmSpec::new(1, 1), |_| {}));
        let file = cl.machines[idx]
            .kernel_mut(b)
            .unwrap()
            .create_file(10 << 20)
            .unwrap();
        let done = one_read(&mut sim, idx, b, file, 0);
        sim.run_until(SimTime::from_millis(100));
        assert!(done.borrow().is_some());
        let m = sim.world().machine(idx);
        assert_eq!(m.ops_completed(b), 1);
        assert!(m.io_bytes(b) > 0 && m.io_latency(b).is_some());

        let (cl, s) = sim.parts_mut();
        cl.destroy_domain(s, idx, b);
        cl.destroy_domain(s, idx, a);
        let d = cl.create_domain(s, idx, VmSpec::new(1, 1), |_| {});
        let e = cl.create_domain(s, idx, VmSpec::new(1, 1), |_| {});
        let m = cl.machine(idx);
        assert_eq!(
            (m.slot_of(c), m.slot_of(d), m.slot_of(e)),
            (Some(2), Some(0), Some(1))
        );
        assert!(m.domains().eq([c, d, e]), "ascending ids, not slot order");
        assert_eq!(m.domain_count(), 3);
        assert_eq!(m.domain_entries(), [3, 3]);
        for dom in [b, e] {
            assert_eq!(m.ops_completed(dom), 0);
            assert_eq!(m.io_bytes(dom), 0);
            assert!(m.io_latency(dom).is_none());
        }
    }

    /// Counts wakes per token; every wake must carry an op result.
    struct Counter(RefCell<Vec<u32>>);

    impl OpHandler for Counter {
        fn wake(self: Rc<Self>, _: &mut Cluster, _: &mut Sched, token: u64, r: Option<OpResult>) {
            assert!(r.is_some(), "an op wake carries its result");
            self.0.borrow_mut()[token as usize] += 1;
        }
    }

    /// One handler serves many tokens: each live op wakes it exactly
    /// once with its own token, hits inline and misses later, and the
    /// pending ops of a destroyed domain never wake.
    #[test]
    fn one_handler_many_tokens_wake_once() {
        const OPS: u64 = 40;
        let (mut sim, idx) = sim_with(IoPathMode::DedicatedCores { per_socket: true });
        let (cl, s) = sim.parts_mut();
        let live = cl.create_domain(s, idx, VmSpec::new(2, 4), |_| {});
        let doomed = cl.create_domain(s, idx, VmSpec::new(2, 4), |_| {});
        let files = [live, doomed].map(|dom| {
            cl.machines[idx]
                .kernel_mut(dom)
                .unwrap()
                .create_file(100 << 20)
                .unwrap()
        });
        let warm = one_read(&mut sim, idx, live, files[0], 0);
        sim.run_until(SimTime::from_millis(100));
        assert!(warm.borrow().is_some());
        let (cl, s) = sim.parts_mut();
        let counter = Rc::new(Counter(RefCell::new(vec![0; 2 * OPS as usize])));
        for token in 0..2 * OPS {
            let (dom, file) = if token < OPS {
                (live, files[0])
            } else {
                (doomed, files[1])
            };
            // Every fourth op re-reads chunk 0: a hit on the warm domain.
            let hit = token % 4 == 0;
            let offset = if hit { 0 } else { token << 20 };
            let op = FileOp::Read {
                file,
                offset,
                len: 4096,
            };
            let waiter = Waiter::new(Rc::clone(&counter) as Rc<dyn OpHandler>, token);
            cl.submit_op(s, idx, dom, (token % 2) as u32, op, Some(waiter));
            let inline = u32::from(hit && dom == live);
            assert_eq!(counter.0.borrow()[token as usize], inline, "token {token}");
        }
        cl.destroy_domain(s, idx, doomed);
        sim.run_until(SimTime::from_millis(500));
        let wakes = counter.0.borrow();
        assert!(wakes[..OPS as usize].iter().all(|&n| n == 1), "{wakes:?}");
        assert!(wakes[OPS as usize..].iter().all(|&n| n == 0), "{wakes:?}");
        let m = sim.world().machine(idx);
        assert_eq!(
            m.ops_completed(live),
            OPS + 1,
            "the warm-up read counts too"
        );
        assert!(m.domain(live).unwrap().pending_ops.is_empty());
    }

    #[test]
    fn no_control_plane_defaults_to_stock_congestion() {
        let (mut sim, idx) = sim_with(IoPathMode::Paravirt);
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 1), |_| {});
        let file = cl.machines[idx]
            .kernel_mut(dom)
            .unwrap()
            .create_file(2 << 30)
            .unwrap();
        // Flood with random reads to cross the 7/8 threshold.
        for i in 0..200u64 {
            let (cl, s) = sim.parts_mut();
            cl.submit_op(
                s,
                idx,
                dom,
                0,
                FileOp::Read {
                    file,
                    offset: (i * 7919) % 30000 * 65536,
                    len: 4096,
                },
                None,
            );
        }
        sim.run_until(SimTime::from_secs(2));
        let m = sim.world().machine(idx);
        let k = m.domain(dom).unwrap();
        assert!(
            k.kernel.congestion_entries() >= 1,
            "stock behaviour engaged"
        );
        assert_eq!(m.ops_completed(dom), 200);
    }

    #[test]
    fn io_latency_histogram_populated() {
        let (mut sim, idx) = sim_with(IoPathMode::Paravirt);
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(2, 4), |_| {});
        let file = cl.machines[idx]
            .kernel_mut(dom)
            .unwrap()
            .create_file(100 << 20)
            .unwrap();
        let _ = one_read(&mut sim, idx, dom, file, 0);
        sim.run_until(SimTime::from_millis(100));
        let h = sim.world().machine(idx).io_latency(dom).unwrap();
        assert!(h.count() >= 1);
        assert!(sim.world().machine(idx).io_bytes(dom) >= 65536);
    }

    #[test]
    fn utilization_rises_with_io() {
        let (mut sim, idx) = sim_with(IoPathMode::Paravirt);
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(2, 4), |_| {});
        let file = cl.machines[idx]
            .kernel_mut(dom)
            .unwrap()
            .create_file(1 << 30)
            .unwrap();
        for i in 0..50u64 {
            let (cl, s) = sim.parts_mut();
            cl.submit_op(
                s,
                idx,
                dom,
                0,
                FileOp::Read {
                    file,
                    offset: i * (2 << 20),
                    len: 1 << 20,
                },
                None,
            );
        }
        sim.run_until(SimTime::from_millis(200));
        let util = sim.world().machine(idx).utilization(sim.now());
        assert!(util > 0.0, "backend work must consume CPU, util={util}");
    }

    #[test]
    fn dedicated_mode_reserves_and_spins_cores() {
        let (sim, idx) = sim_with(IoPathMode::DedicatedCores { per_socket: true });
        let m = sim.world().machine(idx);
        assert_eq!(m.iocores.len(), 2);
        // Spinning cores alone -> 2/12 utilization.
        let util = m.utilization(SimTime::from_secs(1));
        assert!((util - 2.0 / 12.0).abs() < 1e-6, "util={util}");
        // SDC mode reserves only one.
        let mut cluster = Cluster::new();
        let sdc = cluster.add_machine(MachineConfig::paper_testbed(
            1,
            IoPathMode::DedicatedCores { per_socket: false },
        ));
        assert_eq!(cluster.machine(sdc).iocores.len(), 1);
    }

    /// Cache-hit ops complete inline: each waiter fires exactly once,
    /// inside `submit_op`, and no pending-op entry is left behind. Read
    /// misses still register as pending and are routed by the issuing
    /// VCPU, so I/O-core attribution follows the VCPU's socket.
    #[test]
    fn inline_completions_fire_once_and_misses_route_by_vcpu() {
        const HITS: usize = 64;
        let (mut sim, idx) = sim_with(IoPathMode::DedicatedCores { per_socket: true });
        let (cl, s) = sim.parts_mut();
        // Eight VCPUs do not fit on one socket's five free cores.
        let dom = cl.create_domain(s, idx, VmSpec::new(8, 4), |_| {});
        let file = cl.machines[idx]
            .kernel_mut(dom)
            .unwrap()
            .create_file(100 << 20)
            .unwrap();
        let warm = one_read(&mut sim, idx, dom, file, 0);
        sim.run_until(SimTime::from_millis(100));
        assert!(warm.borrow().is_some());

        let fired = Rc::new(RefCell::new(vec![0u32; HITS]));
        let (cl, s) = sim.parts_mut();
        for i in 0..HITS {
            let f = Rc::clone(&fired);
            cl.submit_op(
                s,
                idx,
                dom,
                (i % 8) as u32,
                FileOp::Read {
                    file,
                    offset: 0,
                    len: 65536,
                },
                Some(Waiter::from_fn(move |_, _, _| f.borrow_mut()[i] += 1)),
            );
            assert_eq!(fired.borrow()[i], 1, "hit {i} must complete inline");
        }
        assert!(fired.borrow().iter().all(|&n| n == 1));
        let d = cl.machines[idx].domain(dom).unwrap();
        assert!(d.pending_ops.is_empty());

        let m = &cl.machines[idx];
        let (sock0, sock7) = (d.vcpu_socket(&m.topology, 0), d.vcpu_socket(&m.topology, 7));
        assert_ne!(sock0, sock7, "VCPUs 0 and 7 must sit on different sockets");
        for (k, socket, offset) in [(0u32, sock0, 10u64 << 20), (7, sock7, 20 << 20)] {
            let processed = |sim: &Simulation<Cluster>| -> Vec<(usize, u64)> {
                let m = sim.world().machine(idx);
                m.iocores
                    .iter()
                    .map(|c| (c.socket(), c.processed_count()))
                    .collect()
            };
            let before = processed(&sim);
            let done = Rc::new(RefCell::new(0u32));
            let d2 = Rc::clone(&done);
            let (cl, s) = sim.parts_mut();
            cl.submit_op(
                s,
                idx,
                dom,
                k,
                FileOp::Read {
                    file,
                    offset,
                    len: 65536,
                },
                Some(Waiter::from_fn(move |_, _, _| *d2.borrow_mut() += 1)),
            );
            let d = cl.machines[idx].domain(dom).unwrap();
            assert_eq!(*done.borrow(), 0, "a miss must not complete inline");
            let pending: Vec<_> = d.pending_ops.values().collect();
            assert_eq!(pending.len(), 1);
            assert_eq!(pending[0].vcpu, k);
            assert!(pending[0].waiter.is_some());
            let until = sim.now() + SimDuration::from_millis(100);
            sim.run_until(until);
            assert_eq!(*done.borrow(), 1);
            for ((sk, after), (_, before)) in processed(&sim).into_iter().zip(before) {
                let want = u64::from(sk == socket);
                assert_eq!(after - before, want, "VCPU {k}: I/O core on socket {sk}");
            }
            let d = sim.world().machine(idx).domain(dom).unwrap();
            assert!(d.pending_ops.is_empty());
        }

        // Mixed: an all-resident sequential read from VCPU 7 completes
        // inline and issues readahead in the same call. Its result is
        // queued while the readahead is still plugged in the guest, and
        // the readahead, which has no op, goes out on VCPU 0's socket.
        let chunk = iorch_guestos::CHUNK_SIZE;
        let base = 30u64 << 20;
        let read = |offset, len| FileOp::Read { file, offset, len };
        let (cl, s) = sim.parts_mut();
        cl.submit_op(s, idx, dom, 0, read(base, 2 * chunk), None);
        let until = sim.now() + SimDuration::from_millis(100);
        sim.run_until(until);
        let (cl, s) = sim.parts_mut();
        // A hit that leaves the read cursor one chunk before the end of
        // the resident run.
        cl.submit_op(s, idx, dom, 0, read(base, chunk), None);
        let before: Vec<u64> = cl.machines[idx]
            .iocores
            .iter()
            .map(|c| c.processed_count())
            .collect();
        let fired = Rc::new(RefCell::new(0u32));
        let f = Rc::clone(&fired);
        cl.submit_op(
            s,
            idx,
            dom,
            7,
            read(base + chunk, chunk),
            Some(Waiter::from_fn(move |cl, s, r| {
                *f.borrow_mut() += 1;
                let r = r.expect("an op wake carries its result");
                assert_eq!(r.started, s.now(), "completed inline");
                let m = cl.machine(r.machine);
                assert!(m.iocores.iter().all(|c| c.backlog() == 0 && !c.busy()));
            })),
        );
        assert_eq!(
            *fired.borrow(),
            1,
            "the sequential hit must complete inline"
        );
        let m = &cl.machines[idx];
        let d = m.domain(dom).unwrap();
        assert!(d.pending_ops.is_empty());
        // The readahead waits out the plug timer.
        assert_eq!(
            d.kernel.next_deadline(),
            s.now() + iorch_guestos::PLUG_DELAY
        );
        let until = sim.now() + SimDuration::from_millis(100);
        sim.run_until(until);
        assert_eq!(*fired.borrow(), 1);
        let m = sim.world().machine(idx);
        for (c, before) in m.iocores.iter().zip(before) {
            let want = u64::from(c.socket() == sock0);
            assert_eq!(
                c.processed_count() - before,
                want,
                "readahead: I/O core on socket {}",
                c.socket()
            );
        }
        assert!(m.domain(dom).unwrap().pending_ops.is_empty());
        // The readahead cached the chunks after the read.
        let ra = read(base + 2 * chunk, 4 * chunk);
        let (cl, s) = sim.parts_mut();
        let misses = cl.machines[idx]
            .domain(dom)
            .unwrap()
            .kernel
            .stats()
            .cache_miss_chunks;
        cl.submit_op(s, idx, dom, 0, ra, None);
        let k = &cl.machines[idx].domain(dom).unwrap().kernel;
        assert_eq!(k.stats().cache_miss_chunks, misses);
    }
}
