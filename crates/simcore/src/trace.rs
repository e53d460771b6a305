//! # iorch-trace — deterministic structured event tracing
//!
//! A sim-time, seeded-deterministic recorder for the whole I/O path: the
//! paper's monitoring module is blktrace-shaped, and reproducing its
//! decisions requires the same per-request, per-layer visibility. Every
//! layer (guest block queue, kernel, frontend ring, I/O cores, device,
//! system store, control planes) emits typed [`TraceEvent`]s through the
//! [`trace_event!`](crate::trace_event) macro into a bounded per-thread ring.
//!
//! Design points:
//!
//! * **Deterministic**: events carry only simulated time and model state —
//!   no wall clocks, no addresses — so the rendered timeline of a run is a
//!   pure function of `(model, seed)` and is byte-identical across runs.
//! * **Zero cost off**: [`trace_event!`](crate::trace_event) expands to a branch on
//!   [`enabled()`], whose first test is the compile-time constant
//!   [`COMPILED`]. Building with `RUSTFLAGS="--cfg iorch_trace_off"` turns
//!   the constant `false` and the whole arm — including construction of the
//!   event value — folds away. Even when compiled in, the off-path is one
//!   thread-local boolean load; the hot-path bench gate
//!   (`scripts/bench_hotpath.sh`) holds with the layer merged.
//! * **Bounded**: the ring keeps the most recent `capacity` events and
//!   counts what it dropped, so tracing a long run cannot exhaust memory.
//! * **Per-thread**: the recorder lives in thread-local storage. Runs are
//!   single-threaded by design (see crate docs), and the test harness runs
//!   many runs on different threads concurrently — a process-global
//!   recorder would interleave them.
//!
//! Two exporters ship with the recorder: a human-oriented timeline /
//! decision-log renderer (what `bin/tracedump` prints) and a Chrome
//! trace-event JSON writer (`chrome://tracing`, Perfetto).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::SimTime;

/// `false` when the crate graph was built with
/// `RUSTFLAGS="--cfg iorch_trace_off"`; the [`trace_event!`](crate::trace_event) macro
/// const-folds to nothing in that configuration.
pub const COMPILED: bool = !cfg!(iorch_trace_off);

/// Default ring capacity used by [`install`] via [`TraceSession::new`].
pub const DEFAULT_CAPACITY: usize = 1 << 20;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<TraceRecorder>> = const { RefCell::new(None) };
    static TAP_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TAP: RefCell<Option<Tap>> = const { RefCell::new(None) };
}

/// A live observer of trace events (see [`set_tap`]).
pub type Tap = Box<dyn FnMut(SimTime, &TraceEventKind)>;

/// One recorded event: a simulated timestamp plus a typed payload.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceEvent {
    /// Simulated time the event occurred.
    pub t: SimTime,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The event taxonomy, one variant per instrumented point on the I/O path.
///
/// `dom` fields are domain tags: the guest's stream id, which the cluster
/// assigns equal to the domain id. Request ids are globally unique per run.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEventKind {
    // ---- guest block layer ------------------------------------------
    /// A request entered the plugged queue.
    QueueSubmit {
        /// Submitting domain.
        dom: u32,
        /// Request id.
        req: u64,
        /// Write (true) or read (false).
        write: bool,
        /// Length in bytes.
        len: u64,
    },
    /// A request was absorbed by an elevator back-merge. Nothing emits it:
    /// neither block layer merges. Kept because the `benchmark/` package
    /// matches on it.
    QueueMerge {
        /// Submitting domain.
        dom: u32,
        /// Id of the request that was merged away.
        req: u64,
        /// Length in bytes it added to the tail request.
        len: u64,
    },
    /// Submission blocked: the queue is congested (the process sleeps).
    QueueBlocked {
        /// Submitting domain.
        dom: u32,
        /// Request id that could not be queued.
        req: u64,
    },
    /// Allocation crossed the 7/8 threshold and the congestion-avoidance
    /// query was raised (latched until answered).
    CongestionQuery {
        /// Domain.
        dom: u32,
        /// Allocated descriptors at the time of the query.
        allocated: u32,
    },
    /// The congestion flag was set; submitters sleep.
    CongestionEnter {
        /// Domain.
        dom: u32,
    },
    /// The congestion flag cleared; sleepers wake after the wake delay.
    CongestionClear {
        /// Domain.
        dom: u32,
    },
    /// The collaborative bypass was granted (`release_request`).
    BypassGrant {
        /// Domain.
        dom: u32,
    },
    /// The bypass was revoked (host became congested). Nothing emits it:
    /// no model path revokes a bypass. Kept because the `benchmark/`
    /// package matches on it.
    BypassRevoke {
        /// Domain.
        dom: u32,
        /// Whether the revoke immediately re-raised the congestion query
        /// (allocation was still at/above the on threshold).
        requery: bool,
    },
    /// A completion freed more descriptors than were dispatched — a
    /// simulator invariant violation (double completion). Recorded just
    /// before the simulator aborts the run.
    DescriptorUnderflow {
        /// Domain.
        dom: u32,
        /// Descriptors outstanding at the time.
        dispatched: u32,
        /// Descriptors the completion tried to free.
        completed: u32,
    },
    /// The plug list was dispatched to the frontend ring.
    Unplug {
        /// Domain.
        dom: u32,
        /// Requests in the batch.
        batch: u32,
        /// Forced (sync/explicit) rather than deadline/batch-size driven.
        forced: bool,
    },
    /// The kernel issued writeback for dirty pages.
    WritebackIssue {
        /// Domain.
        dom: u32,
        /// Pages in this writeback pass.
        pages: u64,
        /// Issued by a remote `flush_now` command rather than local policy.
        remote: bool,
    },
    // ---- hypervisor / ring / host ----------------------------------
    /// A request was pushed onto the frontend ring and the doorbell rung.
    RingPush {
        /// Domain.
        dom: u32,
        /// Request id.
        req: u64,
    },
    /// A completion was delivered back to the guest.
    BlockComplete {
        /// Domain.
        dom: u32,
        /// Request id.
        req: u64,
    },
    /// An I/O core's DRR scheduler began serving a stream's queue.
    DrrVisit {
        /// I/O core index.
        core: u32,
        /// Stream (domain) being served.
        dom: u32,
        /// Credit in bytes granted for this visit.
        credit: u64,
    },
    /// A backend dispatch was deferred because a policy rate limit had
    /// exhausted the domain's token bucket.
    RateLimitDefer {
        /// Throttled domain.
        dom: u32,
        /// Request id whose service start was deferred.
        req: u64,
        /// Deferral in microseconds until enough tokens accrue.
        delay_us: u64,
    },
    /// The host storage subsystem dispatched a request to the device.
    DeviceDispatch {
        /// Request id.
        req: u64,
        /// Originating domain.
        dom: u32,
        /// Write (true) or read (false).
        write: bool,
        /// Length in bytes.
        len: u64,
        /// Device queue occupancy after the dispatch.
        qdepth: u32,
    },
    /// The device completed a request.
    DeviceComplete {
        /// Request id.
        req: u64,
        /// Originating domain.
        dom: u32,
        /// Device service latency in microseconds.
        latency_us: u64,
    },
    // ---- system store / XenBus --------------------------------------
    /// A store write committed (and fired any matching watches).
    StoreWrite {
        /// Writing domain.
        dom: u32,
        /// Full path.
        path: Rc<str>,
        /// Value written.
        value: Rc<str>,
    },
    /// A store write-type operation was denied by permissions.
    StoreDenied {
        /// Offending domain.
        dom: u32,
        /// Path it tried to touch.
        path: Rc<str>,
    },
    /// A watch event was delivered to its owner over the XenBus channel.
    XenBusDeliver {
        /// Notified domain.
        dom: u32,
        /// Path that changed.
        path: Rc<str>,
        /// New value (`None` for a removal).
        value: Option<Rc<str>>,
    },
    /// An unreliable XenBus dropped a watch event instead of delivering it
    /// (injected by [`FaultKind::BusUnreliable`](crate::faults::FaultKind)).
    XenBusDrop {
        /// Domain that would have been notified.
        dom: u32,
        /// Path that changed.
        path: Rc<str>,
        /// Value that was lost (`None` for a removal).
        value: Option<Rc<str>>,
    },
    /// An unreliable XenBus delivered a watch event a second time
    /// (injected by [`FaultKind::BusUnreliable`](crate::faults::FaultKind)).
    XenBusDup {
        /// Notified domain.
        dom: u32,
        /// Path that changed.
        path: Rc<str>,
        /// Duplicated value (`None` for a removal).
        value: Option<Rc<str>>,
    },
    // ---- control plane ----------------------------------------------
    /// A management-module decision, with the inputs that drove it.
    Decision(Decision),
}

/// Control-plane decisions (the management module's side of Algorithms
/// 1–3 plus robustness actions), each carrying the inputs it was made on.
#[derive(Clone, PartialEq, Debug)]
pub enum Decision {
    /// Algorithm 1: device underutilized, flush the dirtiest domain.
    FlushNow {
        /// Chosen domain (argmax of dirty pages).
        dom: u32,
        /// Its dirty-page count.
        nr_dirty: u64,
        /// All eligible candidates as `(dom, nr_dirty)`, in domain order.
        candidates: Vec<(u32, u64)>,
    },
    /// A guest acked its `flush_now` (wrote it back to 0).
    FlushAck {
        /// Domain.
        dom: u32,
    },
    /// A `flush_now` expired unacked; the slot goes to the next-dirtiest.
    FlushTimeout {
        /// Domain.
        dom: u32,
        /// Consecutive timeouts for this domain.
        streak: u32,
    },
    /// Algorithm 2: congestion query answered with a release — the host
    /// device is not actually congested.
    ReleaseGranted {
        /// Domain.
        dom: u32,
        /// Host device queue depth at decision time.
        host_qdepth: u32,
    },
    /// Algorithm 2: congestion confirmed — the guest stays asleep and is
    /// queued for FIFO wake on relief.
    CongestionConfirmed {
        /// Domain.
        dom: u32,
        /// Host device queue depth at decision time.
        host_qdepth: u32,
    },
    /// Host relieved: a sleeping domain is woken with a staggered offset.
    StaggeredWake {
        /// Domain.
        dom: u32,
        /// Cumulative wake offset in milliseconds.
        offset_ms: u64,
    },
    /// A domain was quarantined (Baseline behaviour, keys ignored).
    Quarantine {
        /// Domain.
        dom: u32,
        /// Which budget or policy tripped.
        reason: &'static str,
    },
    /// An operator cleared a quarantine.
    QuarantineCleared {
        /// Domain.
        dom: u32,
    },
    /// Algorithm 3: new route weights pushed to the I/O cores.
    WeightPush {
        /// Domain.
        dom: u32,
        /// Per-socket route weights.
        weights: Vec<f64>,
    },
    /// The management plane crashed: all in-memory decision state is lost
    /// and watch events go undelivered until recovery.
    PlaneCrash,
    /// The management plane restarted and rebuilt its decision state from
    /// the store.
    PlaneRecover {
        /// Command epoch adopted for the new incarnation (persisted + 1).
        epoch: u64,
        /// Domains found and re-registered during the store scan.
        domains: u32,
        /// Quarantined domains restored from persisted state.
        quarantined: u32,
    },
    /// A guest driver discarded a stale or duplicate epoch-stamped command.
    StaleCommand {
        /// Domain that rejected the command.
        dom: u32,
        /// Epoch carried by the rejected command.
        epoch: u64,
        /// Newest epoch the guest has already accepted for this channel.
        last_seen: u64,
    },
    // ---- cluster control tier ----------------------------------------
    /// The cluster controller admitted a node into the membership (first
    /// registration of this incarnation).
    NodeRegistered {
        /// Cluster node index.
        node: u32,
        /// Boot incarnation the node registered under.
        incarnation: u64,
    },
    /// A member's lease expired without a heartbeat: the controller marks
    /// it dead and its domains orphaned.
    LeaseExpired {
        /// Cluster node index.
        node: u32,
        /// Logical domains orphaned by the expiry.
        orphaned: u32,
    },
    /// A node the controller had marked dead is heartbeating again (a
    /// healed partition, not a reboot — its incarnation is unchanged).
    NodeRejoined {
        /// Cluster node index.
        node: u32,
        /// Incarnation the node rejoined under.
        incarnation: u64,
    },
    /// The controller assigned a logical domain to a node (a `start`
    /// command was issued).
    DomainPlaced {
        /// Logical domain id.
        dom: u32,
        /// Target cluster node index.
        node: u32,
    },
    /// The controller evicted a logical domain from a node that should no
    /// longer run it (a `stop` command was issued).
    DomainEvicted {
        /// Logical domain id.
        dom: u32,
        /// Cluster node index being told to stop it.
        node: u32,
    },
    /// A logical domain orphaned by a dead node was re-placed on a
    /// survivor.
    Failover {
        /// Logical domain id.
        dom: u32,
        /// Node it was running on (now dead).
        from: u32,
        /// Surviving node it moves to.
        to: u32,
    },
    /// The cluster controller crashed: volatile membership and placement
    /// state is lost until restart.
    ControllerCrash,
    /// The cluster controller restarted under a fresh durable epoch and is
    /// rebuilding membership from incoming heartbeats.
    ControllerRecover {
        /// Command epoch adopted by the new incarnation (persisted + 1).
        epoch: u64,
    },
    /// A node agent discarded a stale or duplicate cluster command
    /// (epoch/sequence cursor or incarnation mismatch).
    ClusterCmdStale {
        /// Cluster node index that rejected the command.
        node: u32,
        /// Epoch carried by the rejected command.
        epoch: u64,
        /// Sequence number carried by the rejected command.
        seq: u64,
    },
    /// A cluster RPC timed out unacked and was re-issued with exponential
    /// backoff under a fresh sequence number.
    ClusterRetry {
        /// Target cluster node index.
        node: u32,
        /// Logical domain the command concerns.
        dom: u32,
        /// Retry attempt number (1 = first re-issue).
        attempt: u32,
    },
}

/// Bounded event ring plus drop accounting.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// New empty recorder keeping at most `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Events in arrival order (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume into a plain vector (oldest first).
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.ring.into()
    }
}

/// Install a fresh recorder on this thread and enable recording.
///
/// Replaces (and discards) any recorder already installed. Under
/// `--cfg iorch_trace_off` the recorder is still installed but
/// [`enabled()`] stays `false`, so nothing records.
pub fn install(capacity: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Some(TraceRecorder::new(capacity)));
    ENABLED.with(|e| e.set(true));
}

/// Disable recording and take the recorder off this thread.
pub fn uninstall() -> Option<TraceRecorder> {
    ENABLED.with(|e| e.set(false));
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Install a live tap on this thread: every event recorded via
/// [`trace_event!`](crate::trace_event) is also handed to `tap` by reference,
/// whether or not a ring recorder is installed. This is the metrics-export
/// seam — a telemetry hub observes the event stream without retaining it.
///
/// Determinism contract: a tap is **read-only with respect to the
/// simulation**. It receives borrowed events, never sees or touches the
/// RNG, and adds no scheduler events, so installing one cannot change the
/// (seed → trace) mapping; the ring contents with and without a tap are
/// byte-identical. The tap itself must not emit trace events (re-entrant
/// events are silently not delivered to the tap, though they still reach
/// the ring). Replaces any previously installed tap.
pub fn set_tap(tap: Tap) {
    TAP.with(|t| *t.borrow_mut() = Some(tap));
    TAP_ACTIVE.with(|a| a.set(true));
}

/// Remove the live tap, returning it (e.g. to extract accumulated state).
pub fn clear_tap() -> Option<Tap> {
    TAP_ACTIVE.with(|a| a.set(false));
    TAP.with(|t| t.borrow_mut().take())
}

/// Whether [`trace_event!`](crate::trace_event) records on this thread —
/// either into a ring recorder or into a live tap. The [`COMPILED`] test
/// is first so the whole call folds to `false` when traced-off builds
/// const-propagate it.
#[inline(always)]
pub fn enabled() -> bool {
    COMPILED && (ENABLED.with(|e| e.get()) || TAP_ACTIVE.with(|a| a.get()))
}

/// Record an event. Call through [`trace_event!`](crate::trace_event), which guards on
/// [`enabled()`] so disabled runs never construct the event value.
#[cold]
pub fn record(t: SimTime, kind: TraceEventKind) {
    if TAP_ACTIVE.with(|a| a.get()) {
        // Take the tap out while calling it so a tap that (incorrectly)
        // emits trace events cannot re-enter itself.
        let taken = TAP.with(|c| c.borrow_mut().take());
        if let Some(mut f) = taken {
            f(t, &kind);
            TAP.with(|c| *c.borrow_mut() = Some(f));
        }
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.push(TraceEvent { t, kind });
        }
    });
}

/// RAII guard: installs a recorder on construction, takes it on
/// [`finish`](TraceSession::finish) (or disables on drop).
pub struct TraceSession {
    _private: (),
}

impl TraceSession {
    /// Install a recorder with [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        install(DEFAULT_CAPACITY);
        TraceSession { _private: () }
    }

    /// Install a recorder with an explicit capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        install(capacity);
        TraceSession { _private: () }
    }

    /// Stop recording and return the captured events (oldest first).
    pub fn finish(self) -> TraceRecorder {
        std::mem::forget(self);
        uninstall().unwrap_or_else(|| TraceRecorder::new(1))
    }
}

impl Default for TraceSession {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        let _ = uninstall();
    }
}

/// RAII guard for a live tap: installs on construction, removes on drop.
/// See [`set_tap`] for the determinism contract.
pub struct TapSession {
    _private: (),
}

impl TapSession {
    /// Install `tap` as the thread's live observer.
    pub fn new(tap: Tap) -> Self {
        set_tap(tap);
        TapSession { _private: () }
    }
}

impl Drop for TapSession {
    fn drop(&mut self) {
        let _ = clear_tap();
    }
}

/// Record a trace event when the thread-local recorder is enabled.
///
/// `$t` is a [`SimTime`](crate::SimTime), `$kind` a
/// [`TraceEventKind`](crate::trace::TraceEventKind) expression; the
/// expression is **not evaluated** when tracing is disabled, and the whole
/// statement compiles away under `RUSTFLAGS="--cfg iorch_trace_off"`.
#[macro_export]
macro_rules! trace_event {
    ($t:expr, $kind:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::record($t, $kind);
        }
    };
}

// --------------------------------------------------------------------
// Rendering
// --------------------------------------------------------------------

fn write_ts(out: &mut String, t: SimTime) {
    let us = t.as_nanos() / 1_000;
    let frac = t.as_nanos() % 1_000;
    let _ = write!(out, "[{:>12}.{:03}us] ", us, frac);
}

fn render_decision(out: &mut String, d: &Decision) {
    match d {
        Decision::FlushNow {
            dom,
            nr_dirty,
            candidates,
        } => {
            let _ = write!(
                out,
                "decision flush_now -> dom {dom}: nr_dirty={nr_dirty} candidates={{"
            );
            for (i, (d, n)) in candidates.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{d}:{n}");
            }
            out.push('}');
        }
        Decision::FlushAck { dom } => {
            let _ = write!(out, "decision flush_ack <- dom {dom}");
        }
        Decision::FlushTimeout { dom, streak } => {
            let _ = write!(out, "decision flush_timeout dom {dom}: streak={streak}");
        }
        Decision::ReleaseGranted { dom, host_qdepth } => {
            let _ = write!(
                out,
                "decision release_granted -> dom {dom}: host qdepth {host_qdepth}"
            );
        }
        Decision::CongestionConfirmed { dom, host_qdepth } => {
            let _ = write!(
                out,
                "decision congestion_confirmed dom {dom}: host qdepth {host_qdepth}"
            );
        }
        Decision::StaggeredWake { dom, offset_ms } => {
            let _ = write!(out, "decision staggered_wake -> dom {dom}: +{offset_ms}ms");
        }
        Decision::Quarantine { dom, reason } => {
            let _ = write!(out, "decision quarantine dom {dom}: {reason}");
        }
        Decision::QuarantineCleared { dom } => {
            let _ = write!(out, "decision quarantine_cleared dom {dom}");
        }
        Decision::WeightPush { dom, weights } => {
            let _ = write!(out, "decision weight_push dom {dom}: [");
            for (i, w) in weights.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{w:.4}");
            }
            out.push(']');
        }
        Decision::PlaneCrash => {
            out.push_str("decision plane_crash: control plane state lost");
        }
        Decision::PlaneRecover {
            epoch,
            domains,
            quarantined,
        } => {
            let _ = write!(
                out,
                "decision plane_recover: epoch={epoch} domains={domains} quarantined={quarantined}"
            );
        }
        Decision::StaleCommand {
            dom,
            epoch,
            last_seen,
        } => {
            let _ = write!(
                out,
                "decision stale_command dom {dom}: epoch={epoch} last_seen={last_seen}"
            );
        }
        Decision::NodeRegistered { node, incarnation } => {
            let _ = write!(
                out,
                "decision node_registered node {node}: incarnation={incarnation}"
            );
        }
        Decision::LeaseExpired { node, orphaned } => {
            let _ = write!(
                out,
                "decision lease_expired node {node}: orphaned={orphaned}"
            );
        }
        Decision::NodeRejoined { node, incarnation } => {
            let _ = write!(
                out,
                "decision node_rejoined node {node}: incarnation={incarnation}"
            );
        }
        Decision::DomainPlaced { dom, node } => {
            let _ = write!(out, "decision domain_placed dom {dom} -> node {node}");
        }
        Decision::DomainEvicted { dom, node } => {
            let _ = write!(out, "decision domain_evicted dom {dom} <- node {node}");
        }
        Decision::Failover { dom, from, to } => {
            let _ = write!(out, "decision failover dom {dom}: node {from} -> node {to}");
        }
        Decision::ControllerCrash => {
            out.push_str("decision controller_crash: cluster controller state lost");
        }
        Decision::ControllerRecover { epoch } => {
            let _ = write!(out, "decision controller_recover: epoch={epoch}");
        }
        Decision::ClusterCmdStale { node, epoch, seq } => {
            let _ = write!(
                out,
                "decision cluster_cmd_stale node {node}: epoch={epoch} seq={seq}"
            );
        }
        Decision::ClusterRetry { node, dom, attempt } => {
            let _ = write!(
                out,
                "decision cluster_retry node {node}: dom {dom} attempt={attempt}"
            );
        }
    }
}

/// Render one event as a single timeline line (no trailing newline).
pub fn render_event(out: &mut String, ev: &TraceEvent) {
    write_ts(out, ev.t);
    match &ev.kind {
        TraceEventKind::QueueSubmit {
            dom,
            req,
            write,
            len,
        } => {
            let rw = if *write { "W" } else { "R" };
            let _ = write!(out, "dom {dom} queue_submit req {req} {rw} {len}B");
        }
        TraceEventKind::QueueMerge { dom, req, len } => {
            let _ = write!(out, "dom {dom} queue_merge req {req} +{len}B");
        }
        TraceEventKind::QueueBlocked { dom, req } => {
            let _ = write!(out, "dom {dom} queue_blocked req {req}");
        }
        TraceEventKind::CongestionQuery { dom, allocated } => {
            let _ = write!(out, "dom {dom} congestion_query allocated={allocated}");
        }
        TraceEventKind::CongestionEnter { dom } => {
            let _ = write!(out, "dom {dom} congestion_enter");
        }
        TraceEventKind::CongestionClear { dom } => {
            let _ = write!(out, "dom {dom} congestion_clear");
        }
        TraceEventKind::BypassGrant { dom } => {
            let _ = write!(out, "dom {dom} bypass_grant");
        }
        TraceEventKind::BypassRevoke { dom, requery } => {
            let _ = write!(out, "dom {dom} bypass_revoke requery={requery}");
        }
        TraceEventKind::DescriptorUnderflow {
            dom,
            dispatched,
            completed,
        } => {
            let _ = write!(
                out,
                "dom {dom} DESCRIPTOR_UNDERFLOW dispatched={dispatched} completed={completed}"
            );
        }
        TraceEventKind::Unplug { dom, batch, forced } => {
            let _ = write!(out, "dom {dom} unplug batch={batch} forced={forced}");
        }
        TraceEventKind::WritebackIssue { dom, pages, remote } => {
            let _ = write!(
                out,
                "dom {dom} writeback_issue pages={pages} remote={remote}"
            );
        }
        TraceEventKind::RingPush { dom, req } => {
            let _ = write!(out, "dom {dom} ring_push req {req}");
        }
        TraceEventKind::BlockComplete { dom, req } => {
            let _ = write!(out, "dom {dom} block_complete req {req}");
        }
        TraceEventKind::DrrVisit { core, dom, credit } => {
            let _ = write!(out, "iocore {core} drr_visit dom {dom} credit={credit}B");
        }
        TraceEventKind::RateLimitDefer { dom, req, delay_us } => {
            let _ = write!(out, "dom {dom} rate_limit_defer req {req} {delay_us}us");
        }
        TraceEventKind::DeviceDispatch {
            req,
            dom,
            write,
            len,
            qdepth,
        } => {
            let rw = if *write { "W" } else { "R" };
            let _ = write!(
                out,
                "device dispatch req {req} dom {dom} {rw} {len}B qdepth={qdepth}"
            );
        }
        TraceEventKind::DeviceComplete {
            req,
            dom,
            latency_us,
        } => {
            let _ = write!(out, "device complete req {req} dom {dom} {latency_us}us");
        }
        TraceEventKind::StoreWrite { dom, path, value } => {
            let _ = write!(out, "dom {dom} store_write {path} = {value}");
        }
        TraceEventKind::StoreDenied { dom, path } => {
            let _ = write!(out, "dom {dom} store_denied {path}");
        }
        TraceEventKind::XenBusDeliver { dom, path, value } => match value {
            Some(v) => {
                let _ = write!(out, "dom {dom} xenbus_deliver {path} = {v}");
            }
            None => {
                let _ = write!(out, "dom {dom} xenbus_deliver {path} (removed)");
            }
        },
        TraceEventKind::XenBusDrop { dom, path, value } => match value {
            Some(v) => {
                let _ = write!(out, "dom {dom} xenbus_drop {path} = {v}");
            }
            None => {
                let _ = write!(out, "dom {dom} xenbus_drop {path} (removed)");
            }
        },
        TraceEventKind::XenBusDup { dom, path, value } => match value {
            Some(v) => {
                let _ = write!(out, "dom {dom} xenbus_dup {path} = {v}");
            }
            None => {
                let _ = write!(out, "dom {dom} xenbus_dup {path} (removed)");
            }
        },
        TraceEventKind::Decision(d) => render_decision(out, d),
    }
}

/// Render the whole timeline, one line per event.
pub fn render_timeline(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        render_event(&mut out, ev);
        out.push('\n');
    }
    out
}

/// Render only the control-plane decision log.
pub fn render_decision_log(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        if let TraceEventKind::Decision(d) = &ev.kind {
            write_ts(&mut out, ev.t);
            render_decision(&mut out, d);
            out.push('\n');
        }
    }
    out
}

// --------------------------------------------------------------------
// Chrome trace-event JSON
// --------------------------------------------------------------------

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

struct ChromeEvent<'a> {
    name: &'static str,
    tid: u32,
    args: Vec<(&'static str, ArgVal<'a>)>,
}

enum ArgVal<'a> {
    U(u64),
    B(bool),
    S(&'a str),
    Owned(String),
}

fn chrome_fields(kind: &TraceEventKind) -> ChromeEvent<'_> {
    use ArgVal::{Owned, B, S, U};
    match kind {
        TraceEventKind::QueueSubmit {
            dom,
            req,
            write,
            len,
        } => ChromeEvent {
            name: "queue_submit",
            tid: *dom,
            args: vec![("req", U(*req)), ("write", B(*write)), ("len", U(*len))],
        },
        TraceEventKind::QueueMerge { dom, req, len } => ChromeEvent {
            name: "queue_merge",
            tid: *dom,
            args: vec![("req", U(*req)), ("len", U(*len))],
        },
        TraceEventKind::QueueBlocked { dom, req } => ChromeEvent {
            name: "queue_blocked",
            tid: *dom,
            args: vec![("req", U(*req))],
        },
        TraceEventKind::CongestionQuery { dom, allocated } => ChromeEvent {
            name: "congestion_query",
            tid: *dom,
            args: vec![("allocated", U(u64::from(*allocated)))],
        },
        TraceEventKind::CongestionEnter { dom } => ChromeEvent {
            name: "congestion_enter",
            tid: *dom,
            args: vec![],
        },
        TraceEventKind::CongestionClear { dom } => ChromeEvent {
            name: "congestion_clear",
            tid: *dom,
            args: vec![],
        },
        TraceEventKind::BypassGrant { dom } => ChromeEvent {
            name: "bypass_grant",
            tid: *dom,
            args: vec![],
        },
        TraceEventKind::BypassRevoke { dom, requery } => ChromeEvent {
            name: "bypass_revoke",
            tid: *dom,
            args: vec![("requery", B(*requery))],
        },
        TraceEventKind::DescriptorUnderflow {
            dom,
            dispatched,
            completed,
        } => ChromeEvent {
            name: "descriptor_underflow",
            tid: *dom,
            args: vec![
                ("dispatched", U(u64::from(*dispatched))),
                ("completed", U(u64::from(*completed))),
            ],
        },
        TraceEventKind::Unplug { dom, batch, forced } => ChromeEvent {
            name: "unplug",
            tid: *dom,
            args: vec![("batch", U(u64::from(*batch))), ("forced", B(*forced))],
        },
        TraceEventKind::WritebackIssue { dom, pages, remote } => ChromeEvent {
            name: "writeback_issue",
            tid: *dom,
            args: vec![("pages", U(*pages)), ("remote", B(*remote))],
        },
        TraceEventKind::RingPush { dom, req } => ChromeEvent {
            name: "ring_push",
            tid: *dom,
            args: vec![("req", U(*req))],
        },
        TraceEventKind::BlockComplete { dom, req } => ChromeEvent {
            name: "block_complete",
            tid: *dom,
            args: vec![("req", U(*req))],
        },
        TraceEventKind::DrrVisit { core, dom, credit } => ChromeEvent {
            name: "drr_visit",
            tid: *dom,
            args: vec![("core", U(u64::from(*core))), ("credit", U(*credit))],
        },
        TraceEventKind::RateLimitDefer { dom, req, delay_us } => ChromeEvent {
            name: "rate_limit_defer",
            tid: *dom,
            args: vec![("req", U(*req)), ("delay_us", U(*delay_us))],
        },
        TraceEventKind::DeviceDispatch {
            req,
            dom,
            write,
            len,
            qdepth,
        } => ChromeEvent {
            name: "device_dispatch",
            tid: *dom,
            args: vec![
                ("req", U(*req)),
                ("write", B(*write)),
                ("len", U(*len)),
                ("qdepth", U(u64::from(*qdepth))),
            ],
        },
        TraceEventKind::DeviceComplete {
            req,
            dom,
            latency_us,
        } => ChromeEvent {
            name: "device_complete",
            tid: *dom,
            args: vec![("req", U(*req)), ("latency_us", U(*latency_us))],
        },
        TraceEventKind::StoreWrite { dom, path, value } => ChromeEvent {
            name: "store_write",
            tid: *dom,
            args: vec![("path", S(path)), ("value", S(value))],
        },
        TraceEventKind::StoreDenied { dom, path } => ChromeEvent {
            name: "store_denied",
            tid: *dom,
            args: vec![("path", S(path))],
        },
        TraceEventKind::XenBusDeliver { dom, path, value } => ChromeEvent {
            name: "xenbus_deliver",
            tid: *dom,
            args: match value {
                Some(v) => vec![("path", S(path)), ("value", S(v))],
                None => vec![("path", S(path)), ("removed", B(true))],
            },
        },
        TraceEventKind::XenBusDrop { dom, path, value } => ChromeEvent {
            name: "xenbus_drop",
            tid: *dom,
            args: match value {
                Some(v) => vec![("path", S(path)), ("value", S(v))],
                None => vec![("path", S(path)), ("removed", B(true))],
            },
        },
        TraceEventKind::XenBusDup { dom, path, value } => ChromeEvent {
            name: "xenbus_dup",
            tid: *dom,
            args: match value {
                Some(v) => vec![("path", S(path)), ("value", S(v))],
                None => vec![("path", S(path)), ("removed", B(true))],
            },
        },
        TraceEventKind::Decision(d) => {
            let mut body = String::new();
            render_decision(&mut body, d);
            let (name, dom) = match d {
                Decision::FlushNow { dom, .. } => ("decision_flush_now", *dom),
                Decision::FlushAck { dom } => ("decision_flush_ack", *dom),
                Decision::FlushTimeout { dom, .. } => ("decision_flush_timeout", *dom),
                Decision::ReleaseGranted { dom, .. } => ("decision_release_granted", *dom),
                Decision::CongestionConfirmed { dom, .. } => {
                    ("decision_congestion_confirmed", *dom)
                }
                Decision::StaggeredWake { dom, .. } => ("decision_staggered_wake", *dom),
                Decision::Quarantine { dom, .. } => ("decision_quarantine", *dom),
                Decision::QuarantineCleared { dom } => ("decision_quarantine_cleared", *dom),
                Decision::WeightPush { dom, .. } => ("decision_weight_push", *dom),
                Decision::PlaneCrash => ("decision_plane_crash", 0),
                Decision::PlaneRecover { .. } => ("decision_plane_recover", 0),
                Decision::StaleCommand { dom, .. } => ("decision_stale_command", *dom),
                Decision::NodeRegistered { node, .. } => ("decision_node_registered", *node),
                Decision::LeaseExpired { node, .. } => ("decision_lease_expired", *node),
                Decision::NodeRejoined { node, .. } => ("decision_node_rejoined", *node),
                Decision::DomainPlaced { dom, .. } => ("decision_domain_placed", *dom),
                Decision::DomainEvicted { dom, .. } => ("decision_domain_evicted", *dom),
                Decision::Failover { dom, .. } => ("decision_failover", *dom),
                Decision::ControllerCrash => ("decision_controller_crash", 0),
                Decision::ControllerRecover { .. } => ("decision_controller_recover", 0),
                Decision::ClusterCmdStale { node, .. } => ("decision_cluster_cmd_stale", *node),
                Decision::ClusterRetry { node, .. } => ("decision_cluster_retry", *node),
            };
            ChromeEvent {
                name,
                tid: dom,
                args: vec![("detail", Owned(body))],
            }
        }
    }
}

/// Export events in Chrome trace-event JSON (array form): load the output
/// in `chrome://tracing` or Perfetto. One instant event per trace event;
/// `tid` is the domain tag. Output is deterministic.
pub fn chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push_str("[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let c = chrome_fields(&ev.kind);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{}.{:03}",
            c.name,
            c.tid,
            ev.t.as_nanos() / 1_000,
            ev.t.as_nanos() % 1_000
        );
        if !c.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in c.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":");
                match v {
                    ArgVal::U(n) => {
                        let _ = write!(out, "{n}");
                    }
                    ArgVal::B(b) => {
                        let _ = write!(out, "{b}");
                    }
                    ArgVal::S(s) => {
                        out.push('"');
                        json_escape(&mut out, s);
                        out.push('"');
                    }
                    ArgVal::Owned(s) => {
                        out.push('"');
                        json_escape(&mut out, s);
                        out.push('"');
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_nanos(ns),
            kind,
        }
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = TraceRecorder::new(2);
        for i in 0..5 {
            r.push(ev(i, TraceEventKind::CongestionEnter { dom: 1 }));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let evs = r.into_events();
        assert_eq!(evs[0].t, SimTime::from_nanos(3));
        assert_eq!(evs[1].t, SimTime::from_nanos(4));
    }

    #[test]
    fn session_captures_through_macro() {
        if !COMPILED {
            return;
        }
        let session = TraceSession::with_capacity(16);
        crate::trace_event!(
            SimTime::from_micros(5),
            TraceEventKind::CongestionEnter { dom: 7 }
        );
        let rec = session.finish();
        assert_eq!(rec.len(), 1);
        assert!(!enabled());
        // After finish, the macro is a no-op again.
        crate::trace_event!(
            SimTime::from_micros(6),
            TraceEventKind::CongestionEnter { dom: 7 }
        );
        assert!(uninstall().is_none());
    }

    #[test]
    fn disabled_macro_records_nothing() {
        fn explode() -> u32 {
            panic!("kind expression must not be evaluated when disabled")
        }
        assert!(!enabled());
        crate::trace_event!(
            SimTime::ZERO,
            TraceEventKind::CongestionEnter { dom: explode() }
        );
    }

    #[test]
    fn tap_observes_without_a_recorder() {
        if !COMPILED {
            return;
        }
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let _guard = TapSession::new(Box::new(move |t, _kind| sink.borrow_mut().push(t)));
        assert!(enabled());
        crate::trace_event!(
            SimTime::from_micros(3),
            TraceEventKind::CongestionEnter { dom: 1 }
        );
        assert_eq!(*seen.borrow(), vec![SimTime::from_micros(3)]);
        // No recorder was installed, so nothing was retained.
        assert!(uninstall().is_none());
        drop(_guard);
        assert!(!enabled());
    }

    #[test]
    fn tap_and_recorder_both_receive_and_ring_is_unchanged_by_tap() {
        if !COMPILED {
            return;
        }
        // Reference run: recorder only.
        let session = TraceSession::with_capacity(16);
        crate::trace_event!(
            SimTime::from_micros(1),
            TraceEventKind::CongestionEnter { dom: 9 }
        );
        let reference = session.finish().into_events();

        // Same events with a tap installed: ring must be byte-identical.
        let count = std::rc::Rc::new(Cell::new(0u32));
        let c2 = std::rc::Rc::clone(&count);
        let guard = TapSession::new(Box::new(move |_, _| c2.set(c2.get() + 1)));
        let session = TraceSession::with_capacity(16);
        crate::trace_event!(
            SimTime::from_micros(1),
            TraceEventKind::CongestionEnter { dom: 9 }
        );
        let tapped = session.finish().into_events();
        drop(guard);
        assert_eq!(reference, tapped);
        assert_eq!(count.get(), 1);
    }

    #[test]
    fn timeline_and_decision_log_render() {
        let evs = vec![
            ev(
                1_500,
                TraceEventKind::QueueSubmit {
                    dom: 3,
                    req: 42,
                    write: true,
                    len: 4096,
                },
            ),
            ev(
                2_000_000,
                TraceEventKind::Decision(Decision::FlushNow {
                    dom: 3,
                    nr_dirty: 9412,
                    candidates: vec![(3, 9412), (5, 2048)],
                }),
            ),
            ev(
                3_000_000,
                TraceEventKind::Decision(Decision::ReleaseGranted {
                    dom: 5,
                    host_qdepth: 0,
                }),
            ),
        ];
        let tl = render_timeline(&evs);
        assert!(tl.contains("dom 3 queue_submit req 42 W 4096B"));
        assert!(tl.contains("flush_now -> dom 3: nr_dirty=9412 candidates={3:9412, 5:2048}"));
        let dl = render_decision_log(&evs);
        assert!(!dl.contains("queue_submit"));
        assert!(dl.contains("release_granted -> dom 5: host qdepth 0"));
        assert_eq!(dl.lines().count(), 2);
    }

    #[test]
    fn chrome_json_is_wellformed_and_deterministic() {
        let evs = vec![
            ev(
                1_500,
                TraceEventKind::StoreWrite {
                    dom: 1,
                    path: Rc::from("/local/domain/1/device/virt-dev/congested"),
                    value: Rc::from("1"),
                },
            ),
            ev(
                9_000,
                TraceEventKind::Decision(Decision::Quarantine {
                    dom: 2,
                    reason: "denied-rate budget",
                }),
            ),
        ];
        let a = chrome_json(&evs);
        let b = chrome_json(&evs);
        assert_eq!(a, b);
        assert!(a.starts_with("[\n"));
        assert!(a.ends_with("\n]\n"));
        assert!(a.contains("\"name\":\"store_write\""));
        assert!(a.contains("\"ts\":1.500"));
        assert!(a.contains("decision quarantine dom 2: denied-rate budget"));
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut s = String::new();
        json_escape(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }
}
