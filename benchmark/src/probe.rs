//! The traced run's instruments, built on the public trace tap
//! (`iorch_simcore::trace::TapSession`) and on nothing inside the program.
//!
//! * **Host self time per layer.** Each tap event is a mark at a layer
//!   boundary. The host time of a callback is split at its marks, and each
//!   interval is charged to the layer of the mark that ends it. Time after
//!   the last mark, and callbacks without marks, are `inline`: workload
//!   code, the guest VFS/page-cache hit path and the CPU model. The
//!   step loop's call to `peek_next_time` is timed and charged to
//!   `simcore.peek`; the tap's own bookkeeping is charged to `trace`, so
//!   every nanosecond of the step loop lands in exactly one bucket. The
//!   rest of the scheduler's work (popping the event, cascading coarse
//!   wheel slots, inserts made by callbacks) runs inside `step` and lands
//!   in whichever bucket the surrounding interval is charged to.
//! * **Counts** at the same marks, for the measured span only.
//! * **Request ledger.** Requests are keyed by `(domain, request id)`:
//!   every `QueueSubmit` must reach exactly one `BlockComplete` unless its
//!   domain was destroyed. The same ledger gives the simulated waits
//!   between hops.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use iorch_metrics::LatencyHistogram;
use iorch_simcore::trace::{Decision, TapSession, TraceEventKind};
use iorch_simcore::SimTime;

/// Layers in report order. `inline`, `simcore.peek` and `trace` have no
/// tap events of their own (see the module docs).
pub const LAYERS: [&str; 9] = [
    "inline",
    "simcore.peek",
    "guestos.block",
    "hypervisor.ring",
    "hypervisor.iocore",
    "storage",
    "hypervisor.store",
    "core.policy",
    "trace",
];
pub const INLINE: usize = 0;
pub const SIMCORE_PEEK: usize = 1;
const BLOCK: usize = 2;
const RING: usize = 3;
const IOCORE: usize = 4;
const STORAGE: usize = 5;
const STORE: usize = 6;
const POLICY: usize = 7;
const TRACE: usize = 8;

/// The layer whose code emits `kind`.
fn layer_of(kind: &TraceEventKind) -> usize {
    use TraceEventKind as K;
    match kind {
        K::QueueSubmit { .. }
        | K::QueueMerge { .. }
        | K::QueueBlocked { .. }
        | K::CongestionQuery { .. }
        | K::CongestionEnter { .. }
        | K::CongestionClear { .. }
        | K::BypassGrant { .. }
        | K::BypassRevoke { .. }
        | K::DescriptorUnderflow { .. }
        | K::Unplug { .. }
        | K::WritebackIssue { .. } => BLOCK,
        K::RingPush { .. } | K::BlockComplete { .. } | K::RateLimitDefer { .. } => RING,
        K::DrrVisit { .. } => IOCORE,
        K::DeviceDispatch { .. } | K::DeviceComplete { .. } => STORAGE,
        K::StoreWrite { .. }
        | K::StoreDenied { .. }
        | K::XenBusDeliver { .. }
        | K::XenBusDrop { .. }
        | K::XenBusDup { .. } => STORE,
        K::Decision(_) => POLICY,
    }
}

/// Tap-event counts over the measured span.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    pub submits: u64,
    pub merges: u64,
    pub unplugs: u64,
    pub writeback_pages: u64,
    pub pushes: u64,
    pub completions: u64,
    pub visits: u64,
    pub deliveries: u64,
    pub decisions: u64,
    pub flush_now: u64,
}

/// Simulated times of one request's hops.
#[derive(Clone, Copy)]
struct Hops {
    submit: SimTime,
    push: Option<SimTime>,
    dispatch: Option<SimTime>,
    device_done: Option<SimTime>,
}

/// Simulated waits between hops, for requests completing in the span.
#[derive(Default)]
pub struct Waits {
    /// `QueueSubmit` to `RingPush`: plugging and congestion sleep.
    pub block: LatencyHistogram,
    /// `RingPush` to `DeviceDispatch`: I/O-core queue and copy, then the
    /// host queue.
    pub iocore: LatencyHistogram,
    /// `DeviceDispatch` to `DeviceComplete`: device service.
    pub service: LatencyHistogram,
    /// `DeviceComplete` to `BlockComplete`: completion delivery.
    pub complete: LatencyHistogram,
}

/// Everything the tap accumulates.
struct Probe {
    /// Attribute host time and count events (the measured span only).
    measuring: bool,
    last_mark: Instant,
    self_time: [Duration; LAYERS.len()],
    counts: Counts,
    waits: Waits,
    outstanding: HashMap<(u32, u64), Hops>,
    /// Ledger violations, in the order seen (first few kept verbatim).
    violations: Vec<String>,
    violation_count: u64,
}

/// What a finished traced run hands back.
pub struct ProbeReport {
    pub self_time: [Duration; LAYERS.len()],
    pub counts: Counts,
    pub waits: Waits,
    pub violations: Vec<String>,
    pub violation_count: u64,
    /// Requests of destroyed domains that never completed.
    pub drained: u64,
}

impl Probe {
    fn violation(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < 8 {
            self.violations.push(msg);
        }
    }

    fn observe(&mut self, t: SimTime, kind: &TraceEventKind) {
        use TraceEventKind as K;
        let m = self.measuring;
        let c = &mut self.counts;
        match *kind {
            K::QueueSubmit { dom, req, .. } => {
                c.submits += m as u64;
                let hops = Hops {
                    submit: t,
                    push: None,
                    dispatch: None,
                    device_done: None,
                };
                if self.outstanding.insert((dom, req), hops).is_some() {
                    self.violation(format!("dom {dom} req {req} submitted twice"));
                }
            }
            K::QueueMerge { .. } => c.merges += m as u64,
            K::Unplug { .. } => c.unplugs += m as u64,
            K::WritebackIssue { pages, .. } => c.writeback_pages += if m { pages } else { 0 },
            K::DrrVisit { .. } => c.visits += m as u64,
            K::XenBusDeliver { .. } => c.deliveries += m as u64,
            K::Decision(ref d) => {
                c.decisions += m as u64;
                c.flush_now += (m && matches!(d, Decision::FlushNow { .. })) as u64;
            }
            K::DescriptorUnderflow { dom, .. } => {
                self.violation(format!("dom {dom} descriptor underflow"));
            }
            K::RingPush { dom, req } => {
                c.pushes += m as u64;
                match self.outstanding.get_mut(&(dom, req)) {
                    Some(h) => h.push = Some(t),
                    None => self.violation(format!("dom {dom} req {req} pushed unsubmitted")),
                }
            }
            K::DeviceDispatch { dom, req, .. } => {
                if let Some(h) = self.outstanding.get_mut(&(dom, req)) {
                    h.dispatch = Some(t);
                }
            }
            K::DeviceComplete { dom, req, .. } => {
                if let Some(h) = self.outstanding.get_mut(&(dom, req)) {
                    h.device_done = Some(t);
                }
            }
            K::BlockComplete { dom, req } => {
                c.completions += m as u64;
                match self.outstanding.remove(&(dom, req)) {
                    Some(h) if m => self.record_waits(&h, t),
                    Some(_) => {}
                    None => {
                        self.violation(format!("dom {dom} req {req} completed but not outstanding"))
                    }
                }
            }
            _ => {}
        }
    }

    fn record_waits(&mut self, h: &Hops, done: SimTime) {
        let w = &mut self.waits;
        if let Some(push) = h.push {
            w.block.record(push.saturating_since(h.submit));
            if let Some(dispatch) = h.dispatch {
                w.iocore.record(dispatch.saturating_since(push));
                if let Some(dev) = h.device_done {
                    w.service.record(dev.saturating_since(dispatch));
                    w.complete.record(done.saturating_since(dev));
                }
            }
        }
    }
}

/// A shared probe plus the installed tap; dropping it removes the tap.
pub struct Tracer {
    probe: Rc<RefCell<Probe>>,
    _tap: TapSession,
}

impl Tracer {
    /// Install the tap on this thread. The ledger runs from here on;
    /// timing and counting wait for [`Tracer::set_measuring`].
    pub fn install() -> Tracer {
        let probe = Rc::new(RefCell::new(Probe {
            measuring: false,
            last_mark: Instant::now(),
            self_time: [Duration::ZERO; LAYERS.len()],
            counts: Counts::default(),
            waits: Waits::default(),
            outstanding: HashMap::new(),
            violations: Vec::new(),
            violation_count: 0,
        }));
        let p = Rc::clone(&probe);
        let tap = TapSession::new(Box::new(move |t, kind| {
            let mark = Instant::now();
            let mut p = p.borrow_mut();
            if p.measuring {
                let since = mark - p.last_mark;
                p.self_time[layer_of(kind)] += since;
            }
            p.observe(t, kind);
            if p.measuring {
                let end = Instant::now();
                p.self_time[TRACE] += end - mark;
                p.last_mark = end;
            }
        }));
        Tracer { probe, _tap: tap }
    }

    pub fn set_measuring(&self, on: bool) {
        self.probe.borrow_mut().measuring = on;
    }

    /// Charge host time to a layer that has no tap events.
    pub fn charge(&self, layer: usize, d: Duration) {
        self.probe.borrow_mut().self_time[layer] += d;
    }

    /// Start a step: the next mark's interval begins now.
    pub fn begin_step(&self, at: Instant) {
        self.probe.borrow_mut().last_mark = at;
    }

    /// End a step: time since the last mark is inline work.
    pub fn end_step(&self, at: Instant) {
        let mut p = self.probe.borrow_mut();
        let since = at - p.last_mark;
        p.self_time[INLINE] += since;
    }

    /// Remove the tap and close the ledger. Outstanding requests of a
    /// `destroyed` domain count as drained; any other is a violation.
    pub fn finish(self, destroyed: &[u32]) -> ProbeReport {
        let Tracer { probe, _tap } = self;
        drop(_tap);
        let mut p = Rc::try_unwrap(probe)
            .ok()
            .expect("tap removed, probe unshared")
            .into_inner();
        let mut left: Vec<(u32, u64)> = p.outstanding.keys().copied().collect();
        left.sort_unstable();
        let mut drained = 0;
        for (dom, req) in left {
            if destroyed.contains(&dom) {
                drained += 1;
            } else {
                p.violation(format!("dom {dom} req {req} still outstanding after drain"));
            }
        }
        ProbeReport {
            self_time: p.self_time,
            counts: p.counts,
            waits: p.waits,
            violations: p.violations,
            violation_count: p.violation_count,
            drained,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iorch_simcore::trace::record;

    fn submit(dom: u32, req: u64) -> TraceEventKind {
        TraceEventKind::QueueSubmit {
            dom,
            req,
            write: false,
            len: 4096,
        }
    }

    #[test]
    fn ledger_flags_orphan_double_and_lost_requests() {
        let tracer = Tracer::install();
        let t = SimTime::from_micros(1);
        let done = |dom, req| TraceEventKind::BlockComplete { dom, req };
        record(t, submit(1, 1));
        record(t, done(1, 1));
        record(t, done(1, 1)); // completed twice
        record(t, done(1, 2)); // never submitted
        record(t, submit(2, 1)); // same id on another domain: fine
        record(t, done(2, 1));
        record(t, submit(3, 1)); // lost on a live domain
        record(t, submit(4, 1)); // drained by destroying domain 4
        let report = tracer.finish(&[4]);
        assert_eq!(report.violation_count, 3, "{:?}", report.violations);
        assert_eq!(report.drained, 1);
    }
}
