//! Guest block-layer request queue with Linux's congestion-avoidance state
//! machine and plug/unplug batching.
//!
//! Linux holds `nr_requests` (128) request descriptors per queue. When the
//! allocated count reaches **7/8** of the limit the queue is marked
//! congested and submitting processes are put to sleep; when it drops below
//! **13/16** the congestion flag clears and sleepers are woken (paper §3.2).
//! Under IOrchestra the guest first *asks the host* whether the device is
//! actually congested; if not, the queue is unplugged/flushed and submission
//! continues (`release_request`), avoiding the falsely-triggered sleep.

use std::collections::{vec_deque, VecDeque};

use iorch_simcore::trace::TraceEventKind;
use iorch_simcore::{trace_event, SimDuration, SimTime};
use iorch_storage::{IoKind, IoRequest};

/// Linux default queue depth.
pub const NR_REQUESTS: usize = 128;

/// Congestion ON at `7/8 * nr_requests` allocated descriptors.
#[inline]
pub fn congestion_on_threshold(nr_requests: usize) -> usize {
    nr_requests * 7 / 8
}

/// Congestion OFF below `13/16 * nr_requests` allocated descriptors.
#[inline]
pub fn congestion_off_threshold(nr_requests: usize) -> usize {
    nr_requests * 13 / 16
}

/// Tunables for the guest queue.
#[derive(Clone, Copy, Debug)]
pub struct GuestQueueParams {
    /// Request descriptor limit (`nr_requests`).
    pub nr_requests: usize,
    /// Dispatch when this many requests are plugged.
    pub plug_max: usize,
    /// ... or when the oldest plugged request is this old.
    pub plug_delay: SimDuration,
    /// Hard ceiling on allocation while the collaborative bypass is active.
    pub bypass_hard_limit: usize,
    /// Delay between the congestion flag clearing and blocked submitters
    /// actually resuming (context switch + VCPU scheduling of the woken
    /// process — the sleep cost §3.2 attributes to congestion avoidance).
    pub wake_delay: SimDuration,
}

impl Default for GuestQueueParams {
    fn default() -> Self {
        GuestQueueParams {
            nr_requests: NR_REQUESTS,
            plug_max: 16,
            plug_delay: SimDuration::from_millis(3),
            bypass_hard_limit: NR_REQUESTS * 4,
            wake_delay: SimDuration::from_millis(1),
        }
    }
}

/// Result of a submission attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Submit {
    /// Request accepted into the queue.
    Accepted,
    /// Queue congested: the submitting process must sleep.
    Blocked,
}

/// Edge-triggered events the kernel consumes after each queue interaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueEvent {
    /// Allocation crossed the 7/8 threshold; the congestion-avoidance
    /// function is being called. Baseline: enter congestion. IOrchestra:
    /// ask the host first.
    CongestionWouldEnter,
    /// Allocation fell below 13/16; sleepers may be woken.
    Uncongested,
}

/// The guest request queue.
#[derive(Clone, Debug)]
pub struct GuestQueue {
    params: GuestQueueParams,
    /// Plugged/queued requests not yet pushed to the frontend ring.
    queued: VecDeque<IoRequest>,
    /// Descriptors owned by requests dispatched to the ring but not completed.
    dispatched: usize,
    congested: bool,
    /// Collaborative bypass: ignore the descriptor limit until allocation
    /// falls below the off threshold again.
    bypass: bool,
    /// Latch: a [`QueueEvent::CongestionWouldEnter`] has been raised and
    /// not yet answered (`enter_congestion`/`grant_bypass`) nor voided by
    /// allocation dropping below the off threshold. Prevents duplicate
    /// host queries per plug batch.
    query_outstanding: bool,
    plug_deadline: Option<SimTime>,
    events: Vec<QueueEvent>,
    /// Domain tag stamped on trace events (the guest's stream id).
    tag: u32,
    // Statistics.
    congestion_entries: u64,
    bypass_grants: u64,
}

impl GuestQueue {
    /// New empty queue.
    pub fn new(params: GuestQueueParams) -> Self {
        assert!(params.nr_requests >= 16);
        GuestQueue {
            params,
            queued: VecDeque::new(),
            dispatched: 0,
            congested: false,
            bypass: false,
            query_outstanding: false,
            plug_deadline: None,
            events: Vec::new(),
            congestion_entries: 0,
            bypass_grants: 0,
            tag: 0,
        }
    }

    /// Set the domain tag stamped on this queue's trace events.
    pub fn set_trace_tag(&mut self, tag: u32) {
        self.tag = tag;
    }

    /// Allocated descriptors: plugged + dispatched-not-completed.
    pub fn allocated(&self) -> usize {
        self.queued.len() + self.dispatched
    }

    /// Whether the congestion flag is set (submitters sleep).
    pub fn is_congested(&self) -> bool {
        self.congested
    }

    /// Whether the collaborative bypass is active.
    pub fn bypass_active(&self) -> bool {
        self.bypass
    }

    /// Times the congestion flag was set.
    pub fn congestion_entries(&self) -> u64 {
        self.congestion_entries
    }

    /// Times a collaborative bypass was granted.
    pub fn bypass_grants(&self) -> u64 {
        self.bypass_grants
    }

    /// Nothing plugged and no undrained events.
    pub fn is_idle(&self) -> bool {
        self.queued.is_empty() && self.events.is_empty()
    }

    /// Drain edge-triggered events (the queue keeps its buffer).
    pub fn poll_events(&mut self) -> std::vec::Drain<'_, QueueEvent> {
        self.events.drain(..)
    }

    /// Try to submit a request at `now`.
    ///
    /// The queue never merges requests: the kernel coalesces adjacent
    /// chunks before submission, and each request keeps its id so
    /// completions match exactly.
    pub fn submit(&mut self, req: IoRequest, now: SimTime) -> Submit {
        if self.congested {
            trace_event!(
                now,
                TraceEventKind::QueueBlocked {
                    dom: self.tag,
                    req: req.id.0,
                }
            );
            return Submit::Blocked;
        }
        if self.bypass && self.allocated() >= self.params.bypass_hard_limit {
            // Even collaboration has a ceiling; fall back to blocking.
            trace_event!(
                now,
                TraceEventKind::QueueBlocked {
                    dom: self.tag,
                    req: req.id.0,
                }
            );
            return Submit::Blocked;
        }
        if self.queued.is_empty() {
            self.plug_deadline = Some(now + self.params.plug_delay);
        }
        trace_event!(
            now,
            TraceEventKind::QueueSubmit {
                dom: self.tag,
                req: req.id.0,
                write: matches!(req.kind, IoKind::Write),
                len: req.len,
            }
        );
        self.queued.push_back(req);
        let on = congestion_on_threshold(self.params.nr_requests);
        if !self.bypass && !self.congested && !self.query_outstanding && self.allocated() >= on {
            // Latch until answered or allocation falls below the off
            // threshold: one unanswered query at a time.
            self.query_outstanding = true;
            self.events.push(QueueEvent::CongestionWouldEnter);
            trace_event!(
                now,
                TraceEventKind::CongestionQuery {
                    dom: self.tag,
                    allocated: self.allocated() as u32,
                }
            );
        }
        Submit::Accepted
    }

    /// Baseline answer to [`QueueEvent::CongestionWouldEnter`]: set the
    /// congestion flag; submitters sleep until the off threshold.
    pub fn enter_congestion(&mut self, now: SimTime) {
        // The outstanding query is answered either way.
        self.query_outstanding = false;
        if !self.congested {
            self.congested = true;
            self.congestion_entries += 1;
            trace_event!(now, TraceEventKind::CongestionEnter { dom: self.tag });
        }
    }

    /// Collaborative answer: the host is *not* congested, so unplug and
    /// keep the pipe full instead of sleeping (`release_request`). Clears
    /// an active congestion flag and wakes sleepers — the paper's "notify
    /// VMi to flush devj's request queue; congested = 0".
    pub fn grant_bypass(&mut self, now: SimTime) {
        self.query_outstanding = false;
        if self.congested {
            self.congested = false;
            self.events.push(QueueEvent::Uncongested);
            trace_event!(now, TraceEventKind::CongestionClear { dom: self.tag });
        }
        if !self.bypass {
            self.bypass = true;
            self.bypass_grants += 1;
            trace_event!(now, TraceEventKind::BypassGrant { dom: self.tag });
        }
        // An explicit unplug comes with the release.
        self.plug_deadline = Some(SimTime::ZERO);
    }

    /// The host *became* congested while a bypass was active; revert to
    /// normal congestion behaviour. If allocation still sits at/above the
    /// on threshold the congestion-avoidance query is re-raised — without
    /// it a full queue would neither sleep nor re-query until the next
    /// submission.
    pub fn revoke_bypass(&mut self, now: SimTime) {
        let was_active = self.bypass;
        self.bypass = false;
        let on = congestion_on_threshold(self.params.nr_requests);
        let requery = !self.congested && !self.query_outstanding && self.allocated() >= on;
        if requery {
            self.query_outstanding = true;
            self.events.push(QueueEvent::CongestionWouldEnter);
        }
        if was_active {
            trace_event!(
                now,
                TraceEventKind::BypassRevoke {
                    dom: self.tag,
                    requery,
                }
            );
        }
    }

    /// Earliest plug deadline, for the kernel's timer scheduling.
    pub fn plug_deadline(&self) -> Option<SimTime> {
        if self.queued.is_empty() {
            None
        } else {
            self.plug_deadline
        }
    }

    /// Pop requests that should go to the frontend ring now: everything if
    /// unplugged (deadline passed, batch full, bypass, or explicit sync).
    /// The requests count as dispatched even if the drain is dropped
    /// unconsumed.
    pub fn take_dispatchable(
        &mut self,
        now: SimTime,
        force_unplug: bool,
    ) -> vec_deque::Drain<'_, IoRequest> {
        let unplug = force_unplug
            || self.bypass
            || self.queued.len() >= self.params.plug_max
            || self.plug_deadline.is_some_and(|d| now >= d);
        if !unplug {
            return self.queued.drain(0..0);
        }
        let n = self.queued.len();
        if n > 0 {
            trace_event!(
                now,
                TraceEventKind::Unplug {
                    dom: self.tag,
                    batch: n as u32,
                    forced: force_unplug,
                }
            );
        }
        self.dispatched += n;
        self.plug_deadline = None;
        self.queued.drain(..)
    }

    /// A dispatched request completed; frees its descriptor and may clear
    /// congestion / bypass.
    ///
    /// # Panics
    ///
    /// Freeing more descriptors than are dispatched (a double completion)
    /// is a simulator invariant violation and aborts the run — in every
    /// build profile, after recording a
    /// [`TraceEventKind::DescriptorUnderflow`] event.
    pub fn on_complete(&mut self, n: usize, now: SimTime) {
        if n > self.dispatched {
            trace_event!(
                now,
                TraceEventKind::DescriptorUnderflow {
                    dom: self.tag,
                    dispatched: self.dispatched as u32,
                    completed: n as u32,
                }
            );
            panic!(
                "descriptor underflow on dom {}: completed {} with {} dispatched \
                 (double completion)",
                self.tag, n, self.dispatched
            );
        }
        self.dispatched -= n;
        let off = congestion_off_threshold(self.params.nr_requests);
        if self.allocated() < off {
            // Any unanswered congestion query is void below the off
            // threshold — the condition it asked about no longer holds.
            self.query_outstanding = false;
            if self.congested {
                self.congested = false;
                self.events.push(QueueEvent::Uncongested);
                trace_event!(now, TraceEventKind::CongestionClear { dom: self.tag });
            }
            if self.bypass {
                self.bypass = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iorch_storage::{IoKind, RequestId, StreamId};

    fn req(id: u64, offset: u64) -> IoRequest {
        IoRequest {
            id: RequestId(id),
            kind: IoKind::Read,
            stream: StreamId(0),
            offset,
            len: 4096,
            submitted: SimTime::ZERO,
        }
    }

    fn events(q: &mut GuestQueue) -> Vec<QueueEvent> {
        q.poll_events().collect()
    }

    fn fill(q: &mut GuestQueue, n: usize, start_id: u64) {
        for i in 0..n {
            let r = req(start_id + i as u64, (start_id + i as u64) * 1_000_000);
            assert_eq!(q.submit(r, SimTime::ZERO), Submit::Accepted);
            // Keep the plug list drained so descriptors count as dispatched.
            q.take_dispatchable(SimTime::ZERO, true);
        }
    }

    #[test]
    fn thresholds_match_linux_ratios() {
        assert_eq!(congestion_on_threshold(128), 112);
        assert_eq!(congestion_off_threshold(128), 104);
    }

    #[test]
    fn crossing_on_threshold_emits_event() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        fill(&mut q, 111, 0);
        assert!(events(&mut q).is_empty());
        assert_eq!(
            q.submit(req(200, 500 << 20), SimTime::ZERO),
            Submit::Accepted
        );
        assert_eq!(events(&mut q), vec![QueueEvent::CongestionWouldEnter]);
    }

    #[test]
    fn baseline_congestion_blocks_then_uncongests() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        fill(&mut q, 112, 0);
        q.poll_events();
        q.enter_congestion(SimTime::ZERO);
        assert!(q.is_congested());
        assert_eq!(
            q.submit(req(300, 600 << 20), SimTime::ZERO),
            Submit::Blocked
        );
        // Complete down to 104 allocated: still congested (off is *below* 104).
        q.on_complete(8, SimTime::ZERO);
        assert!(q.is_congested());
        // One more completion: 103 < 104 -> uncongested.
        q.on_complete(1, SimTime::ZERO);
        assert!(!q.is_congested());
        assert_eq!(events(&mut q), vec![QueueEvent::Uncongested]);
        assert_eq!(
            q.submit(req(301, 700 << 20), SimTime::ZERO),
            Submit::Accepted
        );
        assert_eq!(q.congestion_entries(), 1);
    }

    #[test]
    fn bypass_keeps_accepting_past_limit() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        fill(&mut q, 112, 0);
        q.poll_events();
        q.grant_bypass(SimTime::ZERO);
        assert!(q.bypass_active());
        // Can now go far past nr_requests without blocking or re-signalling.
        for i in 0..100 {
            assert_eq!(
                q.submit(req(400 + i, (400 + i) * 1_000_000), SimTime::ZERO),
                Submit::Accepted
            );
            q.take_dispatchable(SimTime::ZERO, true);
        }
        assert!(events(&mut q).is_empty());
        assert_eq!(q.bypass_grants(), 1);
    }

    #[test]
    fn bypass_hard_limit_still_blocks() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        fill(&mut q, 112, 0);
        q.grant_bypass(SimTime::ZERO);
        fill(&mut q, 512 - 112, 1000);
        assert_eq!(
            q.submit(req(9999, 999 << 20), SimTime::ZERO),
            Submit::Blocked
        );
    }

    #[test]
    fn bypass_clears_below_off_threshold() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        fill(&mut q, 120, 0);
        q.grant_bypass(SimTime::ZERO);
        q.on_complete(20, SimTime::ZERO); // 100 < 104
        assert!(!q.bypass_active());
    }

    #[test]
    fn congestion_query_latched_until_answered() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        fill(&mut q, 112, 0);
        assert_eq!(events(&mut q), vec![QueueEvent::CongestionWouldEnter]);
        // Further submissions at/above the threshold must NOT re-raise the
        // query while it is unanswered (the old code duplicated it per
        // plug-batch submission).
        fill(&mut q, 3, 500);
        assert!(events(&mut q).is_empty());
        // Answering re-arms the latch...
        q.enter_congestion(SimTime::ZERO);
        q.on_complete(12, SimTime::ZERO); // 103 < 104: uncongest + re-arm
        assert_eq!(events(&mut q), vec![QueueEvent::Uncongested]);
        // ...so crossing the threshold again raises exactly one new query.
        fill(&mut q, 9, 600);
        assert_eq!(events(&mut q), vec![QueueEvent::CongestionWouldEnter]);
    }

    #[test]
    fn query_voided_by_falling_below_off_threshold() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        fill(&mut q, 112, 0);
        q.poll_events();
        // Unanswered query, then the queue drains below 13/16 on its own.
        q.on_complete(9, SimTime::ZERO); // 103 < 104
                                         // A fresh crossing must produce a fresh query.
        fill(&mut q, 9, 700);
        assert_eq!(events(&mut q), vec![QueueEvent::CongestionWouldEnter]);
    }

    #[test]
    fn revoke_bypass_requeries_when_still_full() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        fill(&mut q, 112, 0);
        q.poll_events();
        q.grant_bypass(SimTime::ZERO);
        fill(&mut q, 30, 800); // well past the on threshold, bypassing
        assert!(events(&mut q).is_empty());
        q.revoke_bypass(SimTime::ZERO);
        assert!(!q.bypass_active());
        // Allocation (142) >= on (112): the query must be re-raised.
        assert_eq!(events(&mut q), vec![QueueEvent::CongestionWouldEnter]);
        // And latched: revoking again does not duplicate it.
        q.revoke_bypass(SimTime::ZERO);
        assert!(events(&mut q).is_empty());
    }

    #[test]
    fn revoke_bypass_quiet_when_below_threshold() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        fill(&mut q, 50, 0);
        q.grant_bypass(SimTime::ZERO);
        q.poll_events();
        q.revoke_bypass(SimTime::ZERO);
        assert!(events(&mut q).is_empty());
    }

    #[test]
    #[should_panic(expected = "descriptor underflow")]
    fn double_completion_is_a_hard_error() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        fill(&mut q, 4, 0);
        q.on_complete(5, SimTime::ZERO);
    }

    #[test]
    fn plugging_batches_until_deadline() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        q.submit(req(0, 0), SimTime::ZERO);
        q.submit(req(1, 10 << 20), SimTime::ZERO);
        // Too early, not enough requests.
        assert_eq!(q.take_dispatchable(SimTime::from_millis(1), false).len(), 0);
        // Deadline (3 ms) reached.
        assert_eq!(q.take_dispatchable(SimTime::from_millis(3), false).len(), 2);
        assert_eq!(q.allocated(), 2); // now dispatched
    }

    #[test]
    fn plug_bursts_dispatch_at_batch_size() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        for i in 0..16 {
            q.submit(req(i, i * 1_000_000), SimTime::ZERO);
        }
        assert_eq!(q.take_dispatchable(SimTime::ZERO, false).len(), 16);
    }

    #[test]
    fn plug_deadline_reported_for_timer() {
        let mut q = GuestQueue::new(GuestQueueParams::default());
        assert!(q.plug_deadline().is_none());
        q.submit(req(0, 0), SimTime::from_millis(10));
        assert_eq!(q.plug_deadline(), Some(SimTime::from_millis(13)));
        q.take_dispatchable(SimTime::from_millis(13), false);
        assert!(q.plug_deadline().is_none());
    }
}
