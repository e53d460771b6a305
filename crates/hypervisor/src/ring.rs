//! Frontend/backend shared ring.
//!
//! Paravirtual block I/O travels from the guest's frontend driver to the
//! host's backend through a shared ring with doorbell (event-channel)
//! notifications. The ring batches naturally: the first request in an
//! empty ring rings the doorbell; the backend then drains the whole batch.

use std::collections::VecDeque;

use iorch_simcore::SimTime;
use iorch_storage::IoRequest;

/// Outcome of pushing into the ring.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RingPush {
    /// Pushed; the backend is already aware (no doorbell needed).
    Queued,
    /// Pushed and the doorbell must be rung (backend was idle).
    NeedDoorbell,
    /// Ring full; the frontend must retry after completions.
    Full,
}

/// A one-direction request ring.
#[derive(Clone, Debug)]
pub struct Ring {
    q: VecDeque<(IoRequest, SimTime)>,
    capacity: usize,
    backend_active: bool,
    doorbells: u64,
    pushed: u64,
}

impl Ring {
    /// Ring with a given slot capacity (Xen blkfront uses 32–256; we default
    /// higher because the guest queue is the real throttle).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Ring {
            q: VecDeque::new(),
            capacity,
            backend_active: false,
            doorbells: 0,
            pushed: 0,
        }
    }

    /// Requests waiting in the ring.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Doorbells rung so far (notification count — the cost SDC removes).
    pub fn doorbell_count(&self) -> u64 {
        self.doorbells
    }

    /// Total requests pushed.
    pub fn pushed_count(&self) -> u64 {
        self.pushed
    }

    /// Push a request at `now`.
    pub fn push(&mut self, req: IoRequest, now: SimTime) -> RingPush {
        if self.q.len() >= self.capacity {
            return RingPush::Full;
        }
        self.q.push_back((req, now));
        self.pushed += 1;
        if self.backend_active {
            RingPush::Queued
        } else {
            self.backend_active = true;
            self.doorbells += 1;
            RingPush::NeedDoorbell
        }
    }

    /// Backend drains up to `max` requests, with their push times, into
    /// `out`. When the ring empties the backend goes back to sleep (the
    /// next push needs a doorbell).
    pub fn drain(&mut self, max: usize, out: &mut Vec<(IoRequest, SimTime)>) {
        let n = max.min(self.q.len());
        out.extend(self.q.drain(..n));
        if self.q.is_empty() {
            self.backend_active = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iorch_storage::{IoKind, RequestId, StreamId};

    fn req(id: u64) -> IoRequest {
        IoRequest {
            id: RequestId(id),
            kind: IoKind::Read,
            stream: StreamId(0),
            offset: 0,
            len: 4096,
            submitted: SimTime::ZERO,
        }
    }

    #[test]
    fn first_push_rings_doorbell() {
        let mut r = Ring::new(8);
        assert_eq!(r.push(req(0), SimTime::ZERO), RingPush::NeedDoorbell);
        assert_eq!(r.push(req(1), SimTime::ZERO), RingPush::Queued);
        assert_eq!(r.doorbell_count(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn drain_batches_and_resets_doorbell() {
        let mut r = Ring::new(8);
        r.push(req(0), SimTime::ZERO);
        r.push(req(1), SimTime::ZERO);
        let mut batch = Vec::new();
        r.drain(10, &mut batch);
        assert_eq!(batch.len(), 2);
        assert!(r.is_empty());
        // Backend slept again: next push needs a new doorbell.
        assert_eq!(r.push(req(2), SimTime::ZERO), RingPush::NeedDoorbell);
        assert_eq!(r.doorbell_count(), 2);
    }

    #[test]
    fn partial_drain_keeps_backend_active() {
        let mut r = Ring::new(8);
        for i in 0..4 {
            r.push(req(i), SimTime::ZERO);
        }
        let mut batch = Vec::new();
        r.drain(2, &mut batch);
        assert_eq!(batch.len(), 2);
        // Still active: pushes stay silent.
        assert_eq!(r.push(req(9), SimTime::ZERO), RingPush::Queued);
    }

    #[test]
    fn full_ring_rejects() {
        let mut r = Ring::new(2);
        r.push(req(0), SimTime::ZERO);
        r.push(req(1), SimTime::ZERO);
        assert_eq!(r.push(req(2), SimTime::ZERO), RingPush::Full);
        assert_eq!(r.pushed_count(), 2);
    }
}
