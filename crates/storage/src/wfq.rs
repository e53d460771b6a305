//! Weighted fair queueing across streams — the stand-in for Linux cgroup
//! blkio proportional weights, which IOrchestra's co-scheduler programs
//! with per-I/O-core shares (paper §3.3).
//!
//! Start-time fair queueing with virtual time: each stream's backlog is
//! served in proportion to its weight over any busy interval.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use iorch_simcore::IdMap;

use crate::request::{IoRequest, StreamId};

/// Default weight for streams that never had one assigned (Linux blkio
/// default is 100 in a 10..1000 range).
pub const DEFAULT_WEIGHT: u32 = 100;

#[derive(Clone, Debug)]
struct Entry {
    req: IoRequest,
    finish_tag: f64,
}

/// A backlogged stream: its FIFO and the finish tag of its newest
/// request. It exists only while the FIFO is non-empty. When the last
/// request leaves, that tag is at most the virtual time, so a later
/// request starts at the virtual time whether or not the record is kept.
#[derive(Clone, Debug)]
struct Backlog {
    fifo: VecDeque<Entry>,
    last_finish: f64,
}

/// A weighted fair queue of block requests.
///
/// Dequeue pops a min-heap holding one `(head finish tag, stream)` key per
/// backlogged stream. Tags are finite and non-negative, so their bit
/// patterns order like the values, and equal tags go to the lowest
/// stream id.
#[derive(Clone, Debug, Default)]
pub struct WfqQueue {
    backlogs: IdMap<StreamId, Backlog>,
    heads: BinaryHeap<Reverse<(u64, StreamId)>>,
    weights: IdMap<StreamId, u32>,
    /// Emptied FIFOs, reused by streams that become backlogged.
    spare: Vec<VecDeque<Entry>>,
    virtual_time: f64,
    len: usize,
}

impl WfqQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a stream's weight (clamped to 1..=10_000). Takes effect for
    /// requests enqueued afterwards.
    pub fn set_weight(&mut self, stream: StreamId, weight: u32) {
        self.weights.insert(stream, weight.clamp(1, 10_000));
    }

    /// Current weight for a stream.
    pub fn weight(&self, stream: StreamId) -> u32 {
        self.weights.get(&stream).copied().unwrap_or(DEFAULT_WEIGHT)
    }

    /// Total queued requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued requests for one stream.
    pub fn stream_len(&self, stream: StreamId) -> usize {
        self.backlogs.get(&stream).map_or(0, |b| b.fifo.len())
    }

    /// Per-stream entries held: `[weights, backlogged streams]`.
    /// [`WfqQueue::drain_stream`] frees both for its stream.
    pub fn stream_entries(&self) -> [usize; 2] {
        [self.weights.len(), self.backlogs.len()]
    }

    /// Enqueue a request under its stream's weight.
    pub fn enqueue(&mut self, req: IoRequest) {
        let weight = self.weight(req.stream) as f64;
        let virtual_time = self.virtual_time;
        let spare = &mut self.spare;
        let mut newly_backlogged = false;
        let b = self.backlogs.entry(req.stream).or_insert_with(|| {
            newly_backlogged = true;
            Backlog {
                fifo: spare.pop().unwrap_or_default(),
                last_finish: virtual_time,
            }
        });
        let finish = b.last_finish.max(virtual_time) + req.len as f64 / weight;
        b.last_finish = finish;
        b.fifo.push_back(Entry {
            req,
            finish_tag: finish,
        });
        if newly_backlogged {
            self.heads.push(Reverse((finish.to_bits(), req.stream)));
        }
        self.len += 1;
    }

    /// Try to back-merge `req` into the tail of its stream's queue (block
    /// layer elevator merging). Returns true if merged.
    pub fn try_merge(&mut self, req: &IoRequest, max_merged_len: u64) -> bool {
        if let Some(tail) = self
            .backlogs
            .get_mut(&req.stream)
            .and_then(|b| b.fifo.back_mut())
        {
            if tail.req.can_back_merge(req) && tail.req.len + req.len <= max_merged_len {
                tail.req.len += req.len;
                return true;
            }
        }
        false
    }

    /// Dequeue the request with the smallest virtual finish tag.
    pub fn dequeue(&mut self) -> Option<IoRequest> {
        let mut head = self.heads.peek_mut()?;
        let stream = head.0 .1;
        let b = self
            .backlogs
            .get_mut(&stream)
            .expect("a stream in the heap is backlogged");
        let entry = b.fifo.pop_front().expect("a backlogged FIFO is non-empty");
        if let Some(next) = b.fifo.front() {
            *head = Reverse((next.finish_tag.to_bits(), stream));
        } else {
            PeekMut::pop(head);
            let b = self.backlogs.remove(&stream).expect("just looked up");
            self.spare.push(b.fifo);
        }
        self.len -= 1;
        self.virtual_time = self.virtual_time.max(entry.finish_tag);
        Some(entry.req)
    }

    /// Drop all queued requests for a stream and forget its weight (VM
    /// teardown). Returns how many requests were dropped.
    pub fn drain_stream(&mut self, stream: StreamId) -> usize {
        self.weights.remove(&stream);
        let Some(mut b) = self.backlogs.remove(&stream) else {
            return 0;
        };
        self.heads.retain(|&Reverse((_, s))| s != stream);
        let dropped = b.fifo.len();
        self.len -= dropped;
        b.fifo.clear();
        self.spare.push(b.fifo);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{IoKind, RequestId};
    use iorch_simcore::SimTime;

    fn req(id: u64, stream: u32, len: u64) -> IoRequest {
        IoRequest {
            id: RequestId(id),
            kind: IoKind::Read,
            stream: StreamId(stream),
            offset: id * 4096,
            len,
            submitted: SimTime::ZERO,
        }
    }

    #[test]
    fn fifo_within_stream() {
        let mut q = WfqQueue::new();
        for i in 0..5 {
            q.enqueue(req(i, 1, 4096));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.dequeue()).map(|r| r.id.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn equal_weights_interleave() {
        let mut q = WfqQueue::new();
        for i in 0..4 {
            q.enqueue(req(i, 1, 4096));
        }
        for i in 4..8 {
            q.enqueue(req(i, 2, 4096));
        }
        let streams: Vec<u32> = std::iter::from_fn(|| q.dequeue())
            .map(|r| r.stream.0)
            .collect();
        // With equal weights and equal sizes, service must alternate rather
        // than drain one stream first.
        assert_ne!(streams, vec![1, 1, 1, 1, 2, 2, 2, 2]);
        let first_half: Vec<u32> = streams[..4].to_vec();
        assert!(first_half.contains(&1) && first_half.contains(&2));
    }

    #[test]
    fn weights_skew_service() {
        let mut q = WfqQueue::new();
        q.set_weight(StreamId(1), 300);
        q.set_weight(StreamId(2), 100);
        for i in 0..30 {
            q.enqueue(req(i, 1, 4096));
        }
        for i in 30..60 {
            q.enqueue(req(i, 2, 4096));
        }
        // Count how much of stream 1 is served in the first 20 dispatches.
        let mut s1 = 0;
        for _ in 0..20 {
            if q.dequeue().unwrap().stream == StreamId(1) {
                s1 += 1;
            }
        }
        // Expected 15 of 20 (3:1); allow slack for start-up effects.
        assert!((13..=17).contains(&s1), "s1={s1}");
    }

    #[test]
    fn long_run_share_matches_weight_ratio() {
        let mut q = WfqQueue::new();
        q.set_weight(StreamId(1), 200);
        q.set_weight(StreamId(2), 100);
        // Keep both backlogged: enqueue 300 each, dispatch 150.
        for i in 0..300 {
            q.enqueue(req(i, 1, 8192));
            q.enqueue(req(1000 + i, 2, 8192));
        }
        let mut bytes = [0u64; 3];
        for _ in 0..150 {
            let r = q.dequeue().unwrap();
            bytes[r.stream.0 as usize] += r.len;
        }
        let ratio = bytes[1] as f64 / bytes[2] as f64;
        assert!((1.8..=2.2).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn merge_extends_tail() {
        let mut q = WfqQueue::new();
        q.enqueue(req(0, 1, 4096)); // offset 0
        let next = IoRequest {
            id: RequestId(9),
            kind: IoKind::Read,
            stream: StreamId(1),
            offset: 4096,
            len: 4096,
            submitted: SimTime::ZERO,
        };
        assert!(q.try_merge(&next, 1 << 20));
        assert_eq!(q.len(), 1);
        let merged = q.dequeue().unwrap();
        assert_eq!(merged.len, 8192);
    }

    #[test]
    fn merge_respects_max_size() {
        let mut q = WfqQueue::new();
        q.enqueue(req(0, 1, 4096));
        let next = IoRequest {
            id: RequestId(9),
            kind: IoKind::Read,
            stream: StreamId(1),
            offset: 4096,
            len: 4096,
            submitted: SimTime::ZERO,
        };
        assert!(!q.try_merge(&next, 6000));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_stream_removes_only_that_stream() {
        let mut q = WfqQueue::new();
        q.enqueue(req(0, 1, 4096));
        q.enqueue(req(1, 2, 4096));
        q.enqueue(req(2, 1, 4096));
        assert_eq!(q.drain_stream(StreamId(1)), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.dequeue().unwrap().stream, StreamId(2));
    }

    #[test]
    fn empty_queue_dequeues_none() {
        let mut q = WfqQueue::new();
        assert!(q.dequeue().is_none());
        assert!(q.is_empty());
        assert_eq!(q.stream_len(StreamId(7)), 0);
    }
}
