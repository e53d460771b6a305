//! Randomized tests for storage-layer invariants: WFQ fairness and
//! conservation, RAID0 address math, subsystem completion conservation.
//! Driven by the in-tree generators (`iorch_simcore::gen`) with a fixed
//! seed sweep — no external property-test crate.

use iorch_simcore::{gen, SimRng, SimTime};
use iorch_storage::{
    IoKind, IoRequest, Raid0, RequestId, SsdModel, SsdParams, StorageSubsystem, StreamId,
    SubsystemParams, WfqQueue,
};

const CASES: usize = 64;

fn req(id: u64, stream: u32, offset: u64, len: u64) -> IoRequest {
    IoRequest {
        id: RequestId(id),
        kind: IoKind::Read,
        stream: StreamId(stream),
        offset,
        len,
        submitted: SimTime::ZERO,
    }
}

/// WFQ conserves requests (everything enqueued dequeues exactly once)
/// for arbitrary interleavings and weights.
#[test]
fn wfq_conserves() {
    gen::for_each_seed(0x57_0001, CASES, |seed, rng| {
        let items = gen::vec_between(rng, 1, 200, |r| (r.below(5) as u32, 1 + r.below(999_999)));
        let weights = gen::vec_of(rng, 5, |r| 1 + r.below(999) as u32);
        let mut q = WfqQueue::new();
        for (i, w) in weights.iter().enumerate() {
            q.set_weight(StreamId(i as u32), *w);
        }
        for (i, &(stream, len)) in items.iter().enumerate() {
            q.enqueue(req(i as u64, stream, i as u64 * (1 << 22), len));
        }
        assert_eq!(q.len(), items.len(), "seed {seed}");
        let mut ids = std::collections::HashSet::new();
        while let Some(r) = q.dequeue() {
            assert!(ids.insert(r.id), "duplicate dequeue (seed {seed})");
        }
        assert_eq!(ids.len(), items.len(), "seed {seed}");
        assert!(q.is_empty(), "seed {seed}");
    });
}

/// Long-run WFQ service ratio approaches the weight ratio when both
/// streams stay backlogged.
#[test]
fn wfq_fairness_tracks_weights() {
    gen::for_each_seed(0x57_0002, CASES, |seed, rng| {
        let w1 = 1 + rng.below(15) as u32;
        let w2 = 1 + rng.below(15) as u32;
        let mut q = WfqQueue::new();
        q.set_weight(StreamId(1), w1 * 100);
        q.set_weight(StreamId(2), w2 * 100);
        let per_stream = 400usize;
        for i in 0..per_stream {
            q.enqueue(req(i as u64, 1, i as u64 * (1 << 22), 8192));
            q.enqueue(req(1000 + i as u64, 2, (500 + i as u64) * (1 << 22), 8192));
        }
        // Serve while both are backlogged.
        let serve = per_stream; // half the total
        let mut got = [0u64; 3];
        for _ in 0..serve {
            let r = q.dequeue().unwrap();
            got[r.stream.0 as usize] += r.len;
        }
        let expect_ratio = w1 as f64 / w2 as f64;
        let got_ratio = got[1] as f64 / got[2].max(1) as f64;
        assert!(
            (got_ratio / expect_ratio - 1.0).abs() < 0.25,
            "w {w1}:{w2} expect {expect_ratio} got {got_ratio} (seed {seed})"
        );
    });
}

/// RAID0 span/member math: spans never exceed width, members rotate
/// by stripe unit.
#[test]
fn raid_address_math() {
    gen::for_each_seed(0x57_0003, CASES, |seed, rng| {
        let offset = rng.below(1 << 40);
        let len = 1 + rng.below((1 << 24) - 1);
        let disks = 1 + rng.below(15) as usize;
        let mut p = SsdParams::intel520();
        p.noise_sigma = 0.0;
        let members = (0..disks).map(|_| SsdModel::new(p)).collect();
        let arr = Raid0::new(members, 64 * 1024);
        let span = arr.span(offset, len);
        assert!(span >= 1 && span <= disks, "seed {seed}");
        let m = arr.member_for(offset);
        assert!(m < disks, "seed {seed}");
        // Next stripe unit lands on the next member (mod width).
        let m2 = arr.member_for(offset + 64 * 1024);
        assert_eq!(m2, (m + 1) % disks, "seed {seed}");
    });
}

/// The subsystem completes every submitted request exactly once, in
/// non-decreasing completion-time order.
#[test]
fn subsystem_conserves_requests() {
    gen::for_each_seed(0x57_0004, CASES, |seed, rng| {
        let items = gen::vec_between(rng, 1, 150, |r| {
            (r.below(6) as u32, 1 + r.below((1 << 20) - 1))
        });
        let sub_seed = rng.next_u64();
        let mut p = SsdParams::intel520();
        p.noise_sigma = 0.1;
        let mut sub = StorageSubsystem::new(
            Box::new(SsdModel::new(p)),
            SubsystemParams::default(),
            SimRng::new(sub_seed),
        );
        for (i, &(stream, len)) in items.iter().enumerate() {
            sub.submit(
                req(i as u64, stream, i as u64 * (1 << 22), len),
                SimTime::ZERO,
            );
        }
        let mut done = 0usize;
        let mut last = SimTime::ZERO;
        let mut guard = 0;
        let mut out = Vec::new();
        while let Some(t) = sub.next_completion() {
            assert!(t >= last, "seed {seed}");
            last = t;
            out.clear();
            sub.complete_due(t, &mut out);
            done += out.len();
            guard += 1;
            assert!(guard < 10_000, "no forward progress (seed {seed})");
        }
        // Merging can combine submissions, so completions <= submissions,
        // but bytes are conserved.
        assert!(done <= items.len(), "seed {seed}");
        assert_eq!(
            done + sub.merged_count() as usize,
            items.len(),
            "seed {seed}"
        );
        let (rbytes, _) = sub.monitor().byte_counts();
        let expect: u64 = items.iter().map(|&(_, len)| len).sum();
        assert_eq!(rbytes, expect, "seed {seed}");
        assert_eq!(sub.in_flight(), 0, "seed {seed}");
        assert_eq!(sub.queue_depth(), 0, "seed {seed}");
    });
}
