//! Randomized tests for guest-kernel invariants: page-cache dirty
//! accounting, congestion hysteresis, VFS allocation, chunk coalescing.
//! Driven by the in-tree generators (`iorch_simcore::gen`) with a fixed
//! seed sweep — no external property-test crate.

use iorch_guestos::{
    coalesce_chunks, congestion_off_threshold, congestion_on_threshold, ChunkIdx, GuestQueue,
    GuestQueueParams, PageCache, Submit, Vfs, VfsError, CHUNK_PAGES, CHUNK_SIZE,
};
use iorch_simcore::{gen, SimTime};
use iorch_storage::{IoKind, IoRequest, RequestId, StreamId};

const CASES: usize = 64;

/// Dirty accounting is conserved: after flushing everything and completing
/// all writebacks, dirty and writeback counts are zero and every touched
/// chunk is still resident (nothing lost).
#[test]
fn dirty_accounting_conservation() {
    gen::for_each_seed(0x60_0001, CASES, |seed, rng| {
        let ops = gen::vec_between(rng, 1, 300, |r| (r.below(200), r.chance(0.5)));
        let mut pc = PageCache::new(100_000 * CHUNK_PAGES);
        for (i, &(chunk, write)) in ops.iter().enumerate() {
            if write {
                pc.mark_dirty(chunk, SimTime::from_millis(i as u64));
            } else {
                pc.insert_clean(chunk);
            }
            // Invariant: dirty + writeback never exceeds resident.
            assert!(
                pc.dirty_pages() + pc.writeback_pages() <= pc.resident_pages(),
                "seed {seed}"
            );
        }
        let batch = pc.take_dirty_batch(usize::MAX, None);
        assert_eq!(pc.dirty_pages(), 0, "seed {seed}");
        for c in &batch {
            pc.writeback_done(*c);
        }
        assert_eq!(pc.writeback_pages(), 0, "seed {seed}");
        for &(chunk, _) in &ops {
            assert!(pc.contains(chunk), "seed {seed}");
        }
    });
}

/// take_dirty_batch returns oldest-first without duplicates.
#[test]
fn dirty_batch_oldest_first() {
    gen::for_each_seed(0x60_0002, CASES, |seed, rng| {
        let chunks = gen::vec_between(rng, 1, 200, |r| r.below(1000));
        let mut pc = PageCache::new(1_000_000 * CHUNK_PAGES);
        let mut first_seen = std::collections::HashMap::new();
        for (i, &c) in chunks.iter().enumerate() {
            pc.mark_dirty(c, SimTime::from_millis(i as u64));
            first_seen.entry(c).or_insert(i);
        }
        let batch = pc.take_dirty_batch(usize::MAX, None);
        let mut uniq = std::collections::HashSet::new();
        for c in &batch {
            assert!(uniq.insert(*c), "duplicate in batch (seed {seed})");
        }
        // Oldest-first by first dirty time.
        for w in batch.windows(2) {
            assert!(first_seen[&w[0]] <= first_seen[&w[1]], "seed {seed}");
        }
    });
}

/// Chunk states of the naive page-cache reference below.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RefState {
    Clean,
    Dirty,
    Writeback,
    DirtyWriteback,
}

/// Naive page cache: a `Vec` in LRU order (front = least recently used)
/// and an unordered list of `(dirtied_at, chunk)` dirty entries. Every
/// operation is a linear scan, so it is obviously right and slow.
struct RefCache {
    capacity_chunks: usize,
    lru: Vec<(ChunkIdx, RefState)>,
    dirty: Vec<(SimTime, ChunkIdx)>,
    /// Most chunks ever resident at once (counted before eviction).
    peak: usize,
    evictions: usize,
}

impl RefCache {
    fn new(capacity_chunks: usize) -> Self {
        RefCache {
            capacity_chunks,
            lru: Vec::new(),
            dirty: Vec::new(),
            peak: 0,
            evictions: 0,
        }
    }

    /// Move the chunk at `pos` to the MRU end; returns its new position.
    fn move_to_mru(&mut self, pos: usize) -> usize {
        let e = self.lru.remove(pos);
        self.lru.push(e);
        self.lru.len() - 1
    }

    fn position(&self, idx: ChunkIdx) -> Option<usize> {
        self.lru.iter().position(|&(c, _)| c == idx)
    }

    fn push_new(&mut self, idx: ChunkIdx, state: RefState) {
        self.lru.push((idx, state));
        self.peak = self.peak.max(self.lru.len());
        while self.lru.len() > self.capacity_chunks {
            let victim = self
                .lru
                .iter()
                .position(|&(c, st)| c != idx && st == RefState::Clean);
            let Some(v) = victim else { break };
            self.lru.remove(v);
            self.evictions += 1;
        }
    }

    fn touch(&mut self, idx: ChunkIdx) -> bool {
        let hit = self.position(idx);
        if let Some(p) = hit {
            self.move_to_mru(p);
        }
        hit.is_some()
    }

    fn insert_clean(&mut self, idx: ChunkIdx) {
        match self.position(idx) {
            Some(p) => {
                self.move_to_mru(p);
            }
            None => self.push_new(idx, RefState::Clean),
        }
    }

    fn mark_dirty(&mut self, idx: ChunkIdx, now: SimTime) {
        let Some(p) = self.position(idx) else {
            self.dirty.push((now, idx));
            self.push_new(idx, RefState::Dirty);
            return;
        };
        let p = self.move_to_mru(p);
        let st = &mut self.lru[p].1;
        match *st {
            RefState::Clean => *st = RefState::Dirty,
            RefState::Writeback => *st = RefState::DirtyWriteback,
            RefState::Dirty | RefState::DirtyWriteback => return,
        }
        self.dirty.push((now, idx));
    }

    fn take_dirty_batch(&mut self, max: usize, expired_before: Option<SimTime>) -> Vec<ChunkIdx> {
        let mut taken = Vec::new();
        while taken.len() < max {
            let Some((i, &(at, idx))) = self.dirty.iter().enumerate().min_by_key(|(_, e)| **e)
            else {
                break;
            };
            if expired_before.is_some_and(|limit| at >= limit) {
                break;
            }
            self.dirty.remove(i);
            let p = self.position(idx).expect("dirty chunk resident");
            self.lru[p].1 = RefState::Writeback;
            taken.push(idx);
        }
        taken
    }

    fn writeback_done(&mut self, idx: ChunkIdx) {
        if let Some(p) = self.position(idx) {
            let st = &mut self.lru[p].1;
            *st = match *st {
                RefState::Writeback => RefState::Clean,
                RefState::DirtyWriteback => RefState::Dirty,
                other => other,
            };
        }
    }

    fn count(&self, states: &[RefState]) -> u64 {
        self.lru
            .iter()
            .filter(|(_, st)| states.contains(st))
            .count() as u64
    }
}

/// Differential oracle for the slab/intrusive-LRU page cache: small
/// caches (2–32 chunks, so eviction runs constantly) driven by a random
/// mix of every mutating operation must match the naive reference after
/// every step — full LRU order (hence residency and future victim order),
/// dirty/writeback counts, oldest dirty age and every writeback batch —
/// and the slab must never hold more slots than the peak resident count.
/// Chunk indices are sparse over a 60 GiB disk, so they land in many
/// leaves of the chunk table, including its first and last chunk and
/// both sides of leaf boundaries.
#[test]
fn page_cache_matches_naive_reference() {
    const LAST: ChunkIdx = (60 << 30) / CHUNK_SIZE - 1;
    let mut evictions = 0;
    gen::for_each_seed(0x60_0007, CASES, |seed, rng| {
        let cap = rng.range(2, 32) as usize;
        let mut keys: Vec<ChunkIdx> = vec![0, 511, 512, LAST];
        while keys.len() < 3 * cap {
            let k = match rng.below(3) {
                0 => rng.below(2048),
                1 => LAST - rng.below(2048),
                _ => rng.below(LAST + 1),
            };
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let mut pc = PageCache::new(cap as u64 * CHUNK_PAGES);
        let mut reference = RefCache::new(cap);
        let mut inflight: Vec<ChunkIdx> = Vec::new();
        for step in 0..600u64 {
            // Two steps per millisecond: dirty-order ties break on chunk.
            let now = SimTime::from_millis(step / 2);
            let chunk = keys[rng.below(keys.len() as u64) as usize];
            match rng.below(12) {
                0..=2 => {
                    pc.insert_clean(chunk);
                    reference.insert_clean(chunk);
                }
                3..=4 => {
                    assert_eq!(
                        pc.touch(chunk),
                        reference.touch(chunk),
                        "touch hit, step {step} (seed {seed})"
                    );
                }
                5..=7 => {
                    pc.mark_dirty(chunk, now);
                    reference.mark_dirty(chunk, now);
                }
                8 | 9 => {
                    let max = rng.range(1, 2 * cap as u64) as usize;
                    let expired = rng
                        .chance(0.5)
                        .then(|| SimTime::from_millis(rng.below(step / 2 + 2)));
                    let batch = pc.take_dirty_batch(max, expired);
                    assert_eq!(
                        batch,
                        reference.take_dirty_batch(max, expired),
                        "batch, step {step} (seed {seed})"
                    );
                    inflight.extend(batch);
                }
                _ => {
                    // Mostly a real in-flight chunk, sometimes any chunk
                    // (a no-op unless it happens to be in writeback).
                    let c = if !inflight.is_empty() && rng.chance(0.8) {
                        inflight.swap_remove(rng.below(inflight.len() as u64) as usize)
                    } else {
                        chunk
                    };
                    pc.writeback_done(c);
                    reference.writeback_done(c);
                }
            }
            let order: Vec<ChunkIdx> = reference.lru.iter().map(|&(c, _)| c).collect();
            assert_eq!(
                pc.lru_order().collect::<Vec<_>>(),
                order,
                "LRU order, step {step} (seed {seed})"
            );
            assert_eq!(pc.resident_pages(), order.len() as u64 * CHUNK_PAGES);
            assert_eq!(pc.contains(chunk), order.contains(&chunk));
            assert_eq!(
                pc.dirty_pages(),
                reference.count(&[RefState::Dirty, RefState::DirtyWriteback]) * CHUNK_PAGES,
                "dirty pages, step {step} (seed {seed})"
            );
            assert_eq!(
                pc.writeback_pages(),
                reference.count(&[RefState::Writeback]) * CHUNK_PAGES,
                "writeback pages, step {step} (seed {seed})"
            );
            let oldest = reference.dirty.iter().min().map(|&(at, _)| at);
            assert_eq!(
                pc.oldest_dirty_age(now),
                oldest.map(|at| now.saturating_since(at)),
                "oldest dirty age, step {step} (seed {seed})"
            );
            assert!(
                pc.slab_slots() <= reference.peak,
                "slab {} slots > peak {} resident, step {step} (seed {seed})",
                pc.slab_slots(),
                reference.peak
            );
        }
        evictions += reference.evictions;
    });
    assert!(evictions > 1000, "only {evictions} evictions exercised");
}

/// Congestion hysteresis: the flag can only be on when allocation ever
/// crossed 7/8, and it always clears below 13/16.
#[test]
fn congestion_hysteresis() {
    gen::for_each_seed(0x60_0003, CASES, |seed, rng| {
        let nr = 16 + rng.below(512 - 16) as usize;
        let submit_batches = gen::vec_between(rng, 1, 40, |r| 1 + r.below(39) as usize);
        let params = GuestQueueParams {
            nr_requests: nr,
            ..GuestQueueParams::default()
        };
        let mut q = GuestQueue::new(params);
        let on = congestion_on_threshold(nr);
        let off = congestion_off_threshold(nr);
        assert!(off <= on, "seed {seed}");
        let mut id = 0u64;
        for (round, batch) in submit_batches.iter().enumerate() {
            for _ in 0..*batch {
                let req = IoRequest {
                    id: RequestId(id),
                    kind: IoKind::Read,
                    stream: StreamId(0),
                    offset: id * (1 << 22),
                    len: 4096,
                    submitted: SimTime::ZERO,
                };
                id += 1;
                if q.submit(req, SimTime::ZERO) == Submit::Accepted {
                    q.take_dispatchable(SimTime::ZERO, true);
                }
            }
            for ev in q.poll_events().collect::<Vec<_>>() {
                if ev == iorch_guestos::QueueEvent::CongestionWouldEnter {
                    q.enter_congestion(SimTime::ZERO);
                }
            }
            if q.is_congested() {
                assert!(
                    q.allocated() >= off,
                    "congested below off threshold (seed {seed})"
                );
            }
            // Drain a few and verify clearing.
            if round % 2 == 1 {
                let n = q.allocated();
                q.on_complete(n, SimTime::ZERO);
                assert!(!q.is_congested(), "seed {seed}");
                assert_eq!(q.allocated(), 0, "seed {seed}");
            }
        }
    });
}

/// Event-dedup invariant: across arbitrary interleavings of submissions,
/// completions and answers (enter/grant), at most one
/// `CongestionWouldEnter` is ever outstanding (unanswered), and a new one
/// is only raised after the previous was answered or voided by falling
/// below the off threshold.
#[test]
fn at_most_one_unanswered_congestion_query() {
    gen::for_each_seed(0x60_0006, CASES, |seed, rng| {
        let nr = 16 + rng.below(256 - 16) as usize;
        let params = GuestQueueParams {
            nr_requests: nr,
            ..GuestQueueParams::default()
        };
        let mut q = GuestQueue::new(params);
        let off = congestion_off_threshold(nr);
        let mut id = 0u64;
        let mut unanswered = 0u32;
        for _ in 0..400 {
            match rng.below(10) {
                // Submit a burst (the common case — drives threshold
                // crossings).
                0..=5 => {
                    for _ in 0..=rng.below(16) {
                        let req = IoRequest {
                            id: RequestId(id),
                            kind: IoKind::Read,
                            stream: StreamId(0),
                            offset: id * (1 << 22),
                            len: 4096,
                            submitted: SimTime::ZERO,
                        };
                        id += 1;
                        if q.submit(req, SimTime::ZERO) == Submit::Accepted {
                            q.take_dispatchable(SimTime::ZERO, true);
                        }
                    }
                }
                // Complete a few.
                6 | 7 => {
                    let n = (rng.below(32) as usize).min(q.allocated());
                    q.take_dispatchable(SimTime::ZERO, true);
                    let n = n.min(q.allocated());
                    q.on_complete(n, SimTime::ZERO);
                    if q.allocated() < off {
                        unanswered = 0;
                    }
                }
                // Answer with baseline sleep.
                8 => {
                    q.enter_congestion(SimTime::ZERO);
                    unanswered = 0;
                }
                // Answer with a release.
                _ => {
                    q.grant_bypass(SimTime::ZERO);
                    unanswered = 0;
                }
            }
            for ev in q.poll_events() {
                if ev == iorch_guestos::QueueEvent::CongestionWouldEnter {
                    unanswered += 1;
                }
            }
            assert!(
                unanswered <= 1,
                "{unanswered} unanswered congestion queries (seed {seed})"
            );
        }
    });
}

/// VFS: allocations never overlap, and each file starts at the sum of the
/// earlier sizes, so the rest of the disk fits exactly one more file.
#[test]
fn vfs_no_overlap() {
    gen::for_each_seed(0x60_0004, CASES, |seed, rng| {
        let sizes = gen::vec_between(rng, 1, 50, |r| 1 + r.below(9_999));
        let total: u64 = sizes.iter().sum();
        let rest = 1 + rng.below(10_000);
        let mut vfs = Vfs::new(total + rest);
        let mut files = Vec::new();
        for &sz in &sizes {
            files.push((vfs.create(sz).unwrap(), sz));
        }
        // Each file starts where the previous one ends: no overlap, no hole.
        let mut at = 0;
        for &(f, sz) in &files {
            assert_eq!(vfs.translate(f, 0, 1), Ok(at), "seed {seed}");
            at += sz;
        }
        assert_eq!(vfs.used_bytes(), total, "seed {seed}");
        assert_eq!(vfs.create(rest + 1), Err(VfsError::NoSpace), "seed {seed}");
        let last = vfs
            .create(rest)
            .expect("the rest of the disk fits one file");
        assert_eq!(vfs.translate(last, 0, 1), Ok(total), "seed {seed}");
        assert_eq!(vfs.create(1), Err(VfsError::NoSpace), "seed {seed}");
    });
}

/// Coalescing covers exactly the input chunk set with run lengths within
/// the cap.
#[test]
fn coalesce_exact_cover() {
    gen::for_each_seed(0x60_0005, CASES, |seed, rng| {
        let chunks = gen::vec_between(rng, 0, 200, |r| r.below(500));
        let cap = 1 + rng.below(31) as usize;
        let runs = coalesce_chunks(chunks.clone(), cap);
        let mut covered = std::collections::BTreeSet::new();
        for (start, count) in &runs {
            assert!(*count as usize <= cap, "seed {seed}");
            for c in *start..start + count {
                assert!(covered.insert(c), "chunk covered twice (seed {seed})");
            }
        }
        let expect: std::collections::BTreeSet<u64> = chunks.into_iter().collect();
        assert_eq!(covered, expect, "seed {seed}");
    });
}
