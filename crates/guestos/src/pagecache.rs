//! Guest page cache with dirty-page accounting.
//!
//! Pages are tracked in 64 KiB chunks (16 × 4 KiB pages) keyed by virtual-
//! disk chunk index. The dirty counters reproduce what Linux exposes via
//! `bdi_writeback.nr` — the quantity a guest publishes to the system store
//! as `has_dirty_pages` under IOrchestra (paper §3.1).
//!
//! Resident chunks live in a slab of slots linked into an intrusive LRU
//! list (head = least recently used, tail = most recently used); freed
//! slots are reused through a free list threaded through the same links.
//! A two-level [`ChunkTable`] maps a chunk index to its slot. A cache hit
//! is two indexed loads plus a relink to the tail: no hash, no heap
//! allocation and no tree rebalance.

use std::collections::BTreeMap;

use iorch_simcore::SimTime;

/// Bytes per page (x86 default).
pub const PAGE_SIZE: u64 = 4096;
/// Pages per cache chunk.
pub const CHUNK_PAGES: u64 = 16;
/// Bytes per cache chunk.
pub const CHUNK_SIZE: u64 = PAGE_SIZE * CHUNK_PAGES;

/// Index of a chunk on the virtual disk.
pub type ChunkIdx = u64;

/// Convert a byte range to the chunks it covers.
pub fn chunks_of(offset: u64, len: u64) -> impl Iterator<Item = ChunkIdx> {
    let first = offset / CHUNK_SIZE;
    let last = if len == 0 {
        first
    } else {
        (offset + len - 1) / CHUNK_SIZE
    };
    first..=last
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ChunkState {
    Clean,
    Dirty,
    /// Writeback submitted, not yet completed.
    Writeback,
    /// Re-dirtied while writeback is in flight.
    DirtyWriteback,
}

/// End-of-list marker for the intrusive links.
const NIL: u32 = u32::MAX;

/// One slab slot: a resident chunk and its LRU links, or (when free) a
/// free-list entry whose `next` is the next free slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    idx: ChunkIdx,
    state: ChunkState,
    dirtied_at: SimTime,
    prev: u32,
    next: u32,
}

/// Chunks per [`ChunkTable`] leaf: one leaf maps 32 MiB of virtual disk.
const LEAF_BITS: u32 = 9;
const LEAF_LEN: usize = 1 << LEAF_BITS;

/// Chunk index -> slab slot, as a two-level direct table. The top level
/// holds one entry per 32 MiB of virtual disk; a leaf is allocated on
/// the first insert into its region, so memory follows the disk regions
/// a guest touches, not the disk size. Unmapped entries hold `NIL`.
#[derive(Clone, Debug, Default)]
struct ChunkTable {
    leaves: Vec<Option<Box<[u32; LEAF_LEN]>>>,
    len: usize,
}

impl ChunkTable {
    fn split(idx: ChunkIdx) -> (usize, usize) {
        ((idx >> LEAF_BITS) as usize, (idx as usize) & (LEAF_LEN - 1))
    }

    fn get(&self, idx: ChunkIdx) -> Option<u32> {
        let (leaf, at) = Self::split(idx);
        match self.leaves.get(leaf)?.as_ref()?[at] {
            NIL => None,
            s => Some(s),
        }
    }

    /// Map an absent chunk to slot `s`.
    fn insert(&mut self, idx: ChunkIdx, s: u32) {
        let (leaf, at) = Self::split(idx);
        if leaf >= self.leaves.len() {
            self.leaves.resize(leaf + 1, None);
        }
        let entry = &mut self.leaves[leaf].get_or_insert_with(|| Box::new([NIL; LEAF_LEN]))[at];
        debug_assert_eq!(*entry, NIL, "chunk {idx} already mapped");
        *entry = s;
        self.len += 1;
    }

    /// Unmap a present chunk.
    fn remove(&mut self, idx: ChunkIdx) {
        let (leaf, at) = Self::split(idx);
        let entry = &mut self.leaves[leaf].as_mut().expect("chunk must be mapped")[at];
        debug_assert_ne!(*entry, NIL, "chunk {idx} not mapped");
        *entry = NIL;
        self.len -= 1;
    }
}

/// LRU page cache with dirty tracking at chunk granularity.
#[derive(Clone, Debug)]
pub struct PageCache {
    capacity_pages: u64,
    slots: Vec<Slot>,
    index: ChunkTable,
    free_head: u32,
    lru_head: u32,
    lru_tail: u32,
    dirty_order: BTreeMap<(SimTime, ChunkIdx), ()>,
    dirty_chunks: u64,
    writeback_chunks: u64,
}

impl PageCache {
    /// Cache with room for `capacity_pages` 4 KiB pages.
    pub fn new(capacity_pages: u64) -> Self {
        assert!(
            capacity_pages >= CHUNK_PAGES,
            "cache smaller than one chunk"
        );
        PageCache {
            capacity_pages,
            slots: Vec::new(),
            index: ChunkTable::default(),
            free_head: NIL,
            lru_head: NIL,
            lru_tail: NIL,
            dirty_order: BTreeMap::new(),
            dirty_chunks: 0,
            writeback_chunks: 0,
        }
    }

    /// Unlink slot `s` from the LRU list.
    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.lru_head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.lru_tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Link an unlinked slot `s` at the MRU end.
    fn push_tail(&mut self, s: u32) {
        let slot = &mut self.slots[s as usize];
        slot.prev = self.lru_tail;
        slot.next = NIL;
        match self.lru_tail {
            NIL => self.lru_head = s,
            t => self.slots[t as usize].next = s,
        }
        self.lru_tail = s;
    }

    fn move_to_tail(&mut self, s: u32) {
        if self.lru_tail != s {
            self.unlink(s);
            self.push_tail(s);
        }
    }

    /// Make `idx` resident in `state` at the MRU end; the caller has
    /// checked it is absent.
    fn insert_new(&mut self, idx: ChunkIdx, state: ChunkState, dirtied_at: SimTime) {
        let slot = Slot {
            idx,
            state,
            dirtied_at,
            prev: NIL,
            next: NIL,
        };
        let s = match self.free_head {
            NIL => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
            f => {
                self.free_head = self.slots[f as usize].next;
                self.slots[f as usize] = slot;
                f
            }
        };
        self.index.insert(idx, s);
        self.push_tail(s);
    }

    /// Whether a chunk is resident (hit).
    pub fn contains(&self, idx: ChunkIdx) -> bool {
        self.index.get(idx).is_some()
    }

    /// Look a chunk up for a read: on a hit, refresh its LRU position and
    /// return `true`; on a miss, change nothing and return `false`.
    pub fn touch(&mut self, idx: ChunkIdx) -> bool {
        match self.index.get(idx) {
            Some(s) => {
                self.move_to_tail(s);
                true
            }
            None => false,
        }
    }

    /// Total resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.index.len as u64 * CHUNK_PAGES
    }

    /// Resident chunks from least to most recently used (the order in
    /// which clean chunks become eviction victims).
    pub fn lru_order(&self) -> impl Iterator<Item = ChunkIdx> + '_ {
        let mut s = self.lru_head;
        std::iter::from_fn(move || {
            let slot = self.slots.get(s as usize)?;
            s = slot.next;
            Some(slot.idx)
        })
    }

    /// Slab slots allocated so far, resident or free: the peak resident
    /// chunk count, since freed slots are reused before the slab grows.
    pub fn slab_slots(&self) -> usize {
        self.slots.len()
    }

    /// Dirty pages, the `bdi_writeback.nr` analogue (includes chunks that
    /// were re-dirtied during writeback, excludes pure writeback).
    pub fn dirty_pages(&self) -> u64 {
        self.dirty_chunks * CHUNK_PAGES
    }

    /// Pages currently under writeback.
    pub fn writeback_pages(&self) -> u64 {
        self.writeback_chunks * CHUNK_PAGES
    }

    /// Dirty pages as a fraction of cache capacity (the guest's
    /// `dirty_ratio` input).
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty_pages() as f64 / self.capacity_pages as f64
    }

    /// Dirty **plus writeback** pages as a fraction of capacity — what
    /// Linux's `balance_dirty_pages` throttles writers against.
    pub fn unstable_fraction(&self) -> f64 {
        (self.dirty_pages() + self.writeback_pages()) as f64 / self.capacity_pages as f64
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// True when the resident set exceeds capacity (eviction pressure).
    pub fn over_capacity(&self) -> bool {
        self.resident_pages() > self.capacity_pages
    }

    /// Insert a chunk as clean (read miss fill). Evicts clean LRU chunks to
    /// stay within capacity; dirty/writeback chunks are never evicted.
    pub fn insert_clean(&mut self, idx: ChunkIdx) {
        if self.touch(idx) {
            return;
        }
        self.insert_new(idx, ChunkState::Clean, SimTime::ZERO);
        self.evict_to_capacity(idx);
    }

    fn evict_to_capacity(&mut self, protect: ChunkIdx) {
        // Victims are the least-recently-used *clean* chunks, never the
        // one being inserted right now (it is in use by the caller). The
        // chunks skipped on the way stay unevictable for this call, so
        // the walk resumes after each victim instead of at the head.
        let mut cursor = self.lru_head;
        while self.over_capacity() {
            while cursor != NIL {
                let slot = self.slots[cursor as usize];
                if slot.idx != protect && slot.state == ChunkState::Clean {
                    break;
                }
                cursor = slot.next;
            }
            if cursor == NIL {
                // All remaining chunks are dirty or in writeback; the cache
                // temporarily exceeds capacity (Linux allows this up to the
                // dirty limits; the kernel reacts by throttling writers).
                break;
            }
            let victim = cursor;
            cursor = self.slots[victim as usize].next;
            self.unlink(victim);
            self.index.remove(self.slots[victim as usize].idx);
            self.slots[victim as usize].next = self.free_head;
            self.free_head = victim;
        }
    }

    /// Mark a chunk dirty at `now` (write). Inserts it if absent, evicting
    /// clean LRU chunks to make room.
    pub fn mark_dirty(&mut self, idx: ChunkIdx, now: SimTime) {
        let Some(s) = self.index.get(idx) else {
            self.insert_new(idx, ChunkState::Dirty, now);
            self.dirty_order.insert((now, idx), ());
            self.dirty_chunks += 1;
            self.evict_to_capacity(idx);
            return;
        };
        self.move_to_tail(s);
        let c = &mut self.slots[s as usize];
        match c.state {
            ChunkState::Clean => {
                c.state = ChunkState::Dirty;
                c.dirtied_at = now;
                self.dirty_order.insert((now, idx), ());
                self.dirty_chunks += 1;
            }
            ChunkState::Dirty | ChunkState::DirtyWriteback => {}
            ChunkState::Writeback => {
                c.state = ChunkState::DirtyWriteback;
                c.dirtied_at = now;
                self.dirty_order.insert((now, idx), ());
                self.dirty_chunks += 1;
                self.writeback_chunks -= 1;
            }
        }
    }

    /// Take up to `max_chunks` dirty chunks, oldest first, transitioning
    /// them to writeback. If `expired_before` is given, only chunks dirtied
    /// strictly before it are taken (the `dirty_expire` path).
    pub fn take_dirty_batch(
        &mut self,
        max_chunks: usize,
        expired_before: Option<SimTime>,
    ) -> Vec<ChunkIdx> {
        let mut taken = Vec::new();
        while taken.len() < max_chunks {
            let candidate = self.dirty_order.keys().next().copied();
            let Some((dirtied_at, idx)) = candidate else {
                break;
            };
            if let Some(limit) = expired_before {
                if dirtied_at >= limit {
                    break;
                }
            }
            self.dirty_order.remove(&(dirtied_at, idx));
            let s = self.index.get(idx).expect("dirty chunk must exist");
            let c = &mut self.slots[s as usize];
            debug_assert!(matches!(
                c.state,
                ChunkState::Dirty | ChunkState::DirtyWriteback
            ));
            c.state = ChunkState::Writeback;
            self.dirty_chunks -= 1;
            self.writeback_chunks += 1;
            taken.push(idx);
        }
        taken
    }

    /// Writeback of a chunk completed. If it was re-dirtied meanwhile it
    /// stays dirty; otherwise it becomes clean (and evictable).
    pub fn writeback_done(&mut self, idx: ChunkIdx) {
        if let Some(s) = self.index.get(idx) {
            let c = &mut self.slots[s as usize];
            match c.state {
                ChunkState::Writeback => {
                    c.state = ChunkState::Clean;
                    self.writeback_chunks -= 1;
                }
                ChunkState::DirtyWriteback => {
                    // Already re-flagged dirty by mark_dirty; nothing to do.
                    c.state = ChunkState::Dirty;
                }
                _ => {}
            }
        }
    }

    /// Age of the oldest dirty chunk at `now`, if any.
    pub fn oldest_dirty_age(&self, now: SimTime) -> Option<iorch_simcore::SimDuration> {
        self.dirty_order
            .keys()
            .next()
            .map(|&(t, _)| now.saturating_since(t))
    }

    /// Drop every chunk for a teardown (no writeback; caller must have
    /// synced first if durability matters).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index = ChunkTable::default();
        self.free_head = NIL;
        self.lru_head = NIL;
        self.lru_tail = NIL;
        self.dirty_order.clear();
        self.dirty_chunks = 0;
        self.writeback_chunks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn chunks_of_ranges() {
        let v: Vec<u64> = chunks_of(0, CHUNK_SIZE).collect();
        assert_eq!(v, vec![0]);
        let v: Vec<u64> = chunks_of(0, CHUNK_SIZE + 1).collect();
        assert_eq!(v, vec![0, 1]);
        let v: Vec<u64> = chunks_of(CHUNK_SIZE - 1, 2).collect();
        assert_eq!(v, vec![0, 1]);
        let v: Vec<u64> = chunks_of(3 * CHUNK_SIZE, 0).collect();
        assert_eq!(v, vec![3]);
    }

    #[test]
    fn insert_and_hit() {
        let mut pc = PageCache::new(1024);
        assert!(!pc.contains(5));
        pc.insert_clean(5);
        assert!(pc.contains(5));
        assert_eq!(pc.resident_pages(), CHUNK_PAGES);
        assert_eq!(pc.dirty_pages(), 0);
    }

    #[test]
    fn lru_eviction_order() {
        // Capacity of exactly 2 chunks.
        let mut pc = PageCache::new(2 * CHUNK_PAGES);
        pc.insert_clean(1);
        pc.insert_clean(2);
        assert!(pc.touch(1)); // 2 is now LRU
        assert!(!pc.touch(7), "a miss is reported and changes nothing");
        pc.insert_clean(3);
        // Exactly one chunk, the LRU one, was evicted.
        assert!(!pc.contains(2));
        assert!(pc.contains(1) && pc.contains(3));
        assert_eq!(pc.resident_pages(), 2 * CHUNK_PAGES);
    }

    #[test]
    fn dirty_chunks_resist_eviction() {
        let mut pc = PageCache::new(2 * CHUNK_PAGES);
        pc.mark_dirty(1, t(0));
        pc.mark_dirty(2, t(1));
        pc.insert_clean(3);
        // Nothing evictable: both resident chunks are dirty; cache exceeds
        // capacity instead.
        assert!(pc.contains(1) && pc.contains(2) && pc.contains(3));
        assert_eq!(pc.resident_pages(), 3 * CHUNK_PAGES);
        assert!(pc.over_capacity());
        assert_eq!(pc.dirty_pages(), 2 * CHUNK_PAGES);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut pc = PageCache::new(2 * CHUNK_PAGES);
        for c in 0..100 {
            pc.insert_clean(c);
        }
        assert_eq!(pc.lru_order().collect::<Vec<_>>(), vec![98, 99]);
        assert_eq!(pc.slab_slots(), 3);
    }

    #[test]
    fn dirty_accounting_through_writeback() {
        let mut pc = PageCache::new(1024);
        pc.mark_dirty(7, t(0));
        pc.mark_dirty(8, t(1));
        assert_eq!(pc.dirty_pages(), 2 * CHUNK_PAGES);
        let batch = pc.take_dirty_batch(10, None);
        assert_eq!(batch, vec![7, 8]); // oldest first
        assert_eq!(pc.dirty_pages(), 0);
        assert_eq!(pc.writeback_pages(), 2 * CHUNK_PAGES);
        pc.writeback_done(7);
        pc.writeback_done(8);
        assert_eq!(pc.writeback_pages(), 0);
        assert!(pc.contains(7) && pc.contains(8)); // stay cached, now clean
    }

    #[test]
    fn redirty_during_writeback() {
        let mut pc = PageCache::new(1024);
        pc.mark_dirty(7, t(0));
        let batch = pc.take_dirty_batch(10, None);
        assert_eq!(batch, vec![7]);
        // Re-dirty while in flight.
        pc.mark_dirty(7, t(5));
        assert_eq!(pc.dirty_pages(), CHUNK_PAGES);
        pc.writeback_done(7);
        // Still dirty: the new write must be flushed again.
        assert_eq!(pc.dirty_pages(), CHUNK_PAGES);
        let batch = pc.take_dirty_batch(10, None);
        assert_eq!(batch, vec![7]);
        pc.writeback_done(7);
        assert_eq!(pc.dirty_pages(), 0);
    }

    #[test]
    fn expired_filter() {
        let mut pc = PageCache::new(1024);
        pc.mark_dirty(1, t(0));
        pc.mark_dirty(2, t(100));
        let batch = pc.take_dirty_batch(10, Some(t(50)));
        assert_eq!(batch, vec![1]);
        assert_eq!(pc.dirty_pages(), CHUNK_PAGES);
    }

    #[test]
    fn dirty_fraction_and_age() {
        let mut pc = PageCache::new(10 * CHUNK_PAGES);
        pc.mark_dirty(1, t(10));
        pc.mark_dirty(2, t(20));
        assert!((pc.dirty_fraction() - 0.2).abs() < 1e-9);
        let age = pc.oldest_dirty_age(t(110)).unwrap();
        assert_eq!(age, iorch_simcore::SimDuration::from_millis(100));
        assert!(PageCache::new(1024).oldest_dirty_age(t(0)).is_none());
    }

    #[test]
    fn mark_dirty_existing_clean_chunk() {
        let mut pc = PageCache::new(1024);
        pc.insert_clean(3);
        assert_eq!(pc.dirty_pages(), 0);
        pc.mark_dirty(3, t(1));
        assert_eq!(pc.dirty_pages(), CHUNK_PAGES);
        // Marking again does not double-count.
        pc.mark_dirty(3, t(2));
        assert_eq!(pc.dirty_pages(), CHUNK_PAGES);
    }

    #[test]
    fn clear_resets_everything() {
        let mut pc = PageCache::new(1024);
        pc.mark_dirty(1, t(0));
        pc.insert_clean(2);
        pc.clear();
        assert_eq!(pc.resident_pages(), 0);
        assert_eq!(pc.dirty_pages(), 0);
        assert!(!pc.contains(1));
        assert_eq!(pc.lru_order().count(), 0);
    }
}
