//! Fixed reference work, interleaved with every timed part of a
//! repetition, that reads how fast the host runs at that moment.
//!
//! On a shared cloud guest, other tenants slow every piece of code by up
//! to ~1.8x in phases that last a minute or more, longer than one run
//! (see README, "Noise and statistics"). This reference is a small event
//! loop with the simulator's memory profile: a binary heap of pending
//! events, a hash-map lookup and an ordered-map LRU touch per step, about
//! 2 MB in all. It runs for a fixed number of steps right after each timed
//! part, so it sees the same phase. A host time scaled by
//! [`QUIET_SLICE`] / (the reference's own host time) is the time the part
//! would have taken in a quiet phase. The reference belongs to the
//! benchmark, not to the program, so a change to the simulator moves the
//! scaled time and not the scale.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// Keys in the hash map and the LRU map.
const KEYS: usize = 16_384;
/// Pending events in the heap.
const PENDING: u32 = 4_096;
/// Steps in one slice (fewer in the debug-built self-tests, which only
/// check the plumbing).
const SLICE_STEPS: u32 = if cfg!(test) { 250 } else { 37_500 };

/// Host time of one slice in a quiet phase of the 2-vCPU Xeon (Sapphire
/// Rapids) guest the benchmark was calibrated on. It only sets the scale
/// of the reported seconds, which stays the same for every commit.
pub const QUIET_SLICE: Duration = Duration::from_micros(12_500);

/// The reference's state; it persists across slices, so every slice does
/// the same steady-state work.
pub struct Reference {
    pending: BinaryHeap<Reverse<(u64, u32)>>,
    values: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    lru: BTreeMap<u64, usize>,
    stamps: Vec<u64>,
    next_stamp: u64,
    rng: u64,
}

impl Reference {
    pub fn new() -> Reference {
        let mut r = Reference {
            pending: BinaryHeap::with_capacity(PENDING as usize),
            values: HashMap::default(),
            lru: BTreeMap::new(),
            stamps: (0..KEYS as u64).collect(),
            next_stamp: KEYS as u64,
            rng: 0x9e37_79b9_7f4a_7c15,
        };
        for k in 0..KEYS {
            r.values.insert(Self::key(k), k as u64);
            r.lru.insert(k as u64, k);
        }
        for id in 0..PENDING {
            let at = r.next_rand() % 1_000;
            r.pending.push(Reverse((at, id)));
        }
        r
    }

    fn key(k: usize) -> u64 {
        k as u64 * 7_919
    }

    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Run one slice and return its host time.
    pub fn slice(&mut self) -> Duration {
        let started = Instant::now();
        let mut sum = 0u64;
        for _ in 0..SLICE_STEPS {
            let Reverse((at, id)) = self.pending.pop().expect("heap never drains");
            let k = (self.next_rand() % KEYS as u64) as usize;
            sum = sum.wrapping_add(self.values[&Self::key(k)]);
            self.lru.remove(&self.stamps[k]);
            self.stamps[k] = self.next_stamp;
            self.lru.insert(self.next_stamp, k);
            self.next_stamp += 1;
            let gap = 1 + self.next_rand() % 1_000;
            self.pending.push(Reverse((at + gap, id)));
        }
        std::hint::black_box(sum);
        started.elapsed()
    }

    /// Run `n` slices back to back and return their host time.
    pub fn slices(&mut self, n: u32) -> Duration {
        (0..n).map(|_| self.slice()).sum()
    }
}

/// Host time `raw` rescaled to a quiet phase, given the host time of the
/// `slices` reference slices run alongside it.
pub fn quiet(raw: Duration, slices: Duration, count: u32) -> f64 {
    raw.as_secs_f64() * (QUIET_SLICE * count).as_secs_f64() / slices.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_rescales_by_the_reference_slowdown() {
        // Slices ran at twice their quiet time, so the part ran twice as slow.
        let slices = QUIET_SLICE * 2 * 4;
        let scaled = quiet(Duration::from_secs(3), slices, 4);
        assert!((scaled - 1.5).abs() < 1e-9, "{scaled}");
        assert!(Reference::new().slice() > Duration::ZERO);
    }
}
