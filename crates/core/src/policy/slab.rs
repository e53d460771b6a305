//! Slot-indexed (slab/SoA) per-domain plane state with dirty sets.
//!
//! The engine used to hold seven parallel `BTreeMap<DomainId, _>`s and
//! rescan every live domain each tick. [`PlaneSlab`] replaces them with
//! one [`DomSlot`] per *machine slot* ([`Machine::slot_of`]): a dense
//! index assigned at domain creation and recycled LIFO at destruction, so
//! every per-domain lookup is an array index and the slab's footprint is
//! bounded by the peak concurrent domain count.
//!
//! # Dirty sets
//!
//! Steady-state ticks must be O(changed), not O(domains). Each recurring
//! sweep is driven by a membership list plus a per-slot flag:
//!
//! * `congestion_attention` — domains whose congestion protocol may need
//!   repair (`reconcile_congestion` visits only these).
//! * `health_dirty` — domains whose health tuple may have moved
//!   (`publish_health` visits only these, unless the store's global
//!   denied total moved — then a full scan is legal and explicit).
//! * `flush_active` — domains with a `flush_now` command in flight
//!   (`expire_flush_deadlines` visits only these).
//! * `kernel_dirty` — domains whose guest kernel holds dirty pages
//!   (the per-tick `nr_dirty` republish visits only these).
//! * `store_dirty` — domains whose *store* `has_dirty_pages` flag is
//!   raised (Algorithm 1's argmax candidates, exposed to rules through
//!   [`PolicyCtx::dirty_domains`](super::PolicyCtx::dirty_domains)).
//!
//! The contract (DESIGN.md §13): marking may over-approximate — visiting
//! a quiescent domain is a no-op because every visit re-checks ground
//! truth (store values, slot state) before acting — but must never
//! under-approximate, so every marking site is an *engine-internal* write
//! or a reliably-delivered kernel signal, never a lossy XenBus watch
//! event alone. Sweeps sort their list before visiting, preserving the
//! DomainId-ascending action order the full scans had, which is what
//! keeps the refactor byte-identical.
//!
//! # Slot reuse
//!
//! Machine slots are recycled; [`DomainId`]s are not. Every slot access
//! verifies `slot.dom` against the asking id: a recycled slot whose
//! occupant changed is reset to boot state before use, so a new tenant
//! can never inherit its predecessor's quarantine/backoff/health state —
//! even when the plane was detached during the predecessor's destruction
//! and no `on_domain_destroyed` ever fired.

use iorch_hypervisor::{DomainId, Machine, DOM0};
use iorch_simcore::SimTime;

use crate::keys::DomainKeys;

/// Per-domain plane state, one per machine slot.
#[derive(Default)]
pub(crate) struct DomSlot {
    /// Occupying domain; slot state is only valid for this id.
    pub dom: Option<DomainId>,
    /// Interned store paths, built once per occupancy.
    pub keys: Option<DomainKeys>,
    /// When the outstanding `release_request` grant was issued.
    pub release_pending: Option<SimTime>,
    /// Ack deadline of the in-flight `flush_now` command.
    pub flush_in_progress: Option<SimTime>,
    /// Retry backoff expiry after flush timeouts.
    pub flush_backoff_until: Option<SimTime>,
    /// Consecutive unacked flushes (reset on ack).
    pub flush_fail_streak: u32,
    /// Cumulative flush timeouts (health counter).
    pub flush_timeouts: u64,
    /// Quarantined: Baseline behaviour until an operator clears it.
    pub quarantined: bool,
    /// Last health tuple published (timeouts, quarantined, denied).
    pub health_published: Option<(u64, bool, u64)>,
    /// O(1) membership mirror of the engine's wake FIFO.
    pub in_fifo: bool,
    /// Listed in the congestion-attention set.
    pub attention: bool,
    /// Listed in the health-dirty set.
    pub health_dirty: bool,
    /// Mirror of the guest kernel's has-dirty-pages edge (fed by the
    /// reliable `DirtyStatusChanged` signal, equal to `dirty_pages() > 0`
    /// whenever the plane observes the kernel).
    pub kernel_dirty: bool,
    /// Mirror of the store's `has_dirty_pages` key (the engine is that
    /// key's only writer after boot, so the mirror cannot drift).
    pub store_dirty: bool,
}

/// The engine's per-domain state: slots plus the dirty-set lists.
#[derive(Default)]
pub(crate) struct PlaneSlab {
    slots: Vec<DomSlot>,
    /// Congestion-attention set (may hold stale/duplicate ids; sweeps
    /// sort, dedup and re-check the slot flag).
    attention: Vec<DomainId>,
    /// Health-dirty set (same lazy hygiene as `attention`).
    health_dirty: Vec<DomainId>,
    /// Domains with a flush command in flight (superset; the sweep drops
    /// entries whose slot shows no in-flight command).
    flush_active: Vec<DomainId>,
    /// Domains whose kernel holds dirty pages (superset, same hygiene).
    kernel_dirty: Vec<DomainId>,
    /// Domains whose store `has_dirty_pages` is `"1"` — kept exactly
    /// (sorted, live, no stale entries) because rules iterate it every
    /// tick through `PolicyCtx::dirty_domains`.
    store_dirty: Vec<DomainId>,
    /// Reusable buffer for explicit full scans (recovery, denied sweeps).
    scratch: Vec<DomainId>,
}

impl PlaneSlab {
    /// Index of `dom`'s slot if it is live and initialized for `dom`.
    fn live_index(&self, m: &Machine, dom: DomainId) -> Option<usize> {
        let i = m.slot_of(dom)?;
        (self.slots.get(i)?.dom == Some(dom)).then_some(i)
    }

    /// Slot of a live, initialized domain.
    pub fn slot(&self, m: &Machine, dom: DomainId) -> Option<&DomSlot> {
        self.live_index(m, dom).map(|i| &self.slots[i])
    }

    /// Mutable slot of a live domain, initializing (or resetting a
    /// recycled slot) on first touch. `None` only for domains the machine
    /// no longer knows.
    pub fn slot_mut(&mut self, m: &Machine, dom: DomainId) -> Option<&mut DomSlot> {
        let i = self.ensure(m, dom)?;
        Some(&mut self.slots[i])
    }

    /// Ensure `dom`'s slot exists and belongs to it; returns the index.
    /// A fresh occupancy starts at boot state with interned keys, both
    /// dirty-page mirrors read from ground truth, and a pending health
    /// publication (a new tenant always announces itself).
    pub fn ensure(&mut self, m: &Machine, dom: DomainId) -> Option<usize> {
        let i = m.slot_of(dom)?;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, DomSlot::default);
        }
        if self.slots[i].dom != Some(dom) {
            let keys = DomainKeys::new(dom);
            let store_dirty = m
                .store
                .read_ref(DOM0, &keys.has_dirty_pages)
                .map(|v| v == "1")
                .unwrap_or(false);
            let kernel_dirty = m
                .domain(dom)
                .map(|d| d.kernel.dirty_pages() > 0)
                .unwrap_or(false);
            self.slots[i] = DomSlot {
                dom: Some(dom),
                keys: Some(keys),
                store_dirty,
                kernel_dirty,
                ..DomSlot::default()
            };
            if store_dirty {
                sorted_insert(&mut self.store_dirty, dom);
            }
            if kernel_dirty {
                self.kernel_dirty.push(dom);
            }
            self.slots[i].health_dirty = true;
            self.health_dirty.push(dom);
        }
        Some(i)
    }

    /// Mark a domain for the congestion-reconciliation sweep.
    pub fn mark_attention(&mut self, m: &Machine, dom: DomainId) {
        if let Some(s) = self.slot_mut(m, dom) {
            if !s.attention {
                s.attention = true;
                self.attention.push(dom);
            }
        }
    }

    /// Mark a domain for the health-publication sweep.
    pub fn mark_health(&mut self, m: &Machine, dom: DomainId) {
        if let Some(s) = self.slot_mut(m, dom) {
            if !s.health_dirty {
                s.health_dirty = true;
                self.health_dirty.push(dom);
            }
        }
    }

    /// Record a flush command in flight (deadline in the slot).
    pub fn mark_flush_active(&mut self, dom: DomainId) {
        self.flush_active.push(dom);
    }

    /// Update the kernel dirty-page mirror from a `DirtyStatusChanged`
    /// signal. Clearing leaves the list entry to be dropped lazily by the
    /// republish sweep.
    pub fn set_kernel_dirty(&mut self, m: &Machine, dom: DomainId, dirty: bool) {
        if let Some(s) = self.slot_mut(m, dom) {
            if dirty && !s.kernel_dirty {
                s.kernel_dirty = true;
                self.kernel_dirty.push(dom);
            } else if !dirty {
                s.kernel_dirty = false;
            }
        }
    }

    /// Update the store `has_dirty_pages` mirror. The exact (sorted,
    /// stale-free) list is what rules iterate per tick.
    pub fn set_store_dirty(&mut self, m: &Machine, dom: DomainId, dirty: bool) {
        if let Some(s) = self.slot_mut(m, dom) {
            if s.store_dirty != dirty {
                s.store_dirty = dirty;
                if dirty {
                    sorted_insert(&mut self.store_dirty, dom);
                } else if let Ok(p) = self.store_dirty.binary_search(&dom) {
                    self.store_dirty.remove(p);
                }
            }
        }
    }

    /// Domains whose store `has_dirty_pages` is raised, ascending.
    pub fn dirty_domains(&self) -> &[DomainId] {
        &self.store_dirty
    }

    /// Whether the congestion-attention set is empty (steady-state fast
    /// path for the reconcile sweep).
    pub fn attention_is_empty(&self) -> bool {
        self.attention.is_empty()
    }

    /// Take a sweep list for visiting: sorted ascending, deduped. The
    /// caller retains the entries it keeps and hands the list back via
    /// the matching `restore_*`.
    fn take_sorted(list: &mut Vec<DomainId>) -> Vec<DomainId> {
        let mut v = std::mem::take(list);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Take the attention list for a reconcile sweep.
    pub fn take_attention(&mut self) -> Vec<DomainId> {
        Self::take_sorted(&mut self.attention)
    }

    /// Return the retained attention entries (appended after any marks
    /// made during the sweep; hygiene is restored on the next take).
    pub fn restore_attention(&mut self, kept: Vec<DomainId>) {
        restore(&mut self.attention, kept);
    }

    /// Take the health-dirty list for a publication sweep.
    pub fn take_health_dirty(&mut self) -> Vec<DomainId> {
        Self::take_sorted(&mut self.health_dirty)
    }

    /// Take the flush-active list for a deadline sweep.
    pub fn take_flush_active(&mut self) -> Vec<DomainId> {
        Self::take_sorted(&mut self.flush_active)
    }

    /// Return the retained flush-active entries.
    pub fn restore_flush_active(&mut self, kept: Vec<DomainId>) {
        restore(&mut self.flush_active, kept);
    }

    /// Take the kernel-dirty list for the republish sweep.
    pub fn take_kernel_dirty(&mut self) -> Vec<DomainId> {
        Self::take_sorted(&mut self.kernel_dirty)
    }

    /// Return the retained kernel-dirty entries.
    pub fn restore_kernel_dirty(&mut self, kept: Vec<DomainId>) {
        restore(&mut self.kernel_dirty, kept);
    }

    /// Take the scratch buffer for an explicit full scan (cleared).
    pub fn take_scratch(&mut self) -> Vec<DomainId> {
        let mut v = std::mem::take(&mut self.scratch);
        v.clear();
        v
    }

    /// Hand the scratch buffer back (capacity is kept).
    pub fn restore_scratch(&mut self, scratch: Vec<DomainId>) {
        self.scratch = scratch;
    }

    /// Clear the health-dirty set wholesale — legal right after a full
    /// health scan, which supersedes every pending entry.
    pub fn clear_health_dirty(&mut self) {
        for s in &mut self.slots {
            s.health_dirty = false;
        }
        self.health_dirty.clear();
    }

    /// Forget a domain: reset its slot and purge it from every list.
    pub fn remove(&mut self, m: &Machine, dom: DomainId) {
        if let Some(i) = self.live_index(m, dom) {
            self.slots[i] = DomSlot::default();
        }
        for list in [
            &mut self.attention,
            &mut self.health_dirty,
            &mut self.flush_active,
            &mut self.kernel_dirty,
            &mut self.store_dirty,
        ] {
            list.retain(|&d| d != dom);
        }
    }

    /// Reset to boot state (plane crash: process memory dies with dom0).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.attention.clear();
        self.health_dirty.clear();
        self.flush_active.clear();
        self.kernel_dirty.clear();
        self.store_dirty.clear();
    }

    /// Live quarantined domains, ascending (diagnostics).
    pub fn quarantined_domains(&self) -> Vec<DomainId> {
        let mut v: Vec<DomainId> = self
            .slots
            .iter()
            .filter(|s| s.quarantined)
            .filter_map(|s| s.dom)
            .collect();
        v.sort_unstable();
        v
    }

    /// Count of quarantined slots (recovery trace metadata).
    pub fn quarantined_count(&self) -> usize {
        self.slots.iter().filter(|s| s.quarantined).count()
    }

    /// Number of allocated slots (bounded by the machine's slot
    /// high-water mark; churn-test observability).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots plus the length of every dirty-set list
    /// (churn-test observability).
    #[cfg(test)]
    pub fn occupancy(&self) -> [usize; 6] {
        [
            self.slots.iter().filter(|s| s.dom.is_some()).count(),
            self.attention.len(),
            self.health_dirty.len(),
            self.flush_active.len(),
            self.kernel_dirty.len(),
            self.store_dirty.len(),
        ]
    }
}

/// Insert keeping the list sorted ascending (no-op if present).
fn sorted_insert(list: &mut Vec<DomainId>, dom: DomainId) {
    if let Err(p) = list.binary_search(&dom) {
        list.insert(p, dom);
    }
}

/// Put retained sweep entries back, after any marks made mid-sweep.
fn restore(list: &mut Vec<DomainId>, mut kept: Vec<DomainId>) {
    if list.is_empty() {
        *list = kept;
    } else {
        kept.append(list);
        *list = kept;
    }
}
