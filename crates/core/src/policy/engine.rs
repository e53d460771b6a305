//! The policy engine: one [`ControlPlane`] that executes any
//! [`PolicySet`].
//!
//! The engine owns every enforcement *mechanism* — epoch-stamped command
//! issue, persisted recovery state, quarantine bookkeeping, flush ack
//! deadlines, congestion reconciliation, the staggered wake FIFO, health
//! publication — while the set's [`Rule`]s own the *decisions*. Three
//! flags derived from the set shape the engine's behaviour:
//!
//! * `collaborative` ([`PolicySet::collaborative`]): store choreography —
//!   guest-key registration and watches at domain creation, health
//!   publication, persisted quarantine/epoch state, crash/recovery
//!   handling. A non-collaborative engine (Baseline, SDC, DIF) never
//!   touches the store and is crash-oblivious, exactly like the legacy
//!   structs whose crash handlers were no-ops.
//! * `feeds_dirty`: some rule [`feeds_dirty_pages`](Rule::feeds_dirty_pages),
//!   so the engine publishes guest dirty-page state into the store (signal
//!   handler + per-tick republish).
//! * `adjudicates`: some rule [`adjudicates`](Rule::adjudicates), so the
//!   engine runs the full Algorithm 2 machinery — `congested`-key
//!   watches, per-tick reconciliation, FIFO relief wake.
//!
//! # Steady-state cost
//!
//! Per-domain state lives in a slot-indexed [`PlaneSlab`] (DESIGN.md
//! §13), and every recurring sweep is driven by a dirty set: the
//! reconciliation, flush-deadline, dirty-page-republish and health
//! sweeps visit only domains marked by store watches, kernel signals or
//! fault paths since the previous tick. A quiescent domain costs a
//! control tick nothing, so steady-state tick cost is O(changed) rather
//! than O(live) — the `scale` experiment gates this at 1024 domains.
//! Recovery and the denied-counter health path are the two sweeps
//! allowed to request an explicit full scan.

use std::rc::Rc;

use iorch_guestos::KernelSignal;
use iorch_hypervisor::{
    AsStorePath, Cluster, ControlPlane, DomainId, Machine, Sched, StorePath, WatchEvent, DOM0,
};
use iorch_simcore::trace::{Decision, TraceEventKind};
use iorch_simcore::{trace_event, SimDuration, SimRng, SimTime};

use crate::keys::{self, val, DomainKeys};
use crate::monitor::{MonitorReport, MonitoringModule};
use crate::planes::{PlaneStats, FLUSH_ACK_TIMEOUT, FLUSH_RETRY_BACKOFF, RELEASE_ACK_TIMEOUT};

use super::slab::PlaneSlab;
use super::{Action, EnforcementPoint, FlushMode, PolicyCtx, PolicySet, Rule, Verdict};

/// Executes a [`PolicySet`]: evaluates its rules once per control tick,
/// point by point, and applies the resulting [`Action`]s through the
/// engine-owned enforcement mechanisms. See the [module docs](super) for
/// the determinism contract.
pub struct PolicyEngine {
    set: PolicySet,
    /// Derived: the set uses store choreography.
    collaborative: bool,
    /// Derived: some rule feeds on guest dirty-page state.
    feeds_dirty: bool,
    /// Derived: some rule adjudicates congestion queries.
    adjudicates: bool,
    rng: SimRng,
    monitor: MonitoringModule,
    /// Slot-indexed per-domain state plus the dirty sets driving every
    /// recurring sweep (release/flush/backoff/quarantine/health state
    /// that used to live in seven parallel `BTreeMap`s).
    slab: PlaneSlab,
    /// VMs whose congestion was confirmed (host really congested), woken
    /// FIFO when the host is relieved. Kept as a `Vec` because wake order
    /// is FIFO; membership tests go through the slot's `in_fifo` bit.
    congested_fifo: Vec<DomainId>,
    manager_watch_registered: bool,
    /// Store-wide denied total at the last health publication. While it
    /// holds still, no domain's denied counter moved and the health sweep
    /// can stay on the dirty set; when it moves, a full scan is legal.
    denied_total_seen: u64,
    /// Command generation, persisted under [`keys::STATE_EPOCH`]. Every
    /// `flush_now`/`release_request` command carries a fresh epoch; a
    /// restarted plane resumes at `persisted + 1`, so guest drivers can
    /// discard commands stamped by a dead incarnation or duplicated by an
    /// unreliable bus.
    epoch: u64,
    stats: PlaneStats,
}

impl PolicyEngine {
    /// Build an engine for a policy set.
    pub fn new(set: PolicySet) -> Self {
        let collaborative = set.collaborative;
        let any_rule = |f: fn(&dyn Rule) -> bool| set.rules.iter().any(|(_, r)| f(r.as_ref()));
        let feeds_dirty = collaborative && any_rule(|r| r.feeds_dirty_pages());
        let adjudicates = collaborative && any_rule(|r| r.adjudicates());
        PolicyEngine {
            rng: SimRng::new(set.cfg.seed ^ 0x10c),
            monitor: MonitoringModule::new(),
            collaborative,
            feeds_dirty,
            adjudicates,
            slab: PlaneSlab::default(),
            congested_fifo: Vec::new(),
            manager_watch_registered: false,
            denied_total_seen: 0,
            epoch: 0,
            stats: PlaneStats::default(),
            set,
        }
    }

    /// The policy set this engine executes.
    pub fn set(&self) -> &PolicySet {
        &self.set
    }

    /// Counters.
    pub fn stats(&self) -> PlaneStats {
        self.stats
    }

    /// Currently quarantined domains.
    pub fn quarantined_domains(&self) -> Vec<DomainId> {
        self.slab.quarantined_domains()
    }

    /// Read an unsigned counter from the plane's persisted state subtree
    /// (missing or unparsable reads as 0 — the subtree grows lazily).
    fn read_state_u64<P: AsStorePath>(m: &Machine, path: P) -> u64 {
        m.store
            .read_ref(DOM0, path)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// Bump the command generation and persist it, so a restarted plane
    /// (`epoch = persisted + 1`) always outranks in-flight commands.
    fn next_epoch(&mut self, m: &mut Machine) -> u64 {
        self.epoch += 1;
        let _ = m
            .store
            .write(DOM0, keys::STATE_EPOCH, val::uint(self.epoch));
        self.epoch
    }

    fn guest_write(m: &mut Machine, dom: DomainId, path: &StorePath, v: Rc<str>) {
        // The guest driver writes through its own credentials — permission
        // violations would surface here.
        let _ = m.store.write(dom, path, v);
    }

    /// Guest-side monitoring republish: suppressed entirely when the store
    /// already holds the value, so an idle domain puts zero traffic on the
    /// XenBus channel per tick. Only used for keys no policy callback
    /// consumes (the control keys always publish).
    fn guest_publish(m: &mut Machine, dom: DomainId, path: &StorePath, v: Rc<str>) {
        let _ = m.store.write_if_changed(dom, path, v);
    }

    /// Borrow the interned keys for `dom`, falling back to a transient
    /// set held in `tmp` when the domain has no live slot. The fallback
    /// is the cold path for stale bus deliveries addressed to destroyed
    /// domains, whose store sequences must still match the legacy plane.
    fn keys_or<'k>(
        slab: &'k mut PlaneSlab,
        m: &Machine,
        dom: DomainId,
        tmp: &'k mut Option<DomainKeys>,
    ) -> &'k mut DomainKeys {
        slab.ensure(m, dom);
        match slab.slot_mut(m, dom).and_then(|s| s.keys.as_mut()) {
            Some(k) => k,
            None => tmp.insert(DomainKeys::new(dom)),
        }
    }

    /// Whether a domain is quarantined (slot bit; unknown domains are
    /// not).
    fn is_quarantined(&self, m: &Machine, dom: DomainId) -> bool {
        self.slab.slot(m, dom).is_some_and(|s| s.quarantined)
    }

    /// Notify every rule in the set (lifecycle fan-out).
    fn each_rule(set: &mut PolicySet, mut f: impl FnMut(&mut dyn Rule)) {
        for (_, r) in &mut set.rules {
            f(r.as_mut());
        }
    }

    /// Quarantine a domain: drop it from every collaborative queue and
    /// revert it to Baseline behaviour (graceful degradation) until an
    /// operator clears it. Persisted, so a dom0 restart cannot
    /// un-quarantine an anomalous guest.
    fn quarantine(&mut self, m: &mut Machine, dom: DomainId, now: SimTime, reason: &'static str) {
        let newly = match self.slab.slot_mut(m, dom) {
            Some(slot) if !slot.quarantined => {
                slot.quarantined = true;
                slot.release_pending = None;
                slot.flush_in_progress = None;
                slot.flush_backoff_until = None;
                slot.in_fifo = false;
                slot.attention = false;
                true
            }
            _ => false,
        };
        if !newly {
            return;
        }
        self.stats.quarantines += 1;
        self.congested_fifo.retain(|&d| d != dom);
        self.slab.mark_health(m, dom);
        if self.collaborative {
            let mut tmp = None;
            let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
            let _ = m
                .store
                .write_if_changed(DOM0, &k.state_quarantined, val::one());
            // The cancelled in-flight flush must not be resurrected by
            // a later recovery scan.
            let _ = m
                .store
                .write_if_changed(DOM0, &k.state_flush_epoch, val::zero());
        }
        trace_event!(
            now,
            TraceEventKind::Decision(Decision::Quarantine { dom: dom.0, reason })
        );
    }

    /// Operator clear (a dom0 write of `"1"` to
    /// `/iorchestra/control/<id>/clear`): forgive history and restore
    /// collaboration. A strict no-op for a domain that is not quarantined
    /// — no rule notification, no store writes, no trace.
    fn clear_quarantine(&mut self, m: &mut Machine, dom: DomainId, now: SimTime) {
        match self.slab.slot_mut(m, dom) {
            Some(slot) if slot.quarantined => {
                slot.quarantined = false;
                slot.flush_fail_streak = 0;
                slot.flush_backoff_until = None;
            }
            _ => return,
        }
        trace_event!(
            now,
            TraceEventKind::Decision(Decision::QuarantineCleared { dom: dom.0 })
        );
        Self::each_rule(&mut self.set, |r| r.on_quarantine_cleared(dom));
        self.slab.mark_health(m, dom);
        if self.adjudicates {
            // A `congested` flag raised while quarantined was ignored; the
            // reconciliation sweep must look again now.
            self.slab.mark_attention(m, dom);
        }
        if self.collaborative {
            let mut tmp = None;
            let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
            let _ = m
                .store
                .write_if_changed(DOM0, &k.state_quarantined, val::zero());
            let _ = m
                .store
                .write_if_changed(DOM0, &k.state_fail_streak, val::zero());
        }
    }

    /// Evaluate every rule attached at `point` against one immutable
    /// context snapshot, then apply the collected actions in emission
    /// order. Batch-apply is the determinism keystone: rules cannot
    /// observe each other's half-applied effects within a point.
    fn eval_point(
        &mut self,
        m: &mut Machine,
        s: &mut Sched,
        now: SimTime,
        report: Option<&MonitorReport>,
        point: EnforcementPoint,
    ) {
        let mut actions = Vec::new();
        {
            let PolicyEngine { set, slab, .. } = self;
            let PolicySet { cfg, rules, .. } = set;
            let ctx = PolicyCtx {
                now,
                report,
                machine: &*m,
                cfg: &*cfg,
                slab: &*slab,
            };
            for (_, r) in rules.iter_mut().filter(|(p, _)| *p == point) {
                r.on_tick(&ctx, &mut actions);
            }
        }
        for action in actions {
            self.apply_action(m, s, now, action);
        }
    }

    /// Enforce one action. Each arm replays the exact store-write /
    /// machine-verb sequence the legacy plane used for the corresponding
    /// inline decision.
    fn apply_action(&mut self, m: &mut Machine, s: &mut Sched, now: SimTime, action: Action) {
        match action {
            Action::RateLimit { dom, bytes_per_sec } => {
                m.cp_set_rate_limit(dom, bytes_per_sec);
            }
            Action::Priority {
                dom,
                route,
                quanta,
                blkio_weight,
            } => {
                self.stats.weight_pushes += 1;
                trace_event!(
                    now,
                    TraceEventKind::Decision(Decision::WeightPush {
                        dom: dom.0,
                        weights: route.clone(),
                    })
                );
                // Publish to the store (the guests' registered callbacks
                // pick these up; for the simulated guests the machine
                // applies them directly).
                if self.collaborative {
                    let mut tmp = None;
                    let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                    for (sk, w) in route.iter().enumerate() {
                        let _ = m
                            .store
                            .write(DOM0, k.socket_weight(sk), format!("{:.4}", w));
                    }
                }
                m.cp_set_route_weights(dom, route);
                for (sk, q) in quanta {
                    m.cp_set_quantum(sk, dom, q);
                }
                m.cp_set_blkio_weight(dom, blkio_weight);
            }
            Action::Flush {
                dom,
                mode: FlushMode::Direct,
            } => {
                m.cp_remote_sync(s, dom);
            }
            Action::Flush {
                dom,
                mode:
                    FlushMode::Tracked {
                        nr_dirty,
                        candidates,
                    },
            } => {
                // Tracked choreography needs the store; a
                // non-collaborative set degrades to a direct sync.
                if !self.collaborative {
                    m.cp_remote_sync(s, dom);
                    return;
                }
                // A rule that raced the quarantine/ack bookkeeping within
                // this tick loses; built-in rules pre-filter via ctx, so
                // this guard never fires for them.
                if self
                    .slab
                    .slot(m, dom)
                    .is_some_and(|sl| sl.quarantined || sl.flush_in_progress.is_some())
                {
                    return;
                }
                let deadline = now + FLUSH_ACK_TIMEOUT;
                if let Some(slot) = self.slab.slot_mut(m, dom) {
                    slot.flush_in_progress = Some(deadline);
                    self.slab.mark_flush_active(dom);
                }
                self.stats.flushes_triggered += 1;
                trace_event!(
                    now,
                    TraceEventKind::Decision(Decision::FlushNow {
                        dom: dom.0,
                        nr_dirty,
                        candidates,
                    })
                );
                // Persist the in-flight record before issuing the command:
                // a crash between the two leaves a phantom in-flight entry
                // that expires through the normal timeout path, never a
                // command the recovered plane does not know about.
                let epoch = self.next_epoch(m);
                let mut tmp = None;
                let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                let _ = m.store.write(DOM0, &k.state_flush_epoch, val::uint(epoch));
                let _ = m.store.write(
                    DOM0,
                    &k.state_flush_deadline,
                    val::uint(deadline.as_nanos()),
                );
                let _ = m.store.write(DOM0, &k.flush_now, val::uint(epoch));
            }
            Action::Quarantine { dom, reason } => {
                self.quarantine(m, dom, now, reason);
            }
        }
    }

    /// Grant a congestion release under a fresh epoch. Shared by rule
    /// adjudication and the reconciliation re-issue, so every grant
    /// follows the same store sequence.
    fn grant_release(&mut self, m: &mut Machine, now: SimTime, dom: DomainId) {
        self.stats.releases_granted += 1;
        trace_event!(
            now,
            TraceEventKind::Decision(Decision::ReleaseGranted {
                dom: dom.0,
                host_qdepth: m.storage.queue_depth() as u32,
            })
        );
        let epoch = self.next_epoch(m);
        {
            let mut tmp = None;
            let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
            let _ = m.store.write(DOM0, &k.release_request, val::uint(epoch));
        }
        if let Some(slot) = self.slab.slot_mut(m, dom) {
            slot.release_pending = Some(now);
        }
        // The ack-timeout re-issue lives in the reconciliation sweep.
        self.slab.mark_attention(m, dom);
    }

    /// Ask the set's adjudicating rules for a verdict on one raised
    /// `congested` flag. First answer wins; the fallback is
    /// [`Verdict::Confirm`] — under no answer the guest sleeps, exactly
    /// as it would under Baseline.
    fn poll_verdict(&mut self, m: &Machine, now: SimTime, dom: DomainId) -> Verdict {
        let PolicyEngine { set, slab, .. } = self;
        let PolicySet { cfg, rules, .. } = set;
        let ctx = PolicyCtx {
            now,
            report: None,
            machine: m,
            cfg: &*cfg,
            slab: &*slab,
        };
        rules
            .iter_mut()
            .filter(|(_, r)| r.adjudicates())
            .find_map(|(_, r)| r.adjudicate(&ctx, dom))
            .unwrap_or(Verdict::Confirm)
    }

    /// Algorithm 2's adjudication of one raised `congested` flag: confirm
    /// (host really congested — park the domain in the wake FIFO) or
    /// grant a release under a fresh epoch. Shared by the watch-event
    /// handler, the per-tick reconciliation sweep and the dom0 recovery
    /// scan, so a query is answered the same way no matter which path
    /// noticed it.
    fn adjudicate_congestion(&mut self, m: &mut Machine, now: SimTime, dom: DomainId) {
        match self.poll_verdict(&*m, now, dom) {
            Verdict::Confirm => {
                self.stats.congestions_confirmed += 1;
                trace_event!(
                    now,
                    TraceEventKind::Decision(Decision::CongestionConfirmed {
                        dom: dom.0,
                        host_qdepth: m.storage.queue_depth() as u32,
                    })
                );
                if !self.slab.slot(m, dom).is_some_and(|sl| sl.in_fifo) {
                    self.congested_fifo.push(dom);
                    if let Some(slot) = self.slab.slot_mut(m, dom) {
                        slot.in_fifo = true;
                    }
                    // Confirmed domains stay under reconciliation watch
                    // until their `congested` flag drops.
                    self.slab.mark_attention(m, dom);
                }
            }
            Verdict::Release => self.grant_release(m, now, dom),
        }
    }

    /// Expire `flush_now` ack deadlines: an unresponsive guest loses its
    /// slot (the next policy run picks the next-dirtiest domain), backs
    /// off exponentially, and is quarantined after
    /// `flush_max_retries` consecutive timeouts. Visits only domains
    /// with a command in flight (ascending, like the map scan it
    /// replaced).
    fn expire_flush_deadlines(&mut self, m: &mut Machine, now: SimTime) {
        let mut active = self.slab.take_flush_active();
        if active.is_empty() {
            self.slab.restore_flush_active(active);
            return;
        }
        active.retain(|&dom| {
            let (timeouts, streak) = match self.slab.slot_mut(m, dom) {
                Some(slot) => {
                    let Some(deadline) = slot.flush_in_progress else {
                        // Acked (or quarantined) since it was listed.
                        return false;
                    };
                    if now < deadline {
                        return true;
                    }
                    slot.flush_in_progress = None;
                    slot.flush_timeouts += 1;
                    slot.flush_fail_streak += 1;
                    (slot.flush_timeouts, slot.flush_fail_streak)
                }
                None => return false,
            };
            self.stats.flush_timeouts += 1;
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::FlushTimeout { dom: dom.0, streak })
            );
            self.slab.mark_health(m, dom);
            {
                let mut tmp = None;
                let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                let _ = m
                    .store
                    .write_if_changed(DOM0, &k.state_flush_epoch, val::zero());
                let _ =
                    m.store
                        .write_if_changed(DOM0, &k.state_fail_streak, val::uint(streak as u64));
                let _ = m
                    .store
                    .write_if_changed(DOM0, &k.state_timeouts, val::uint(timeouts));
            }
            if streak >= self.set.cfg.flush_max_retries {
                self.quarantine(m, dom, now, "flush-timeout streak");
            } else {
                let shift = (streak - 1).min(6);
                let until = now + FLUSH_RETRY_BACKOFF * (1u64 << shift);
                if let Some(slot) = self.slab.slot_mut(m, dom) {
                    slot.flush_backoff_until = Some(until);
                }
            }
            false
        });
        self.slab.restore_flush_active(active);
    }

    /// Publish per-domain health counters under `/iorchestra/health/<id>`.
    /// Dirty-set driven: only domains whose timeout/quarantine state moved
    /// are visited — unless the store's global denied total moved, in
    /// which case any domain's denied counter may have changed and a full
    /// scan is the explicit, legal fallback (denials are rare and already
    /// a misbehaviour signal). A steady-state tick performs zero store
    /// operations either way.
    fn publish_health(&mut self, m: &mut Machine) {
        let denied_total = m.store.denied_total();
        if denied_total != self.denied_total_seen {
            self.denied_total_seen = denied_total;
            let mut scratch = self.slab.take_scratch();
            scratch.extend(m.domains());
            for &dom in &scratch {
                self.publish_health_one(m, dom);
            }
            self.slab.restore_scratch(scratch);
            // The full scan supersedes every pending dirty entry.
            self.slab.clear_health_dirty();
            return;
        }
        let dirty = self.slab.take_health_dirty();
        for &dom in &dirty {
            self.publish_health_one(m, dom);
        }
    }

    /// Publish one domain's health tuple if it moved since last publish.
    fn publish_health_one(&mut self, m: &mut Machine, dom: DomainId) {
        let denied = m.store.denied_count(dom);
        let (tuple, prev) = match self.slab.slot_mut(m, dom) {
            Some(slot) => {
                slot.health_dirty = false;
                let tuple = (slot.flush_timeouts, slot.quarantined, denied);
                if slot.health_published == Some(tuple) {
                    return;
                }
                (tuple, slot.health_published.replace(tuple))
            }
            None => return,
        };
        let Some(k) = self.slab.slot(m, dom).and_then(|s| s.keys.as_ref()) else {
            return;
        };
        let (timeouts, quarantined, denied) = tuple;
        // `write_if_changed` (not plain writes): after a recovery the
        // in-memory published tuples are gone, and republishing a value
        // the store already holds must stay silent.
        if prev.map(|p| p.0) != Some(timeouts) {
            let _ = m
                .store
                .write_if_changed(DOM0, &k.health_flush_timeouts, val::uint(timeouts));
        }
        if prev.map(|p| p.1) != Some(quarantined) {
            let _ = m
                .store
                .write_if_changed(DOM0, &k.health_quarantined, val::flag(quarantined));
        }
        if prev.map(|p| p.2) != Some(denied) {
            let _ = m
                .store
                .write_if_changed(DOM0, &k.health_store_denied, val::uint(denied));
        }
    }

    /// The reconciliation half of the lossy-bus hardening: re-read the
    /// congestion keys of every domain under attention straight from the
    /// store and repair whatever the bus lost. A raised `congested` flag
    /// nobody adjudicated (dropped guest-to-dom0 event, or a wake FIFO
    /// that died with a crashed plane) is adjudicated now; a granted
    /// release still unaccepted past the ack timeout (dropped dom0-to-
    /// guest delivery) is re-issued under a fresh epoch, which the guest's
    /// epoch cursor makes idempotent.
    ///
    /// The attention set is marked at every site that raises or could
    /// raise a `congested` flag the engine knows about — the engine's own
    /// `congested=1` write on a kernel query, grants, FIFO entry,
    /// quarantine clears, the recovery scan — and a domain stays under
    /// attention until a visit observes its flag down. Domains outside
    /// the set provably have nothing to reconcile, so the steady-state
    /// sweep is O(attention), allocation-free, and never clones a key.
    fn reconcile_congestion(&mut self, m: &mut Machine, now: SimTime) {
        if self.slab.attention_is_empty() {
            return;
        }
        enum Fix {
            Drop,
            Keep,
            Adjudicate,
            Regrant,
        }
        let mut att = self.slab.take_attention();
        att.retain(|&dom| {
            let fix = match self.slab.slot(m, dom) {
                Some(slot) if slot.attention && !slot.quarantined => {
                    let k = slot.keys.as_ref().expect("live slot has keys");
                    let asking = m
                        .store
                        .read_ref(DOM0, &k.congested)
                        .map(|v| v == "1")
                        .unwrap_or(false);
                    if !asking {
                        Fix::Drop
                    } else if slot.in_fifo {
                        // Confirmed: the staggered wake on relief owns
                        // this domain.
                        Fix::Keep
                    } else {
                        let granted = m
                            .store
                            .read_ref(DOM0, &k.release_request)
                            .map(|v| v != "0")
                            .unwrap_or(false);
                        if !granted {
                            // Raised but never adjudicated: the query
                            // event was lost.
                            Fix::Adjudicate
                        } else {
                            match slot.release_pending {
                                Some(issued) if now < issued + RELEASE_ACK_TIMEOUT => Fix::Keep,
                                // The grant delivery was dropped (or
                                // predates this plane incarnation):
                                // re-issue under a fresh epoch.
                                _ => Fix::Regrant,
                            }
                        }
                    }
                }
                // Dead, recycled, or de-marked (quarantined) since listed.
                _ => Fix::Drop,
            };
            match fix {
                Fix::Drop => {
                    if let Some(slot) = self.slab.slot_mut(m, dom) {
                        slot.release_pending = None;
                        slot.attention = false;
                    }
                    false
                }
                Fix::Keep => true,
                Fix::Adjudicate => {
                    self.adjudicate_congestion(m, now, dom);
                    true
                }
                Fix::Regrant => {
                    self.grant_release(m, now, dom);
                    true
                }
            }
        });
        self.slab.restore_attention(att);
    }

    fn run_congestion_relief(&mut self, m: &mut Machine, s: &mut Sched) {
        // Algorithm 2's final block: the host device is relieved; wake
        // sleeping VMs FIFO with a random 0–99 ms interleave.
        if self.congested_fifo.is_empty() {
            return;
        }
        let idx = m.idx;
        let mut offset = SimDuration::ZERO;
        let now = s.now();
        for dom in std::mem::take(&mut self.congested_fifo) {
            if let Some(slot) = self.slab.slot_mut(m, dom) {
                slot.in_fifo = false;
            }
            // `wake_interleave_max_ms == 0` means a true simultaneous wake
            // (the DESIGN.md §5 "no interleave" ablation point): no draw at
            // all, so the RNG stream is untouched too.
            if self.set.cfg.wake_interleave_max_ms > 0 {
                offset += SimDuration::from_millis(
                    self.rng.range(0, self.set.cfg.wake_interleave_max_ms),
                );
            }
            self.stats.staggered_wakeups += 1;
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::StaggeredWake {
                    dom: dom.0,
                    offset_ms: offset.as_millis(),
                })
            );
            let congested_key = {
                let mut tmp = None;
                Self::keys_or(&mut self.slab, m, dom, &mut tmp)
                    .congested
                    .clone()
            };
            s.schedule_in(offset, move |cl: &mut Cluster, s| {
                cl.cp_action(s, idx, move |m, s| {
                    // The plane that scheduled this wake may have crashed in
                    // the meantime; a dead dom0 wakes nobody. The recovery
                    // scan re-adjudicates every domain whose `congested` key
                    // is still raised.
                    if m.is_control_down() {
                        return;
                    }
                    m.cp_grant_bypass(s, dom);
                    let _ = m.store.write(DOM0, &congested_key, val::zero());
                });
            });
        }
    }
}

impl ControlPlane for PolicyEngine {
    fn name(&self) -> &'static str {
        self.set.name
    }

    fn tick_period(&self) -> Option<SimDuration> {
        self.set.tick
    }

    fn on_domain_created(&mut self, m: &mut Machine, _s: &mut Sched, dom: DomainId) {
        if !self.collaborative {
            return;
        }
        // A crashed plane arms nothing: recovery registers the watches.
        if !self.manager_watch_registered && !m.is_control_down() {
            m.store.watch(DOM0, "/local");
            m.store.watch(DOM0, keys::CONTROL_ROOT);
            self.manager_watch_registered = true;
        }
        // Guest-driver registration: defaults + a watch on its own subtree.
        // The slot (and its interned DomainKeys) built here is the one the
        // dirty-set sweeps reuse for the domain's whole lifetime.
        let mut tmp = None;
        let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
        Self::guest_write(m, dom, &k.flush_now, val::zero());
        Self::guest_write(m, dom, &k.congested, val::zero());
        Self::guest_write(m, dom, &k.release_request, val::zero());
        m.store.watch(dom, &k.virt_dev);
    }

    fn on_domain_destroyed(&mut self, m: &mut Machine, _s: &mut Sched, dom: DomainId) {
        if self.collaborative {
            // Drop every per-domain subtree (persisted state, health,
            // operator commands): a later recovery scan cannot inherit a
            // dead domain's history, and the store stays bounded by the
            // live domains.
            for root in keys::DOMAIN_ROOTS {
                let _ = m.store.remove(DOM0, format!("{root}/{}", dom.0));
            }
        }
        self.slab.remove(m, dom);
        self.congested_fifo.retain(|&d| d != dom);
        Self::each_rule(&mut self.set, |r| r.on_domain_destroyed(dom));
    }

    fn on_kernel_signal(
        &mut self,
        m: &mut Machine,
        s: &mut Sched,
        dom: DomainId,
        sig: KernelSignal,
    ) {
        if self.feeds_dirty {
            // Mirror the kernel's dirty-page edge before any quarantine
            // gating: the signal stream is reliable and is what keeps the
            // republish sweep's dirty set exact — a quarantined domain's
            // transitions must keep tracking so collaboration resumes
            // correctly when an operator clears it.
            if let KernelSignal::DirtyStatusChanged(has) = sig {
                self.slab.set_kernel_dirty(m, dom, has);
            }
        }
        if !self.collaborative || self.is_quarantined(m, dom) {
            // Non-collaborative sets — and quarantined domains under a
            // collaborative one (graceful degradation) — get stock
            // Baseline behaviour: congestion means sleeping, and nothing
            // touches the store or the collaborative queues.
            if sig == KernelSignal::CongestionQuery {
                m.cp_enter_congestion(s, dom);
            }
            return;
        }
        match sig {
            KernelSignal::DirtyStatusChanged(has) => {
                if self.feeds_dirty {
                    let nr = m.domain(dom).map(|d| d.kernel.dirty_pages()).unwrap_or(0);
                    let mut tmp = None;
                    let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                    // Monitoring keys: no callback consumes them, so a
                    // value the store already holds is not republished.
                    Self::guest_publish(m, dom, &k.has_dirty_pages, val::flag(has));
                    Self::guest_publish(m, dom, &k.nr_dirty, val::uint(nr));
                    // This is the only post-boot writer of the store's
                    // has_dirty flag, so updating the mirror here keeps
                    // `PolicyCtx::dirty_domains` exact.
                    self.slab.set_store_dirty(m, dom, has);
                }
            }
            KernelSignal::CongestionQuery => {
                if self.adjudicates {
                    // The guest enters congestion immediately (as Linux
                    // does) and asks the host through the store; the answer
                    // arrives a store-round-trip later. This is a control
                    // key: it always publishes, because the management
                    // module must re-answer even a repeated query.
                    m.cp_enter_congestion(s, dom);
                    {
                        let mut tmp = None;
                        let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                        Self::guest_write(m, dom, &k.congested, val::one());
                    }
                    // The engine itself raised the flag in the store, so
                    // the reconciliation sweep will adjudicate it even if
                    // the watch delivery is lost.
                    self.slab.mark_attention(m, dom);
                } else {
                    m.cp_enter_congestion(s, dom);
                }
            }
            KernelSignal::CongestionCleared => {
                if self.adjudicates {
                    let mut tmp = None;
                    let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                    Self::guest_write(m, dom, &k.congested, val::zero());
                    self.congested_fifo.retain(|&d| d != dom);
                    if let Some(slot) = self.slab.slot_mut(m, dom) {
                        slot.in_fifo = false;
                    }
                }
            }
            KernelSignal::RemoteSyncCompleted => {
                let mut tmp = None;
                let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                Self::guest_write(m, dom, &k.flush_now, val::zero());
            }
        }
        let _ = s;
    }

    fn on_store_event(&mut self, m: &mut Machine, s: &mut Sched, ev: WatchEvent) {
        if !self.collaborative {
            return;
        }
        // Operator command channel (outside /local, so only dom0 can write
        // it — a quarantined guest cannot clear itself).
        if let Some(dom) = keys::control_dom_of_path(&ev.path) {
            if ev.owner == DOM0
                && keys::is_key(&ev.path, "clear")
                && ev.value.as_deref() == Some("1")
            {
                self.clear_quarantine(m, dom, s.now());
                // Consume the command edge: the key returns to "0" so a
                // recovery scan only sees clears that were never processed,
                // and the operator's next write is a fresh edge.
                let _ = m.store.write(DOM0, &*ev.path, val::zero());
            }
            return;
        }
        let Some(dom) = keys::domain_of_path(&ev.path) else {
            return;
        };
        if self.is_quarantined(m, dom) {
            // The management module ignores a quarantined domain's keys
            // entirely — its watch-event spam costs one slot probe here.
            return;
        }
        if ev.owner == DOM0 {
            // Management-module side.
            if keys::is_key(&ev.path, "congested") && ev.value.as_deref() == Some("1") {
                if !self.adjudicates {
                    return;
                }
                // Events are hints; the store is the state of record. The
                // per-tick reconciliation sweep may have adjudicated this
                // query already (e.g. when the raising event was delayed),
                // in which case this delivery is a no-op.
                let (still_asking, granted) = {
                    let mut tmp = None;
                    let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                    (
                        m.store
                            .read_ref(DOM0, &k.congested)
                            .map(|v| v == "1")
                            .unwrap_or(false),
                        m.store
                            .read_ref(DOM0, &k.release_request)
                            .map(|v| v != "0")
                            .unwrap_or(false),
                    )
                };
                let in_fifo = self.slab.slot(m, dom).is_some_and(|sl| sl.in_fifo);
                if still_asking && !granted && !in_fifo {
                    // Defensive mark: however this flag got raised, keep
                    // the domain under reconciliation watch until it drops.
                    self.slab.mark_attention(m, dom);
                    self.adjudicate_congestion(m, s.now(), dom);
                }
            } else if keys::is_key(&ev.path, "flush_now") && ev.value.as_deref() == Some("0") {
                // The guest acked (wrote flush_now back to 0): the flush
                // completed, so the domain is in good standing again.
                let had_in_flight = self
                    .slab
                    .slot_mut(m, dom)
                    .is_some_and(|slot| slot.flush_in_progress.take().is_some());
                if had_in_flight {
                    trace_event!(
                        s.now(),
                        TraceEventKind::Decision(Decision::FlushAck { dom: dom.0 })
                    );
                }
                if let Some(slot) = self.slab.slot_mut(m, dom) {
                    slot.flush_fail_streak = 0;
                    slot.flush_backoff_until = None;
                }
                let mut tmp = None;
                let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                let _ = m
                    .store
                    .write_if_changed(DOM0, &k.state_flush_epoch, val::zero());
                let _ = m
                    .store
                    .write_if_changed(DOM0, &k.state_fail_streak, val::zero());
            }
        } else if ev.owner == dom {
            // Guest-driver side (registered callback functions). Commands
            // are epoch-stamped (any value > 0); the guest kernel remembers
            // the highest epoch it has executed per channel and discards
            // stale or duplicated deliveries, so a recovering plane and an
            // unreliable bus are both safe.
            let cmd = ev
                .value
                .as_deref()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            if keys::is_key(&ev.path, "flush_now") && cmd > 0 {
                let Some(kernel) = m.kernel_mut(dom) else {
                    return;
                };
                let accepted = kernel.accept_flush_epoch(cmd);
                let last_seen = kernel.flush_epoch_seen();
                if accepted {
                    m.cp_remote_sync(s, dom);
                } else {
                    // The original delivery of this command (or a newer
                    // one) already drove the flush; acking here would tell
                    // the plane a still-running flush completed.
                    trace_event!(
                        s.now(),
                        TraceEventKind::Decision(Decision::StaleCommand {
                            dom: dom.0,
                            epoch: cmd,
                            last_seen,
                        })
                    );
                }
            } else if keys::is_key(&ev.path, "release_request") && cmd > 0 {
                let Some(kernel) = m.kernel_mut(dom) else {
                    return;
                };
                let accepted = kernel.accept_release_epoch(cmd);
                let last_seen = kernel.release_epoch_seen();
                if accepted {
                    m.cp_grant_bypass(s, dom);
                    let mut tmp = None;
                    let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                    Self::guest_write(m, dom, &k.release_request, val::zero());
                    Self::guest_write(m, dom, &k.congested, val::zero());
                } else {
                    trace_event!(
                        s.now(),
                        TraceEventKind::Decision(Decision::StaleCommand {
                            dom: dom.0,
                            epoch: cmd,
                            last_seen,
                        })
                    );
                }
            }
        }
    }

    fn on_tick(&mut self, m: &mut Machine, s: &mut Sched) {
        let now = s.now();
        let report = self.monitor.sample(m, now);
        // Admission rules (anomaly budgets → quarantine).
        self.eval_point(m, s, now, Some(&report), EnforcementPoint::QueueAdmission);
        if self.collaborative {
            // Unacked flush commands lose their slot, with
            // backoff/quarantine.
            self.expire_flush_deadlines(m, now);
        }
        if self.feeds_dirty {
            // Guest drivers republish their dirty-page counts each period
            // so the argmax in Algorithm 1 works from fresh numbers. The
            // sweep visits only domains whose kernel actually holds dirty
            // pages (the signal-fed mirror): for every other domain the
            // count is 0 and the legacy full scan skipped it anyway.
            let mut dirty = self.slab.take_kernel_dirty();
            dirty.retain(|&dom| {
                match self.slab.slot(m, dom) {
                    Some(slot) if slot.kernel_dirty => {
                        if slot.quarantined {
                            // Not republished while quarantined, but stays
                            // tracked so collaboration resumes on clear.
                            return true;
                        }
                    }
                    // Dirty pages gone (or domain dead) since listed.
                    _ => return false,
                }
                let nr = m.domain(dom).map(|d| d.kernel.dirty_pages()).unwrap_or(0);
                if nr > 0 {
                    let mut tmp = None;
                    let k = Self::keys_or(&mut self.slab, m, dom, &mut tmp);
                    Self::guest_publish(m, dom, &k.nr_dirty, val::uint(nr));
                }
                true
            });
            self.slab.restore_kernel_dirty(dirty);
        }
        // Command-issue rules (flush argmax, DIF broadcast).
        self.eval_point(m, s, now, Some(&report), EnforcementPoint::CommandIssue);
        if self.adjudicates {
            self.reconcile_congestion(m, now);
            if !report.device_congested {
                self.run_congestion_relief(m, s);
            }
        }
        self.eval_point(m, s, now, Some(&report), EnforcementPoint::RingPush);
        // Dispatch rules (co-scheduling weights).
        self.eval_point(m, s, now, Some(&report), EnforcementPoint::DeviceDispatch);
        if self.collaborative {
            self.publish_health(m);
        }
    }

    fn on_crash(&mut self, _m: &mut Machine, s: &mut Sched) {
        if !self.collaborative {
            // Baseline/SDC/DIF kept no dom0-resident state worth tracing;
            // the legacy structs' crash handlers were no-ops.
            return;
        }
        trace_event!(s.now(), TraceEventKind::Decision(Decision::PlaneCrash));
        // The daemon's process memory dies with dom0; only the store (and
        // the guests) survive. Reset every field to its boot state — the
        // recovery scan rebuilds what was persisted.
        self.rng = SimRng::new(self.set.cfg.seed ^ 0x10c);
        self.monitor = MonitoringModule::new();
        self.slab.clear();
        self.congested_fifo.clear();
        self.manager_watch_registered = false;
        self.denied_total_seen = 0;
        self.epoch = 0;
        self.stats = PlaneStats::default();
        Self::each_rule(&mut self.set, |r| r.on_crash());
    }

    fn on_recover(&mut self, m: &mut Machine, s: &mut Sched) {
        if !self.collaborative {
            return;
        }
        let now = s.now();
        // The store is the source of truth. Events the dead incarnation
        // missed are gone (XenBus does not replay), so everything below
        // works from current store values, never from event history.
        self.epoch = Self::read_state_u64(m, keys::STATE_EPOCH) + 1;
        let _ = m
            .store
            .write(DOM0, keys::STATE_EPOCH, val::uint(self.epoch));
        m.store.watch(DOM0, "/local");
        m.store.watch(DOM0, keys::CONTROL_ROOT);
        self.manager_watch_registered = true;
        // Rules re-seed their decision state from current observables
        // (e.g. anomaly bases at the current counters, so traffic that
        // happened while dom0 was down is not a post-recovery burst).
        {
            let PolicyEngine { set, slab, .. } = self;
            let PolicySet { cfg, rules, .. } = set;
            let ctx = PolicyCtx {
                now,
                report: None,
                machine: &*m,
                cfg: &*cfg,
                slab: &*slab,
            };
            for (_, r) in rules.iter_mut() {
                r.on_recover(&ctx);
            }
        }
        // Recovery is one of the two explicit full scans the dirty-set
        // contract allows (DESIGN.md §13): the dead incarnation's marks
        // died with it, so every live domain is re-examined. Fresh slots
        // come out health-dirty, and the mirrors (kernel/store dirty
        // pages) are re-read from ground truth by `ensure`.
        let mut scratch = self.slab.take_scratch();
        scratch.extend(m.domains());
        for &dom in &scratch {
            self.slab.ensure(m, dom);
            let Some(k) = self
                .slab
                .slot(m, dom)
                .and_then(|sl| sl.keys.as_ref())
                .cloned()
            else {
                continue;
            };
            if Self::read_state_u64(m, &k.state_quarantined) == 1 {
                if let Some(slot) = self.slab.slot_mut(m, dom) {
                    slot.quarantined = true;
                }
            }
            let streak = Self::read_state_u64(m, &k.state_fail_streak) as u32;
            let timeouts = Self::read_state_u64(m, &k.state_timeouts);
            if let Some(slot) = self.slab.slot_mut(m, dom) {
                slot.flush_fail_streak = streak;
                slot.flush_timeouts = timeouts;
            }
            if Self::read_state_u64(m, &k.state_flush_epoch) > 0 {
                // A flush was in flight at the crash. If the guest already
                // wrote the ack (its `"0"` event was addressed to the dead
                // incarnation and dropped), honour it; otherwise restore
                // the in-flight record — a deadline that passed during the
                // outage expires through the normal timeout path.
                let acked = m
                    .store
                    .read_ref(DOM0, &k.flush_now)
                    .map(|v| v == "0")
                    .unwrap_or(true);
                if acked {
                    if let Some(slot) = self.slab.slot_mut(m, dom) {
                        slot.flush_fail_streak = 0;
                    }
                    let _ = m.store.write(DOM0, &k.state_flush_epoch, val::zero());
                    let _ = m
                        .store
                        .write_if_changed(DOM0, &k.state_fail_streak, val::zero());
                } else {
                    let deadline =
                        SimTime::from_nanos(Self::read_state_u64(m, &k.state_flush_deadline));
                    if let Some(slot) = self.slab.slot_mut(m, dom) {
                        slot.flush_in_progress = Some(deadline);
                        self.slab.mark_flush_active(dom);
                    }
                }
            }
            // Operator clears written while dom0 was down.
            let clear_key = keys::clear_quarantine(dom);
            let cleared = m
                .store
                .read_ref(DOM0, clear_key.as_str())
                .map(|v| v == "1")
                .unwrap_or(false);
            if cleared {
                self.clear_quarantine(m, dom, now);
                let _ = m.store.write(DOM0, clear_key.as_str(), val::zero());
            }
            // Domains still asking about congestion: their query event (or
            // the scheduled wake) died with the old incarnation, and a
            // sleeping guest cannot re-ask. Re-adjudicate from the store —
            // even if the dead incarnation had granted a release (its epoch
            // is outranked, and the delivery may have died with it).
            if self.adjudicates && !self.is_quarantined(m, dom) {
                let asking = m
                    .store
                    .read_ref(DOM0, &k.congested)
                    .map(|v| v == "1")
                    .unwrap_or(false);
                if asking {
                    self.slab.mark_attention(m, dom);
                    self.adjudicate_congestion(m, now, dom);
                }
            }
        }
        let domain_count = scratch.len();
        self.slab.restore_scratch(scratch);
        self.denied_total_seen = m.store.denied_total();
        // Retries and protocol turnarounds the guests burned against the
        // dead incarnation must not carry over as empty token buckets — a
        // denial storm the moment service resumes would quarantine the
        // victims of the outage. A true hammer re-drains its refilled
        // bucket within milliseconds and re-trips the detector anyway.
        m.store.quota_refill_all();
        trace_event!(
            now,
            TraceEventKind::Decision(Decision::PlaneRecover {
                epoch: self.epoch,
                domains: domain_count as u32,
                quarantined: self.slab.quarantined_count() as u32,
            })
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planes::IOrchestraConfig;

    #[test]
    fn builtin_set_names_and_ticks() {
        assert_eq!(PolicyEngine::new(PolicySet::baseline()).name(), "baseline");
        assert_eq!(PolicyEngine::new(PolicySet::sdc()).name(), "sdc");
        assert_eq!(PolicyEngine::new(PolicySet::dif()).name(), "dif");
        assert_eq!(
            PolicyEngine::new(PolicySet::iorchestra(IOrchestraConfig::new(1))).name(),
            "iorchestra"
        );
        assert!(PolicyEngine::new(PolicySet::baseline())
            .tick_period()
            .is_none());
        assert!(PolicyEngine::new(PolicySet::dif()).tick_period().is_some());
        assert!(
            PolicyEngine::new(PolicySet::iorchestra(IOrchestraConfig::new(1)))
                .tick_period()
                .is_some()
        );
    }

    #[test]
    fn derived_flags_follow_the_attached_rules() {
        let full = PolicyEngine::new(PolicySet::iorchestra(IOrchestraConfig::new(1)));
        assert!(full.collaborative && full.feeds_dirty && full.adjudicates);
        let flush_only = PolicyEngine::new(PolicySet::iorchestra(
            IOrchestraConfig::new(1).with_functions(crate::planes::FunctionSet::flush_only()),
        ));
        assert!(flush_only.feeds_dirty && !flush_only.adjudicates);
        let dif = PolicyEngine::new(PolicySet::dif());
        assert!(!dif.collaborative && !dif.feeds_dirty && !dif.adjudicates);
    }

    /// The evaluation contract (DESIGN.md §10): one tick visits the points
    /// in `EnforcementPoint` order whatever order the rules were added
    /// in, and the actions of a point apply only after every rule at that
    /// point has run, so a later rule never sees an earlier rule's effect.
    #[test]
    fn rules_run_in_point_order_and_actions_apply_after_the_point() {
        use std::cell::RefCell;

        use iorch_hypervisor::{IoPathMode, MachineConfig, VmSpec};
        use iorch_simcore::Simulation;

        type Log<T> = Rc<RefCell<Vec<T>>>;
        struct Record(EnforcementPoint, Log<EnforcementPoint>);
        impl Rule for Record {
            fn on_tick(&mut self, _ctx: &PolicyCtx<'_>, _out: &mut Vec<Action>) {
                self.1.borrow_mut().push(self.0);
            }
        }
        struct QuarantineIt(DomainId);
        impl Rule for QuarantineIt {
            fn on_tick(&mut self, _ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
                out.push(Action::Quarantine {
                    dom: self.0,
                    reason: "contract test",
                });
            }
        }
        struct SeeQuarantine(DomainId, Log<bool>);
        impl Rule for SeeQuarantine {
            fn on_tick(&mut self, ctx: &PolicyCtx<'_>, _out: &mut Vec<Action>) {
                self.1.borrow_mut().push(ctx.is_quarantined(self.0));
            }
        }

        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let idx = cl.add_machine(MachineConfig::paper_testbed(3, IoPathMode::Paravirt));
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(4), |_| {});
        let points: Log<EnforcementPoint> = Rc::default();
        let seen: Log<bool> = Rc::default();
        let mut set = PolicySet::custom("contract", IOrchestraConfig::new(3)).collaborative(true);
        for p in [
            EnforcementPoint::DeviceDispatch,
            EnforcementPoint::QueueAdmission,
            EnforcementPoint::RingPush,
            EnforcementPoint::CommandIssue,
        ] {
            set = set.rule(p, Record(p, Rc::clone(&points)));
        }
        let set = set
            .rule(EnforcementPoint::CommandIssue, QuarantineIt(dom))
            .rule(
                EnforcementPoint::CommandIssue,
                SeeQuarantine(dom, Rc::clone(&seen)),
            );
        let mut plane = PolicyEngine::new(set);
        plane.on_domain_created(cl.machine_mut(idx), s, dom);
        plane.on_tick(cl.machine_mut(idx), s);

        assert_eq!(
            *points.borrow(),
            [
                EnforcementPoint::QueueAdmission,
                EnforcementPoint::CommandIssue,
                EnforcementPoint::RingPush,
                EnforcementPoint::DeviceDispatch,
            ]
        );
        assert_eq!(*seen.borrow(), [false], "action applied mid-point");
        assert_eq!(plane.quarantined_domains(), [dom]);
    }

    /// Regression: the retry-backoff shift is capped at 6 (and
    /// `SimDuration * u64` saturates), so an absurd fail streak can never
    /// overflow the `1u64 << shift` arithmetic or produce a wrapped-around
    /// backoff deadline in the past.
    #[test]
    fn flush_backoff_shift_is_capped_at_long_streaks() {
        use iorch_hypervisor::{IoPathMode, MachineConfig, VmSpec};
        use iorch_simcore::Simulation;

        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let idx = cl.add_machine(MachineConfig::paper_testbed(1, IoPathMode::Paravirt));
        let mut cfg = IOrchestraConfig::new(1);
        cfg.flush_max_retries = u32::MAX; // keep the quarantine path out of the way
        let mut plane = PolicyEngine::new(PolicySet::iorchestra(cfg));
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(4), |_| {});
        let now = SimTime::from_secs(100);
        for &streak in &[6u32, 31, 63, 64, 200, u32::MAX - 2] {
            let m = cl.machine_mut(idx);
            {
                let slot = plane.slab.slot_mut(&*m, dom).unwrap();
                slot.flush_fail_streak = streak;
                slot.flush_in_progress = Some(now);
            }
            plane.slab.mark_flush_active(dom);
            plane.expire_flush_deadlines(m, now);
            let until = plane
                .slab
                .slot(&*m, dom)
                .unwrap()
                .flush_backoff_until
                .expect("timeout sets a backoff");
            // Every streak past the cap backs off by exactly base * 2^6.
            assert_eq!(
                until,
                now + FLUSH_RETRY_BACKOFF * (1u64 << 6),
                "streak {streak}"
            );
            assert!(until > now, "streak {streak}: backoff wrapped");
        }
    }

    /// Regression: `wake_interleave_max_ms == 0` means a true simultaneous
    /// wake — zero offset for every woken domain and no RNG draw at all
    /// (the old code clamped the draw bound to 1 and still consumed the
    /// stream, so "no interleave" silently became "0–1 ms interleave").
    #[test]
    fn interleave_zero_is_simultaneous_and_draws_no_rng() {
        use iorch_hypervisor::{IoPathMode, MachineConfig, VmSpec};
        use iorch_simcore::{gen, Simulation};

        gen::for_each_seed(0x1A_0001, 16, |seed, rng| {
            let doms = 2 + rng.below(6);
            let mut sim = Simulation::new(Cluster::new());
            let (cl, s) = sim.parts_mut();
            let idx = cl.add_machine(MachineConfig::paper_testbed(seed, IoPathMode::Paravirt));
            let mut cfg = IOrchestraConfig::new(seed);
            cfg.wake_interleave_max_ms = 0;
            let mut plane = PolicyEngine::new(PolicySet::iorchestra(cfg));
            let mut ids = Vec::new();
            for _ in 0..doms {
                ids.push(cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(4), |_| {}));
            }
            plane.congested_fifo = ids;
            let mut pristine = plane.rng.clone();
            let session = iorch_simcore::trace::TraceSession::new();
            plane.run_congestion_relief(cl.machine_mut(idx), s);
            let rec = session.finish();
            assert_eq!(plane.stats.staggered_wakeups, doms, "seed {seed}");
            assert!(plane.congested_fifo.is_empty(), "seed {seed}");
            // The RNG stream is untouched: the next draw matches a clone
            // taken before the relief ran.
            assert_eq!(
                pristine.next_u64(),
                plane.rng.next_u64(),
                "seed {seed}: interleave 0 consumed the RNG stream"
            );
            if iorch_simcore::trace::COMPILED {
                let offsets: Vec<u64> = rec
                    .into_events()
                    .iter()
                    .filter_map(|e| match &e.kind {
                        TraceEventKind::Decision(Decision::StaggeredWake { offset_ms, .. }) => {
                            Some(*offset_ms)
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(offsets, vec![0; doms as usize], "seed {seed}");
            }
        });
    }

    /// Tenant churn (the ROADMAP's millions-of-users scenario seed): slab
    /// slots are recycled, the per-domain state stays bounded by the peak
    /// concurrent domain count, and a domain occupying a recycled slot
    /// never inherits its predecessor's quarantine/backoff/health state —
    /// even when the plane was detached for the predecessor's destruction
    /// and no `on_domain_destroyed` ever fired.
    #[test]
    fn churned_slab_slots_are_recycled_and_start_clean() {
        use iorch_hypervisor::{IoPathMode, MachineConfig, VmSpec};
        use iorch_simcore::Simulation;

        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let idx = cl.add_machine(MachineConfig::paper_testbed(7, IoPathMode::Paravirt));
        let mut plane = PolicyEngine::new(PolicySet::iorchestra(IOrchestraConfig::new(7)));
        let spec = || VmSpec::new(1, 1).with_disk_gb(4);

        // A long-lived neighbour pins slot 0.
        let anchor = cl.create_domain(s, idx, spec(), |_| {});
        plane.on_domain_created(cl.machine_mut(idx), s, anchor);

        let mut last = None;
        for round in 0..64 {
            let dom = cl.create_domain(s, idx, spec(), |_| {});
            plane.on_domain_created(cl.machine_mut(idx), s, dom);
            let m = cl.machine_mut(idx);
            assert_eq!(m.slot_of(dom), Some(1), "round {round}: slot recycled");
            if let Some(prev) = last {
                assert!(dom.0 > prev, "round {round}: DomainIds are monotonic");
            }
            last = Some(dom.0);
            // Fresh occupant starts clean, whatever its predecessor did.
            {
                let slot = plane.slab.slot(&*m, dom).expect("live slot");
                assert!(!slot.quarantined, "round {round}: inherited quarantine");
                assert_eq!(slot.flush_fail_streak, 0, "round {round}: inherited streak");
                assert!(
                    slot.flush_backoff_until.is_none(),
                    "round {round}: inherited backoff"
                );
                assert!(
                    slot.health_published.is_none(),
                    "round {round}: inherited health"
                );
            }
            assert!(
                plane.quarantined_domains().is_empty(),
                "round {round}: stale quarantine survived churn"
            );
            // Dirty up the slot: quarantine + backoff + published health.
            let now = s.now();
            plane.quarantine(m, dom, now, "churn-test");
            if let Some(slot) = plane.slab.slot_mut(&*m, dom) {
                slot.flush_fail_streak = 3;
                slot.flush_backoff_until = Some(now + SimDuration::from_secs(60));
                slot.health_published = Some((9, true, 9));
            }
            // Odd rounds detach the plane for the destruction: the slab
            // only learns through slot revalidation at the next occupancy.
            if round % 2 == 0 {
                plane.on_domain_destroyed(cl.machine_mut(idx), s, dom);
            }
            cl.destroy_domain(s, idx, dom);
        }
        // Bounded: two concurrent domains peak → two slots, no map growth.
        assert_eq!(plane.slab.len(), 2);
        // One more occupancy revalidates the last (detached-destroy) slot;
        // the stale quarantine bit from round 63 must not survive it.
        let probe = cl.create_domain(s, idx, spec(), |_| {});
        plane.on_domain_created(cl.machine_mut(idx), s, probe);
        assert_eq!(plane.slab.len(), 2);
        assert!(plane.quarantined_domains().is_empty());
    }

    /// Delegates to an engine the test keeps a handle on, so the slab can
    /// be inspected while the machine drives the engine.
    struct Shared(Rc<std::cell::RefCell<PolicyEngine>>);

    impl ControlPlane for Shared {
        fn name(&self) -> &'static str {
            "shared"
        }
        fn tick_period(&self) -> Option<SimDuration> {
            self.0.borrow().tick_period()
        }
        fn on_domain_created(&mut self, m: &mut Machine, s: &mut Sched, dom: DomainId) {
            self.0.borrow_mut().on_domain_created(m, s, dom);
        }
        fn on_domain_destroyed(&mut self, m: &mut Machine, s: &mut Sched, dom: DomainId) {
            self.0.borrow_mut().on_domain_destroyed(m, s, dom);
        }
        fn on_kernel_signal(
            &mut self,
            m: &mut Machine,
            s: &mut Sched,
            dom: DomainId,
            sig: KernelSignal,
        ) {
            self.0.borrow_mut().on_kernel_signal(m, s, dom, sig);
        }
        fn on_store_event(&mut self, m: &mut Machine, s: &mut Sched, ev: WatchEvent) {
            self.0.borrow_mut().on_store_event(m, s, ev);
        }
        fn on_tick(&mut self, m: &mut Machine, s: &mut Sched) {
            self.0.borrow_mut().on_tick(m, s);
        }
        fn on_crash(&mut self, m: &mut Machine, s: &mut Sched) {
            self.0.borrow_mut().on_crash(m, s);
        }
        fn on_recover(&mut self, m: &mut Machine, s: &mut Sched) {
            self.0.borrow_mut().on_recover(m, s);
        }
    }

    /// Churn soak oracle: 256 live tenants under read traffic, then 500
    /// destroy+create cycles with a plane crash and recovery in the
    /// middle. Every per-domain structure — store nodes and watches, the
    /// store's per-domain maps, the machine's per-domain maps and slot
    /// space, I/O-core DRR state, the host queue's per-stream entries and
    /// the engine slab — must return
    /// exactly to its pre-churn size once traffic quiesces.
    #[test]
    fn churn_soak_returns_every_per_domain_structure_to_its_pre_churn_size() {
        use std::cell::Cell;

        use iorch_guestos::FileOp;
        use iorch_hypervisor::{IoPathMode, MachineConfig, VmSpec};
        use iorch_simcore::Simulation;

        const LIVE: usize = 256;
        const CYCLES: usize = 500;
        // The plane is down for cycles CRASH..CRASH + 10. Tenants booted
        // in that window never see the dom0 half of their registration,
        // so their persisted-state footprint differs; CRASH is early
        // enough that the churn destroys them again before the end.
        const CRASH: usize = 200;
        const FILE: u64 = 64 << 20;
        const READ: u64 = 64 << 10;

        /// Boot a tenant whose reader issues one uncached read every
        /// 20 ms while `on` is set, until the tenant is destroyed.
        fn tenant(cl: &mut Cluster, s: &mut Sched, idx: usize, on: &Rc<Cell<bool>>) -> DomainId {
            let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(2), |_| {});
            let file = cl
                .machine_mut(idx)
                .kernel_mut(dom)
                .unwrap()
                .create_file(FILE)
                .unwrap();
            let on = Rc::clone(on);
            let mut next = 0u64;
            s.schedule_every(SimDuration::from_millis(20), move |cl: &mut Cluster, s| {
                if cl.machine(idx).domain(dom).is_none() {
                    return false;
                }
                if on.get() {
                    let op = FileOp::Read {
                        file,
                        offset: next % FILE,
                        len: READ,
                    };
                    next += READ;
                    cl.submit_op(s, idx, dom, 0, op, None);
                }
                true
            });
            dom
        }

        type Sizes = (
            usize,
            usize,
            [usize; 4],
            [usize; 2],
            usize,
            Vec<[usize; 2]>,
            [usize; 2],
            [usize; 6],
        );
        fn sizes(cl: &Cluster, idx: usize, engine: &PolicyEngine) -> Sizes {
            let m = cl.machine(idx);
            // The recovery persists the plane's global epoch; every other
            // node belongs to a live domain or to the fixed layout.
            let nodes = m.store.dump().into_iter();
            (
                nodes.filter(|(p, ..)| p != keys::STATE_EPOCH).count(),
                m.store.watch_count(),
                m.store.domain_entries(),
                m.domain_entries(),
                m.slot_count(),
                m.iocores.iter().map(|c| c.domain_entries()).collect(),
                m.storage.stream_entries(),
                engine.slab.occupancy(),
            )
        }

        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let idx = cl.add_machine(MachineConfig::paper_testbed(
            11,
            IoPathMode::DedicatedCores { per_socket: true },
        ));
        let engine = Rc::new(std::cell::RefCell::new(PolicyEngine::new(
            PolicySet::iorchestra(IOrchestraConfig::new(11)),
        )));
        cl.install_control(s, idx, Box::new(Shared(Rc::clone(&engine))));
        let on = Rc::new(Cell::new(true));
        let mut live: std::collections::VecDeque<DomainId> =
            (0..LIVE).map(|_| tenant(cl, s, idx, &on)).collect();

        let settle = |sim: &mut Simulation<Cluster>, on: &Cell<bool>| {
            on.set(false);
            let quiet = sim.now() + SimDuration::from_secs(1);
            sim.run_until(quiet);
            on.set(true);
        };
        sim.run_until(SimTime::from_millis(500));
        settle(&mut sim, &on);
        let before = sizes(sim.world(), idx, &engine.borrow());
        assert_eq!(before.4, LIVE);
        assert!(before.3.iter().all(|&n| n == LIVE), "{before:?}");

        for cycle in 0..CYCLES {
            let t = sim.now() + SimDuration::from_millis(1);
            sim.run_until(t);
            let (cl, s) = sim.parts_mut();
            if cycle == CRASH {
                Cluster::crash_control(cl, s, idx);
            }
            if cycle == CRASH + 10 {
                Cluster::recover_control(cl, s, idx);
            }
            let old = live.pop_front().unwrap();
            cl.destroy_domain(s, idx, old);
            live.push_back(tenant(cl, s, idx, &on));
        }
        // The newest tenants need traffic of their own before quiescing.
        let t = sim.now() + SimDuration::from_millis(500);
        sim.run_until(t);
        settle(&mut sim, &on);
        let after = sizes(sim.world(), idx, &engine.borrow());
        assert_eq!(after, before, "per-domain state leaked across churn");
    }
}
