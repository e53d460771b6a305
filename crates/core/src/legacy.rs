//! Frozen pre-redesign control planes, kept as the differential oracle.
//!
//! These are the hand-fused plane structs exactly as they stood before the
//! [`policy`](crate::policy) pipeline redesign: [`LegacyBaselinePlane`],
//! [`LegacyDifPlane`], and [`LegacyIOrchestraPlane`] (Algorithms 1–3 plus
//! the PR 5 robustness machinery, hardcoded into one `on_tick`). The
//! equivalence suite replays every tracedump fault scenario against both a
//! legacy plane and the pipeline-expressed policy set and asserts the
//! rendered traces are **byte-identical** — the same role the
//! `xenstore_legacy` model plays for the store. New code should use
//! [`PolicySet`](crate::policy::PolicySet) constructors instead; nothing
//! here is wired into [`SystemKind`](crate::SystemKind) provisioning.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use iorch_guestos::KernelSignal;
use iorch_hypervisor::{
    AsStorePath, Cluster, ControlPlane, DomainId, Machine, Sched, StorePath, WatchEvent, DOM0,
};
use iorch_simcore::trace::{Decision, TraceEventKind};
use iorch_simcore::{trace_event, SimDuration, SimRng, SimTime};

use crate::anomaly::{AnomalyDetector, AnomalyParams};
use crate::formulas::{
    drr_quantum, inverse_latency_weights, ratio_changed, socket_io_share, socket_process_weight,
};
use crate::keys::{self, val, DomainKeys};
use crate::monitor::MonitoringModule;
use crate::planes::{
    IOrchestraConfig, PlaneStats, FLUSH_ACK_TIMEOUT, FLUSH_RETRY_BACKOFF, RELEASE_ACK_TIMEOUT, TICK,
};

// --------------------------------------------------------------------
// Baseline / SDC
// --------------------------------------------------------------------

/// Pre-redesign stock behaviour: the guest's congestion avoidance runs
/// blind.
pub struct LegacyBaselinePlane {
    label: &'static str,
}

impl LegacyBaselinePlane {
    /// The paper's Baseline (pair with paravirt I/O).
    pub fn baseline() -> Self {
        LegacyBaselinePlane { label: "baseline" }
    }

    /// SDC label (pair with a single dedicated core).
    pub fn sdc() -> Self {
        LegacyBaselinePlane { label: "sdc" }
    }
}

impl ControlPlane for LegacyBaselinePlane {
    fn name(&self) -> &'static str {
        self.label
    }

    fn on_kernel_signal(
        &mut self,
        m: &mut Machine,
        s: &mut Sched,
        dom: DomainId,
        sig: KernelSignal,
    ) {
        if sig == KernelSignal::CongestionQuery {
            m.cp_enter_congestion(s, dom);
        }
    }
}

// --------------------------------------------------------------------
// DIF
// --------------------------------------------------------------------

/// Pre-redesign disk-idleness-based flushing (Elango et al. \[17\]).
pub struct LegacyDifPlane {
    monitor: MonitoringModule,
    tick: SimDuration,
}

impl LegacyDifPlane {
    /// New DIF plane.
    pub fn new() -> Self {
        LegacyDifPlane {
            monitor: MonitoringModule::new(),
            tick: SimDuration::from_millis(100),
        }
    }
}

impl Default for LegacyDifPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl ControlPlane for LegacyDifPlane {
    fn name(&self) -> &'static str {
        "dif"
    }

    fn tick_period(&self) -> Option<SimDuration> {
        Some(self.tick)
    }

    fn on_kernel_signal(
        &mut self,
        m: &mut Machine,
        s: &mut Sched,
        dom: DomainId,
        sig: KernelSignal,
    ) {
        if sig == KernelSignal::CongestionQuery {
            m.cp_enter_congestion(s, dom);
        }
    }

    fn on_tick(&mut self, m: &mut Machine, s: &mut Sched) {
        let rep = self.monitor.sample(m, s.now());
        if rep.device_underutilized {
            // Idleness is broadcast: every VM with dirty pages flushes now.
            // (The simultaneous flush is DIF's weakness vs. Algorithm 1.)
            for dom in m.domain_ids() {
                let dirty = m.domain(dom).map(|d| d.kernel.dirty_pages()).unwrap_or(0);
                if dirty > 0 {
                    m.cp_remote_sync(s, dom);
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// IOrchestra
// --------------------------------------------------------------------

/// The pre-redesign IOrchestra plane: store-choreographed flush control,
/// collaborative congestion control, and NUMA-aware I/O co-scheduling,
/// hand-fused into one struct.
pub struct LegacyIOrchestraPlane {
    cfg: IOrchestraConfig,
    rng: SimRng,
    monitor: MonitoringModule,
    anomaly: AnomalyDetector,
    write_count_base: BTreeMap<DomainId, u64>,
    denied_base: BTreeMap<DomainId, u64>,
    /// When each outstanding `release_request` command was issued. The
    /// per-tick reconciliation sweep re-issues a grant still sitting
    /// unaccepted in the store past [`RELEASE_ACK_TIMEOUT`]
    /// — epochs make the re-issue idempotent, so a dropped bus delivery
    /// cannot strand a sleeping guest.
    release_pending: BTreeMap<DomainId, SimTime>,
    /// In-flight `flush_now` commands and their ack deadlines.
    flush_in_progress: BTreeMap<DomainId, SimTime>,
    /// Domains in retry backoff after flush timeouts.
    flush_backoff_until: BTreeMap<DomainId, SimTime>,
    /// Consecutive unacked flushes per domain (reset on ack).
    flush_fail_streak: BTreeMap<DomainId, u32>,
    /// Cumulative flush timeouts per domain (health counter).
    flush_timeouts_by_dom: BTreeMap<DomainId, u64>,
    /// Quarantined domains: their store events and monitoring keys are
    /// ignored and they get Baseline behaviour until an operator clears
    /// them through the `/iorchestra/control` channel.
    quarantined: BTreeSet<DomainId>,
    /// Last health tuple published per domain (flush_timeouts,
    /// quarantined, store_denied) — the store is only touched on change,
    /// so a healthy steady-state tick publishes nothing.
    health_published: BTreeMap<DomainId, (u64, bool, u64)>,
    /// VMs whose congestion was confirmed (host really congested), woken
    /// FIFO when the host is relieved.
    congested_fifo: Vec<DomainId>,
    last_route_weights: BTreeMap<DomainId, Vec<f64>>,
    last_weight_push: SimTime,
    manager_watch_registered: bool,
    /// Interned per-domain store paths, built once at attach so the
    /// per-tick loops below never `format!` a path.
    domain_keys: BTreeMap<DomainId, DomainKeys>,
    /// Command generation, persisted under [`keys::STATE_EPOCH`]. Every
    /// `flush_now`/`release_request` command carries a fresh epoch; a
    /// restarted plane resumes at `persisted + 1`, so guest drivers can
    /// discard commands stamped by a dead incarnation or duplicated by an
    /// unreliable bus.
    epoch: u64,
    stats: PlaneStats,
}

impl LegacyIOrchestraPlane {
    /// Build a plane.
    pub fn new(cfg: IOrchestraConfig) -> Self {
        LegacyIOrchestraPlane {
            rng: SimRng::new(cfg.seed ^ 0x10c),
            monitor: MonitoringModule::new(),
            anomaly: AnomalyDetector::new(AnomalyParams::default()),
            write_count_base: BTreeMap::new(),
            denied_base: BTreeMap::new(),
            release_pending: BTreeMap::new(),
            flush_in_progress: BTreeMap::new(),
            flush_backoff_until: BTreeMap::new(),
            flush_fail_streak: BTreeMap::new(),
            flush_timeouts_by_dom: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            health_published: BTreeMap::new(),
            congested_fifo: Vec::new(),
            last_route_weights: BTreeMap::new(),
            last_weight_push: SimTime::ZERO,
            manager_watch_registered: false,
            domain_keys: BTreeMap::new(),
            epoch: 0,
            stats: PlaneStats::default(),
            cfg,
        }
    }

    /// Counters.
    pub fn stats(&self) -> PlaneStats {
        self.stats
    }

    /// Domains flagged by the anomaly detector.
    pub fn flagged_domains(&self) -> Vec<DomainId> {
        self.anomaly.flagged().collect()
    }

    /// Currently quarantined domains.
    pub fn quarantined_domains(&self) -> Vec<DomainId> {
        self.quarantined.iter().copied().collect()
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

    /// Quarantine a domain: drop it from every collaborative queue and
    /// revert it to Baseline behaviour (graceful degradation) until an
    /// operator clears it. Persisted, so a dom0 restart cannot
    /// un-quarantine an anomalous guest.
    fn quarantine(&mut self, m: &mut Machine, dom: DomainId, now: SimTime, reason: &'static str) {
        if self.quarantined.insert(dom) {
            self.stats.quarantines += 1;
            self.congested_fifo.retain(|&d| d != dom);
            self.release_pending.remove(&dom);
            self.flush_in_progress.remove(&dom);
            self.flush_backoff_until.remove(&dom);
            let k = Self::keys_for(&mut self.domain_keys, dom);
            let _ = m
                .store
                .write_if_changed(DOM0, &k.state_quarantined, val::one());
            // The cancelled in-flight flush must not be resurrected by a
            // later recovery scan.
            let _ = m
                .store
                .write_if_changed(DOM0, &k.state_flush_epoch, val::zero());
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::Quarantine { dom: dom.0, reason })
            );
        }
    }

    /// Operator clear (a dom0 write of `"1"` to
    /// `/iorchestra/control/<id>/clear`): forgive history and restore
    /// collaboration. A strict no-op for a domain that is not quarantined
    /// — no detector reset, no store writes, no trace.
    fn clear_quarantine(&mut self, m: &mut Machine, dom: DomainId, now: SimTime) {
        if !self.quarantined.remove(&dom) {
            return;
        }
        trace_event!(
            now,
            TraceEventKind::Decision(Decision::QuarantineCleared { dom: dom.0 })
        );
        self.anomaly.clear(dom);
        self.flush_fail_streak.remove(&dom);
        self.flush_backoff_until.remove(&dom);
        let k = Self::keys_for(&mut self.domain_keys, dom);
        let _ = m
            .store
            .write_if_changed(DOM0, &k.state_quarantined, val::zero());
        let _ = m
            .store
            .write_if_changed(DOM0, &k.state_fail_streak, val::zero());
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

    fn keys_for(
        domain_keys: &mut BTreeMap<DomainId, DomainKeys>,
        dom: DomainId,
    ) -> &mut DomainKeys {
        domain_keys
            .entry(dom)
            .or_insert_with(|| DomainKeys::new(dom))
    }

    fn run_flush_policy(&mut self, m: &mut Machine, s: &mut Sched) {
        // Algorithm 1: when the device is underutilized, tell the guest
        // with the most dirty pages to flush. Besides the windowed
        // bandwidth check the device must be instantaneously quiet, or the
        // flush would land on top of a read burst the window average
        // missed.
        if m.storage.in_flight() > 8 || m.storage.queue_depth() > 0 {
            return;
        }
        let now = s.now();
        let mut best: Option<(u64, DomainId)> = None;
        // Eligible (dom, nr_dirty) pairs, recorded as the decision's input
        // when tracing is on (the Vec is only built inside the trace arm).
        let mut candidates: Vec<(u32, u64)> = Vec::new();
        let tracing = iorch_simcore::trace::enabled();
        for dom in m.domain_ids() {
            // Skip domains with a flush in flight, in post-timeout backoff,
            // or quarantined — the argmax over the rest IS the fallback to
            // the next-dirtiest domain.
            if self.flush_in_progress.contains_key(&dom)
                || self.quarantined.contains(&dom)
                || self.flush_backoff_until.get(&dom).is_some_and(|&t| now < t)
            {
                continue;
            }
            let k = Self::keys_for(&mut self.domain_keys, dom);
            let has_dirty = m
                .store
                .read_ref(DOM0, &k.has_dirty_pages)
                .map(|v| v == "1")
                .unwrap_or(false);
            if !has_dirty {
                continue;
            }
            let nr = m
                .store
                .read_ref(DOM0, &k.nr_dirty)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            if tracing {
                candidates.push((dom.0, nr));
            }
            if best.is_none_or(|(bn, _)| nr > bn) {
                best = Some((nr, dom));
            }
        }
        if let Some((nr_dirty, dom)) = best {
            let deadline = now + FLUSH_ACK_TIMEOUT;
            self.flush_in_progress.insert(dom, deadline);
            self.stats.flushes_triggered += 1;
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::FlushNow {
                    dom: dom.0,
                    nr_dirty,
                    candidates,
                })
            );
            // Persist the in-flight record before issuing the command: a
            // crash between the two leaves a phantom in-flight entry that
            // expires through the normal timeout path, never a command the
            // recovered plane does not know about.
            let epoch = self.next_epoch(m);
            let k = Self::keys_for(&mut self.domain_keys, dom);
            let _ = m.store.write(DOM0, &k.state_flush_epoch, val::uint(epoch));
            let _ = m.store.write(
                DOM0,
                &k.state_flush_deadline,
                val::uint(deadline.as_nanos()),
            );
            let _ = m.store.write(DOM0, &k.flush_now, val::uint(epoch));
        }
    }

    /// Expire `flush_now` ack deadlines: an unresponsive guest loses its
    /// slot (the next policy run picks the next-dirtiest domain), backs
    /// off exponentially, and is quarantined after
    /// `flush_max_retries` consecutive timeouts.
    fn expire_flush_deadlines(&mut self, m: &mut Machine, now: SimTime) {
        let expired: Vec<DomainId> = self
            .flush_in_progress
            .iter()
            .filter(|&(_, &deadline)| now >= deadline)
            .map(|(&d, _)| d)
            .collect();
        for dom in expired {
            self.flush_in_progress.remove(&dom);
            self.stats.flush_timeouts += 1;
            let timeouts = {
                let t = self.flush_timeouts_by_dom.entry(dom).or_insert(0);
                *t += 1;
                *t
            };
            let streak = {
                let s = self.flush_fail_streak.entry(dom).or_insert(0);
                *s += 1;
                *s
            };
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::FlushTimeout { dom: dom.0, streak })
            );
            {
                let k = Self::keys_for(&mut self.domain_keys, dom);
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
            if streak >= self.cfg.flush_max_retries {
                self.quarantine(m, dom, now, "flush-timeout streak");
            } else {
                let shift = (streak - 1).min(6);
                self.flush_backoff_until
                    .insert(dom, now + FLUSH_RETRY_BACKOFF * (1u64 << shift));
            }
        }
    }

    /// Publish per-domain health counters under `/iorchestra/health/<id>`.
    /// Pure change-detection in plane memory: a steady-state tick performs
    /// zero store operations.
    fn publish_health(&mut self, m: &mut Machine) {
        for dom in m.domain_ids() {
            let tuple = (
                self.flush_timeouts_by_dom.get(&dom).copied().unwrap_or(0),
                self.quarantined.contains(&dom),
                m.store.denied_count(dom),
            );
            if self.health_published.get(&dom) == Some(&tuple) {
                continue;
            }
            let prev = self.health_published.insert(dom, tuple);
            let k = Self::keys_for(&mut self.domain_keys, dom);
            let (timeouts, quarantined, denied) = tuple;
            // `write_if_changed` (not plain writes): after a recovery the
            // in-memory `health_published` map is empty, and republishing a
            // value the store already holds must stay silent.
            if prev.map(|p| p.0) != Some(timeouts) {
                let _ =
                    m.store
                        .write_if_changed(DOM0, &k.health_flush_timeouts, val::uint(timeouts));
            }
            if prev.map(|p| p.1) != Some(quarantined) {
                let _ =
                    m.store
                        .write_if_changed(DOM0, &k.health_quarantined, val::flag(quarantined));
            }
            if prev.map(|p| p.2) != Some(denied) {
                let _ = m
                    .store
                    .write_if_changed(DOM0, &k.health_store_denied, val::uint(denied));
            }
        }
    }

    /// Algorithm 2's adjudication of one raised `congested` flag: confirm
    /// (host really congested — park the domain in the wake FIFO) or grant
    /// a release under a fresh epoch. Shared by the watch-event handler,
    /// the per-tick reconciliation sweep and the dom0 recovery scan, so a
    /// query is answered the same way no matter which path noticed it.
    fn adjudicate_congestion(&mut self, m: &mut Machine, now: SimTime, dom: DomainId) {
        if m.storage.is_congested() {
            // Host really is overcrowded: the guest stays asleep and is
            // woken FIFO on relief.
            self.stats.congestions_confirmed += 1;
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::CongestionConfirmed {
                    dom: dom.0,
                    host_qdepth: m.storage.queue_depth() as u32,
                })
            );
            if !self.congested_fifo.contains(&dom) {
                self.congested_fifo.push(dom);
            }
        } else {
            // False trigger: release the request queue.
            self.stats.releases_granted += 1;
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::ReleaseGranted {
                    dom: dom.0,
                    host_qdepth: m.storage.queue_depth() as u32,
                })
            );
            let epoch = self.next_epoch(m);
            let k = Self::keys_for(&mut self.domain_keys, dom);
            let _ = m.store.write(DOM0, &k.release_request, val::uint(epoch));
            self.release_pending.insert(dom, now);
        }
    }

    /// The reconciliation half of the lossy-bus hardening: every tick,
    /// re-read each collaborating domain's congestion keys straight from
    /// the store and repair whatever the bus lost. A raised `congested`
    /// flag nobody adjudicated (dropped guest-to-dom0 event, or a wake
    /// FIFO that died with a crashed plane) is adjudicated now; a granted
    /// release still unaccepted past the ack timeout (dropped dom0-to-
    /// guest delivery) is re-issued under a fresh epoch, which the guest's
    /// epoch cursor makes idempotent.
    fn reconcile_congestion(&mut self, m: &mut Machine, now: SimTime) {
        for dom in m.domain_ids() {
            if self.quarantined.contains(&dom) {
                continue;
            }
            let (congested_key, release_key) = {
                let k = Self::keys_for(&mut self.domain_keys, dom);
                (k.congested.clone(), k.release_request.clone())
            };
            let asking = m
                .store
                .read_ref(DOM0, &congested_key)
                .map(|v| v == "1")
                .unwrap_or(false);
            if !asking {
                self.release_pending.remove(&dom);
                continue;
            }
            if self.congested_fifo.contains(&dom) {
                // Confirmed: the staggered wake on relief owns this domain.
                continue;
            }
            let granted = m
                .store
                .read_ref(DOM0, &release_key)
                .map(|v| v != "0")
                .unwrap_or(false);
            if !granted {
                // Raised but never adjudicated: the query event was lost.
                self.adjudicate_congestion(m, now, dom);
                continue;
            }
            match self.release_pending.get(&dom) {
                Some(&issued) if now < issued + RELEASE_ACK_TIMEOUT => {}
                _ => {
                    // The grant delivery was dropped (or predates this
                    // plane incarnation): re-issue under a fresh epoch.
                    self.stats.releases_granted += 1;
                    trace_event!(
                        now,
                        TraceEventKind::Decision(Decision::ReleaseGranted {
                            dom: dom.0,
                            host_qdepth: m.storage.queue_depth() as u32,
                        })
                    );
                    let epoch = self.next_epoch(m);
                    let _ = m.store.write(DOM0, &release_key, val::uint(epoch));
                    self.release_pending.insert(dom, now);
                }
            }
        }
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
            // `wake_interleave_max_ms == 0` means a true simultaneous wake
            // (the DESIGN.md §5 "no interleave" ablation point): no draw at
            // all, so the RNG stream is untouched too.
            if self.cfg.wake_interleave_max_ms > 0 {
                offset +=
                    SimDuration::from_millis(self.rng.range(0, self.cfg.wake_interleave_max_ms));
            }
            self.stats.staggered_wakeups += 1;
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::StaggeredWake {
                    dom: dom.0,
                    offset_ms: offset.as_millis(),
                })
            );
            let congested_key = Self::keys_for(&mut self.domain_keys, dom).congested.clone();
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

    fn run_cosched(&mut self, m: &mut Machine, s: &mut Sched, now: SimTime) {
        if m.iocores.len() < 2 {
            return;
        }
        // L_i per socket, in microseconds.
        let mut lat_by_socket: BTreeMap<usize, f64> = BTreeMap::new();
        for c in &m.iocores {
            lat_by_socket.insert(c.socket(), c.avg_latency().as_micros_f64());
        }
        let dom_ids = m.domain_ids();
        let vm_share = 1.0 / dom_ids.len().max(1) as f64;
        let device_bw = m.storage.device_bandwidth();
        let sockets = m.topology.sockets();
        let interval_due =
            now.saturating_since(self.last_weight_push) >= self.cfg.weight_update_interval;
        let mut pushed = false;
        for dom in dom_ids {
            if self.quarantined.contains(&dom) {
                continue;
            }
            let Some(d) = m.domain(dom) else { continue };
            // Process weight per socket: each VCPU carries weight 1 (the
            // guest publishes per-process weights; with one I/O thread per
            // VCPU they are uniform).
            let vcpu_sockets: Vec<usize> = (0..d.spec.vcpus)
                .map(|v| d.vcpu_socket(&m.topology, v))
                .collect();
            let vcpu_weights = vec![1.0; vcpu_sockets.len()];
            let spanned: Vec<usize> = {
                let mut v = vcpu_sockets.clone();
                v.sort_unstable();
                v.dedup();
                v
            };
            // Route weights: inverse-latency across the spanned sockets,
            // scaled by where the VM's I/O processes actually live.
            let lats: Vec<f64> = spanned
                .iter()
                .map(|sk| lat_by_socket.get(sk).copied().unwrap_or(1.0))
                .collect();
            let inv = inverse_latency_weights(&lats);
            let total_w: f64 = vcpu_weights.iter().sum();
            let mut route = vec![0.0; sockets];
            for (j, sk) in spanned.iter().enumerate() {
                let proc_w = socket_process_weight(&vcpu_weights, &vcpu_sockets, *sk);
                route[*sk] = inv[j] * (proc_w / total_w).max(0.05);
            }
            let norm: f64 = route.iter().sum();
            if norm > 0.0 {
                for r in &mut route {
                    *r /= norm;
                }
            }
            let stale = self
                .last_route_weights
                .get(&dom)
                .is_none_or(|prev| ratio_changed(prev, &route, self.cfg.weight_change_threshold));
            if !(stale || interval_due) {
                continue;
            }
            pushed = true;
            self.stats.weight_pushes += 1;
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::WeightPush {
                    dom: dom.0,
                    weights: route.clone(),
                })
            );
            self.last_route_weights.insert(dom, route.clone());
            // Publish to the store (the guests' registered callbacks pick
            // these up; for the simulated guests the machine applies them
            // directly).
            let k = Self::keys_for(&mut self.domain_keys, dom);
            for (sk, w) in route.iter().enumerate() {
                let _ = m
                    .store
                    .write(DOM0, k.socket_weight(sk), format!("{:.4}", w));
            }
            m.cp_set_route_weights(dom, route);
            // Quanta per socket: Q_i = BW_max · S^{VMi}_{SKT}.
            for sk in &spanned {
                let w_skt = socket_process_weight(&vcpu_weights, &vcpu_sockets, *sk);
                let share = socket_io_share(w_skt, total_w, vm_share);
                m.cp_set_quantum(*sk, dom, drr_quantum(device_bw, share, self.cfg.drr_round));
            }
            // cgroup blkio weight at the device, proportional to VM share.
            m.cp_set_blkio_weight(dom, ((vm_share * 1000.0) as u32).clamp(10, 1000));
        }
        if pushed {
            self.last_weight_push = now;
        }
        let _ = s;
    }
}

impl ControlPlane for LegacyIOrchestraPlane {
    fn name(&self) -> &'static str {
        "iorchestra"
    }

    fn tick_period(&self) -> Option<SimDuration> {
        Some(TICK)
    }

    fn on_domain_created(&mut self, m: &mut Machine, _s: &mut Sched, dom: DomainId) {
        if !self.manager_watch_registered {
            m.store.watch(DOM0, "/local");
            m.store.watch(DOM0, keys::CONTROL_ROOT);
            self.manager_watch_registered = true;
        }
        // Guest-driver registration: defaults + a watch on its own subtree.
        // The DomainKeys built here is the one the per-tick loops reuse for
        // the domain's whole lifetime.
        let k = Self::keys_for(&mut self.domain_keys, dom);
        Self::guest_write(m, dom, &k.flush_now, val::zero());
        Self::guest_write(m, dom, &k.congested, val::zero());
        Self::guest_write(m, dom, &k.release_request, val::zero());
        m.store.watch(dom, &k.virt_dev);
    }

    fn on_domain_destroyed(&mut self, m: &mut Machine, _s: &mut Sched, dom: DomainId) {
        // Drop the persisted state subtree so a later recovery scan (or a
        // recycled domain id) cannot inherit a dead domain's history.
        let _ = m.store.remove(DOM0, keys::state_base(dom).as_str());
        self.flush_in_progress.remove(&dom);
        self.flush_backoff_until.remove(&dom);
        self.flush_fail_streak.remove(&dom);
        self.flush_timeouts_by_dom.remove(&dom);
        self.quarantined.remove(&dom);
        self.health_published.remove(&dom);
        self.congested_fifo.retain(|&d| d != dom);
        self.release_pending.remove(&dom);
        self.last_route_weights.remove(&dom);
        self.write_count_base.remove(&dom);
        self.denied_base.remove(&dom);
        self.domain_keys.remove(&dom);
        self.anomaly.remove(dom);
    }

    fn on_kernel_signal(
        &mut self,
        m: &mut Machine,
        s: &mut Sched,
        dom: DomainId,
        sig: KernelSignal,
    ) {
        if self.quarantined.contains(&dom) {
            // Graceful degradation: a quarantined domain gets stock
            // Baseline behaviour — congestion means sleeping, and nothing
            // it does touches the store or the collaborative queues.
            if sig == KernelSignal::CongestionQuery {
                m.cp_enter_congestion(s, dom);
            }
            return;
        }
        match sig {
            KernelSignal::DirtyStatusChanged(has) => {
                if self.cfg.functions.flush {
                    let nr = m.domain(dom).map(|d| d.kernel.dirty_pages()).unwrap_or(0);
                    let k = Self::keys_for(&mut self.domain_keys, dom);
                    // Monitoring keys: no callback consumes them, so a
                    // value the store already holds is not republished.
                    Self::guest_publish(m, dom, &k.has_dirty_pages, val::flag(has));
                    Self::guest_publish(m, dom, &k.nr_dirty, val::uint(nr));
                }
            }
            KernelSignal::CongestionQuery => {
                if self.cfg.functions.congestion {
                    // The guest enters congestion immediately (as Linux
                    // does) and asks the host through the store; the answer
                    // arrives a store-round-trip later. This is a control
                    // key: it always publishes, because the management
                    // module must re-answer even a repeated query.
                    m.cp_enter_congestion(s, dom);
                    let k = Self::keys_for(&mut self.domain_keys, dom);
                    Self::guest_write(m, dom, &k.congested, val::one());
                } else {
                    m.cp_enter_congestion(s, dom);
                }
            }
            KernelSignal::CongestionCleared => {
                if self.cfg.functions.congestion {
                    let k = Self::keys_for(&mut self.domain_keys, dom);
                    Self::guest_write(m, dom, &k.congested, val::zero());
                    self.congested_fifo.retain(|&d| d != dom);
                }
            }
            KernelSignal::RemoteSyncCompleted => {
                let k = Self::keys_for(&mut self.domain_keys, dom);
                Self::guest_write(m, dom, &k.flush_now, val::zero());
            }
        }
        let _ = s;
    }

    fn on_store_event(&mut self, m: &mut Machine, s: &mut Sched, ev: WatchEvent) {
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
        if self.quarantined.contains(&dom) {
            // The management module ignores a quarantined domain's keys
            // entirely — its watch-event spam costs one hash probe here.
            return;
        }
        if ev.owner == DOM0 {
            // Management-module side.
            if keys::is_key(&ev.path, "congested") && ev.value.as_deref() == Some("1") {
                if !self.cfg.functions.congestion {
                    return;
                }
                // Events are hints; the store is the state of record. The
                // per-tick reconciliation sweep may have adjudicated this
                // query already (e.g. when the raising event was delayed),
                // in which case this delivery is a no-op.
                let k = Self::keys_for(&mut self.domain_keys, dom);
                let still_asking = m
                    .store
                    .read_ref(DOM0, &k.congested)
                    .map(|v| v == "1")
                    .unwrap_or(false);
                let granted = m
                    .store
                    .read_ref(DOM0, &k.release_request)
                    .map(|v| v != "0")
                    .unwrap_or(false);
                if still_asking && !granted && !self.congested_fifo.contains(&dom) {
                    self.adjudicate_congestion(m, s.now(), dom);
                }
            } else if keys::is_key(&ev.path, "flush_now") && ev.value.as_deref() == Some("0") {
                // The guest acked (wrote flush_now back to 0): the flush
                // completed, so the domain is in good standing again.
                if self.flush_in_progress.remove(&dom).is_some() {
                    trace_event!(
                        s.now(),
                        TraceEventKind::Decision(Decision::FlushAck { dom: dom.0 })
                    );
                }
                self.flush_fail_streak.remove(&dom);
                self.flush_backoff_until.remove(&dom);
                let k = Self::keys_for(&mut self.domain_keys, dom);
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
                    let k = Self::keys_for(&mut self.domain_keys, dom);
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
        // Anomaly detection on store-write and denied-operation rates.
        // Bases advance for every domain (so an operator clear only counts
        // *new* traffic), but only unquarantined domains feed the detector.
        for dom in m.domain_ids() {
            let count = m.store.write_count(dom);
            let base = self.write_count_base.insert(dom, count).unwrap_or(0);
            let delta = count.saturating_sub(base);
            let denied = m.store.denied_count(dom);
            let denied_base = self.denied_base.insert(dom, denied).unwrap_or(0);
            let denied_delta = denied.saturating_sub(denied_base);
            if self.quarantined.contains(&dom) {
                continue;
            }
            if delta > 0 && self.anomaly.on_writes(dom, delta, now) {
                self.quarantine(m, dom, now, "write-rate budget");
            }
            if denied_delta > 0 && self.anomaly.on_denied(dom, denied_delta, now) {
                self.quarantine(m, dom, now, "denied-rate budget");
            }
        }
        // Consequence of a flag: quarantine (Baseline behaviour, keys
        // ignored) until an operator clears it. Usually already handled
        // above; this catches domains still flagged from older windows.
        for dom in self.anomaly.flagged().collect::<Vec<_>>() {
            self.quarantine(m, dom, now, "anomaly flag");
        }
        // Unacked flush commands lose their slot, with backoff/quarantine.
        self.expire_flush_deadlines(m, now);
        // Guest drivers republish their dirty-page counts each period so
        // the argmax in Algorithm 1 works from fresh numbers.
        if self.cfg.functions.flush {
            for dom in m.domain_ids() {
                if self.quarantined.contains(&dom) {
                    continue;
                }
                let nr = m.domain(dom).map(|d| d.kernel.dirty_pages()).unwrap_or(0);
                if nr > 0 {
                    let k = Self::keys_for(&mut self.domain_keys, dom);
                    Self::guest_publish(m, dom, &k.nr_dirty, val::uint(nr));
                }
            }
        }
        if self.cfg.functions.flush && report.device_underutilized {
            self.run_flush_policy(m, s);
        }
        if self.cfg.functions.congestion {
            self.reconcile_congestion(m, now);
            if !report.device_congested {
                self.run_congestion_relief(m, s);
            }
        }
        if self.cfg.functions.cosched {
            self.run_cosched(m, s, now);
        }
        self.publish_health(m);
    }

    fn on_crash(&mut self, _m: &mut Machine, s: &mut Sched) {
        trace_event!(s.now(), TraceEventKind::Decision(Decision::PlaneCrash));
        // The daemon's process memory dies with dom0; only the store (and
        // the guests) survive. Reset every field to its boot state — the
        // recovery scan rebuilds what was persisted.
        self.rng = SimRng::new(self.cfg.seed ^ 0x10c);
        self.monitor = MonitoringModule::new();
        self.anomaly = AnomalyDetector::new(AnomalyParams::default());
        self.write_count_base.clear();
        self.denied_base.clear();
        self.flush_in_progress.clear();
        self.flush_backoff_until.clear();
        self.flush_fail_streak.clear();
        self.flush_timeouts_by_dom.clear();
        self.quarantined.clear();
        self.health_published.clear();
        self.congested_fifo.clear();
        self.last_route_weights.clear();
        self.last_weight_push = SimTime::ZERO;
        self.manager_watch_registered = false;
        self.domain_keys.clear();
        self.epoch = 0;
        self.release_pending.clear();
        self.stats = PlaneStats::default();
    }

    fn on_recover(&mut self, m: &mut Machine, s: &mut Sched) {
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
        let domains = m.domain_ids();
        for &dom in &domains {
            // Anomaly bases seed at the *current* counters: traffic that
            // happened while dom0 was down is not a post-recovery burst.
            self.write_count_base.insert(dom, m.store.write_count(dom));
            self.denied_base.insert(dom, m.store.denied_count(dom));
            let k = Self::keys_for(&mut self.domain_keys, dom).clone();
            if Self::read_state_u64(m, &k.state_quarantined) == 1 {
                self.quarantined.insert(dom);
            }
            let streak = Self::read_state_u64(m, &k.state_fail_streak) as u32;
            if streak > 0 {
                self.flush_fail_streak.insert(dom, streak);
            }
            let timeouts = Self::read_state_u64(m, &k.state_timeouts);
            if timeouts > 0 {
                self.flush_timeouts_by_dom.insert(dom, timeouts);
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
                    self.flush_fail_streak.remove(&dom);
                    let _ = m.store.write(DOM0, &k.state_flush_epoch, val::zero());
                    let _ = m
                        .store
                        .write_if_changed(DOM0, &k.state_fail_streak, val::zero());
                } else {
                    let deadline =
                        SimTime::from_nanos(Self::read_state_u64(m, &k.state_flush_deadline));
                    self.flush_in_progress.insert(dom, deadline);
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
            if self.cfg.functions.congestion && !self.quarantined.contains(&dom) {
                let asking = m
                    .store
                    .read_ref(DOM0, &k.congested)
                    .map(|v| v == "1")
                    .unwrap_or(false);
                if asking {
                    self.adjudicate_congestion(m, now, dom);
                }
            }
        }
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
                domains: domains.len() as u32,
                quarantined: self.quarantined.len() as u32,
            })
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_names() {
        assert_eq!(LegacyBaselinePlane::baseline().name(), "baseline");
        assert_eq!(LegacyBaselinePlane::sdc().name(), "sdc");
        assert_eq!(LegacyDifPlane::new().name(), "dif");
        assert_eq!(
            LegacyIOrchestraPlane::new(IOrchestraConfig::new(1)).name(),
            "iorchestra"
        );
    }

    #[test]
    fn tick_periods() {
        assert!(LegacyBaselinePlane::baseline().tick_period().is_none());
        assert!(LegacyDifPlane::new().tick_period().is_some());
        assert!(LegacyIOrchestraPlane::new(IOrchestraConfig::new(1))
            .tick_period()
            .is_some());
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
        let mut plane = LegacyIOrchestraPlane::new(cfg);
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(4), |_| {});
        let now = SimTime::from_secs(100);
        for &streak in &[6u32, 31, 63, 64, 200, u32::MAX - 2] {
            plane.flush_fail_streak.insert(dom, streak);
            plane.flush_in_progress.insert(dom, now);
            plane.expire_flush_deadlines(cl.machine_mut(idx), now);
            let until = plane.flush_backoff_until[&dom];
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
            let mut plane = LegacyIOrchestraPlane::new(cfg);
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
}
