//! The paper's planes, re-expressed as rules and policy sets.
//!
//! Each rule here carries exactly the *decision* half of a function the
//! hand-fused planes implemented inline; the enforcement half lives in
//! [`PolicyEngine`](super::PolicyEngine). The constructors at the bottom
//! ([`PolicySet::iorchestra`], [`PolicySet::baseline`], [`PolicySet::sdc`],
//! [`PolicySet::dif`]) assemble them into the planes §5 of the paper
//! compares, byte-identical in trace output to the frozen originals in
//! `crate::legacy`.

use std::collections::BTreeMap;

use iorch_hypervisor::{DomainId, DOM0};
use iorch_simcore::{SimDuration, SimTime};

use crate::anomaly::{AnomalyDetector, AnomalyParams};
use crate::formulas::{
    drr_quantum, inverse_latency_weights, ratio_changed, socket_io_share, socket_process_weight,
};
use crate::planes::{FunctionSet, IOrchestraConfig};

use super::{Action, EnforcementPoint, FlushMode, PolicyCtx, PolicySet, Rule, Verdict};

// --------------------------------------------------------------------
// Admission: anomaly budgets
// --------------------------------------------------------------------

/// Store-write and denied-operation rate budgets ([`QueueAdmission`]).
///
/// Tracks per-domain counter deltas against windowed budgets and emits
/// [`Action::Quarantine`] when a budget trips (and for any domain still
/// flagged from an older window). Bases advance for *every* domain — so
/// an operator clear only counts new traffic — but only unquarantined
/// domains feed the detector.
///
/// [`QueueAdmission`]: EnforcementPoint::QueueAdmission
pub struct AnomalyRule {
    detector: AnomalyDetector,
    write_count_base: BTreeMap<DomainId, u64>,
    denied_base: BTreeMap<DomainId, u64>,
    /// Store-wide `(write_total, denied_total)` at the last per-domain
    /// sweep. Both counters are monotonic, so an unchanged pair proves
    /// every per-domain delta is zero and the sweep can be skipped — the
    /// steady-state tick does no per-domain work here. Domain creation
    /// bumps `write_total` (the boot `has_dirty_pages` write), so a new
    /// domain's base is always seeded on the tick that first sees it.
    last_totals: Option<(u64, u64)>,
}

impl AnomalyRule {
    /// New rule with the default budgets ([`AnomalyParams::default`]).
    pub fn new() -> Self {
        AnomalyRule {
            detector: AnomalyDetector::new(AnomalyParams::default()),
            write_count_base: BTreeMap::new(),
            denied_base: BTreeMap::new(),
            last_totals: None,
        }
    }
}

impl Default for AnomalyRule {
    fn default() -> Self {
        Self::new()
    }
}

impl Rule for AnomalyRule {
    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let m = ctx.machine();
        let now = ctx.now();
        let totals = (m.store.write_total(), m.store.denied_total());
        if self.last_totals != Some(totals) {
            self.last_totals = Some(totals);
            for dom in m.domains() {
                let count = m.store.write_count(dom);
                let base = self.write_count_base.insert(dom, count).unwrap_or(0);
                let delta = count.saturating_sub(base);
                let denied = m.store.denied_count(dom);
                let denied_base = self.denied_base.insert(dom, denied).unwrap_or(0);
                let denied_delta = denied.saturating_sub(denied_base);
                if ctx.is_quarantined(dom) {
                    continue;
                }
                if delta > 0 && self.detector.on_writes(dom, delta, now) {
                    out.push(Action::Quarantine {
                        dom,
                        reason: "write-rate budget",
                    });
                }
                if denied_delta > 0 && self.detector.on_denied(dom, denied_delta, now) {
                    out.push(Action::Quarantine {
                        dom,
                        reason: "denied-rate budget",
                    });
                }
            }
        }
        // Domains still flagged from older windows. Usually duplicates of
        // the pushes above — the engine's quarantine set dedups, exactly
        // as the legacy plane's inline `quarantine()` calls did.
        for dom in self.detector.flagged() {
            out.push(Action::Quarantine {
                dom,
                reason: "anomaly flag",
            });
        }
    }

    fn on_quarantine_cleared(&mut self, dom: DomainId) {
        self.detector.clear(dom);
    }

    fn on_domain_destroyed(&mut self, dom: DomainId) {
        self.write_count_base.remove(&dom);
        self.denied_base.remove(&dom);
        self.detector.remove(dom);
    }

    fn on_crash(&mut self) {
        self.detector = AnomalyDetector::new(AnomalyParams::default());
        self.write_count_base.clear();
        self.denied_base.clear();
        self.last_totals = None;
    }

    fn on_recover(&mut self, ctx: &PolicyCtx<'_>) {
        // Bases seed at the *current* counters: traffic that happened
        // while dom0 was down is not a post-recovery burst.
        let m = ctx.machine();
        for dom in m.domains() {
            self.write_count_base.insert(dom, m.store.write_count(dom));
            self.denied_base.insert(dom, m.store.denied_count(dom));
        }
        self.last_totals = Some((m.store.write_total(), m.store.denied_total()));
    }
}

// --------------------------------------------------------------------
// Flush: Algorithm 1's argmax
// --------------------------------------------------------------------

/// Algorithm 1's decision: when the device is underutilized *and*
/// instantaneously quiet, pick the eligible guest with the most dirty
/// pages and emit a tracked [`Action::Flush`]. Domains with a flush in
/// flight, in retry backoff, or quarantined are skipped — the argmax over
/// the rest IS the fallback to the next-dirtiest domain.
pub struct FlushArgmaxRule;

impl Rule for FlushArgmaxRule {
    fn feeds_dirty_pages(&self) -> bool {
        true
    }

    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let Some(report) = ctx.report() else { return };
        if !report.device_underutilized {
            return;
        }
        let m = ctx.machine();
        // Besides the windowed bandwidth check the device must be
        // instantaneously quiet, or the flush would land on top of a read
        // burst the window average missed.
        if m.storage.in_flight() > 8 || m.storage.queue_depth() > 0 {
            return;
        }
        let mut best: Option<(u64, DomainId)> = None;
        // Eligible (dom, nr_dirty) pairs, recorded as the decision's input
        // when tracing is on (the Vec is only built while tracing).
        let mut candidates: Vec<(u32, u64)> = Vec::new();
        let tracing = iorch_simcore::trace::enabled();
        // The engine's dirty set is the scan: domains whose published
        // `has_dirty_pages` flag is down can never enter the argmax, and
        // the set is ascending by id, so the winner (first strict maximum)
        // matches a full ascending scan. The store re-read below keeps the
        // flag authoritative even if something else wrote it.
        for &dom in ctx.dirty_domains() {
            if ctx.flush_in_flight(dom) || ctx.is_quarantined(dom) || ctx.in_flush_backoff(dom) {
                continue;
            }
            let Some(k) = ctx.keys(dom) else { continue };
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
            out.push(Action::Flush {
                dom,
                mode: FlushMode::Tracked {
                    nr_dirty,
                    candidates,
                },
            });
        }
    }
}

// --------------------------------------------------------------------
// Flush: DIF's broadcast
// --------------------------------------------------------------------

/// DIF's decision (Elango et al. \[17\]): idleness is broadcast — every
/// VM with dirty pages gets a direct [`Action::Flush`] at once. The
/// simultaneous flush is DIF's weakness vs. Algorithm 1's argmax.
pub struct DifBroadcastRule;

impl Rule for DifBroadcastRule {
    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let Some(report) = ctx.report() else { return };
        if !report.device_underutilized {
            return;
        }
        let m = ctx.machine();
        for dom in m.domains() {
            let dirty = m.domain(dom).map(|d| d.kernel.dirty_pages()).unwrap_or(0);
            if dirty > 0 {
                out.push(Action::Flush {
                    dom,
                    mode: FlushMode::Direct,
                });
            }
        }
    }
}

// --------------------------------------------------------------------
// Congestion: Algorithm 2's adjudication
// --------------------------------------------------------------------

/// Algorithm 2's branch: confirm a raised `congested` flag when the host
/// device really is congested (the guest sleeps and joins the wake FIFO),
/// otherwise grant a release. Registering this rule (on a collaborative
/// set) activates the engine's full congestion machinery: `congested`-key
/// watch handling, per-tick reconciliation, and the staggered FIFO wake
/// on relief.
pub struct CongestionAdjudicationRule;

impl Rule for CongestionAdjudicationRule {
    fn adjudicates(&self) -> bool {
        true
    }

    fn adjudicate(&mut self, ctx: &PolicyCtx<'_>, _dom: DomainId) -> Option<Verdict> {
        Some(if ctx.machine().storage.is_congested() {
            Verdict::Confirm
        } else {
            Verdict::Release
        })
    }
}

// --------------------------------------------------------------------
// Co-scheduling: Algorithm 3
// --------------------------------------------------------------------

/// Algorithm 3's decision: per-VM route weights (inverse-latency across
/// the sockets the VM's I/O processes span), DRR quanta
/// (`Q_i = BW_max · S^{VMi}_{SKT}`), and a proportional blkio weight,
/// emitted as [`Action::Priority`] when the ratios moved more than the
/// configured threshold or the periodic push interval elapsed.
pub struct CoschedRule {
    last_route_weights: BTreeMap<DomainId, Vec<f64>>,
    last_weight_push: SimTime,
}

impl CoschedRule {
    /// New rule with no pushed history (first tick always pushes).
    pub fn new() -> Self {
        CoschedRule {
            last_route_weights: BTreeMap::new(),
            last_weight_push: SimTime::ZERO,
        }
    }
}

impl Default for CoschedRule {
    fn default() -> Self {
        Self::new()
    }
}

impl Rule for CoschedRule {
    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let m = ctx.machine();
        if m.iocores.len() < 2 {
            return;
        }
        let now = ctx.now();
        let cfg = ctx.cfg();
        // L_i per socket, in microseconds.
        let mut lat_by_socket: BTreeMap<usize, f64> = BTreeMap::new();
        for c in &m.iocores {
            lat_by_socket.insert(c.socket(), c.avg_latency().as_micros_f64());
        }
        let vm_share = 1.0 / m.domain_count().max(1) as f64;
        let device_bw = m.storage.device_bandwidth();
        let sockets = m.topology.sockets();
        let interval_due =
            now.saturating_since(self.last_weight_push) >= cfg.weight_update_interval;
        let mut pushed = false;
        for dom in m.domains() {
            if ctx.is_quarantined(dom) {
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
                .is_none_or(|prev| ratio_changed(prev, &route, cfg.weight_change_threshold));
            if !(stale || interval_due) {
                continue;
            }
            pushed = true;
            self.last_route_weights.insert(dom, route.clone());
            // Quanta per socket: Q_i = BW_max · S^{VMi}_{SKT}.
            let quanta: Vec<(usize, u64)> = spanned
                .iter()
                .map(|sk| {
                    let w_skt = socket_process_weight(&vcpu_weights, &vcpu_sockets, *sk);
                    let share = socket_io_share(w_skt, total_w, vm_share);
                    (*sk, drr_quantum(device_bw, share, cfg.drr_round))
                })
                .collect();
            out.push(Action::Priority {
                dom,
                route,
                quanta,
                // cgroup blkio weight at the device, proportional to VM
                // share.
                blkio_weight: ((vm_share * 1000.0) as u32).clamp(10, 1000),
            });
        }
        if pushed {
            self.last_weight_push = now;
        }
    }

    fn on_domain_destroyed(&mut self, dom: DomainId) {
        self.last_route_weights.remove(&dom);
    }

    fn on_crash(&mut self) {
        self.last_route_weights.clear();
        self.last_weight_push = SimTime::ZERO;
    }
}

// --------------------------------------------------------------------
// Built-in policy sets
// --------------------------------------------------------------------

impl PolicySet {
    /// The paper's system as a policy set: Algorithms 1–3 plus anomaly
    /// admission, attached per `cfg.functions` (an ablation is
    /// configuration, not a fork).
    pub fn iorchestra(cfg: IOrchestraConfig) -> PolicySet {
        let f = cfg.functions;
        let mut set = PolicySet::custom("iorchestra", cfg)
            .collaborative(true)
            .rule(EnforcementPoint::QueueAdmission, AnomalyRule::new());
        if f.flush {
            set = set.rule(EnforcementPoint::CommandIssue, FlushArgmaxRule);
        }
        if f.congestion {
            set = set.rule(EnforcementPoint::CommandIssue, CongestionAdjudicationRule);
        }
        if f.cosched {
            set = set.rule(EnforcementPoint::DeviceDispatch, CoschedRule::new());
        }
        set
    }

    /// The paper's Baseline: no rules, no tick, no store choreography —
    /// the guest's congestion avoidance runs blind (pair with paravirt
    /// I/O).
    pub fn baseline() -> PolicySet {
        PolicySet::custom("baseline", IOrchestraConfig::new(0)).tick(None)
    }

    /// SDC: Baseline behaviour paired with a single dedicated I/O core
    /// \[22, 29\].
    pub fn sdc() -> PolicySet {
        PolicySet::custom("sdc", IOrchestraConfig::new(0)).tick(None)
    }

    /// DIF \[17\]: disk-idleness-based flush broadcast, no store
    /// choreography.
    pub fn dif() -> PolicySet {
        PolicySet::custom("dif", IOrchestraConfig::new(0))
            .tick(Some(SimDuration::from_millis(100)))
            .rule(EnforcementPoint::CommandIssue, DifBroadcastRule)
    }

    /// Look up a built-in set by name (the ablation sweep's vocabulary):
    /// `iorchestra`, `flush_only`, `congestion_only`, `cosched_only`,
    /// `baseline`, `sdc`, or `dif`. Returns `None` for unknown names.
    pub fn named(name: &str, seed: u64) -> Option<PolicySet> {
        Some(match name {
            "iorchestra" => PolicySet::iorchestra(IOrchestraConfig::new(seed)),
            "flush_only" => PolicySet::iorchestra(
                IOrchestraConfig::new(seed).with_functions(FunctionSet::flush_only()),
            ),
            "congestion_only" => PolicySet::iorchestra(
                IOrchestraConfig::new(seed).with_functions(FunctionSet::congestion_only()),
            ),
            "cosched_only" => PolicySet::iorchestra(
                IOrchestraConfig::new(seed).with_functions(FunctionSet::cosched_only()),
            ),
            "baseline" => PolicySet::baseline(),
            "sdc" => PolicySet::sdc(),
            "dif" => PolicySet::dif(),
            _ => return None,
        })
    }
}
