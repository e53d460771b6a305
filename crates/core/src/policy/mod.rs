//! The programmable policy data plane: typed enforcement points, rules
//! attached to them, and one engine that executes every control plane.
//!
//! Before this module, each control plane the paper compares (Baseline,
//! SDC, DIF, IOrchestra and its `FunctionSet` ablations) was a hand-fused
//! struct: Algorithms 1–3 hardcoded into one `on_tick`, and every new
//! policy a fork. Following PAIO's split — enforcement *mechanisms* live
//! in the data plane, *policies* are data — the planes are now expressed
//! as [`PolicySet`]s: [`Rule`]s, each attached to a typed
//! [`EnforcementPoint`], evaluated once per control tick by the
//! [`PolicyEngine`].
//!
//! # Division of labour
//!
//! * **Rules decide.** A [`Rule`] reads monitor and trace signals through
//!   a read-only [`PolicyCtx`] and emits [`Action`]s. Rules own their own
//!   decision state (rate baselines, last pushed weights, …) and are
//!   notified of lifecycle events (crash, recovery, domain destruction).
//! * **The engine enforces.** The [`PolicyEngine`] owns every mechanism
//!   the PR 5 robustness work introduced — epoch-stamped command issue,
//!   persisted recovery state, quarantine bookkeeping, ack deadlines,
//!   reconciliation sweeps, the staggered-wake FIFO — and applies each
//!   action through the same store writes and machine verbs the
//!   hand-fused planes used, in the same order.
//!
//! # Determinism contract
//!
//! The built-in sets reproduce the pre-redesign planes' traces
//! **byte-identically** (see `crates/core/src/legacy.rs` and the
//! `policy_equivalence` suite): same store write order, same trace event
//! order, same RNG draw order. Custom sets inherit the rule that makes
//! this hold: at each point, every rule is evaluated against the same
//! immutable [`PolicyCtx`] snapshot, and the collected actions are
//! applied in emission order only after *all* of the point's rules have
//! run. At every built-in point at most one rule emits actions, so
//! batching is observationally identical to inline execution.
//!
//! # Quick start
//!
//! ```
//! use iorchestra::policy::{PolicyEngine, PolicySet};
//! use iorchestra::IOrchestraConfig;
//!
//! // The paper's full system, as a policy set:
//! let plane = PolicyEngine::new(PolicySet::iorchestra(IOrchestraConfig::new(7)));
//! assert_eq!(plane.set().name(), "iorchestra");
//!
//! // An ablation is configuration, not a fork:
//! use iorchestra::FunctionSet;
//! let cfg = IOrchestraConfig::new(7).with_functions(FunctionSet::flush_only());
//! let _flush_only = PolicyEngine::new(PolicySet::iorchestra(cfg));
//! ```
//!
//! # Writing a rule
//!
//! A custom rule implements [`Rule`] and is attached at a point with
//! [`PolicySet::rule`]; it never touches the store directly:
//!
//! ```
//! use iorchestra::policy::EnforcementPoint;
//! use iorchestra::{Action, IOrchestraConfig, PolicyCtx, PolicyEngine, PolicySet, Rule};
//! use iorch_hypervisor::{Cluster, IoPathMode, MachineConfig, VmSpec};
//! use iorch_simcore::{SimTime, Simulation};
//!
//! struct CapEveryone;
//! impl Rule for CapEveryone {
//!     fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
//!         for dom in ctx.machine().domains() {
//!             out.push(Action::RateLimit { dom, bytes_per_sec: Some(32 << 20) });
//!         }
//!     }
//! }
//!
//! let set = PolicySet::custom("cap", IOrchestraConfig::new(42))
//!     .rule(EnforcementPoint::RingPush, CapEveryone);
//! let plane = PolicyEngine::new(set);
//!
//! let mut sim = Simulation::new(Cluster::new());
//! let (cl, s) = sim.parts_mut();
//! let idx = cl.add_machine(MachineConfig::paper_testbed(42, IoPathMode::Paravirt));
//! cl.install_control(s, idx, Box::new(plane));
//! let vm = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(2), |_| {});
//! sim.run_until(SimTime::from_millis(250));
//! assert_eq!(sim.world().machine(idx).rate_limit(vm), Some(32 << 20));
//! ```
//!
//! See `examples/custom_policy.rs` for a complete run with a user-defined
//! rate-limit rule.

mod builtin;
mod engine;
mod slab;

pub use builtin::{
    AnomalyRule, CongestionAdjudicationRule, CoschedRule, DifBroadcastRule, FlushArgmaxRule,
};
pub use engine::PolicyEngine;

use iorch_hypervisor::{DomainId, Machine};
use iorch_simcore::{SimDuration, SimTime};

use crate::keys::DomainKeys;
use crate::monitor::MonitorReport;
use crate::planes::IOrchestraConfig;

// --------------------------------------------------------------------
// Enforcement points
// --------------------------------------------------------------------

/// The decision sites on the I/O path where policy actions bind.
///
/// Every rule in a [`PolicySet`] is attached to one point. Rules are
/// *evaluated* once per control tick, in the order the points are listed
/// here (then in the order they were added within a point); the point
/// names where the resulting actions take effect on the data path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnforcementPoint {
    /// Guest queue admission: store-write/denied-rate anomaly budgets
    /// ([`Action::Quarantine`]).
    QueueAdmission,
    /// Flush command issue over the store ([`Action::Flush`]) —
    /// Algorithm 1's command half.
    CommandIssue,
    /// Frontend-ring push into the backend ([`Action::RateLimit`] binds
    /// on the paravirt ring-drain dispatch path).
    RingPush,
    /// Host device dispatch (route weights, DRR quanta and blkio weights
    /// from [`Action::Priority`]) — Algorithm 3's enforcement half.
    DeviceDispatch,
}

// --------------------------------------------------------------------
// Actions
// --------------------------------------------------------------------

/// How a flush command reaches the guest.
#[derive(Clone, PartialEq, Debug)]
pub enum FlushMode {
    /// Store-choreographed: epoch-stamped `flush_now` with a persisted
    /// in-flight record, ack deadline, retry backoff and quarantine on
    /// repeated timeouts (Algorithm 1's command path).
    Tracked {
        /// The chosen domain's dirty-page count (trace metadata).
        nr_dirty: u64,
        /// All eligible `(dom, nr_dirty)` pairs (trace metadata; built
        /// only while tracing is enabled).
        candidates: Vec<(u32, u64)>,
    },
    /// Direct hypercall-style remote sync with no store choreography, no
    /// epoch and no ack tracking (DIF's broadcast, or a quick custom
    /// governor).
    Direct,
}

/// What a [`Rule`] can ask the engine to enforce. Each action maps onto
/// one mechanism (store writes + machine verbs) owned by the engine.
#[derive(Clone, PartialEq, Debug)]
pub enum Action {
    /// Cap a domain's backend dispatch at `bytes_per_sec`
    /// (`None` lifts the cap). Binds at [`EnforcementPoint::RingPush`].
    ///
    /// The limiter sits in the paravirt backend's ring drain only. On
    /// [`IoPathMode::DedicatedCores`] machines (SDC, IOrchestra) requests
    /// bypass that path, so the cap is recorded but not enforced.
    ///
    /// [`IoPathMode::DedicatedCores`]: iorch_hypervisor::IoPathMode::DedicatedCores
    RateLimit {
        /// Target domain.
        dom: DomainId,
        /// Cap in bytes/sec; `None` (or 0) removes the limiter.
        bytes_per_sec: Option<u64>,
    },
    /// Program a domain's I/O priority: per-socket route weights, DRR
    /// quanta and a blkio weight (Algorithm 3's outputs).
    Priority {
        /// Target domain.
        dom: DomainId,
        /// Per-socket route weights (normalized; one slot per socket).
        route: Vec<f64>,
        /// `(socket, quantum_bytes)` pairs for the spanned sockets.
        quanta: Vec<(usize, u64)>,
        /// cgroup blkio weight at the device (10–1000).
        blkio_weight: u32,
    },
    /// Tell a guest to write back its dirty pages.
    Flush {
        /// Target domain.
        dom: DomainId,
        /// Tracked (store-choreographed) or direct.
        mode: FlushMode,
    },
    /// Quarantine a domain: Baseline behaviour, keys ignored, persisted
    /// until an operator clears it.
    Quarantine {
        /// Target domain.
        dom: DomainId,
        /// Which budget or policy tripped (trace label).
        reason: &'static str,
    },
}

/// Answer to a congestion adjudication (Algorithm 2's branch).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Host really congested: the guest stays asleep and joins the FIFO
    /// woken on relief.
    Confirm,
    /// False trigger: grant a release under a fresh epoch.
    Release,
}

// --------------------------------------------------------------------
// PolicyCtx
// --------------------------------------------------------------------

/// Read-only view of the monitor, machine and engine state a [`Rule`]
/// decides on. Built fresh for each evaluation; rules cannot mutate
/// anything through it — all effects go through emitted [`Action`]s.
pub struct PolicyCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) report: Option<&'a MonitorReport>,
    pub(crate) machine: &'a Machine,
    pub(crate) cfg: &'a IOrchestraConfig,
    pub(crate) slab: &'a slab::PlaneSlab,
}

impl<'a> PolicyCtx<'a> {
    /// Current sim time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This tick's monitor report (`None` outside tick evaluation, e.g.
    /// during recovery adjudication).
    pub fn report(&self) -> Option<&'a MonitorReport> {
        self.report
    }

    /// The machine: store (reads only — `read_ref` takes `&self`),
    /// storage subsystem, domains, topology.
    pub fn machine(&self) -> &'a Machine {
        self.machine
    }

    /// The engine's tunables.
    pub fn cfg(&self) -> &'a IOrchestraConfig {
        self.cfg
    }

    /// Whether a domain is quarantined (rules should skip it).
    pub fn is_quarantined(&self, dom: DomainId) -> bool {
        self.slab
            .slot(self.machine, dom)
            .is_some_and(|s| s.quarantined)
    }

    /// Whether a `flush_now` command is in flight for this domain.
    pub fn flush_in_flight(&self, dom: DomainId) -> bool {
        self.slab
            .slot(self.machine, dom)
            .is_some_and(|s| s.flush_in_progress.is_some())
    }

    /// Whether the domain is in post-timeout flush retry backoff.
    pub fn in_flush_backoff(&self, dom: DomainId) -> bool {
        self.slab
            .slot(self.machine, dom)
            .and_then(|s| s.flush_backoff_until)
            .is_some_and(|t| self.now < t)
    }

    /// Interned store paths for a domain (present for every live domain
    /// on a collaborative set).
    pub fn keys(&self, dom: DomainId) -> Option<&'a DomainKeys> {
        self.slab.slot(self.machine, dom)?.keys.as_ref()
    }

    /// Domains whose store-published `has_dirty_pages` flag is raised,
    /// ascending by id — the differential signal feeding Algorithm 1's
    /// argmax, maintained by the engine at its own `has_dirty_pages`
    /// publish site. Empty on non-collaborative sets.
    pub fn dirty_domains(&self) -> &'a [DomainId] {
        self.slab.dirty_domains()
    }
}

// --------------------------------------------------------------------
// Rule
// --------------------------------------------------------------------

/// One policy decision unit. Implementations own their decision state and
/// emit [`Action`]s; the engine owns enforcement.
///
/// Every method has a no-op default, so a minimal rule only implements
/// [`on_tick`](Rule::on_tick).
pub trait Rule: 'static {
    /// Per-tick evaluation: read `ctx`, push actions onto `out` (append
    /// only: earlier rules at the same point share the buffer). Actions
    /// are applied in emission order once every rule at this rule's
    /// enforcement point has been evaluated.
    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let _ = (ctx, out);
    }

    /// Whether this rule's decisions read guest dirty-page state. A
    /// collaborative set containing such a rule makes the engine publish
    /// `has_dirty_pages` / `nr_dirty` under each domain's virt-dev
    /// subtree (Algorithm 1's input), republished on change each tick.
    fn feeds_dirty_pages(&self) -> bool {
        false
    }

    /// Whether this rule answers congestion adjudications. A set
    /// containing an adjudicating rule (on a collaborative engine) runs
    /// the full Algorithm 2 handshake: `congested` key watches, per-tick
    /// reconciliation, staggered FIFO wake on relief.
    fn adjudicates(&self) -> bool {
        false
    }

    /// Adjudicate one raised `congested` flag. Return `None` to pass to
    /// the next rule; the engine falls back to [`Verdict::Confirm`] (the
    /// guest sleeps, as under Baseline) if no rule answers.
    fn adjudicate(&mut self, ctx: &PolicyCtx<'_>, dom: DomainId) -> Option<Verdict> {
        let _ = (ctx, dom);
        None
    }

    /// A domain was destroyed: drop any per-domain state.
    fn on_domain_destroyed(&mut self, dom: DomainId) {
        let _ = dom;
    }

    /// An operator cleared a quarantine: forgive the domain's history.
    fn on_quarantine_cleared(&mut self, dom: DomainId) {
        let _ = dom;
    }

    /// The control plane crashed: reset decision state to boot values.
    fn on_crash(&mut self) {}

    /// The control plane recovered: re-seed decision state from current
    /// machine/store observables (never from event history).
    fn on_recover(&mut self, ctx: &PolicyCtx<'_>) {
        let _ = ctx;
    }
}

// --------------------------------------------------------------------
// PolicySet
// --------------------------------------------------------------------

/// A complete policy: a name, the engine tunables, and the rules, each
/// attached to an [`EnforcementPoint`]. Built-in constructors re-express
/// the paper's planes; custom sets compose freely via
/// [`PolicySet::custom`].
pub struct PolicySet {
    pub(crate) name: &'static str,
    pub(crate) cfg: IOrchestraConfig,
    pub(crate) tick: Option<SimDuration>,
    pub(crate) collaborative: bool,
    pub(crate) rules: Vec<(EnforcementPoint, Box<dyn Rule>)>,
}

impl PolicySet {
    /// Start a custom set: no rules, non-collaborative, ticking at
    /// [`TICK`](crate::planes::TICK). Chain [`rule`](PolicySet::rule),
    /// [`collaborative`](PolicySet::collaborative), etc. Note the engine
    /// derives its behaviour from the *rules* (and the collaborative
    /// flag), not from `cfg.functions` — that field only drives the
    /// built-in [`PolicySet::iorchestra`] constructor.
    pub fn custom(name: &'static str, cfg: IOrchestraConfig) -> Self {
        PolicySet {
            name,
            tick: Some(crate::planes::TICK),
            collaborative: false,
            rules: Vec::new(),
            cfg,
        }
    }

    /// Enable/disable store choreography: key registration at domain
    /// creation, watches, health publication, quarantine persistence and
    /// crash/recovery handling. Non-collaborative sets never touch the
    /// store (like Baseline and DIF).
    pub fn collaborative(mut self, on: bool) -> Self {
        self.collaborative = on;
        self
    }

    /// Set (or with `None`, disable) the control tick.
    pub fn tick(mut self, t: Option<SimDuration>) -> Self {
        self.tick = t;
        self
    }

    /// Attach a rule at `point` (rules at the same point run in the
    /// order they were added).
    pub fn rule(mut self, point: EnforcementPoint, r: impl Rule) -> Self {
        self.rules.push((point, Box::new(r)));
        self
    }

    /// Set name (the plane name reported to the trace layer).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Control tick, if any.
    pub fn tick_period(&self) -> Option<SimDuration> {
        self.tick
    }
}
