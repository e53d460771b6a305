//! The cluster controller: lease-based membership, failure detection,
//! and domain failover.
//!
//! The controller is deliberately *stateless about intent*: the desired
//! placement is recomputed on every tick as a pure function of the alive
//! membership and the durable domain catalog ([`Controller::desired`]),
//! and reconciliation only diffs that against the ground-truth `owned`
//! sets nodes report in heartbeats. There is no placement journal to
//! corrupt — a controller that crashes and restarts (fresh epoch, empty
//! membership) rebuilds everything from heartbeats and converges to the
//! same steady state as a controller that never crashed, which is exactly
//! what the cluster convergence oracle asserts.
//!
//! Command reliability follows the policy engine's epoch scheme
//! (DESIGN.md §7): every command carries `(epoch, seq)` plus the target's
//! boot incarnation; agents discard stale/duplicate deliveries; the
//! controller re-issues unacked commands under fresh sequence numbers
//! with exponentially backed-off deadlines. Acks are an optimization —
//! heartbeat `owned` sets resolve in-flight commands even when every ack
//! is lost.

use std::collections::BTreeMap;

use iorch_hypervisor::VmSpec;
use iorch_netsim::{MsgBus, NodeId};
use iorch_simcore::trace::{Decision, TraceEventKind};
use iorch_simcore::{trace_event, SimDuration, SimTime};

use super::msg::{Msg, NodeCaps};
use super::placement::{NodeView, PlacementPipeline};
use super::BACKOFF_CAP_SHIFT;

/// Lease granted per registration/heartbeat.
const LEASE_TTL: SimDuration = SimDuration::from_millis(350);
/// Base command-ack deadline (doubled per retry up to the cap).
const RPC_TIMEOUT: SimDuration = SimDuration::from_millis(250);
/// Command suppression window after a controller restart, while
/// heartbeats rebuild the membership.
const RECOVERY_GRACE: SimDuration = SimDuration::from_millis(300);

/// A node as the controller currently believes it to be.
#[derive(Clone, Debug)]
pub struct Member {
    /// Boot incarnation the node last registered/heartbeat under.
    pub incarnation: u64,
    /// Advertised capacity.
    pub caps: NodeCaps,
    /// Instant the lease runs out (renewed by heartbeats).
    pub lease_until: SimTime,
    /// False once the lease expired; flips back on a heartbeat
    /// (rejoin) or registration.
    pub alive: bool,
    /// Ground-truth owned set from the node's last heartbeat, ascending.
    pub owned: Vec<u32>,
}

/// An unacked command awaiting its deadline.
#[derive(Clone, Copy, Debug)]
struct Rpc {
    /// True for `Start`, false for `Stop`.
    start: bool,
    seq: u64,
    deadline: SimTime,
    attempt: u32,
}

/// Monotonic controller counters (excluded from convergence digests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Commands issued (first attempts and retries).
    pub commands: u64,
    /// Timed-out commands re-issued with backoff.
    pub retries: u64,
    /// Acks dropped for carrying a stale epoch.
    pub stale_acks: u64,
    /// Orphaned domains re-placed on survivors.
    pub failovers: u64,
}

/// The cluster controller state machine. Driven by [`tick`](Self::tick)
/// and the message handlers; sends through the caller-provided bus so it
/// stays borrow-disjoint from the rest of the tier.
pub struct Controller {
    ctrl: NodeId,
    /// Durable command epoch: bumped on every recovery, never reset.
    epoch: u64,
    down: bool,
    /// After a recovery, commands are suppressed until this instant so
    /// membership can rebuild from heartbeats first.
    grace_until: SimTime,
    members: BTreeMap<u32, Member>,
    /// Durable domain catalog: `ldom → spec`. Survives controller
    /// crashes (etcd-style persistence in a real deployment).
    catalog: BTreeMap<u32, VmSpec>,
    next_ldom: u32,
    /// Domains orphaned by a lease expiry, with their dead former owner
    /// (for failover tracing).
    orphans: BTreeMap<u32, u32>,
    next_seq: u64,
    /// Unacked commands, keyed `(node, ldom)` — a node can have at most
    /// one in-flight command per logical domain.
    inflight: BTreeMap<(u32, u32), Rpc>,
    stats: ControllerStats,
}

impl Controller {
    /// A fresh controller addressed as `ctrl` on the bus.
    pub fn new(ctrl: NodeId) -> Self {
        Controller {
            ctrl,
            epoch: 1,
            down: false,
            grace_until: SimTime::ZERO,
            members: BTreeMap::new(),
            catalog: BTreeMap::new(),
            next_ldom: 0,
            orphans: BTreeMap::new(),
            next_seq: 0,
            inflight: BTreeMap::new(),
            stats: ControllerStats::default(),
        }
    }

    /// Add a domain to the durable catalog; returns its logical id.
    pub fn submit(&mut self, spec: VmSpec) -> u32 {
        self.next_ldom += 1;
        self.catalog.insert(self.next_ldom, spec);
        self.next_ldom
    }

    /// The controller's bus address.
    pub fn node_id(&self) -> NodeId {
        self.ctrl
    }

    /// Whether the controller is currently crashed.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Current command epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Monotonic counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Current membership view.
    pub fn members(&self) -> &BTreeMap<u32, Member> {
        &self.members
    }

    /// The durable domain catalog.
    pub fn catalog(&self) -> &BTreeMap<u32, VmSpec> {
        &self.catalog
    }

    /// Unacked command count (empty at steady state).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Desired placement: a pure function of the alive membership and the
    /// catalog. Greedy in ascending `ldom` order over the standard
    /// placement pipeline; domains that fit nowhere are omitted.
    pub fn desired(&self) -> BTreeMap<u32, u32> {
        let mut views: Vec<NodeView> = self
            .members
            .iter()
            .filter(|(_, m)| m.alive)
            .map(|(&n, m)| {
                NodeView::new(
                    n,
                    m.caps.total_vcpus,
                    m.caps.numa_max_vcpus,
                    m.caps.mem_quota,
                )
            })
            .collect();
        let pipeline = PlacementPipeline::standard();
        let mut out = BTreeMap::new();
        for (&ldom, spec) in &self.catalog {
            if let Some(node) = pipeline.place(spec, &mut views) {
                out.insert(ldom, node);
            }
        }
        out
    }

    /// Crash: volatile state (membership, in-flight commands, orphan
    /// ledger) is lost; the epoch and catalog are durable.
    pub fn crash(&mut self, now: SimTime) {
        self.down = true;
        self.members.clear();
        self.inflight.clear();
        self.orphans.clear();
        trace_event!(now, TraceEventKind::Decision(Decision::ControllerCrash));
    }

    /// Restart under a fresh epoch; commands stay suppressed for the
    /// configured grace period while heartbeats rebuild membership.
    pub fn recover(&mut self, now: SimTime) {
        self.down = false;
        self.epoch += 1;
        self.next_seq = 0;
        self.grace_until = now + RECOVERY_GRACE;
        trace_event!(
            now,
            TraceEventKind::Decision(Decision::ControllerRecover { epoch: self.epoch })
        );
    }

    /// One control tick: expire leases, retry timed-out commands,
    /// reconcile actual ownership against the desired placement.
    pub fn tick(&mut self, bus: &mut MsgBus<Msg>, now: SimTime) {
        if self.down || now < self.grace_until {
            return;
        }
        self.expire_leases(now);
        self.retry_timeouts(bus, now);
        self.reconcile(bus, now);
    }

    fn expire_leases(&mut self, now: SimTime) {
        let expired: Vec<u32> = self
            .members
            .iter()
            .filter(|(_, m)| m.alive && m.lease_until <= now)
            .map(|(&n, _)| n)
            .collect();
        for node in expired {
            let m = self.members.get_mut(&node).unwrap();
            m.alive = false;
            let owned = std::mem::take(&mut m.owned);
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::LeaseExpired {
                    node,
                    orphaned: owned.len() as u32,
                })
            );
            for ldom in owned {
                self.orphans.insert(ldom, node);
            }
            self.inflight.retain(|&(n, _), _| n != node);
        }
    }

    fn retry_timeouts(&mut self, bus: &mut MsgBus<Msg>, now: SimTime) {
        let due: Vec<(u32, u32)> = self
            .inflight
            .iter()
            .filter(|(_, rpc)| rpc.deadline <= now)
            .map(|(&k, _)| k)
            .collect();
        for (node, ldom) in due {
            let rpc = self.inflight.remove(&(node, ldom)).unwrap();
            let alive = self.members.get(&node).is_some_and(|m| m.alive);
            let spec = self.catalog.get(&ldom).copied();
            if !alive || (rpc.start && spec.is_none()) {
                // The target died or the domain left the catalog: drop
                // the command and let reconciliation decide afresh.
                continue;
            }
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::ClusterRetry {
                    node,
                    dom: ldom,
                    attempt: rpc.attempt + 1,
                })
            );
            self.stats.retries += 1;
            self.issue(bus, now, node, ldom, rpc.start, spec, rpc.attempt + 1);
        }
    }

    fn reconcile(&mut self, bus: &mut MsgBus<Msg>, now: SimTime) {
        let desired = self.desired();
        // Starts: the desired owner doesn't report the domain yet.
        for (&ldom, &node) in &desired {
            let has_it = self
                .members
                .get(&node)
                .is_some_and(|m| m.owned.binary_search(&ldom).is_ok());
            if has_it || self.inflight.contains_key(&(node, ldom)) {
                continue;
            }
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::DomainPlaced { dom: ldom, node })
            );
            if let Some(from) = self.orphans.remove(&ldom) {
                trace_event!(
                    now,
                    TraceEventKind::Decision(Decision::Failover {
                        dom: ldom,
                        from,
                        to: node,
                    })
                );
                self.stats.failovers += 1;
            }
            let spec = self.catalog.get(&ldom).copied();
            self.issue(bus, now, node, ldom, true, spec, 0);
        }
        // Stops: an alive node owns a domain it shouldn't. Make before
        // break — a superseded copy is only stopped once the desired
        // owner actually reports it (a domain outside the catalog stops
        // immediately).
        let mut stops: Vec<(u32, u32)> = Vec::new();
        for (&node, m) in &self.members {
            if !m.alive {
                continue;
            }
            for &ldom in &m.owned {
                let keep = match desired.get(&ldom) {
                    Some(&d) if d == node => true,
                    Some(&d) => self
                        .members
                        .get(&d)
                        .is_none_or(|dm| dm.owned.binary_search(&ldom).is_err()),
                    None => self.catalog.contains_key(&ldom),
                };
                if !keep && !self.inflight.contains_key(&(node, ldom)) {
                    stops.push((node, ldom));
                }
            }
        }
        for (node, ldom) in stops {
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::DomainEvicted { dom: ldom, node })
            );
            self.issue(bus, now, node, ldom, false, None, 0);
        }
    }

    /// Issue (or re-issue) a command under a fresh sequence number, with
    /// an exponentially backed-off deadline for retries.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        bus: &mut MsgBus<Msg>,
        now: SimTime,
        node: u32,
        ldom: u32,
        start: bool,
        spec: Option<VmSpec>,
        attempt: u32,
    ) {
        let Some(m) = self.members.get(&node) else {
            return;
        };
        let inc = m.incarnation;
        self.next_seq += 1;
        let seq = self.next_seq;
        let shift = attempt.min(BACKOFF_CAP_SHIFT);
        let deadline = now + RPC_TIMEOUT * (1u64 << shift);
        let msg = if start {
            let Some(spec) = spec else { return };
            Msg::Start {
                node,
                inc,
                epoch: self.epoch,
                seq,
                ldom,
                spec,
            }
        } else {
            Msg::Stop {
                node,
                inc,
                epoch: self.epoch,
                seq,
                ldom,
            }
        };
        self.stats.commands += 1;
        self.inflight.insert(
            (node, ldom),
            Rpc {
                start,
                seq,
                deadline,
                attempt,
            },
        );
        let len = msg.wire_len();
        bus.send(self.ctrl, NodeId(node as usize), len, msg, now);
    }

    /// Handle one inbound message (the tier routes controller-addressed
    /// deliveries here; drops them entirely while the controller is down).
    pub fn on_msg(&mut self, bus: &mut MsgBus<Msg>, msg: Msg, now: SimTime) {
        match msg {
            Msg::Register {
                node,
                incarnation,
                caps,
            } => self.on_register(bus, node, incarnation, caps, now),
            Msg::Heartbeat {
                node,
                incarnation,
                caps,
                owned,
            } => self.on_heartbeat(bus, node, incarnation, caps, owned, now),
            Msg::CmdAck { node, epoch, seq } => self.on_ack(node, epoch, seq),
            // Controller-originated kinds reflected back are impossible by
            // construction; ignore defensively.
            Msg::Lease { .. } | Msg::Start { .. } | Msg::Stop { .. } => {}
        }
    }

    fn grant_lease(&mut self, bus: &mut MsgBus<Msg>, node: u32, now: SimTime) {
        let msg = Msg::Lease {
            node,
            epoch: self.epoch,
            ttl: LEASE_TTL,
        };
        let len = msg.wire_len();
        bus.send(self.ctrl, NodeId(node as usize), len, msg, now);
    }

    fn on_register(
        &mut self,
        bus: &mut MsgBus<Msg>,
        node: u32,
        incarnation: u64,
        caps: NodeCaps,
        now: SimTime,
    ) {
        match self.members.get_mut(&node) {
            // A delayed duplicate from a previous life: ignore.
            Some(m) if incarnation < m.incarnation => return,
            // Re-registration of the current life (lost lease, e.g. a
            // healed partition): renew without touching the owned set —
            // the node kept its domains running.
            Some(m) if incarnation == m.incarnation => {
                m.caps = caps;
                m.lease_until = now + LEASE_TTL;
                if !m.alive {
                    m.alive = true;
                    trace_event!(
                        now,
                        TraceEventKind::Decision(Decision::NodeRejoined { node, incarnation })
                    );
                }
            }
            // A new node, or a reboot under a fresh incarnation: the
            // previous life's domains and in-flight commands are void.
            _ => {
                self.inflight.retain(|&(n, _), _| n != node);
                self.members.insert(
                    node,
                    Member {
                        incarnation,
                        caps,
                        lease_until: now + LEASE_TTL,
                        alive: true,
                        owned: Vec::new(),
                    },
                );
                trace_event!(
                    now,
                    TraceEventKind::Decision(Decision::NodeRegistered { node, incarnation })
                );
            }
        }
        self.grant_lease(bus, node, now);
    }

    fn on_heartbeat(
        &mut self,
        bus: &mut MsgBus<Msg>,
        node: u32,
        incarnation: u64,
        caps: NodeCaps,
        owned: Vec<u32>,
        now: SimTime,
    ) {
        match self.members.get_mut(&node) {
            Some(m) if incarnation < m.incarnation => return,
            Some(m) if incarnation == m.incarnation => {
                m.caps = caps;
                m.owned = owned;
                m.lease_until = now + LEASE_TTL;
                if !m.alive {
                    m.alive = true;
                    trace_event!(
                        now,
                        TraceEventKind::Decision(Decision::NodeRejoined { node, incarnation })
                    );
                }
            }
            // Unknown node (controller restarted) or a newer incarnation
            // whose Register was lost: heartbeats carry everything needed
            // to (re)build the member.
            _ => {
                self.inflight.retain(|&(n, _), _| n != node);
                self.members.insert(
                    node,
                    Member {
                        incarnation,
                        caps,
                        lease_until: now + LEASE_TTL,
                        alive: true,
                        owned,
                    },
                );
                trace_event!(
                    now,
                    TraceEventKind::Decision(Decision::NodeRegistered { node, incarnation })
                );
            }
        }
        // Ground truth resolves in-flight commands even when acks are
        // lost: a Start is done once owned, a Stop once gone.
        let m = &self.members[&node];
        let owned_now = m.owned.clone();
        self.inflight.retain(|&(n, ldom), rpc| {
            if n != node {
                return true;
            }
            let has = owned_now.binary_search(&ldom).is_ok();
            rpc.start != has
        });
        self.grant_lease(bus, node, now);
    }

    fn on_ack(&mut self, node: u32, epoch: u64, seq: u64) {
        if epoch != self.epoch {
            self.stats.stale_acks += 1;
            return;
        }
        self.inflight
            .retain(|&(n, _), rpc| !(n == node && rpc.seq == seq));
    }
}
