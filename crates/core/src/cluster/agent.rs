//! The per-node agent: runs on each machine, renews its lease, and
//! applies controller commands idempotently.
//!
//! The agent is the cluster's ground truth: `owned` maps logical domain
//! ids to the real [`DomainId`]s it created on its machine, and every
//! heartbeat reports that set verbatim. Command application is guarded
//! three ways — boot incarnation (a rebooted node discards commands aimed
//! at its previous life), the `(epoch, seq)` cursor (stale and duplicate
//! deliveries are discarded), and idempotence (starting an owned domain
//! or stopping an unowned one just acks). A node crash destroys the
//! machine's domains and bumps the incarnation; recovery re-registers
//! with exponential backoff.

use std::collections::BTreeMap;

use iorch_hypervisor::{Cluster, DomainId, Sched, VmSpec};
use iorch_netsim::{MsgBus, NodeId};
use iorch_simcore::trace::{Decision, TraceEventKind};
use iorch_simcore::{trace_event, SimDuration, SimTime};

use super::msg::{Msg, NodeCaps};
use super::BACKOFF_CAP_SHIFT;

/// Base re-registration backoff (doubled per attempt up to the cap).
const REGISTER_BACKOFF: SimDuration = SimDuration::from_millis(150);

/// One node's agent.
pub struct NodeAgent {
    node: u32,
    machine: usize,
    ctrl: NodeId,
    caps: NodeCaps,
    incarnation: u64,
    down: bool,
    lease_until: SimTime,
    /// Command cursor: the highest `(epoch, seq)` applied so far.
    last_epoch: u64,
    last_seq: u64,
    /// Logical domain → the machine domain actually running it.
    owned: BTreeMap<u32, DomainId>,
    backoff_shift: u32,
    next_register_at: SimTime,
}

impl NodeAgent {
    /// An agent for cluster node `node`, driving machine `machine`.
    pub fn new(node: u32, machine: usize, caps: NodeCaps, ctrl: NodeId) -> Self {
        NodeAgent {
            node,
            machine,
            ctrl,
            caps,
            incarnation: 1,
            down: false,
            lease_until: SimTime::ZERO,
            last_epoch: 0,
            last_seq: 0,
            owned: BTreeMap::new(),
            backoff_shift: 0,
            next_register_at: SimTime::ZERO,
        }
    }

    /// Cluster node index.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The hypervisor machine this agent drives.
    pub fn machine(&self) -> usize {
        self.machine
    }

    /// Whether the node is currently crashed.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Current boot incarnation.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Whether the agent holds an unexpired lease at `now`.
    pub fn has_lease(&self, now: SimTime) -> bool {
        now < self.lease_until
    }

    /// Logical domain → machine domain map (ground truth).
    pub fn owned(&self) -> &BTreeMap<u32, DomainId> {
        &self.owned
    }

    /// One heartbeat tick: register (with exponential backoff) while
    /// leaseless, heartbeat otherwise. No-op while crashed.
    pub fn tick(&mut self, bus: &mut MsgBus<Msg>, now: SimTime) {
        if self.down {
            return;
        }
        if !self.has_lease(now) {
            if now < self.next_register_at {
                return;
            }
            let shift = self.backoff_shift.min(BACKOFF_CAP_SHIFT);
            self.next_register_at = now + REGISTER_BACKOFF * (1u64 << shift);
            self.backoff_shift += 1;
            self.send(
                bus,
                Msg::Register {
                    node: self.node,
                    incarnation: self.incarnation,
                    caps: self.caps,
                },
                now,
            );
        } else {
            let owned: Vec<u32> = self.owned.keys().copied().collect();
            self.send(
                bus,
                Msg::Heartbeat {
                    node: self.node,
                    incarnation: self.incarnation,
                    caps: self.caps,
                    owned,
                },
                now,
            );
        }
    }

    fn send(&mut self, bus: &mut MsgBus<Msg>, msg: Msg, now: SimTime) {
        let len = msg.wire_len();
        bus.send(NodeId(self.node as usize), self.ctrl, len, msg, now);
    }

    /// Handle one inbound message (the tier drops deliveries while the
    /// node is crashed — a dead host receives nothing).
    pub fn on_msg(
        &mut self,
        bus: &mut MsgBus<Msg>,
        cl: &mut Cluster,
        s: &mut Sched,
        msg: Msg,
        now: SimTime,
    ) {
        match msg {
            Msg::Lease { ttl, .. } => {
                self.lease_until = now + ttl;
                self.backoff_shift = 0;
                self.next_register_at = now;
            }
            Msg::Start {
                inc,
                epoch,
                seq,
                ldom,
                spec,
                ..
            } => {
                if self.admit(inc, epoch, seq, now) {
                    self.apply_start(cl, s, ldom, spec);
                    self.ack(bus, epoch, seq, now);
                }
            }
            Msg::Stop {
                inc,
                epoch,
                seq,
                ldom,
                ..
            } => {
                if self.admit(inc, epoch, seq, now) {
                    self.apply_stop(cl, s, ldom);
                    self.ack(bus, epoch, seq, now);
                }
            }
            // Node-originated kinds never arrive here.
            Msg::Register { .. } | Msg::Heartbeat { .. } | Msg::CmdAck { .. } => {}
        }
    }

    /// Incarnation + cursor admission for a command. Advances the cursor
    /// on admit; traces and discards otherwise. Duplicates are not
    /// re-acked — the controller's heartbeat resolution covers lost acks.
    fn admit(&mut self, inc: u64, epoch: u64, seq: u64, now: SimTime) -> bool {
        if inc != self.incarnation || (epoch, seq) <= (self.last_epoch, self.last_seq) {
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::ClusterCmdStale {
                    node: self.node,
                    epoch,
                    seq,
                })
            );
            return false;
        }
        self.last_epoch = epoch;
        self.last_seq = seq;
        true
    }

    fn ack(&mut self, bus: &mut MsgBus<Msg>, epoch: u64, seq: u64, now: SimTime) {
        self.send(
            bus,
            Msg::CmdAck {
                node: self.node,
                epoch,
                seq,
            },
            now,
        );
    }

    fn apply_start(&mut self, cl: &mut Cluster, s: &mut Sched, ldom: u32, spec: VmSpec) {
        if self.owned.contains_key(&ldom) {
            return;
        }
        let dom = cl.create_domain(s, self.machine, spec, |_| {});
        self.owned.insert(ldom, dom);
    }

    fn apply_stop(&mut self, cl: &mut Cluster, s: &mut Sched, ldom: u32) {
        if let Some(dom) = self.owned.remove(&ldom) {
            cl.destroy_domain(s, self.machine, dom);
        }
    }

    /// Node crash: the machine loses its domains, the agent its volatile
    /// state. (The tier stops delivering to a crashed agent.)
    pub fn crash(&mut self, cl: &mut Cluster, s: &mut Sched) {
        self.down = true;
        self.lease_until = SimTime::ZERO;
        for (_, dom) in std::mem::take(&mut self.owned) {
            cl.destroy_domain(s, self.machine, dom);
        }
    }

    /// Reboot: a fresh incarnation with a reset cursor, registering
    /// immediately (the controller voids the previous life on sight).
    pub fn recover(&mut self, now: SimTime) {
        self.down = false;
        self.incarnation += 1;
        self.last_epoch = 0;
        self.last_seq = 0;
        self.backoff_shift = 0;
        self.next_register_at = now;
        self.lease_until = SimTime::ZERO;
    }
}
