//! Deterministic inter-node message bus over [`Network::transfer_time`].
//!
//! The cluster control tier (controller ↔ node agents in `iorchestra`)
//! needs a transport with real failure modes — loss, duplication,
//! reordering, partitions, extra delay — that still replays bit-for-bit
//! from a `(seed, plan)` pair. [`MsgBus`] provides exactly that: `send`
//! asks the passive [`Network`] model for a delivery instant (so
//! concurrent transfers serialize on the endpoint NICs like every other
//! message), applies the active network faults from an installed
//! [`FaultPlan`], and parks the message in a `(deliver_at, seq)`-ordered
//! queue. The owner drives delivery from scheduler events: `next_due`
//! says when to wake, `take_due` hands back everything due at the current
//! instant, in a deterministic order.
//!
//! Fault semantics (all counter-driven, never RNG — see
//! [`FaultPlan::net_unreliable`]):
//!
//! * **partition** ([`FaultKind::NetPartition`]): messages crossing the
//!   cut are silently lost (the sender still burns NIC time — it cannot
//!   know);
//! * **drop / duplicate**: every n-th send attempt is lost / enqueued
//!   twice, counted over a monotonic per-bus sequence;
//! * **delay** ([`FaultKind::NetDelay`]): added to the delivery instant;
//! * **reorder**: each same-instant delivery batch taken while the fault
//!   is active is reversed.
//!
//! [`FaultKind::NetPartition`]: iorch_simcore::faults::FaultKind
//! [`FaultKind::NetDelay`]: iorch_simcore::faults::FaultKind
//! [`FaultPlan::net_unreliable`]: iorch_simcore::faults::FaultPlan::net_unreliable

use std::collections::BTreeMap;

use iorch_simcore::faults::FaultPlan;
use iorch_simcore::SimTime;

use crate::{Network, NodeId};

/// What happened to a [`MsgBus::send`] attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendOutcome {
    /// Enqueued for delivery at the returned instant (a duplicate fault
    /// may deliver it twice).
    Sent(SimTime),
    /// Lost: an active partition separates the endpoints.
    DroppedPartition,
    /// Lost: the deterministic drop stride claimed this message.
    DroppedLoss,
}

/// Delivery/loss counters (deterministic, observable by experiments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Send attempts.
    pub sent: u64,
    /// Messages handed out by [`MsgBus::take_due`].
    pub delivered: u64,
    /// Messages lost to an active partition.
    pub dropped_partition: u64,
    /// Messages lost to the drop stride.
    pub dropped_loss: u64,
    /// Extra copies enqueued by the duplicate stride.
    pub duplicated: u64,
}

/// A deterministic message bus: the [`Network`] latency/serialization
/// model plus fault injection plus an ordered pending queue. `M` is the
/// application message type (cloned only when a duplicate fault fires).
#[derive(Clone, Debug)]
pub struct MsgBus<M> {
    net: Network,
    faults: FaultPlan,
    /// Pending deliveries keyed `(deliver_at, enqueue seq)` — BTreeMap
    /// iteration order *is* the delivery order.
    pending: BTreeMap<(SimTime, u64), (NodeId, M)>,
    /// Monotonic counter over send attempts, driving drop/dup strides.
    seq: u64,
    /// Tie-break counter for pending keys (also covers duplicates).
    enq: u64,
    stats: BusStats,
}

impl<M: Clone> MsgBus<M> {
    /// A bus over a fresh network of `n` nodes.
    pub fn new(n: usize) -> Self {
        MsgBus {
            net: Network::new(n),
            faults: FaultPlan::new(),
            pending: BTreeMap::new(),
            seq: 0,
            enq: 0,
            stats: BusStats::default(),
        }
    }

    /// The underlying network model (read-only; byte/message counters).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Delivery/loss counters so far.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Layer `plan`'s network faults onto the bus (merging with anything
    /// already installed). Non-network kinds are ignored here — the
    /// cluster tier routes those to its own handlers.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.faults.merge(plan);
    }

    /// Send `len` wire bytes carrying `msg` from `src` to `dst` at `now`.
    ///
    /// Always charges the sender's NIC (a lost message still left the
    /// host). Returns where the message ended up; on `Sent`, delivery
    /// happens when the owner drains [`MsgBus::take_due`] at or after the
    /// returned instant.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len: u64,
        msg: M,
        now: SimTime,
    ) -> SendOutcome {
        self.seq += 1;
        self.stats.sent += 1;
        let deliver = self.net.transfer_time(src, dst, len, now) + self.faults.net_delay(now);
        if self.faults.net_partitioned(src.0, dst.0, now) {
            self.stats.dropped_partition += 1;
            return SendOutcome::DroppedPartition;
        }
        let fault = self.faults.net_unreliable(now);
        if let Some(f) = fault {
            if f.drop_1_in != 0 && self.seq.is_multiple_of(f.drop_1_in) {
                self.stats.dropped_loss += 1;
                return SendOutcome::DroppedLoss;
            }
        }
        self.enq += 1;
        self.pending.insert((deliver, self.enq), (dst, msg.clone()));
        if let Some(f) = fault {
            if f.dup_1_in != 0 && self.seq.is_multiple_of(f.dup_1_in) {
                self.enq += 1;
                self.pending.insert((deliver, self.enq), (dst, msg));
                self.stats.duplicated += 1;
            }
        }
        SendOutcome::Sent(deliver)
    }

    /// Earliest pending delivery instant, if any — the owner schedules its
    /// next pump event here.
    pub fn next_due(&self) -> Option<SimTime> {
        self.pending.keys().next().map(|(t, _)| *t)
    }

    /// Remove and return every message due at or before `now`, as
    /// `(destination, message)` in `(deliver_at, seq)` order — reversed
    /// while a reorder fault is active at `now`.
    pub fn take_due(&mut self, now: SimTime) -> Vec<(NodeId, M)> {
        let mut batch = Vec::new();
        while let Some(&key) = self.pending.keys().next() {
            if key.0 > now {
                break;
            }
            let (_, entry) = self.pending.remove_entry(&key).unwrap();
            batch.push(entry);
        }
        self.stats.delivered += batch.len() as u64;
        if self
            .faults
            .net_unreliable(now)
            .is_some_and(|f| f.reorder && batch.len() > 1)
        {
            batch.reverse();
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iorch_simcore::faults::{FaultKind, FaultWindow};
    use iorch_simcore::SimDuration;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn bus(n: usize) -> MsgBus<&'static str> {
        MsgBus::new(n)
    }

    #[test]
    fn delivers_in_order_after_transfer_time() {
        let mut b = bus(3);
        let SendOutcome::Sent(t1) = b.send(NodeId(0), NodeId(1), 1024, "a", ms(1)) else {
            panic!("lossless bus dropped a message");
        };
        let SendOutcome::Sent(t2) = b.send(NodeId(0), NodeId(2), 1024, "b", ms(1)) else {
            panic!("lossless bus dropped a message");
        };
        assert!(t1 > ms(1) && t2 >= t1, "t1={t1} t2={t2}");
        assert_eq!(b.next_due(), Some(t1));
        assert!(b.take_due(ms(1)).is_empty(), "nothing due yet");
        let out = b.take_due(t2);
        assert_eq!(out, vec![(NodeId(1), "a"), (NodeId(2), "b")]);
        assert_eq!(b.next_due(), None);
        assert_eq!(b.stats().delivered, 2);
    }

    #[test]
    fn partition_drops_across_the_cut_only() {
        let mut b = bus(3);
        b.install_faults(&FaultPlan::new().with(
            FaultWindow::new(ms(0), ms(100)),
            FaultKind::NetPartition { group: 0b100 },
        ));
        assert_eq!(
            b.send(NodeId(0), NodeId(2), 64, "cut", ms(10)),
            SendOutcome::DroppedPartition
        );
        assert!(matches!(
            b.send(NodeId(0), NodeId(1), 64, "same side", ms(10)),
            SendOutcome::Sent(_)
        ));
        // After the window heals, traffic flows again.
        assert!(matches!(
            b.send(NodeId(0), NodeId(2), 64, "healed", ms(100)),
            SendOutcome::Sent(_)
        ));
        assert_eq!(b.stats().dropped_partition, 1);
    }

    #[test]
    fn drop_dup_strides_are_deterministic() {
        let plan = FaultPlan::new().with(
            FaultWindow::always(),
            FaultKind::NetUnreliable {
                drop_1_in: 3,
                dup_1_in: 4,
                reorder: false,
            },
        );
        let run = || {
            let mut b = bus(2);
            b.install_faults(&plan);
            let mut log = Vec::new();
            for i in 0..12u64 {
                log.push(matches!(
                    b.send(NodeId(0), NodeId(1), 64, "m", ms(i)),
                    SendOutcome::DroppedLoss
                ));
            }
            (log, b.stats())
        };
        let (log1, s1) = run();
        let (log2, s2) = run();
        assert_eq!(log1, log2, "stride decisions must replay bit-for-bit");
        assert_eq!(s1, s2);
        assert_eq!(s1.dropped_loss, 4, "sends 3,6,9,12");
        // Send 4 and 8 duplicate (12 was dropped before the dup check).
        assert_eq!(s1.duplicated, 2);
    }

    #[test]
    fn duplicate_is_delivered_twice() {
        let mut b = bus(2);
        b.install_faults(&FaultPlan::new().with(
            FaultWindow::always(),
            FaultKind::NetUnreliable {
                drop_1_in: 0,
                dup_1_in: 1,
                reorder: false,
            },
        ));
        b.send(NodeId(0), NodeId(1), 64, "x", ms(0));
        let out = b.take_due(ms(1000));
        assert_eq!(out, vec![(NodeId(1), "x"), (NodeId(1), "x")]);
    }

    #[test]
    fn reorder_reverses_same_batch() {
        let mut b = bus(2);
        b.install_faults(&FaultPlan::new().with(
            FaultWindow::new(ms(500), ms(2000)),
            FaultKind::NetUnreliable {
                drop_1_in: 0,
                dup_1_in: 0,
                reorder: true,
            },
        ));
        b.send(NodeId(0), NodeId(1), 64, "first", ms(0));
        b.send(NodeId(0), NodeId(1), 64, "second", ms(0));
        // Drained inside the reorder window: batch comes back reversed.
        let out = b.take_due(ms(1000));
        assert_eq!(out, vec![(NodeId(1), "second"), (NodeId(1), "first")]);
    }

    #[test]
    fn net_delay_defers_delivery() {
        let mut plain = bus(2);
        let mut delayed = bus(2);
        delayed.install_faults(&FaultPlan::new().with(
            FaultWindow::always(),
            FaultKind::NetDelay {
                extra: SimDuration::from_millis(25),
            },
        ));
        let SendOutcome::Sent(t0) = plain.send(NodeId(0), NodeId(1), 64, "m", ms(0)) else {
            panic!("dropped");
        };
        let SendOutcome::Sent(t1) = delayed.send(NodeId(0), NodeId(1), 64, "m", ms(0)) else {
            panic!("dropped");
        };
        assert_eq!(t1, t0 + SimDuration::from_millis(25));
    }
}
