//! Boundary-case unit coverage for `iorch-netsim`, beyond the in-module
//! tests: `Network` per-link serialization ordering.

use iorch_netsim::{Network, NodeId};
use iorch_simcore::{SimDuration, SimTime};

#[test]
fn network_serializes_per_link_and_orders_deliveries() {
    let wire_100ms = 117 * 1024 * 1024 / 10;
    // Sender-side: three back-to-back transfers from node 0 leave in FIFO
    // order, each waiting for the previous one's wire time.
    let mut net = Network::new(4);
    let mut prev = SimTime::ZERO;
    for dst in 1..4 {
        let t = net.transfer_time(NodeId(0), NodeId(dst), wire_100ms, SimTime::ZERO);
        assert!(
            t.saturating_since(prev) >= SimDuration::from_millis(95),
            "transfer {dst} overlapped the previous one on the TX link: {t} vs {prev}"
        );
        prev = t;
    }
    // Receiver-side: different senders converging on one node are ordered
    // by the RX link even when they depart simultaneously.
    let mut net = Network::new(4);
    let a = net.transfer_time(NodeId(0), NodeId(3), wire_100ms, SimTime::ZERO);
    let b = net.transfer_time(NodeId(1), NodeId(3), wire_100ms, SimTime::ZERO);
    let c = net.transfer_time(NodeId(2), NodeId(3), wire_100ms, SimTime::ZERO);
    assert!(a < b && b < c, "RX deliveries must serialize: {a} {b} {c}");
    // Disjoint links never interfere: 0→1 and 2→3 behave as if alone.
    let mut shared = Network::new(4);
    let alone = shared.transfer_time(NodeId(0), NodeId(1), wire_100ms, SimTime::ZERO);
    let other = shared.transfer_time(NodeId(2), NodeId(3), wire_100ms, SimTime::ZERO);
    assert_eq!(alone, other, "disjoint links must not serialize");
}
