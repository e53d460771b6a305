//! Randomized tests for the network model: causality and conservation.
//! Driven by the in-tree generators (`iorch_simcore::gen`) with a fixed
//! seed sweep — no external property-test crate.

use iorch_netsim::{Network, NodeId};
use iorch_simcore::{gen, SimTime};

const CASES: usize = 64;

/// Deliveries never precede sends, and per-sender deliveries to one
/// receiver are FIFO.
#[test]
fn causality_and_fifo() {
    gen::for_each_seed(0x4E_0001, CASES, |seed, rng| {
        let msgs = gen::vec_between(rng, 1, 60, |r| {
            (
                r.below(10_000),
                r.below(4) as usize,
                r.below(4) as usize,
                1 + r.below(999_999),
            )
        });
        let mut sorted = msgs.clone();
        sorted.sort_by_key(|m| m.0);
        let mut net = Network::new(4);
        let mut last_delivery: std::collections::HashMap<(usize, usize), SimTime> =
            std::collections::HashMap::new();
        for &(t, src, dst, len) in &sorted {
            let sent = SimTime::from_micros(t);
            let delivered = net.transfer_time(NodeId(src), NodeId(dst), len, sent);
            assert!(delivered > sent, "delivery must take time (seed {seed})");
            if src != dst {
                let key = (src, dst);
                if let Some(&prev) = last_delivery.get(&key) {
                    assert!(delivered >= prev, "per-pair FIFO violated (seed {seed})");
                }
                last_delivery.insert(key, delivered);
            }
        }
    });
}

/// Byte counters are conserved per sender.
#[test]
fn byte_conservation() {
    gen::for_each_seed(0x4E_0002, CASES, |seed, rng| {
        let lens = gen::vec_between(rng, 1, 50, |r| 1 + r.below(99_999));
        let mut net = Network::new(2);
        let mut total = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            net.transfer_time(NodeId(0), NodeId(1), len, SimTime::from_micros(i as u64));
            total += len;
        }
        assert_eq!(net.bytes_sent(NodeId(0)), total, "seed {seed}");
        assert_eq!(net.msgs_sent(NodeId(0)), lens.len() as u64, "seed {seed}");
        assert_eq!(net.bytes_sent(NodeId(1)), 0, "seed {seed}");
    });
}

/// Bigger messages never arrive sooner than smaller ones sent at the same
/// instant on an idle link pair.
#[test]
fn monotone_in_size() {
    gen::for_each_seed(0x4E_0003, CASES, |seed, rng| {
        let a = 1 + rng.below(10_000_000);
        let b = 1 + rng.below(10_000_000);
        let t1 = {
            let mut net = Network::new(2);
            net.transfer_time(NodeId(0), NodeId(1), a.min(b), SimTime::ZERO)
        };
        let t2 = {
            let mut net = Network::new(2);
            net.transfer_time(NodeId(0), NodeId(1), a.max(b), SimTime::ZERO)
        };
        assert!(t2 >= t1, "seed {seed}");
    });
}
