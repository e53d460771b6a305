//! Randomized tests for the system store, the DRR I/O core and NUMA
//! placement, driven by the in-tree generators (`iorch_simcore::gen`) with
//! a fixed seed sweep — no external property-test crate.

use iorch_hypervisor::{
    CoreId, DomainId, IoCore, NumaTopology, Perms, PlacementPolicy, XenStore, DOM0,
};
use iorch_simcore::{gen, SimRng, SimTime};
use iorch_storage::{IoKind, IoRequest, RequestId, StreamId};

const CASES: usize = 64;

/// A path segment matching the old `[a-z][a-z0-9]{0,6}` strategy.
fn seg(rng: &mut SimRng) -> String {
    let mut s = String::new();
    s.push((b'a' + rng.below(26) as u8) as char);
    for _ in 0..rng.below(7) {
        let c = rng.below(36);
        s.push(if c < 26 {
            (b'a' + c as u8) as char
        } else {
            (b'0' + (c - 26) as u8) as char
        });
    }
    s
}

/// An absolute path of 1..=3 segments.
fn path(rng: &mut SimRng) -> String {
    let depth = rng.range(1, 3);
    let mut p = String::new();
    for _ in 0..depth {
        p.push('/');
        p.push_str(&seg(rng));
    }
    p
}

/// Printable-ASCII value, 0..=24 chars.
fn value(rng: &mut SimRng) -> String {
    let len = rng.below(25);
    (0..len)
        .map(|_| (b' ' + rng.below(95) as u8) as char)
        .collect()
}

/// Write-then-read roundtrips for the owner; other domains are denied
/// unless the path is under their subtree.
#[test]
fn store_roundtrip_and_isolation() {
    gen::for_each_seed(0xA9_0001, CASES, |seed, rng| {
        let p = path(rng);
        let v = value(rng);
        let mut store = XenStore::new();
        let own = DomainId(3);
        let other = DomainId(4);
        let full = format!("/local/domain/3{p}");
        store
            .mkdir(DOM0, "/local/domain/3", Perms::private_to(own))
            .unwrap();
        store.write(own, &full, v.clone()).unwrap();
        assert_eq!(store.read(own, &full).unwrap(), v, "seed {seed}");
        assert_eq!(store.read(DOM0, &full).unwrap(), v, "seed {seed}");
        assert!(store.read(other, &full).is_err(), "seed {seed}");
        assert!(store.write(other, &full, "x").is_err(), "seed {seed}");
    });
}

/// Watches fire exactly for writes at or below the prefix.
#[test]
fn watch_prefix_semantics() {
    gen::for_each_seed(0xA9_0002, CASES, |seed, rng| {
        // A small alphabet makes prefix/target relationships common.
        let alphabet = ["a", "ab", "b", "cd"];
        let prefix = gen::path_from_alphabet(rng, &alphabet, 3);
        let target = gen::path_from_alphabet(rng, &alphabet, 3);
        let mut store = XenStore::new();
        store.watch(DOM0, prefix.clone());
        store.write(DOM0, &target, "v").unwrap();
        let events = store.take_events();
        let should_fire = target == prefix
            || (target.starts_with(&prefix) && target.as_bytes().get(prefix.len()) == Some(&b'/'));
        assert_eq!(
            !events.is_empty(),
            should_fire,
            "prefix={prefix} target={target} (seed {seed})"
        );
    });
}

/// DRR conserves requests: everything enqueued is eventually finished
/// exactly once, regardless of quanta.
#[test]
fn drr_conserves_requests() {
    gen::for_each_seed(0xA9_0003, CASES, |seed, rng| {
        let sizes = gen::vec_between(rng, 1, 60, |r| 1 + r.below(2_000_000));
        let quanta = gen::vec_of(rng, 3, |r| 4096 + r.below(4_000_000 - 4096));
        let mut core = IoCore::new(0, CoreId(0));
        for (d, q) in quanta.iter().enumerate() {
            core.set_quantum(DomainId(d as u32), *q);
        }
        for (i, &len) in sizes.iter().enumerate() {
            let dom = DomainId((i % 3) as u32);
            core.enqueue(
                dom,
                IoRequest {
                    id: RequestId(i as u64),
                    kind: IoKind::Read,
                    stream: StreamId(dom.0),
                    offset: i as u64 * (1 << 22),
                    len,
                    submitted: SimTime::ZERO,
                },
                false,
                SimTime::ZERO,
            );
        }
        let mut seen = std::collections::HashSet::new();
        let mut now = SimTime::ZERO;
        while let Some(done) = core.start_next(now) {
            assert!(done >= now, "seed {seed}");
            now = done;
            let (_, req) = core.finish(now);
            assert!(seen.insert(req.id), "duplicate completion (seed {seed})");
        }
        assert_eq!(seen.len(), sizes.len(), "seed {seed}");
        assert_eq!(core.backlog(), 0, "seed {seed}");
    });
}

/// Placement: every VCPU gets a core, reserved cores are never used, and
/// unplace restores all load.
#[test]
fn placement_respects_reservations() {
    gen::for_each_seed(0xA9_0004, CASES, |seed, rng| {
        let vms = gen::vec_between(rng, 1, 5, |r| 1 + r.below(11) as u32);
        let reserve_first = rng.chance(0.5);
        let mut topo = NumaTopology::paper_testbed();
        if reserve_first {
            topo.reserve_io_core(CoreId(0));
            topo.reserve_io_core(CoreId(6));
        }
        let mut placed = Vec::new();
        for (i, &v) in vms.iter().enumerate() {
            let cores = topo.place(DomainId(i as u32), v, PlacementPolicy::PreferSameSocket);
            assert_eq!(cores.len(), v as usize, "seed {seed}");
            for c in &cores {
                assert!(!topo.is_reserved(*c), "VCPU on reserved core (seed {seed})");
            }
            placed.push(cores);
        }
        for cores in &placed {
            topo.unplace(cores);
        }
        for c in 0..topo.cores() {
            assert_eq!(topo.core_load(CoreId(c)), 0, "seed {seed}");
        }
    });
}

/// Store remove deletes whole subtrees and watches see the removal.
#[test]
fn remove_subtree_clean() {
    gen::for_each_seed(0xA9_0005, CASES, |seed, rng| {
        let p1 = seg(rng);
        let p2 = seg(rng);
        let mut store = XenStore::new();
        let parent = format!("/{p1}");
        let child = format!("/{p1}/{p2}");
        store.write(DOM0, &child, "v").unwrap();
        store.take_events();
        store.watch(DOM0, parent.clone());
        store.remove(DOM0, &parent).unwrap();
        assert!(store.read(DOM0, &child).is_err(), "seed {seed}");
        let evs = store.take_events();
        assert!(evs.iter().any(|e| e.value.is_none()), "seed {seed}");
    });
}
