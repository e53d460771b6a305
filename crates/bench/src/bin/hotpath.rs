//! Hot-path benchmark gate: measures the optimized store/control-plane
//! fast paths against the frozen seed implementation
//! (`iorch_hypervisor::xenstore_legacy`) with one harness in one process,
//! and writes `BENCH_hotpath.json` at the repo root.
//!
//! Exits non-zero if the gate fails:
//!   * store write, store read, watch fan-out, batched fan-out, and
//!     per-tick control-plane cost must be at least 2x faster than the
//!     seed baseline;
//!   * scheduler churn (timer-wheel engine) must be at least 2x faster
//!     than the frozen binary-heap engine (`iorch_simcore::event_legacy`);
//!   * store-write cost must be sub-linear in non-matching watches
//!     (1 vs 256 watchers on disjoint subtrees within 1.5x).
//!
//! Run via `scripts/bench_hotpath.sh` (release build). Set
//! `IORCH_BENCH_QUICK=1` for a fast smoke run (same gate, noisier).

use iorch_bench::exp::{gate, Figure};
use iorch_bench::timing::{Sample, Timer};
use iorch_hypervisor::xenstore_legacy::XenStore as LegacyStore;
use iorch_hypervisor::{DomainId, Perms, XenStore, DOM0};
use iorch_simcore::event_legacy::Scheduler as LegacyScheduler;
use iorch_simcore::{SimDuration, Simulation};
use iorchestra::keys::{self, val, DomainKeys};

/// Domains the synthetic control plane manages.
const DOMS: u32 = 16;

fn setup_new(doms: u32) -> (XenStore, Vec<DomainKeys>) {
    let mut s = XenStore::new();
    let mut ks = Vec::new();
    for d in 1..=doms {
        let dom = DomainId(d);
        s.mkdir(DOM0, XenStore::domain_path(dom), Perms::private_to(dom))
            .unwrap();
        let k = DomainKeys::new(dom);
        s.write(dom, &k.has_dirty_pages, val::zero()).unwrap();
        s.write(dom, &k.nr_dirty, val::zero()).unwrap();
        ks.push(k);
    }
    s.take_events();
    (s, ks)
}

fn setup_legacy(doms: u32) -> LegacyStore {
    let mut s = LegacyStore::new();
    for d in 1..=doms {
        let dom = DomainId(d);
        s.mkdir(DOM0, &LegacyStore::domain_path(dom), Perms::private_to(dom))
            .unwrap();
        s.write(dom, &keys::has_dirty_pages(dom), "0".to_string())
            .unwrap();
        s.write(dom, &keys::nr_dirty(dom), "0".to_string()).unwrap();
    }
    s.take_events();
    s
}

struct Pair {
    name: &'static str,
    current: Sample,
    baseline: Sample,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.baseline.ns_per_iter() / self.current.ns_per_iter()
    }
    fn report(&self) {
        println!(
            "{:<24} current {:>9.1} ns/op   seed {:>9.1} ns/op   speedup {:>5.2}x",
            self.name,
            self.current.ns_per_iter(),
            self.baseline.ns_per_iter(),
            self.speedup()
        );
    }
}

/// Store write: the guest-publish path. Current uses a pre-parsed
/// `StorePath` + cached small-int values; seed formats the key string and
/// allocates the value on every write.
fn bench_store_write(t: &Timer) -> Pair {
    let (mut s, ks) = setup_new(1);
    let k = &ks[0];
    let dom = DomainId(1);
    let mut n = 0u64;
    let current = t.time("store_write/current", || {
        n = (n + 1) & 0xff;
        s.write(dom, &k.nr_dirty, val::uint(n)).unwrap();
    });
    s.take_events();

    let mut s = setup_legacy(1);
    let mut n = 0u64;
    let baseline = t.time("store_write/seed", || {
        n = (n + 1) & 0xff;
        s.write(dom, &keys::nr_dirty(dom), n.to_string()).unwrap();
    });
    s.take_events();
    Pair {
        name: "store_write",
        current,
        baseline,
    }
}

/// Store read: the manager-side poll. Current borrows through `read_ref`
/// with an interned path; seed formats the key and clones the value.
fn bench_store_read(t: &Timer) -> Pair {
    let (mut s, ks) = setup_new(1);
    let k = &ks[0];
    let dom = DomainId(1);
    s.write(dom, &k.nr_dirty, val::uint(42)).unwrap();
    let current = t.time("store_read/current", || {
        s.read_ref(DOM0, &k.nr_dirty).unwrap().len()
    });

    let mut s = setup_legacy(1);
    s.write(dom, &keys::nr_dirty(dom), "42".to_string())
        .unwrap();
    let baseline = t.time("store_read/seed", || {
        s.read(DOM0, &keys::nr_dirty(dom)).unwrap().len()
    });
    Pair {
        name: "store_read",
        current,
        baseline,
    }
}

/// Watch fan-out: a write under a watched subtree delivering to 8
/// watchers. Current shares one interned payload; seed clones the path
/// and value per subscriber.
fn bench_watch_fanout(t: &Timer) -> Pair {
    const WATCHERS: usize = 8;
    let (mut s, ks) = setup_new(1);
    let k = &ks[0];
    let dom = DomainId(1);
    for _ in 0..WATCHERS {
        s.watch(DOM0, &k.virt_dev);
    }
    let mut n = 0u64;
    let current = t.time("watch_fanout/current", || {
        n = (n + 1) & 0xff;
        s.write(dom, &k.nr_dirty, val::uint(n)).unwrap();
        // Drain-and-recycle, as the machine's delivery sweep does.
        let evs = s.take_events();
        let count = evs.len();
        s.recycle_events(evs);
        count
    });

    let mut s = setup_legacy(1);
    for _ in 0..WATCHERS {
        s.watch(DOM0, keys::nr_dirty(dom));
    }
    let mut n = 0u64;
    let baseline = t.time("watch_fanout/seed", || {
        n = (n + 1) & 0xff;
        s.write(dom, &keys::nr_dirty(dom), n.to_string()).unwrap();
        s.take_events().len()
    });
    Pair {
        name: "watch_fanout",
        current,
        baseline,
    }
}

/// One control-plane tick over 16 domains: republish `nr` for each (the
/// plane's periodic monitoring write) and drain events. Current goes
/// through `write_if_changed` with cached keys/values, so steady-state
/// ticks allocate nothing and publish nothing; seed re-formats and
/// re-fires every tick.
fn bench_control_tick(t: &Timer) -> Pair {
    let (mut s, ks) = setup_new(DOMS);
    for k in &ks {
        s.watch(DOM0, &k.virt_dev);
    }
    s.take_events();
    let current = t.time("control_tick/current", || {
        for (i, k) in ks.iter().enumerate() {
            let dom = DomainId(i as u32 + 1);
            s.write_if_changed(dom, &k.nr_dirty, val::uint(7)).unwrap();
        }
        s.take_events().len()
    });

    let mut s = setup_legacy(DOMS);
    for d in 1..=DOMS {
        s.watch(
            DOM0,
            format!("{}/virt-dev", LegacyStore::domain_path(DomainId(d))),
        );
    }
    s.take_events();
    let baseline = t.time("control_tick/seed", || {
        for d in 1..=DOMS {
            let dom = DomainId(d);
            s.write(dom, &keys::nr_dirty(dom), 7u64.to_string())
                .unwrap();
        }
        s.take_events().len()
    });
    Pair {
        name: "control_tick",
        current,
        baseline,
    }
}

/// Timers kept in flight per scheduler-churn cycle, one per domain at
/// the 1k-domain scale point.
const CHURN_TIMERS: u64 = 1024;

/// Scheduler churn: schedule 1024 timeouts, cancel every other one and
/// drain the rest. Current is the timer wheel (O(1) schedule, direct-slot
/// cancel, amortized O(1) pop); baseline is the frozen binary-heap engine
/// with its tombstone set (`iorch_simcore::event_legacy`), which pays
/// O(log n) sifts plus tombstone hashing at this depth. One cycle = 1024
/// schedules, 512 cancellations, drain to completion. The simulated model
/// itself never cancels an event, and most of this row's margin over the
/// heap comes from the cancellations: without them the wheel's lead is
/// far smaller (see ROADMAP.md).
fn bench_scheduler_churn(t: &Timer) -> Pair {
    let mut sim: Simulation<u64> = Simulation::new(0u64);
    let current = t.time("scheduler_churn/current", || {
        let sched = sim.scheduler_mut();
        let mut tokens = Vec::with_capacity(CHURN_TIMERS as usize);
        for i in 0..CHURN_TIMERS {
            tokens.push(sched.schedule_in(SimDuration::from_micros(i + 1), move |w, _| *w += 1));
        }
        for tok in tokens.iter().step_by(2) {
            sched.cancel(*tok);
        }
        sim.run_to_completion();
        *sim.world()
    });

    let mut sched: LegacyScheduler<u64> = LegacyScheduler::new();
    let mut world = 0u64;
    let baseline = t.time("scheduler_churn/seed", || {
        let mut tokens = Vec::with_capacity(CHURN_TIMERS as usize);
        for i in 0..CHURN_TIMERS {
            tokens.push(sched.schedule_in(SimDuration::from_micros(i + 1), move |w, _| *w += 1));
        }
        for tok in tokens.iter().step_by(2) {
            sched.cancel(*tok);
        }
        while let Some((_, cb)) = sched.pop_next() {
            cb(&mut world, &mut sched);
        }
        world
    });
    Pair {
        name: "scheduler_churn",
        current,
        baseline,
    }
}

/// Batched watch delivery: 8 writes landing at the same sim instant under
/// an 8-watcher subtree. Current drains all 64 events in ONE sweep and
/// recycles the buffer (the machine's coalesced XenBus delivery); seed
/// pays one drain per write, growing a fresh `Vec` each time. One cycle =
/// 8 writes + delivery.
fn bench_watch_fanout_batched(t: &Timer) -> Pair {
    const WATCHERS: usize = 8;
    const WRITES: u64 = 8;
    let (mut s, ks) = setup_new(1);
    let k = &ks[0];
    let dom = DomainId(1);
    for _ in 0..WATCHERS {
        s.watch(DOM0, &k.virt_dev);
    }
    let mut n = 0u64;
    let current = t.time("watch_fanout_batched/current", || {
        for _ in 0..WRITES {
            n = (n + 1) & 0xff;
            s.write(dom, &k.nr_dirty, val::uint(n)).unwrap();
        }
        let evs = s.take_events();
        let count = evs.len();
        s.recycle_events(evs);
        count
    });

    let mut s = setup_legacy(1);
    for _ in 0..WATCHERS {
        s.watch(DOM0, keys::nr_dirty(dom));
    }
    let mut n = 0u64;
    let baseline = t.time("watch_fanout_batched/seed", || {
        let mut count = 0;
        for _ in 0..WRITES {
            n = (n + 1) & 0xff;
            s.write(dom, &keys::nr_dirty(dom), n.to_string()).unwrap();
            count += s.take_events().len();
        }
        count
    });
    Pair {
        name: "watch_fanout_batched",
        current,
        baseline,
    }
}

/// Store-write cost with 1 vs 256 watchers on disjoint subtrees: the
/// watch index must keep non-matching watches off the write path.
fn bench_watch_scaling(t: &Timer) -> (Sample, Sample, Pair) {
    fn run(t: &Timer, watchers: usize, name: &'static str) -> Sample {
        let (mut s, ks) = setup_new(1);
        let k = &ks[0];
        let dom = DomainId(1);
        for i in 0..watchers {
            s.watch(DOM0, format!("/spectators/w{i}"));
        }
        let mut n = 0u64;
        let sample = t.time(name, || {
            n = (n + 1) & 0xff;
            s.write(dom, &k.nr_dirty, val::uint(n)).unwrap();
        });
        assert!(!s.has_events(), "disjoint watchers must not fire");
        sample
    }
    fn run_legacy(t: &Timer, watchers: usize, name: &'static str) -> Sample {
        let mut s = setup_legacy(1);
        let dom = DomainId(1);
        for i in 0..watchers {
            s.watch(DOM0, format!("/spectators/w{i}"));
        }
        let mut n = 0u64;
        t.time(name, || {
            n = (n + 1) & 0xff;
            s.write(dom, &keys::nr_dirty(dom), n.to_string()).unwrap();
        })
    }
    let one = run(t, 1, "watch_scaling/current_1");
    let many = run(t, 256, "watch_scaling/current_256");
    // The 256-spectator case against the seed's linear scan, for context.
    let seed_many = run_legacy(t, 256, "watch_scaling/seed_256");
    let pair = Pair {
        name: "write_256_spectators",
        current: many.clone(),
        baseline: seed_many,
    };
    (one, many, pair)
}

fn main() {
    let t = Timer::from_env();
    println!(
        "hotpath bench: warmup {:?}, measure {:?} per case\n",
        t.warmup, t.measure
    );

    let write = bench_store_write(&t);
    let read = bench_store_read(&t);
    let fanout = bench_watch_fanout(&t);
    let batched = bench_watch_fanout_batched(&t);
    let tick = bench_control_tick(&t);
    let churn = bench_scheduler_churn(&t);
    let (scale_one, scale_many, scale_ctx) = bench_watch_scaling(&t);

    write.report();
    read.report();
    fanout.report();
    batched.report();
    tick.report();
    churn.report();
    scale_ctx.report();
    println!(
        "{:<24} 1 watcher {:>9.1} ns/op   256 disjoint {:>9.1} ns/op   ratio {:>5.2}x",
        "watch_scaling",
        scale_one.ns_per_iter(),
        scale_many.ns_per_iter(),
        scale_many.ns_per_iter() / scale_one.ns_per_iter()
    );

    let ratio = scale_many.ns_per_iter() / scale_one.ns_per_iter();
    // The artifact goes through the same schema-validated emitter as the
    // experiment registry (iorch-exp/v1): one row per case, columns
    // [current_ns, baseline_ns, ratio]. For the seed-comparison pairs
    // "ratio" is the speedup over the seed implementation; for the
    // watch_scaling row the baseline is the 1-watcher case and the ratio
    // is the 256-spectator penalty (gated ≤ 1.5x, lower is better).
    let mut fig = Figure::new(
        "hotpath",
        "Hot-path benchmark gate — optimized fast paths vs frozen seed",
        "case",
        "ns",
        vec!["current_ns".into(), "baseline_ns".into(), "ratio".into()],
    );
    for p in [&write, &read, &fanout, &batched, &tick, &churn, &scale_ctx] {
        fig.row(
            p.name,
            vec![
                p.current.ns_per_iter(),
                p.baseline.ns_per_iter(),
                p.speedup(),
            ],
        );
        fig.samples += p.current.iters + p.baseline.iters;
    }
    fig.row(
        "watch_scaling",
        vec![scale_many.ns_per_iter(), scale_one.ns_per_iter(), ratio],
    );
    fig.samples += scale_one.iters;
    let profile = if std::env::var_os("IORCH_BENCH_QUICK").is_some() {
        "quick"
    } else {
        "full"
    };
    // Seedless wall-clock measurement; the schema's seed slot is 0.
    let path = gate::write_root_artifact("BENCH_hotpath.json", &fig, "hotpath", profile, 0);
    println!("\nwrote {}", path.display());

    // The gate.
    let mut failed = Vec::new();
    for p in [&write, &read, &fanout, &batched, &tick, &churn] {
        if p.speedup() < 2.0 {
            failed.push(format!("{}: speedup {:.2}x < 2.0x", p.name, p.speedup()));
        }
    }
    if ratio > 1.5 {
        failed.push(format!(
            "watch_scaling: 256-watcher ratio {ratio:.2}x > 1.5x"
        ));
    }
    if failed.is_empty() {
        println!("GATE PASS");
    } else {
        for f in &failed {
            println!("GATE FAIL: {f}");
        }
        std::process::exit(1);
    }
}
