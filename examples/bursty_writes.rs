//! Bursty writes (the paper's §5.6): an update-heavy store driven by
//! synchronized 10× bursts. Shows how IOrchestra's flush + congestion
//! control keep the 99.9th-percentile latency bounded where the baseline
//! tail explodes.
//!
//! ```text
//! cargo run --release --example bursty_writes
//! ```

use std::rc::Rc;

use iorchestra_suite::core::SystemKind;
use iorchestra_suite::hypervisor::{Cluster, VmSpec};
use iorchestra_suite::metrics::{fmt_us, LatencySummary};
use iorchestra_suite::simcore::{SimDuration, SimTime, Simulation};
use iorchestra_suite::workloads::{recorder, spawn_ycsb, VmRef, YcsbParams};

fn run(kind: SystemKind, rate: f64, burst: SimDuration) -> LatencySummary {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let machine = kind.provision(cl, s, 5);
    let a = cl.create_domain(s, machine, VmSpec::new(2, 4).with_disk_gb(20), |g| {
        // Compressed writeback clocks for a short demo run.
        g.wb.periodic_interval = SimDuration::from_millis(1000);
        g.wb.dirty_expire = SimDuration::from_millis(3000);
    });
    let b = cl.create_domain(s, machine, VmSpec::new(2, 4).with_disk_gb(20), |g| {
        g.wb.periodic_interval = SimDuration::from_millis(1000);
        g.wb.dirty_expire = SimDuration::from_millis(3000);
    });
    let rec = recorder(SimTime::from_secs(2));
    let mut p = YcsbParams::ycsb1(rate, 77).with_burst(burst);
    p.memtable_flush_bytes = 2 << 20;
    spawn_ycsb(
        cl,
        s,
        &[VmRef { machine, dom: a }, VmRef { machine, dom: b }],
        None,
        p,
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
    let summary = LatencySummary::from_histogram(&rec.borrow().hist);
    assert!(summary.count > 0, "{} recorded no ops", kind.label());
    summary
}

fn main() {
    println!("YCSB1 with synchronized bursts (peak = 10x average rate)\n");
    for burst_ms in [50u64, 100] {
        println!("burst length {burst_ms} ms:");
        println!(
            "  {:<12} {:>10} {:>10} {:>10}",
            "system", "mean(us)", "p99(us)", "p99.9(us)"
        );
        for kind in [
            SystemKind::Baseline,
            SystemKind::Sdc,
            SystemKind::Dif,
            SystemKind::IOrchestra,
        ] {
            let s = run(kind, 600.0, SimDuration::from_millis(burst_ms));
            println!(
                "  {:<12} {:>10} {:>10} {:>10}",
                kind.label(),
                fmt_us(s.mean),
                fmt_us(s.p99),
                fmt_us(s.p999)
            );
        }
        println!();
    }
}
