//! Quickstart: build an IOrchestra-enabled host, boot two VMs, run a
//! key-value workload, and compare latency against the stock baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::rc::Rc;

use iorchestra_suite::core::SystemKind;
use iorchestra_suite::hypervisor::{Cluster, VmSpec};
use iorchestra_suite::metrics::{fmt_us, latency_improvement_pct, LatencySummary};
use iorchestra_suite::simcore::{SimDuration, SimTime, Simulation};
use iorchestra_suite::workloads::{recorder, spawn_ycsb, VmRef, YcsbParams};

fn run(kind: SystemKind) -> LatencySummary {
    // 1. A cluster with one physical machine running `kind`
    //    (Baseline / SDC / DIF / IOrchestra — same API).
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let machine = kind.provision(cl, s, /* seed */ 7);

    // 2. Two data-node VMs (2 VCPUs, 4 GB) forming one key-value store.
    let a = cl.create_domain(s, machine, VmSpec::new(2, 4).with_disk_gb(20), |_| {});
    let b = cl.create_domain(s, machine, VmSpec::new(2, 4).with_disk_gb(20), |_| {});
    let nodes = [VmRef { machine, dom: a }, VmRef { machine, dom: b }];

    // 3. An update-heavy YCSB client at 2000 requests/second. The recorder
    //    collects op latencies after a 1-second warm-up.
    let rec = recorder(SimTime::from_secs(1));
    let params = YcsbParams::ycsb1(2000.0, 42);
    spawn_ycsb(cl, s, &nodes, None, params, Rc::clone(&rec));

    // 4. Run five simulated seconds and summarize.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    let summary = LatencySummary::from_histogram(&rec.borrow().hist);
    assert!(summary.count > 0, "{} recorded no ops", kind.label());
    summary
}

fn main() {
    println!("quickstart: YCSB1 @ 2000 req/s on a 2-VM store\n");
    let baseline = run(SystemKind::Baseline);
    let iorch = run(SystemKind::IOrchestra);
    println!(
        "{:<12} mean={:>8} us   p99={:>8} us   p99.9={:>8} us   ({} ops)",
        "Baseline",
        fmt_us(baseline.mean),
        fmt_us(baseline.p99),
        fmt_us(baseline.p999),
        baseline.count
    );
    println!(
        "{:<12} mean={:>8} us   p99={:>8} us   p99.9={:>8} us   ({} ops)",
        "IOrchestra",
        fmt_us(iorch.mean),
        fmt_us(iorch.p99),
        fmt_us(iorch.p999),
        iorch.count
    );
    println!(
        "\nIOrchestra improves mean latency by {:.1}% and the 99.9th percentile by {:.1}%.",
        latency_improvement_pct(baseline.mean, iorch.mean),
        latency_improvement_pct(baseline.p999, iorch.p999),
    );
}
