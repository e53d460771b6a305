//! A dynamic data center: VMs of random sizes arrive as a Poisson
//! process, run FS / YCSB / Cloud9 jobs with fixed problem sizes, and
//! depart — the §5.3/§5.5 methodology. Compares how many VMs each system
//! completes and what it costs in CPU.
//!
//! ```text
//! cargo run --release --example dynamic_datacenter
//! ```

use iorchestra_suite::core::SystemKind;
use iorchestra_suite::hypervisor::Cluster;
use iorchestra_suite::simcore::{SimTime, Simulation};
use iorchestra_suite::workloads::{spawn_arrivals, ArrivalParams};

fn main() {
    let lambda = 14.0; // VMs per minute
    println!("dynamic data center, λ = {lambda} VMs/min, 30 simulated seconds\n");
    println!(
        "{:<12} {:>8} {:>8} {:>9} {:>10} {:>10}",
        "system", "arrived", "started", "completed", "cpu util", "io MB/s"
    );
    for kind in [
        SystemKind::Baseline,
        SystemKind::Sdc,
        SystemKind::IOrchestra,
    ] {
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let machine = kind.provision(cl, s, 42);
        let horizon = SimTime::from_secs(30);
        let stats = spawn_arrivals(
            cl,
            s,
            machine,
            ArrivalParams {
                lambda_per_min: lambda,
                fs_bytes: 128 << 20,
                ycsb_ops: 10_000,
                cloud9_cpu_secs: 2.0,
                seed: 42,
            },
            horizon,
        );
        sim.run_until(horizon);
        let now = sim.now();
        let m = sim.world().machine(machine);
        let (rb, wb) = m.storage.monitor().byte_counts();
        let st = stats.borrow();
        assert!(
            st.started >= 1 && st.completed >= 1 && st.payload_bytes > 0,
            "{}: no VM started and completed its job",
            kind.label()
        );
        println!(
            "{:<12} {:>8} {:>8} {:>9} {:>9.1}% {:>10.1}",
            kind.label(),
            st.arrived,
            st.started,
            st.completed,
            m.utilization(now) * 100.0,
            (rb + wb) as f64 / now.as_secs_f64() / 1e6
        );
    }
    println!(
        "\nSDC spins one dedicated core (higher idle utilization) and cannot use the \
         second socket's capacity; IOrchestra balances both sockets and completes \
         the most VMs at high arrival rates (paper Figs. 10-11)."
    );
}
