//! A three-tier web application (the paper's Olio deployment) with
//! per-tier latency breakdowns — the §5.1 "IOrchestra in Action" scenario.
//!
//! Shows how the framework helps a *distributed multi-tier* application:
//! the database and file-server tiers improve the most, since their VMs
//! are the I/O-bound ones (paper Fig. 6).
//!
//! ```text
//! cargo run --release --example three_tier_olio
//! ```

use iorchestra_suite::core::SystemKind;
use iorchestra_suite::hypervisor::{Cluster, VmSpec};
use iorchestra_suite::metrics::{fmt_ms, latency_improvement_pct};
use iorchestra_suite::simcore::{SimDuration, SimTime, Simulation};
use iorchestra_suite::workloads::{spawn_olio, OlioParams, OlioRecorders, VmRef};

struct TierReport {
    total_ms: f64,
    web_ms: f64,
    db_ms: f64,
    file_ms: f64,
    total: iorchestra_suite::simcore::SimDuration,
    web: iorchestra_suite::simcore::SimDuration,
    db: iorchestra_suite::simcore::SimDuration,
    file: iorchestra_suite::simcore::SimDuration,
}

fn run(kind: SystemKind, clients: u32) -> TierReport {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let machine = kind.provision(cl, s, 11);

    // One VM per tier, as the paper deploys Olio.
    let web = cl.create_domain(s, machine, VmSpec::new(2, 4).with_disk_gb(10), |_| {});
    let db = cl.create_domain(s, machine, VmSpec::new(2, 4).with_disk_gb(60), |_| {});
    let fsv = cl.create_domain(s, machine, VmSpec::new(2, 4).with_disk_gb(40), |_| {});

    let recs = OlioRecorders::new(SimTime::from_secs(2));
    let params = OlioParams { clients, seed: 99 };
    spawn_olio(
        cl,
        s,
        VmRef { machine, dom: web },
        VmRef { machine, dom: db },
        VmRef { machine, dom: fsv },
        params,
        recs.clone(),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(8));

    let g = |r: &iorchestra_suite::workloads::Rec| {
        assert!(
            r.borrow().ops > 0,
            "{}: a tier recorded no ops",
            kind.label()
        );
        let h = &r.borrow().hist;
        (h.mean().as_millis_f64(), h.mean())
    };
    let (total_ms, total) = g(&recs.total);
    let (web_ms, web) = g(&recs.web);
    let (db_ms, db) = g(&recs.db);
    let (file_ms, file) = g(&recs.file);
    TierReport {
        total_ms,
        web_ms,
        db_ms,
        file_ms,
        total,
        web,
        db,
        file,
    }
}

fn main() {
    let clients = 200;
    println!("Olio three-tier deployment, {clients} emulated clients\n");
    let base = run(SystemKind::Baseline, clients);
    let iorch = run(SystemKind::IOrchestra, clients);
    println!("tier          baseline     iorchestra   improvement");
    println!(
        "end-to-end    {:>8} ms  {:>8} ms  {:>6.1}%",
        fmt_ms_val(base.total_ms),
        fmt_ms_val(iorch.total_ms),
        latency_improvement_pct(base.total, iorch.total)
    );
    println!(
        "web           {:>8} ms  {:>8} ms  {:>6.1}%",
        fmt_ms_val(base.web_ms),
        fmt_ms_val(iorch.web_ms),
        latency_improvement_pct(base.web, iorch.web)
    );
    println!(
        "database      {:>8} ms  {:>8} ms  {:>6.1}%",
        fmt_ms_val(base.db_ms),
        fmt_ms_val(iorch.db_ms),
        latency_improvement_pct(base.db, iorch.db)
    );
    println!(
        "file server   {:>8} ms  {:>8} ms  {:>6.1}%",
        fmt_ms_val(base.file_ms),
        fmt_ms_val(iorch.file_ms),
        latency_improvement_pct(base.file, iorch.file)
    );
    let _ = fmt_ms(iorchestra_suite::simcore::SimDuration::ZERO);
}

fn fmt_ms_val(v: f64) -> String {
    format!("{v:.2}")
}
