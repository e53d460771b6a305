//! Generator pins: every workload generator runs in one small fixed-seed
//! world, and what it emitted — the recorder's op and byte counts, its
//! latency histogram, the guest kernels' read/write counts and the number
//! of events the run executed — must equal the literals below. A change
//! to any generator's constants, draw order or op stream moves a literal.

use std::cell::RefCell;
use std::rc::Rc;

use iorch_hypervisor::{Cluster, IoPathMode, MachineConfig, VmSpec};
use iorch_netsim::{Network, NodeId};
use iorch_simcore::{SimDuration, SimTime, Simulation};
use iorch_workloads::*;

type Sim = Simulation<Cluster>;

fn world(machines: usize) -> (Sim, Vec<usize>) {
    let mut sim = Simulation::new(Cluster::new());
    let idx = (0..machines)
        .map(|m| {
            sim.world_mut().add_machine(MachineConfig::paper_testbed(
                17 + m as u64,
                IoPathMode::Paravirt,
            ))
        })
        .collect();
    (sim, idx)
}

fn vm(sim: &mut Sim, machine: usize, vcpus: u32, mem: u64, disk: u64) -> VmRef {
    let (cl, s) = sim.parts_mut();
    let dom = cl.create_domain(
        s,
        machine,
        VmSpec::new(vcpus, mem).with_disk_gb(disk),
        |_| {},
    );
    VmRef { machine, dom }
}

/// The recorder's counts and latency histogram.
fn rec_line(rec: &Rec) -> String {
    let r = rec.borrow();
    format!(
        "ops={} bytes={} n={} min={} max={} mean={}",
        r.ops,
        r.bytes,
        r.hist.count(),
        r.hist.min().as_nanos(),
        r.hist.max().as_nanos(),
        r.hist.mean().as_nanos()
    )
}

/// Guest kernel read/write counts of each VM, then the run's event count.
fn world_line(sim: &mut Sim, vms: &[VmRef]) -> String {
    let mut out = String::new();
    for v in vms {
        let st = sim
            .world()
            .machine(v.machine)
            .domain(v.dom)
            .unwrap()
            .kernel
            .stats();
        out += &format!("r={} w={} ", st.reads, st.writes);
    }
    out + &format!("events={}", sim.scheduler_mut().events_executed())
}

#[test]
fn fileserver_closed_loop() {
    let (mut sim, m) = world(1);
    let v = vm(&mut sim, m[0], 2, 1, 4);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let p = FsParams {
        threads: 2,
        pool: 40,
        seed: 11,
        ..FsParams::default()
    };
    spawn_fileserver(cl, s, v, p, Rc::clone(&rec));
    sim.run_until(SimTime::from_millis(400));
    assert_eq!(
        rec_line(&rec),
        "ops=13131 bytes=3657351168 n=13131 min=0 max=704388 mean=896"
    );
    assert_eq!(world_line(&mut sim, &[v]), "r=13131 w=26262 events=13205");
}

#[test]
fn fileserver_waves_and_byte_bound() {
    let (mut sim, m) = world(1);
    let v = vm(&mut sim, m[0], 2, 1, 4);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let p = FsParams {
        threads: 2,
        pool: 40,
        file_size: 64 << 10,
        op_cpu: SimDuration::from_micros(200),
        max_bytes: 24 << 20,
        burst: Some((6, SimDuration::from_millis(30))),
        ..FsParams::default()
    };
    spawn_fileserver(cl, s, v, p, Rc::clone(&rec));
    sim.run_until(SimTime::from_millis(800));
    assert_eq!(
        rec_line(&rec),
        "ops=171 bytes=25214976 n=171 min=0 max=683908 mean=58852"
    );
    assert_eq!(world_line(&mut sim, &[v]), "r=171 w=342 events=266");
}

#[test]
fn webserver() {
    let (mut sim, m) = world(1);
    let v = vm(&mut sim, m[0], 2, 1, 4);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let p = WsParams {
        threads: 2,
        pages: 80,
        seed: 13,
        ..WsParams::default()
    };
    spawn_webserver(cl, s, v, p, Rc::clone(&rec));
    sim.run_until(SimTime::from_millis(200));
    assert_eq!(
        rec_line(&rec),
        "ops=3217 bytes=553426944 n=3217 min=120000 max=3638397 mean=124318"
    );
    assert_eq!(world_line(&mut sim, &[v]), "r=32170 w=3217 events=3306");
}

#[test]
fn videoserver() {
    let (mut sim, m) = world(1);
    let v = vm(&mut sim, m[0], 2, 1, 4);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let p = VsParams {
        readers: 2,
        library: 3,
        video_size: 8 << 20,
    };
    spawn_videoserver(cl, s, v, p, Rc::clone(&rec));
    sim.run_until(SimTime::from_millis(300));
    assert_eq!(
        rec_line(&rec),
        "ops=2064 bytes=2164260864 n=2064 min=174763 max=1922699 mean=290608"
    );
    assert_eq!(world_line(&mut sim, &[v]), "r=2066 w=422 events=2622");
}

#[test]
fn multistream() {
    let (mut sim, m) = world(1);
    let v = vm(&mut sim, m[0], 2, 1, 4);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let p = MultiStreamParams {
        streams: 2,
        file_size: 16 << 20,
        read_size: 1 << 20,
        ..MultiStreamParams::default()
    };
    spawn_multistream(cl, s, v, p, Rc::clone(&rec));
    sim.run_until(SimTime::from_millis(300));
    assert_eq!(
        rec_line(&rec),
        "ops=4368 bytes=4580179968 n=4368 min=131072 max=1314770 mean=137334"
    );
    assert_eq!(world_line(&mut sim, &[v]), "r=4370 w=0 events=4661");
}

#[test]
fn olio() {
    let (mut sim, m) = world(1);
    let web = vm(&mut sim, m[0], 2, 2, 4);
    let db = vm(&mut sim, m[0], 2, 2, 60);
    let file = vm(&mut sim, m[0], 2, 2, 4);
    let recs = OlioRecorders::new(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let p = OlioParams {
        clients: 12,
        ..OlioParams::default()
    };
    spawn_olio(cl, s, web, db, file, p, recs.clone());
    sim.run_until(SimTime::from_millis(1500));
    assert_eq!(
        rec_line(&recs.total),
        "ops=39 bytes=0 n=39 min=3606688 max=5720710 mean=5012333"
    );
    assert_eq!(
        rec_line(&recs.web),
        "ops=39 bytes=319488 n=39 min=1500000 max=2183908 mean=1799285"
    );
    assert_eq!(
        rec_line(&recs.db),
        "ops=39 bytes=57344 n=39 min=972000 max=1852655 mean=1605531"
    );
    assert_eq!(
        rec_line(&recs.file),
        "ops=39 bytes=5111808 n=39 min=0 max=807243 mean=607516"
    );
    assert_eq!(
        world_line(&mut sim, &[web, db, file]),
        "r=39 w=0 r=78 w=7 r=39 w=0 events=726"
    );
}

#[test]
fn ycsb1_two_nodes_over_the_network() {
    let (mut sim, m) = world(2);
    let a = vm(&mut sim, m[0], 2, 1, 8);
    let b = vm(&mut sim, m[1], 2, 1, 8);
    let net = Rc::new(RefCell::new(Network::new(2)));
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let p = YcsbParams::ycsb1(1500.0, 18);
    spawn_ycsb(
        cl,
        s,
        &[a, b],
        Some((net, vec![NodeId(0), NodeId(1)])),
        p,
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_millis(400));
    assert_eq!(
        rec_line(&rec),
        "ops=599 bytes=613376 n=599 min=40000 max=1065880 mean=479010"
    );
    assert_eq!(
        world_line(&mut sim, &[a, b]),
        "r=171 w=298 r=130 w=298 events=3068"
    );
}

#[test]
fn ycsb2_colocated_pair() {
    let (mut sim, m) = world(1);
    let a = vm(&mut sim, m[0], 2, 1, 8);
    let b = vm(&mut sim, m[0], 2, 1, 8);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let mut p = YcsbParams::ycsb2(1500.0, 19);
    p.memtable_flush_bytes = 64 << 10;
    spawn_ycsb(cl, s, &[a, b], None, p, Rc::clone(&rec));
    sim.run_until(SimTime::from_millis(400));
    assert_eq!(
        rec_line(&rec),
        "ops=634 bytes=649216 n=634 min=40000 max=826763 mean=338296"
    );
    assert_eq!(
        world_line(&mut sim, &[a, b]),
        "r=310 w=29 r=295 w=29 events=2500"
    );
}

#[test]
fn ycsb1_bursty_and_bounded() {
    let (mut sim, m) = world(1);
    let a = vm(&mut sim, m[0], 2, 1, 8);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let mut p = YcsbParams::ycsb1(400.0, 20)
        .with_burst(SimDuration::from_millis(50))
        .with_max_ops(700);
    p.memtable_flush_bytes = 128 << 10;
    spawn_ycsb(cl, s, &[a], None, p, Rc::clone(&rec));
    sim.run_until(SimTime::from_millis(2500));
    assert!(rec.borrow().finished);
    assert_eq!(
        rec_line(&rec),
        "ops=700 bytes=716800 n=700 min=40000 max=826763 mean=217382"
    );
    assert_eq!(world_line(&mut sim, &[a]), "r=346 w=356 events=2204");
}

#[test]
fn blast_two_workers() {
    let (mut sim, m) = world(2);
    let a = vm(&mut sim, m[0], 2, 1, 8);
    let b = vm(&mut sim, m[1], 2, 1, 8);
    let net = Rc::new(RefCell::new(Network::new(3)));
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let p = BlastParams {
        scan_per_query: 6 << 20,
        ..BlastParams::default()
    };
    spawn_blast(
        cl,
        s,
        &[a, b],
        Some((net, vec![NodeId(0), NodeId(1)], NodeId(2))),
        p,
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_millis(300));
    assert_eq!(
        rec_line(&rec),
        "ops=210 bytes=440401920 n=210 min=1068933 max=1411247 mean=1213225"
    );
    assert_eq!(
        world_line(&mut sim, &[a, b]),
        "r=106 w=0 r=106 w=0 events=3640"
    );
}

#[test]
fn cloud9_with_budget() {
    let (mut sim, m) = world(1);
    let v = vm(&mut sim, m[0], 4, 1, 4);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    let p = Cloud9Params {
        threads: 2,
        first_vcpu: 1,
        cpu_budget_secs: 0.6,
        ..Cloud9Params::default()
    };
    spawn_cloud9(cl, s, v, p, Rc::clone(&rec));
    sim.run_until(SimTime::from_millis(1000));
    assert!(rec.borrow().finished);
    assert_eq!(
        rec_line(&rec),
        "ops=120 bytes=0 n=120 min=10000000 max=10000000 mean=10000000"
    );
    assert_eq!(world_line(&mut sim, &[v]), "r=0 w=1 events=120");
}

#[test]
fn arrivals() {
    let (mut sim, m) = world(1);
    let horizon = SimTime::from_secs(4);
    let (cl, s) = sim.parts_mut();
    let p = ArrivalParams {
        lambda_per_min: 240.0,
        fs_bytes: 4 << 20,
        ycsb_ops: 300,
        cloud9_cpu_secs: 0.2,
        ..ArrivalParams::default()
    };
    let stats = spawn_arrivals(cl, s, m[0], p, horizon);
    sim.run_until(horizon);
    let line = {
        let st = stats.borrow();
        format!(
            "arrived={} started={} completed={} queued={} running={} payload={}",
            st.arrived, st.started, st.completed, st.queued, st.running, st.payload_bytes
        )
    };
    assert_eq!(
        line,
        "arrived=9 started=9 completed=9 queued=0 running=0 payload=27688960"
    );
    assert_eq!(world_line(&mut sim, &[]), "events=4291");
}
