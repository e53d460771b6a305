//! Workload-level integration tests: every workload model drives a real
//! machine and produces sensible numbers.

use std::rc::Rc;

use iorch_hypervisor::{Cluster, IoPathMode, MachineConfig, VmSpec};
use iorch_simcore::{SimDuration, SimTime, Simulation};
use iorch_workloads::*;

fn machine() -> (Simulation<Cluster>, usize) {
    let mut sim = Simulation::new(Cluster::new());
    let idx = sim
        .world_mut()
        .add_machine(MachineConfig::paper_testbed(3, IoPathMode::Paravirt));
    (sim, idx)
}

fn vm(sim: &mut Simulation<Cluster>, idx: usize, vcpus: u32, mem: u64, disk: u64) -> VmRef {
    let (cl, s) = sim.parts_mut();
    let dom = cl.create_domain(s, idx, VmSpec::new(vcpus, mem).with_disk_gb(disk), |_| {});
    VmRef { machine: idx, dom }
}

#[test]
fn ycsb_respects_read_ratio() {
    let (mut sim, idx) = machine();
    let node = vm(&mut sim, idx, 2, 4, 20);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    spawn_ycsb(
        cl,
        s,
        &[node],
        None,
        YcsbParams::ycsb2(1000.0, 7),
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_secs(3));
    let m = sim.world().machine(idx);
    let k = &m.domain(node.dom).unwrap().kernel;
    let stats = k.stats();
    // 95:5 read:write — the kernel sees mostly read ops.
    assert!(
        stats.reads > 8 * stats.writes,
        "reads={} writes={}",
        stats.reads,
        stats.writes
    );
    assert!(rec.borrow().ops > 2000);
}

#[test]
fn ycsb_bounded_run_finishes() {
    let (mut sim, idx) = machine();
    let node = vm(&mut sim, idx, 2, 4, 20);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    spawn_ycsb(
        cl,
        s,
        &[node],
        None,
        YcsbParams::ycsb1(2000.0, 7).with_max_ops(500),
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_secs(10));
    let r = rec.borrow();
    assert!(r.finished);
    assert_eq!(r.ops, 500);
}

#[test]
fn fileserver_moves_data_and_stops_at_bound() {
    let (mut sim, idx) = machine();
    let target = vm(&mut sim, idx, 2, 2, 10);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    spawn_fileserver(
        cl,
        s,
        target,
        FsParams {
            threads: 2,
            pool: 200,
            max_bytes: 64 << 20,
            seed: 5,
            ..FsParams::default()
        },
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_secs(20));
    let r = rec.borrow();
    assert!(r.finished, "FS must hit its 64 MiB bound");
    assert!(r.bytes >= 64 << 20);
}

#[test]
fn videoserver_streams_are_sequentialish() {
    let (mut sim, idx) = machine();
    let target = vm(&mut sim, idx, 2, 2, 10);
    let rec = recorder(SimTime::from_millis(200));
    let (cl, s) = sim.parts_mut();
    spawn_videoserver(
        cl,
        s,
        target,
        VsParams {
            readers: 2,
            library: 4,
            video_size: 16 << 20,
        },
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_secs(3));
    let r = rec.borrow();
    assert!(r.ops > 20, "streaming must progress: {}", r.ops);
    // Sequential 1 MiB reads with readahead: mean latency in the low-ms.
    assert!(r.hist.mean() < SimDuration::from_millis(50));
}

#[test]
fn cloud9_is_cpu_bound() {
    let (mut sim, idx) = machine();
    let target = vm(&mut sim, idx, 2, 2, 10);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    spawn_cloud9(
        cl,
        s,
        target,
        Cloud9Params {
            threads: 2,
            seed: 5,
            ..Cloud9Params::default()
        },
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_secs(2));
    let m = sim.world().machine(idx);
    // Cloud9 burns CPU with only light I/O.
    let io = m.io_bytes(target.dom);
    assert!(io < 64 << 20, "too much I/O for a CPU-bound job: {io}");
    assert!(m.utilization(sim.now()) > 0.10);
    assert!(rec.borrow().ops > 100, "steps={}", rec.borrow().ops);
}

#[test]
fn cloud9_budget_finishes() {
    let (mut sim, idx) = machine();
    let target = vm(&mut sim, idx, 2, 2, 10);
    let rec = recorder(SimTime::ZERO);
    let (cl, s) = sim.parts_mut();
    spawn_cloud9(
        cl,
        s,
        target,
        Cloud9Params {
            threads: 2,
            cpu_budget_secs: 0.5,
            seed: 5,
            ..Cloud9Params::default()
        },
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_secs(5));
    assert!(rec.borrow().finished);
}

#[test]
fn olio_tiers_all_record() {
    let (mut sim, idx) = machine();
    let web = vm(&mut sim, idx, 2, 4, 10);
    let db = vm(&mut sim, idx, 2, 4, 60);
    let file = vm(&mut sim, idx, 2, 4, 40);
    let recs = OlioRecorders::new(SimTime::from_millis(500));
    let (cl, s) = sim.parts_mut();
    spawn_olio(
        cl,
        s,
        web,
        db,
        file,
        OlioParams {
            clients: 50,
            seed: 5,
        },
        recs.clone(),
    );
    sim.run_until(SimTime::from_secs(4));
    assert!(recs.total.borrow().ops > 100);
    assert!(recs.web.borrow().ops > 100);
    assert!(recs.db.borrow().ops > 100);
    assert!(recs.file.borrow().ops > 100);
    // End-to-end dominates each tier.
    let total = recs.total.borrow().hist.mean();
    assert!(total >= recs.db.borrow().hist.mean());
    assert!(total >= recs.file.borrow().hist.mean());
}

#[test]
fn arrivals_admit_run_and_complete() {
    let (mut sim, idx) = machine();
    let horizon = SimTime::from_secs(25);
    let stats = {
        let (cl, s) = sim.parts_mut();
        spawn_arrivals(
            cl,
            s,
            idx,
            ArrivalParams {
                lambda_per_min: 30.0,
                fs_bytes: 32 << 20,
                ycsb_ops: 2_000,
                cloud9_cpu_secs: 1.0,
                seed: 5,
            },
            horizon,
        )
    };
    sim.run_until(horizon);
    let st = stats.borrow();
    assert!(st.arrived >= 5, "arrived={}", st.arrived);
    assert!(st.started >= 5);
    assert!(st.completed >= 1, "completed={}", st.completed);
    // Conservation: everything started is running, completed, or was
    // destroyed with the run still live.
    assert!(st.completed as usize + st.running <= st.started as usize);
}

#[test]
fn bursty_generator_conserves_average_rate() {
    let (mut sim, idx) = machine();
    let node = vm(&mut sim, idx, 2, 4, 20);
    let rec = recorder(SimTime::from_secs(1));
    let (cl, s) = sim.parts_mut();
    spawn_ycsb(
        cl,
        s,
        &[node],
        None,
        YcsbParams::ycsb1(1000.0, 7).with_burst(SimDuration::from_millis(50)),
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_secs(6));
    let now = sim.now();
    let rate = rec.borrow().ops_per_sec(now);
    assert!(
        (700.0..1300.0).contains(&rate),
        "bursty shaping must conserve the mean rate, got {rate}"
    );
}
