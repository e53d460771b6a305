//! Experiment runner functions — one per experiment family.

use std::cell::RefCell;
use std::rc::Rc;

use iorch_hypervisor::{Cluster, VmSpec, Waiter};
use iorch_metrics::LatencyHistogram;
use iorch_netsim::{Network, NodeId};
use iorch_simcore::{SimDuration, SimTime, Simulation};
use iorch_workloads::{
    recorder, spawn_arrivals, spawn_blast, spawn_cloud9, spawn_fileserver, spawn_multistream,
    spawn_olio, spawn_videoserver, spawn_webserver, spawn_ycsb, ArrivalParams, BlastParams,
    Cloud9Params, FsParams, MultiStreamParams, OlioParams, OlioRecorders, VmRef, VsParams,
    WsParams, YcsbParams,
};
use iorchestra::SystemKind;

/// Common run settings.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Seed for every RNG in the run.
    pub seed: u64,
    /// Warm-up span discarded from recordings.
    pub warmup: SimDuration,
    /// Measured span.
    pub measure: SimDuration,
}

impl RunCfg {
    /// Quick default: 2 s warm-up, 6 s measured.
    pub fn new(seed: u64) -> Self {
        RunCfg {
            seed,
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(6),
        }
    }

    /// Override the measured span.
    pub fn with_measure(mut self, d: SimDuration) -> Self {
        self.measure = d;
        self
    }

    /// Override the warm-up span.
    pub fn with_warmup(mut self, d: SimDuration) -> Self {
        self.warmup = d;
        self
    }

    /// End of the run: warm-up plus measured span.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.measure
    }

    /// Instant recorders start keeping samples (end of warm-up).
    pub fn record_after(&self) -> SimTime {
        SimTime::ZERO + self.warmup
    }
}

/// Build a one-machine simulation running `kind`.
pub fn single_machine(kind: SystemKind, seed: u64) -> (Simulation<Cluster>, usize) {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = kind.provision(cl, s, seed);
    (sim, idx)
}

pub(crate) fn make_vm(
    sim: &mut Simulation<Cluster>,
    idx: usize,
    vcpus: u32,
    mem_gb: u64,
    disk_gb: u64,
) -> VmRef {
    let (cl, s) = sim.parts_mut();
    let dom = cl.create_domain(
        s,
        idx,
        VmSpec::new(vcpus, mem_gb).with_disk_gb(disk_gb),
        scaled_writeback,
    );
    VmRef { machine: idx, dom }
}

/// Scale the Linux writeback clocks to the compressed run durations: the
/// paper's 10-minute runs see many periodic-flusher (5 s) and dirty-expire
/// (30 s) cycles; a 6–10 s simulated run needs proportionally faster
/// clocks to exercise the same mechanisms.
fn scaled_writeback(g: &mut iorch_guestos::GuestConfig) {
    g.wb.periodic_interval = SimDuration::from_millis(1000);
    g.wb.dirty_expire = SimDuration::from_millis(3000);
}

// ====================================================================
// §2 motivation: falsely triggered congestion avoidance
// ====================================================================

/// Output of the motivation experiment.
#[derive(Clone, Copy, Debug)]
pub struct MotivationOut {
    /// Mean latency of the large sequential reads.
    pub mean: SimDuration,
    /// Congestion-avoidance activations observed.
    pub congestion_entries: u64,
    /// Collaborative releases granted.
    pub bypass_grants: u64,
    /// Probe reads recorded in the measured window (sample count).
    pub ops: u64,
}

/// §2: two VMs run threads of large sequential reads whose pipeline depth
/// sits above the 7/8 threshold, so stock congestion avoidance keeps
/// firing although the array has headroom. The measured latency is that
/// of read operations *submitted into that falsely-congested queue* —
/// under the baseline they sleep in `congestion_wait`; under IOrchestra's
/// collaborative control they are released immediately.
pub fn motivation_run(collaborative: bool, cfg: RunCfg) -> MotivationOut {
    use iorch_guestos::FileOp;
    let kind = if collaborative {
        SystemKind::IOrchestraWith(iorchestra::FunctionSet::congestion_only())
    } else {
        SystemKind::Baseline
    };
    let (mut sim, idx) = single_machine(kind, cfg.seed);
    let rec = recorder(cfg.record_after());
    let bg = recorder(cfg.record_after());
    for v in 0..2u64 {
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(4, 4).with_disk_gb(20), |g| {
            // A shallow descriptor pool (common SSD tuning) plus deep
            // sequential readahead: the streams' natural pipeline depth
            // sits just above the 7/8 threshold, so stock congestion
            // avoidance triggers although the array has ample headroom —
            // exactly the §2 situation.
            g.queue.nr_requests = 16;
            g.queue.bypass_hard_limit = 256;
            g.readahead_chunks = 16;
        });
        let vm = VmRef { machine: idx, dom };
        let p = MultiStreamParams {
            streams: 3,
            // Working set beyond the 3 GiB page cache: reads always reach
            // the device, as with the paper's 8 x 1 GiB files.
            file_size: 2 << 30,
            read_size: 4 << 20,
            first_vcpu: 0,
            seed: cfg.seed ^ v,
        };
        spawn_multistream(cl, s, vm, p, Rc::clone(&bg));
        // The measured submitters: a modest open-loop stream of reads
        // entering the same falsely-congested request queue.
        let probe_file = cl
            .machine_mut(idx)
            .kernel_mut(dom)
            .unwrap()
            .create_file(1 << 30)
            .unwrap();
        let rec2 = Rc::clone(&rec);
        let mut prng = iorch_simcore::SimRng::new(cfg.seed ^ 0x9999 ^ v);
        s.schedule_every(
            SimDuration::from_micros(5000),
            move |cl: &mut Cluster, s| {
                let offset = prng.below((1 << 30) - (64 << 10));
                let started = s.now();
                let r3 = Rc::clone(&rec2);
                cl.submit_op(
                    s,
                    idx,
                    dom,
                    3,
                    FileOp::Read {
                        file: probe_file,
                        offset,
                        len: 64 << 10,
                    },
                    Some(Waiter::from_fn(move |_, s, _| {
                        let now = s.now();
                        r3.borrow_mut()
                            .record(now, now.saturating_since(started), 64 << 10);
                    })),
                );
                !rec2.borrow().stopped
            },
        );
    }
    sim.run_until(cfg.horizon());
    let mean = rec.borrow().hist.mean();
    let ops = rec.borrow().ops;
    let m = sim.world().machine(idx);
    let (mut entries, mut grants) = (0, 0);
    for dom in m.domains() {
        let k = &m.domain(dom).unwrap().kernel;
        entries += k.congestion_entries();
        grants += k.bypass_grants();
    }
    MotivationOut {
        mean,
        congestion_entries: entries,
        bypass_grants: grants,
        ops,
    }
}

// ====================================================================
// §5.1 — Fig. 4/5/6: Olio + two Cassandra stores, concurrently
// ====================================================================

/// Everything one §5.1 run produces (feeds Figs. 4, 5 and 6).
pub struct Fig4Out {
    /// Olio end-to-end latency.
    pub olio_total: LatencyHistogram,
    /// Olio web-tier latency.
    pub olio_web: LatencyHistogram,
    /// Olio database-tier latency.
    pub olio_db: LatencyHistogram,
    /// Olio file-server-tier latency.
    pub olio_file: LatencyHistogram,
    /// YCSB1 (update-heavy store) op latency.
    pub ycsb1: LatencyHistogram,
    /// YCSB2 (read-mostly store) op latency.
    pub ycsb2: LatencyHistogram,
}

/// One §5.1 run: Olio (3 VMs) + YCSB1 store (2 VMs) + YCSB2 store (2 VMs)
/// on one host, all concurrent, as in the paper.
pub fn fig4_run(
    kind: SystemKind,
    olio_clients: u32,
    ycsb1_rate: f64,
    ycsb2_rate: f64,
    cfg: RunCfg,
) -> Fig4Out {
    let (mut sim, idx) = single_machine(kind, cfg.seed);
    // Olio tier VMs.
    let web = make_vm(&mut sim, idx, 2, 4, 10);
    let db = make_vm(&mut sim, idx, 2, 4, 60);
    let file = make_vm(&mut sim, idx, 2, 4, 40);
    // Two Cassandra stores, two data-node VMs each.
    let y1a = make_vm(&mut sim, idx, 2, 4, 20);
    let y1b = make_vm(&mut sim, idx, 2, 4, 20);
    let y2a = make_vm(&mut sim, idx, 2, 4, 20);
    let y2b = make_vm(&mut sim, idx, 2, 4, 20);

    let olio_recs = OlioRecorders::new(cfg.record_after());
    let rec1 = recorder(cfg.record_after());
    let rec2 = recorder(cfg.record_after());
    {
        let (cl, s) = sim.parts_mut();
        let p = OlioParams {
            clients: olio_clients,
            seed: cfg.seed ^ 0x01,
            ..OlioParams::default()
        };
        spawn_olio(cl, s, web, db, file, p, olio_recs.clone());
        // Memtable flush threshold scaled with the compressed run length
        // so flush bursts occur at the paper's cadence.
        let mut p1 = YcsbParams::ycsb1(ycsb1_rate, cfg.seed ^ 0x02);
        p1.memtable_flush_bytes = 2 << 20;
        let mut p2 = YcsbParams::ycsb2(ycsb2_rate, cfg.seed ^ 0x03);
        p2.memtable_flush_bytes = 2 << 20;
        spawn_ycsb(cl, s, &[y1a, y1b], None, p1, Rc::clone(&rec1));
        spawn_ycsb(cl, s, &[y2a, y2b], None, p2, Rc::clone(&rec2));
    }
    sim.run_until(cfg.horizon());
    let olio_total = olio_recs.total.borrow().hist.clone();
    let olio_web = olio_recs.web.borrow().hist.clone();
    let olio_db = olio_recs.db.borrow().hist.clone();
    let olio_file = olio_recs.file.borrow().hist.clone();
    let ycsb1 = rec1.borrow().hist.clone();
    let ycsb2 = rec2.borrow().hist.clone();
    Fig4Out {
        olio_total,
        olio_web,
        olio_db,
        olio_file,
        ycsb1,
        ycsb2,
    }
}

// ====================================================================
// §5.2 — Fig. 7: scale-out (mpiBLAST / YCSB1 over 1–8 machines)
// ====================================================================

/// Which scale-out application to measure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleApp {
    /// mpiBLAST partitioned scan.
    Blast,
    /// YCSB1 multi-node store.
    Ycsb1,
}

/// One Fig. 7 point: `machines` hosts, each with a Cloud9 VM, an
/// mpiBLAST worker VM and a YCSB1 node VM; returns the mean I/O latency
/// of the measured app plus its recorded op count.
pub fn scaleout_run(
    kind: SystemKind,
    machines: usize,
    app: ScaleApp,
    cfg: RunCfg,
) -> (SimDuration, u64) {
    let mut sim = Simulation::new(Cluster::new());
    let net = Rc::new(RefCell::new(Network::new(machines + 1)));
    let master_net = NodeId(machines);
    let mut blast_vms = Vec::new();
    let mut ycsb_vms = Vec::new();
    let mut net_ids = Vec::new();
    for m in 0..machines {
        let (cl, s) = sim.parts_mut();
        let idx = kind.provision(cl, s, cfg.seed.wrapping_add(m as u64));
        let b = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(20), |_| {});
        let y = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(20), |_| {});
        let c = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(10), |_| {});
        blast_vms.push(VmRef {
            machine: idx,
            dom: b,
        });
        ycsb_vms.push(VmRef {
            machine: idx,
            dom: y,
        });
        let cvm = VmRef {
            machine: idx,
            dom: c,
        };
        let rec = recorder(cfg.record_after());
        spawn_cloud9(
            cl,
            s,
            cvm,
            Cloud9Params {
                seed: cfg.seed ^ m as u64,
                ..Cloud9Params::default()
            },
            rec,
        );
        net_ids.push(NodeId(m));
    }
    let blast_rec = recorder(cfg.record_after());
    let ycsb_rec = recorder(cfg.record_after());
    {
        let (cl, s) = sim.parts_mut();
        spawn_blast(
            cl,
            s,
            &blast_vms,
            Some((Rc::clone(&net), net_ids.clone(), master_net)),
            BlastParams {
                scan_per_query: (32 << 20) / machines as u64,
                seed: cfg.seed ^ 0xb1a57,
                ..BlastParams::default()
            },
            Rc::clone(&blast_rec),
        );
        spawn_ycsb(
            cl,
            s,
            &ycsb_vms,
            Some((Rc::clone(&net), net_ids)),
            YcsbParams::ycsb1(1500.0, cfg.seed ^ 0x9c5b),
            Rc::clone(&ycsb_rec),
        );
    }
    sim.run_until(cfg.horizon());
    let r = match app {
        ScaleApp::Blast => blast_rec.borrow(),
        ScaleApp::Ycsb1 => ycsb_rec.borrow(),
    };
    (r.hist.mean(), r.ops)
}

// ====================================================================
// §5.3 — Fig. 8 + Table 2: flushing dirty pages
// ====================================================================

/// One Fig. 8 point: `n_vms` FS VMs (1 VCPU / 1 GB) at a given dirty
/// ratio; returns aggregate write throughput in bytes/s (device-level)
/// plus the recorded op count across all VMs.
pub fn flush_run(kind: SystemKind, n_vms: usize, dirty_ratio: f64, cfg: RunCfg) -> (f64, u64) {
    let (mut sim, idx) = single_machine(kind, cfg.seed);
    let mut recs = Vec::new();
    for v in 0..n_vms {
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(6), |g| {
            g.wb.dirty_ratio = dirty_ratio;
            g.wb.background_ratio = dirty_ratio / 2.0;
            // Compressed writeback clocks (see scaled_writeback). Expiry
            // stays long relative to the waves so the dirty pile a VM
            // accumulates is governed by the background ratio — the axis
            // the figure sweeps.
            g.wb.periodic_interval = SimDuration::from_millis(1000);
            g.wb.dirty_expire = SimDuration::from_millis(8000);
        });
        let vm = VmRef { machine: idx, dom };
        let rec = recorder(cfg.record_after());
        // Write working set ~2.3 GB per VM: over twice the 1 GB memory
        // (paper §5.3), so reads miss and dirty data exceeds what the
        // cache can hold clean. Request waves with think time make the
        // aggregate demand fluctuate, leaving the idle windows Algorithm 1
        // exploits; the baseline's expire-driven flush storms land at
        // arbitrary times and collide with later waves.
        let p = FsParams {
            threads: 1,
            pool: 9_000,
            file_size: 256 << 10,
            op_cpu: SimDuration::from_millis(2),
            read_recent: None,
            burst: Some((60, SimDuration::from_millis(400))),
            seed: cfg.seed ^ v as u64,
            ..FsParams::default()
        };
        spawn_fileserver(cl, s, vm, p, Rc::clone(&rec));
        recs.push(rec);
    }
    sim.run_until(cfg.horizon());
    // Aggregate FS payload write throughput over the measured window.
    let now = sim.now();
    let bps = recs.iter().map(|r| r.borrow().throughput_bps(now)).sum();
    let ops = recs.iter().map(|r| r.borrow().ops).sum();
    (bps, ops)
}

/// Output of an arrival-process run (Table 2, Figs. 10b/10c/11).
#[derive(Clone, Copy, Debug)]
pub struct ArrivalOut {
    /// VMs completed within the horizon.
    pub completed: u64,
    /// VMs that arrived.
    pub arrived: u64,
    /// Average machine CPU utilization.
    pub cpu_utilization: f64,
    /// Device-level write throughput over the whole run, bytes/s.
    pub write_bps: f64,
    /// Device-level total I/O throughput over the whole run, bytes/s.
    pub io_bps: f64,
    /// Application payload throughput of completed VMs, bytes/s — the
    /// Table 2 metric (the paper measures app-level write throughput; at
    /// our compressed scale the device-level number degenerates because
    /// baseline guests often depart before their dirt is ever flushed).
    pub app_bps: f64,
}

/// One dynamic-arrival run at λ VMs/minute (§5.3's Table 2 setting; also
/// §5.5's Figs. 10b/10c/11).
pub fn arrivals_run(kind: SystemKind, lambda_per_min: f64, cfg: RunCfg) -> ArrivalOut {
    let (mut sim, idx) = single_machine(kind, cfg.seed);
    let horizon = cfg.horizon();
    let stats = {
        let (cl, s) = sim.parts_mut();
        let p = ArrivalParams {
            lambda_per_min,
            fs_bytes: 256 << 20,
            ycsb_ops: 20_000,
            cloud9_cpu_secs: 4.0,
            seed: cfg.seed,
            ..ArrivalParams::default()
        };
        spawn_arrivals(cl, s, idx, p, horizon)
    };
    sim.run_until(horizon);
    let now = sim.now();
    let m = sim.world().machine(idx);
    let (rbytes, wbytes) = m.storage.monitor().byte_counts();
    let span = now.as_secs_f64().max(1e-9);
    let st = stats.borrow();
    ArrivalOut {
        completed: st.completed,
        arrived: st.arrived,
        cpu_utilization: m.utilization(now),
        write_bps: wbytes as f64 / span,
        io_bps: (rbytes + wbytes) as f64 / span,
        app_bps: st.payload_bytes as f64 / span,
    }
}

// ====================================================================
// §5.4 — Fig. 9: congestion control with FS / WS / VS
// ====================================================================

/// The FileBench workload measured in Fig. 9.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FbKind {
    /// File server.
    Fs,
    /// Web server.
    Ws,
    /// Video server.
    Vs,
}

/// One Fig. 9 point: `n_vms` 1-VCPU/1-GB VMs all running the same
/// FileBench workload; returns the mean op latency and the op count.
pub fn congestion_run(
    kind: SystemKind,
    fb: FbKind,
    n_vms: usize,
    cfg: RunCfg,
) -> (SimDuration, u64) {
    let (mut sim, idx) = single_machine(kind, cfg.seed);
    let rec = recorder(cfg.record_after());
    for v in 0..n_vms {
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(8), |g| {
            g.queue.nr_requests = 64;
        });
        let vm = VmRef { machine: idx, dom };
        let seed = cfg.seed ^ (v as u64) << 8;
        match fb {
            FbKind::Fs => spawn_fileserver(
                cl,
                s,
                vm,
                FsParams {
                    threads: 2,
                    pool: 8_000,
                    seed,
                    ..FsParams::default()
                },
                Rc::clone(&rec),
            ),
            FbKind::Ws => spawn_webserver(
                cl,
                s,
                vm,
                WsParams {
                    threads: 2,
                    seed,
                    ..WsParams::default()
                },
                Rc::clone(&rec),
            ),
            FbKind::Vs => spawn_videoserver(
                cl,
                s,
                vm,
                VsParams {
                    readers: 2,
                    seed,
                    ..VsParams::default()
                },
                Rc::clone(&rec),
            ),
        }
    }
    sim.run_until(cfg.horizon());
    let r = rec.borrow();
    (r.hist.mean(), r.ops)
}

// ====================================================================
// §5.5 — Fig. 10a: big cross-socket VM, mixed CPU/I/O intensity
// ====================================================================

/// One Fig. 10a point: a 10-VCPU/10-GB VM running `io_threads` multi-
/// stream readers (pinned to the first VCPUs, which land on socket 0)
/// and `10 - io_threads` Cloud9 threads; returns I/O throughput in
/// bytes/s and the recorded op count.
pub fn cosched_run(kind: SystemKind, io_threads: u32, cfg: RunCfg) -> (f64, u64) {
    let (mut sim, idx) = single_machine(kind, cfg.seed);
    let vm = make_vm(&mut sim, idx, 10, 10, 60);
    let rec = recorder(cfg.record_after());
    {
        let (cl, s) = sim.parts_mut();
        spawn_multistream(
            cl,
            s,
            vm,
            MultiStreamParams {
                streams: io_threads,
                file_size: 2 << 30,
                read_size: 1 << 20,
                first_vcpu: 0,
                seed: cfg.seed ^ 0x10,
            },
            Rc::clone(&rec),
        );
        let cpu_threads = 10 - io_threads;
        if cpu_threads > 0 {
            spawn_cloud9(
                cl,
                s,
                vm,
                Cloud9Params {
                    threads: cpu_threads,
                    first_vcpu: io_threads,
                    seed: cfg.seed ^ 0x11,
                    ..Cloud9Params::default()
                },
                recorder(cfg.record_after()),
            );
        }
    }
    sim.run_until(cfg.horizon());
    let now = sim.now();
    let r = rec.borrow();
    (r.throughput_bps(now), r.ops)
}

// ====================================================================
// §5.6 — Fig. 12: bursty writes
// ====================================================================

/// One Fig. 12 point: YCSB1 on a 2-VM store with synchronized bursts;
/// returns the op latency histogram (the figure reports the 99.9th pct).
pub fn bursty_run(
    kind: SystemKind,
    rate: f64,
    burst_len: SimDuration,
    cfg: RunCfg,
) -> LatencyHistogram {
    let (mut sim, idx) = single_machine(kind, cfg.seed);
    let a = make_vm(&mut sim, idx, 2, 4, 20);
    let b = make_vm(&mut sim, idx, 2, 4, 20);
    let rec = recorder(cfg.record_after());
    {
        let (cl, s) = sim.parts_mut();
        let p = YcsbParams::ycsb1(rate, cfg.seed ^ 0xbb).with_burst(burst_len);
        spawn_ycsb(cl, s, &[a, b], None, p, Rc::clone(&rec));
    }
    sim.run_until(cfg.horizon());
    let h = rec.borrow().hist.clone();
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny smoke runs keeping unit-test time low; the real sweeps live in
    /// `benches/` and the integration tests.
    fn tiny() -> RunCfg {
        RunCfg::new(7)
            .with_warmup(SimDuration::from_millis(300))
            .with_measure(SimDuration::from_millis(700))
    }

    #[test]
    fn motivation_smoke() {
        let base = motivation_run(false, tiny());
        assert!(base.mean > SimDuration::ZERO);
    }

    #[test]
    fn ycsb_bursty_smoke() {
        let h = bursty_run(
            SystemKind::Baseline,
            300.0,
            SimDuration::from_millis(50),
            tiny(),
        );
        assert!(h.count() > 0, "bursty run must record ops");
    }

    #[test]
    fn congestion_smoke() {
        let (m, ops) = congestion_run(SystemKind::Baseline, FbKind::Ws, 2, tiny());
        assert!(m > SimDuration::ZERO);
        assert!(ops > 0);
    }

    #[test]
    fn single_machine_provisions() {
        for kind in SystemKind::headline() {
            let (sim, idx) = single_machine(kind, 1);
            assert_eq!(sim.world().machines.len(), idx + 1);
        }
    }

    /// `DomainId` sanity for the arrival framework.
    #[test]
    fn arrival_smoke() {
        let out = arrivals_run(SystemKind::Baseline, 30.0, tiny());
        assert!(out.cpu_utilization >= 0.0);
        let _ = out.arrived;
    }
}
