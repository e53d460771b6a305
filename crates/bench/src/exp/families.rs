//! The experiment registry: every paper figure/table as a [`Spec`].
//!
//! Full profiles replicate the historical `benches/exp_*.rs` parameters
//! and seeds exactly (grids, warmup/measure spans, repeat pooling), so
//! the measured columns in EXPERIMENTS.md remain regenerable from these
//! specs. Smoke profiles shrink the axes and spans to gate-sized runs
//! whose artifacts are byte-golden in `tier1.sh`.

use std::collections::HashMap;
use std::rc::Rc;

use iorch_hypervisor::{Cluster, IoPathMode, MachineConfig, VmSpec};
use iorch_metrics::{
    cdf_at_fractions, latency_improvement_pct, normalized, standard_grid,
    throughput_improvement_pct, LatencyHistogram,
};
use iorch_simcore::{SimDuration, SimTime, Simulation};
use iorch_workloads::{
    recorder, spawn_multistream, spawn_ycsb, MultiStreamParams, VmRef, YcsbParams,
};
use iorchestra::{FunctionSet, IOrchestraConfig, PolicyEngine, PolicySet, SystemKind};

use crate::exp::{telemetry_run, Ctx, Figure, RunProfile, Spec};
use crate::runner::{
    arrivals_run, bursty_run, congestion_run, cosched_run, fig4_run, flush_run, motivation_run,
    scaleout_run, FbKind, Fig4Out, RunCfg, ScaleApp,
};

const HEADLINE: &[&str] = &["Baseline", "SDC", "DIF", "IOrchestra"];

fn headline() -> [SystemKind; 4] {
    SystemKind::headline()
}

fn cols(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

// ====================================================================
// §2 motivation
// ====================================================================

fn run_motivation(ctx: &Ctx) -> Vec<Figure> {
    let base = motivation_run(false, ctx.cfg());
    let iorch = motivation_run(true, ctx.cfg());
    let mut f = Figure::new(
        "motivation",
        "§2 motivation — reads entering the falsely-congested queue",
        "metric",
        "mixed",
        cols(&["Baseline", "IOrchestra (collaborative)"]),
    );
    f.row(
        "mean latency (ms)",
        vec![base.mean.as_millis_f64(), iorch.mean.as_millis_f64()],
    );
    f.row(
        "congestion entries",
        vec![
            base.congestion_entries as f64,
            iorch.congestion_entries as f64,
        ],
    );
    f.row(
        "releases granted",
        vec![base.bypass_grants as f64, iorch.bypass_grants as f64],
    );
    f.samples = base.ops + iorch.ops;
    vec![f]
}

// ====================================================================
// §5.1 — Figs. 4, 5, 6 (shared fig4_run family)
// ====================================================================

/// Memoized merged runs: the client sweep and the rate sweep share the
/// (150 clients, 1500 rps) corner, and Figs. 4a–4f all come from the same
/// simulations.
struct Fig4Memo<'a> {
    ctx: &'a Ctx<'a>,
    cache: HashMap<(String, u32, u64, u64), Rc<Fig4Out>>,
}

impl<'a> Fig4Memo<'a> {
    fn new(ctx: &'a Ctx<'a>) -> Self {
        Fig4Memo {
            ctx,
            cache: HashMap::new(),
        }
    }

    /// Merge the distributions of the spec's seeded repeats (the paper
    /// averages over repeated runs; merging histograms pools the samples).
    fn merged(&mut self, kind: SystemKind, clients: u32, r1: f64, r2: f64) -> Rc<Fig4Out> {
        let key = (
            kind.label().to_string(),
            clients,
            r1.to_bits(),
            r2.to_bits(),
        );
        if let Some(out) = self.cache.get(&key) {
            return Rc::clone(out);
        }
        let mut acc: Option<Fig4Out> = None;
        for seed in self.ctx.seeds() {
            let run = fig4_run(kind, clients, r1, r2, self.ctx.cfg_seeded(seed));
            match &mut acc {
                None => acc = Some(run),
                Some(acc) => {
                    acc.olio_total.merge(&run.olio_total);
                    acc.olio_web.merge(&run.olio_web);
                    acc.olio_db.merge(&run.olio_db);
                    acc.olio_file.merge(&run.olio_file);
                    acc.ycsb1.merge(&run.ycsb1);
                    acc.ycsb2.merge(&run.ycsb2);
                }
            }
        }
        let out = Rc::new(acc.unwrap());
        self.cache.insert(key, Rc::clone(&out));
        out
    }
}

fn run_fig4(ctx: &Ctx) -> Vec<Figure> {
    let mut memo = Fig4Memo::new(ctx);
    let headline_cols = cols(HEADLINE);
    let mut fig4a = Figure::new(
        "fig4a",
        "Fig. 4a — Olio mean latency (ms) vs clients",
        "clients",
        "ms",
        headline_cols.clone(),
    );
    let mut fig4d = Figure::new(
        "fig4d",
        "Fig. 4d — Olio 99.9th pct latency (ms) vs clients",
        "clients",
        "ms",
        headline_cols.clone(),
    );
    for &c in ctx.p.axis {
        let c = c as u32;
        let outs: Vec<Rc<Fig4Out>> = headline()
            .iter()
            .map(|k| memo.merged(*k, c, 1500.0, 1500.0))
            .collect();
        fig4a.row(
            c.to_string(),
            outs.iter()
                .map(|o| o.olio_total.mean().as_millis_f64())
                .collect(),
        );
        fig4d.row(
            c.to_string(),
            outs.iter()
                .map(|o| o.olio_total.p999().as_millis_f64())
                .collect(),
        );
        fig4a.samples += outs.iter().map(|o| o.olio_total.count()).sum::<u64>();
    }
    fig4d.samples = fig4a.samples;

    // (b, e) and (c, f): YCSB vs rate, Olio fixed at 150 clients.
    let mut figs_rate = [
        Figure::new(
            "fig4b",
            "Fig. 4b — YCSB1 mean latency (us) vs req/s",
            "req/s",
            "us",
            headline_cols.clone(),
        ),
        Figure::new(
            "fig4e",
            "Fig. 4e — YCSB1 99.9th pct latency (us) vs req/s",
            "req/s",
            "us",
            headline_cols.clone(),
        ),
        Figure::new(
            "fig4c",
            "Fig. 4c — YCSB2 mean latency (us) vs req/s",
            "req/s",
            "us",
            headline_cols.clone(),
        ),
        Figure::new(
            "fig4f",
            "Fig. 4f — YCSB2 99.9th pct latency (us) vs req/s",
            "req/s",
            "us",
            headline_cols.clone(),
        ),
    ];
    for &r in ctx.p.axis2 {
        let outs: Vec<Rc<Fig4Out>> = headline()
            .iter()
            .map(|k| memo.merged(*k, 150, r, r))
            .collect();
        let x = format!("{r:.0}");
        figs_rate[0].row(
            x.clone(),
            outs.iter()
                .map(|o| o.ycsb1.mean().as_micros_f64())
                .collect(),
        );
        figs_rate[1].row(
            x.clone(),
            outs.iter()
                .map(|o| o.ycsb1.p999().as_micros_f64())
                .collect(),
        );
        figs_rate[2].row(
            x.clone(),
            outs.iter()
                .map(|o| o.ycsb2.mean().as_micros_f64())
                .collect(),
        );
        figs_rate[3].row(
            x,
            outs.iter()
                .map(|o| o.ycsb2.p999().as_micros_f64())
                .collect(),
        );
        figs_rate[0].samples += outs.iter().map(|o| o.ycsb1.count()).sum::<u64>();
        figs_rate[2].samples += outs.iter().map(|o| o.ycsb2.count()).sum::<u64>();
    }
    figs_rate[1].samples = figs_rate[0].samples;
    figs_rate[3].samples = figs_rate[2].samples;
    let [b, e, c, f] = figs_rate;
    vec![fig4a, fig4d, b, e, c, f]
}

fn run_fig5_fig6(ctx: &Ctx) -> Vec<Figure> {
    let clients = ctx.p.axis[0] as u32;
    let rate = ctx.p.axis2[0];
    let base = fig4_run(SystemKind::Baseline, clients, rate, rate, ctx.cfg());
    let iorch = fig4_run(SystemKind::IOrchestra, clients, rate, rate, ctx.cfg());
    let grid = standard_grid();
    let mut out = Vec::new();
    let series: [(&str, String, &LatencyHistogram, &LatencyHistogram); 5] = [
        (
            "fig5a",
            format!("Fig. 5a — YCSB1 latency CDF @{rate:.0} req/s"),
            &base.ycsb1,
            &iorch.ycsb1,
        ),
        (
            "fig5b",
            format!("Fig. 5b — YCSB2 latency CDF @{rate:.0} req/s"),
            &base.ycsb2,
            &iorch.ycsb2,
        ),
        (
            "fig6a",
            "Fig. 6a — Olio web tier latency CDF".to_string(),
            &base.olio_web,
            &iorch.olio_web,
        ),
        (
            "fig6b",
            "Fig. 6b — Olio database tier latency CDF".to_string(),
            &base.olio_db,
            &iorch.olio_db,
        ),
        (
            "fig6c",
            "Fig. 6c — Olio file-server tier latency CDF".to_string(),
            &base.olio_file,
            &iorch.olio_file,
        ),
    ];
    for (id, title, b, i) in series {
        let mut f = Figure::new(
            id,
            title,
            "pct",
            "us",
            cols(&["Baseline (us)", "IOrchestra (us)"]),
        );
        let bp = cdf_at_fractions(b, &grid);
        let ip = cdf_at_fractions(i, &grid);
        for (bpt, ipt) in bp.iter().zip(&ip) {
            f.row(
                format!("{:.0}%", bpt.fraction * 100.0),
                vec![bpt.value.as_micros_f64(), ipt.value.as_micros_f64()],
            );
        }
        f.samples = b.count() + i.count();
        out.push(f);
    }
    // Fig. 6's headline numbers: per-tier mean improvement (the paper
    // reports 11.2% overall, 21.6% db, 19.8% file — I/O tiers improve
    // more than end-to-end because CPU time dilutes the total).
    let mut means = Figure::new(
        "fig6_means",
        "Fig. 6 — Olio mean latency by tier (ms) and improvement",
        "tier",
        "mixed",
        cols(&["Baseline (ms)", "IOrchestra (ms)", "improvement (%)"]),
    );
    let tiers: [(&str, &LatencyHistogram, &LatencyHistogram); 3] = [
        ("overall", &base.olio_total, &iorch.olio_total),
        ("database", &base.olio_db, &iorch.olio_db),
        ("file server", &base.olio_file, &iorch.olio_file),
    ];
    for (tier, b, i) in tiers {
        means.row(
            tier.to_string(),
            vec![
                b.mean().as_micros_f64() / 1000.0,
                i.mean().as_micros_f64() / 1000.0,
                latency_improvement_pct(b.mean(), i.mean()),
            ],
        );
        means.samples += b.count() + i.count();
    }
    out.push(means);
    out
}

// ====================================================================
// §5.2 — Fig. 7 scale-out
// ====================================================================

fn run_fig7(ctx: &Ctx) -> Vec<Figure> {
    let mut out = Vec::new();
    for (id, app, title) in [
        (
            "fig7a",
            ScaleApp::Blast,
            "Fig. 7a — mpiBLAST normalized mean I/O latency",
        ),
        (
            "fig7b",
            ScaleApp::Ycsb1,
            "Fig. 7b — YCSB1 normalized mean I/O latency",
        ),
    ] {
        let mut f = Figure::new(
            id,
            title,
            "machines",
            "ratio",
            cols(&["IOrchestra", "SDC", "DIF"]),
        );
        for &n in ctx.p.axis {
            let n = n as usize;
            let (base, bops) = scaleout_run(SystemKind::Baseline, n, app, ctx.cfg());
            let (io, iops) = scaleout_run(SystemKind::IOrchestra, n, app, ctx.cfg());
            let (sdc, sops) = scaleout_run(SystemKind::Sdc, n, app, ctx.cfg());
            let (dif, dops) = scaleout_run(SystemKind::Dif, n, app, ctx.cfg());
            f.row(
                n.to_string(),
                vec![
                    normalized(base, io),
                    normalized(base, sdc),
                    normalized(base, dif),
                ],
            );
            f.samples += bops + iops + sops + dops;
        }
        out.push(f);
    }
    out
}

// ====================================================================
// §5.3 — Fig. 8 + Table 2 flush
// ====================================================================

fn run_fig8(ctx: &Ctx) -> Vec<Figure> {
    let flush_only = SystemKind::IOrchestraWith(FunctionSet::flush_only());
    let ratio_cols: Vec<String> = ctx
        .p
        .axis2
        .iter()
        .map(|r| format!("{:.0}%", r * 100.0))
        .collect();
    let mut f = Figure::new(
        "fig8",
        "Fig. 8 — FS write-throughput improvement (IOrchestra flush vs baseline)",
        "VMs",
        "%",
        ratio_cols,
    );
    for &n in ctx.p.axis {
        let n = n as usize;
        let mut row = Vec::new();
        for &r in ctx.p.axis2 {
            let (base, bops) = flush_run(SystemKind::Baseline, n, r, ctx.cfg());
            let (io, iops) = flush_run(flush_only, n, r, ctx.cfg());
            row.push(throughput_improvement_pct(base, io));
            f.samples += bops + iops;
        }
        f.row(n.to_string(), row);
    }
    vec![f]
}

fn run_table2(ctx: &Ctx) -> Vec<Figure> {
    let mut f = Figure::new(
        "table2",
        "Table 2 — app-throughput improvement vs arrival rate λ (VMs/min)",
        "λ",
        "mixed",
        cols(&["Baseline (MB/s)", "IOrchestra (MB/s)", "improvement (%)"]),
    );
    for &l in ctx.p.axis {
        let base = arrivals_run(SystemKind::Baseline, l, ctx.cfg());
        let io = arrivals_run(SystemKind::IOrchestra, l, ctx.cfg());
        f.row(
            format!("{l:.0}"),
            vec![
                base.app_bps / 1e6,
                io.app_bps / 1e6,
                throughput_improvement_pct(base.app_bps, io.app_bps),
            ],
        );
        f.samples += base.arrived + io.arrived;
    }
    vec![f]
}

// ====================================================================
// §5.4 — Fig. 9 congestion control
// ====================================================================

fn run_fig9(ctx: &Ctx) -> Vec<Figure> {
    let cong_only = SystemKind::IOrchestraWith(FunctionSet::congestion_only());
    let mut f = Figure::new(
        "fig9",
        "Fig. 9 — normalized mean latency (IOrchestra congestion-only / baseline)",
        "VMs",
        "ratio",
        cols(&["FS", "WS", "VS"]),
    );
    for &n in ctx.p.axis {
        let n = n as usize;
        let mut row = Vec::new();
        for fb in [FbKind::Fs, FbKind::Ws, FbKind::Vs] {
            let (base, bops) = congestion_run(SystemKind::Baseline, fb, n, ctx.cfg());
            let (io, iops) = congestion_run(cong_only, fb, n, ctx.cfg());
            row.push(normalized(base, io));
            f.samples += bops + iops;
        }
        f.row(n.to_string(), row);
    }
    vec![f]
}

// ====================================================================
// §5.5 — Figs. 10a, 10b/10c, 11 co-scheduling
// ====================================================================

fn run_fig10a(ctx: &Ctx) -> Vec<Figure> {
    let mut f = Figure::new(
        "fig10a",
        "Fig. 10a — I/O throughput vs % of I/O threads (IOrchestra vs SDC)",
        "% io threads",
        "mixed",
        cols(&["SDC (MB/s)", "IOrchestra (MB/s)", "improvement (%)"]),
    );
    for &t in ctx.p.axis {
        let io_threads = t as u32;
        let (sdc, sops) = cosched_run(SystemKind::Sdc, io_threads, ctx.cfg());
        let (io, iops) = cosched_run(SystemKind::IOrchestra, io_threads, ctx.cfg());
        f.row(
            format!("{}%", io_threads * 10),
            vec![sdc / 1e6, io / 1e6, throughput_improvement_pct(sdc, io)],
        );
        f.samples += sops + iops;
    }
    vec![f]
}

fn run_fig10bc_fig11(ctx: &Ctx) -> Vec<Figure> {
    let mut b = Figure::new(
        "fig10b",
        "Fig. 10b — improvement in VMs completed vs λ",
        "λ",
        "%",
        cols(&["SDC", "IOrchestra"]),
    );
    let mut c = Figure::new(
        "fig10c",
        "Fig. 10c — average CPU utilization vs λ",
        "λ",
        "%",
        cols(&["Baseline", "SDC", "IOrchestra"]),
    );
    let mut f11 = Figure::new(
        "fig11",
        "Fig. 11 — I/O throughput improvement over baseline vs λ",
        "λ",
        "%",
        cols(&["SDC", "IOrchestra"]),
    );
    for &l in ctx.p.axis {
        let base = arrivals_run(SystemKind::Baseline, l, ctx.cfg());
        let sdc = arrivals_run(SystemKind::Sdc, l, ctx.cfg());
        let io = arrivals_run(SystemKind::IOrchestra, l, ctx.cfg());
        let imp = |x: u64| {
            if base.completed == 0 {
                0.0
            } else {
                (x as f64 - base.completed as f64) / base.completed as f64 * 100.0
            }
        };
        let x = format!("{l:.0}");
        b.row(x.clone(), vec![imp(sdc.completed), imp(io.completed)]);
        c.row(
            x.clone(),
            vec![
                base.cpu_utilization * 100.0,
                sdc.cpu_utilization * 100.0,
                io.cpu_utilization * 100.0,
            ],
        );
        f11.row(
            x,
            vec![
                throughput_improvement_pct(base.io_bps, sdc.io_bps),
                throughput_improvement_pct(base.io_bps, io.io_bps),
            ],
        );
        let n = base.arrived + sdc.arrived + io.arrived;
        b.samples += n;
        c.samples += n;
        f11.samples += n;
    }
    vec![b, c, f11]
}

// ====================================================================
// §5.6 — Fig. 12 bursty writes
// ====================================================================

fn run_fig12(ctx: &Ctx) -> Vec<Figure> {
    let mut out = Vec::new();
    for &burst_ms in ctx.p.axis2 {
        let burst_ms = burst_ms as u64;
        let mut f = Figure::new(
            format!("fig12_b{burst_ms}"),
            format!("Fig. 12 — YCSB1 99.9th pct latency (us), {burst_ms} ms bursts"),
            "req/s",
            "us",
            cols(HEADLINE),
        );
        for &r in ctx.p.axis {
            let mut row = Vec::new();
            for k in headline() {
                let h = bursty_run(k, r, SimDuration::from_millis(burst_ms), ctx.cfg());
                row.push(h.p999().as_micros_f64());
                f.samples += h.count();
            }
            f.row(format!("{r:.0}"), row);
        }
        out.push(f);
    }
    out
}

// ====================================================================
// Ablations (DESIGN.md §5)
// ====================================================================

/// Run the bursty-writes scenario under an arbitrary policy set — the
/// named-set sweep runs every plane the engine knows through here.
fn bursty_with_set(set: PolicySet, mode: IoPathMode, rate: f64, cfg: RunCfg) -> (f64, u64) {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = cl.add_machine(MachineConfig::paper_testbed(cfg.seed, mode));
    cl.install_control(s, idx, Box::new(PolicyEngine::new(set)));
    let wb = |g: &mut iorch_guestos::GuestConfig| {
        g.wb.periodic_interval = SimDuration::from_millis(1000);
        g.wb.dirty_expire = SimDuration::from_millis(3000);
    };
    let a = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(20), wb);
    let b = cl.create_domain(s, idx, VmSpec::new(2, 4).with_disk_gb(20), wb);
    let rec = recorder(cfg.record_after());
    let mut p = YcsbParams::ycsb1(rate, cfg.seed).with_burst(SimDuration::from_millis(50));
    p.memtable_flush_bytes = 2 << 20;
    spawn_ycsb(
        cl,
        s,
        &[
            VmRef {
                machine: idx,
                dom: a,
            },
            VmRef {
                machine: idx,
                dom: b,
            },
        ],
        None,
        p,
        Rc::clone(&rec),
    );
    sim.run_until(cfg.horizon());
    let r = rec.borrow();
    (r.hist.p999().as_micros_f64(), r.ops)
}

/// Same scenario with a custom-configured IOrchestra plane (full function
/// set unless restricted by `mk`).
fn bursty_with_cfg(
    mk: impl FnOnce(IOrchestraConfig) -> IOrchestraConfig,
    rate: f64,
    cfg: RunCfg,
) -> (f64, u64) {
    bursty_with_set(
        PolicySet::iorchestra(mk(IOrchestraConfig::new(cfg.seed))),
        IoPathMode::DedicatedCores { per_socket: true },
        rate,
        cfg,
    )
}

/// Fig. 10a-style cosched run with a tweaked plane (weight-update and DRR
/// ablations); matches the historical 1 s warm-up / 5 s measure spans.
fn cosched_with_cfg(mk: impl FnOnce(&mut IOrchestraConfig), seed: u64) -> (f64, u64) {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = cl.add_machine(MachineConfig::paper_testbed(
        seed,
        IoPathMode::DedicatedCores { per_socket: true },
    ));
    let mut pcfg = IOrchestraConfig::new(seed).with_functions(FunctionSet::cosched_only());
    mk(&mut pcfg);
    cl.install_control(
        s,
        idx,
        Box::new(PolicyEngine::new(PolicySet::iorchestra(pcfg))),
    );
    let dom = cl.create_domain(s, idx, VmSpec::new(10, 10).with_disk_gb(60), |_| {});
    let rec = recorder(SimTime::from_secs(1));
    spawn_multistream(
        cl,
        s,
        VmRef { machine: idx, dom },
        MultiStreamParams {
            streams: 6,
            file_size: 2 << 30,
            read_size: 1 << 20,
            seed,
        },
        Rc::clone(&rec),
    );
    sim.run_until(SimTime::from_secs(6));
    let now = sim.now();
    let r = rec.borrow();
    (r.throughput_bps(now), r.ops)
}

fn run_ablation(ctx: &Ctx) -> Vec<Figure> {
    let rate = 600.0;
    let mut out = Vec::new();

    // Ablation 0: every named policy set on one engine. This is the only
    // figure the smoke profile runs — the tier-1 sweep pays for the set
    // coverage, not the parameter grids.
    let mut t0 = Figure::new(
        "ablation_named",
        "Ablation — named policy sets (YCSB1 bursty p99.9, us)",
        "policy set",
        "us",
        cols(&["p99.9 (us)"]),
    );
    let only = SystemKind::IOrchestraWith;
    for (name, kind) in [
        ("baseline", SystemKind::Baseline),
        ("sdc", SystemKind::Sdc),
        ("dif", SystemKind::Dif),
        ("flush_only", only(FunctionSet::flush_only())),
        ("congestion_only", only(FunctionSet::congestion_only())),
        ("cosched_only", only(FunctionSet::cosched_only())),
        ("iorchestra", SystemKind::IOrchestra),
    ] {
        let (v, ops) = bursty_with_set(kind.policy_set(ctx.seed), kind.io_mode(), rate, ctx.cfg());
        t0.row(name, vec![v]);
        t0.samples += ops;
    }
    out.push(t0);
    if ctx.is_smoke() {
        return out;
    }

    // Ablation 1: congestion wake interleave.
    let mut t1 = Figure::new(
        "ablation_interleave",
        "Ablation — congestion wake interleave (YCSB1 bursty p99.9, us)",
        "interleave",
        "us",
        cols(&["p99.9 (us)"]),
    );
    for (label, max_ms) in [
        ("none (thundering herd)", 0u64),
        ("0-25 ms", 25),
        ("0-99 ms (paper)", 99),
        ("0-400 ms", 400),
    ] {
        let (v, ops) = bursty_with_cfg(
            |mut c| {
                c.wake_interleave_max_ms = max_ms;
                c
            },
            rate,
            ctx.cfg(),
        );
        t1.row(label, vec![v]);
        t1.samples += ops;
    }
    out.push(t1);

    // Ablation 2: co-scheduler weight-update policy.
    let mut t2 = Figure::new(
        "ablation_weight",
        "Ablation — weight update policy (Fig. 10a setting, 60% io threads)",
        "policy",
        "mixed",
        cols(&["IOrchestra (MB/s)"]),
    );
    for (label, interval_ms, threshold) in [
        ("always (every tick)", 0u64, 0.0f64),
        ("1 s or >50% change (paper)", 1000, 0.5),
        ("never update", u64::MAX / 2_000_000, 1e18),
    ] {
        let (bps, ops) = cosched_with_cfg(
            |c| {
                c.weight_update_interval = SimDuration::from_millis(interval_ms.min(1 << 40));
                c.weight_change_threshold = threshold;
            },
            ctx.seed,
        );
        t2.row(label, vec![bps / 1e6]);
        t2.samples += ops;
    }
    out.push(t2);

    // Ablation 3: DRR round length (quantum scale).
    let mut t3 = Figure::new(
        "ablation_drr",
        "Ablation — DRR round length (quantum = BW_max * share * round)",
        "round",
        "mixed",
        cols(&["IOrchestra (MB/s)"]),
    );
    for (label, us) in [
        ("100 us", 100u64),
        ("1 ms (default)", 1000),
        ("10 ms", 10_000),
        ("100 ms", 100_000),
    ] {
        let (bps, ops) = cosched_with_cfg(
            |c| {
                c.drr_round = SimDuration::from_micros(us);
            },
            ctx.seed,
        );
        t3.row(label, vec![bps / 1e6]);
        t3.samples += ops;
    }
    out.push(t3);

    // Reference: headline systems on the same bursty load.
    let mut t4 = Figure::new(
        "ablation_reference",
        "Reference — headline systems on the same bursty load (p99.9, us)",
        "system",
        "us",
        cols(&["p99.9 (us)"]),
    );
    for k in headline() {
        let h = bursty_run(k, rate, SimDuration::from_millis(50), ctx.cfg());
        t4.row(k.label(), vec![h.p999().as_micros_f64()]);
        t4.samples += h.count();
    }
    out.push(t4);
    out
}

// ====================================================================
// Live telemetry (the 10th exp_* target)
// ====================================================================

fn run_telemetry(ctx: &Ctx) -> Vec<Figure> {
    let rate = ctx.p.axis[0];
    let cadence = SimDuration::from_millis(ctx.p.axis2[0] as u64);
    let slo = ctx.spec.slo.expect("telemetry spec declares an SLO");
    let (reports, ops) = telemetry_run(SystemKind::IOrchestra, rate, cadence, slo, ctx.cfg());
    let mut f = Figure::new(
        "telemetry",
        "Live telemetry — per-window p50/p99/SLO violations (YCSB1 bursty, IOrchestra)",
        "t (s)",
        "mixed",
        cols(&["ops", "p50 (us)", "p99 (us)", "SLO viol", "dev ops"]),
    );
    for r in &reports {
        f.row(
            format!("{:.3}", r.end.as_secs_f64()),
            vec![
                r.ops as f64,
                r.p50.as_micros_f64(),
                r.p99.as_micros_f64(),
                r.slo_violations as f64,
                r.dev_ops as f64,
            ],
        );
    }
    f.samples = ops;
    vec![f]
}

// ====================================================================
// The registry
// ====================================================================

const NONE: &[f64] = &[];

/// Every named experiment, in EXPERIMENTS.md order.
pub static REGISTRY: &[Spec] = &[
    Spec {
        name: "motivation",
        title: "§2 motivation: congestion avoidance on vs collaborative",
        systems: &["Baseline", "IOrchestra (congestion-only)"],
        figures: &["motivation"],
        smoke: RunProfile {
            warmup_ms: 300,
            measure_ms: 700,
            repeats: 1,
            axis: NONE,
            axis2: NONE,
        },
        full: RunProfile {
            warmup_ms: 1000,
            measure_ms: 5000,
            repeats: 1,
            axis: NONE,
            axis2: NONE,
        },
        slo: None,
        timing: false,
        notes: "paper: 220 ms -> 160 ms (27% improvement); the reproduction target is the \
                double-digit relative gap, not the absolute numbers.",
        run: run_motivation,
    },
    Spec {
        name: "fig4",
        title: "Fig. 4 — latency at different workload intensities (Olio + 2 stores)",
        systems: HEADLINE,
        figures: &["fig4a", "fig4d", "fig4b", "fig4e", "fig4c", "fig4f"],
        smoke: RunProfile {
            warmup_ms: 300,
            measure_ms: 700,
            repeats: 1,
            axis: &[50.0, 150.0],
            axis2: &[500.0, 1500.0],
        },
        full: RunProfile {
            warmup_ms: 2000,
            measure_ms: 6000,
            repeats: 3,
            axis: &[50.0, 100.0, 150.0, 200.0, 250.0, 300.0],
            axis2: &[500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0],
        },
        slo: None,
        timing: false,
        notes: "paper shapes: IOrchestra lowest on every series; overall mean ~9% and 99.9th \
                ~12% below baseline; YCSB1 gains (13/16%) exceed YCSB2's.",
        run: run_fig4,
    },
    Spec {
        name: "fig5_fig6",
        title: "Figs. 5/6 — latency distributions at full load",
        systems: &["Baseline", "IOrchestra"],
        figures: &["fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig6_means"],
        smoke: RunProfile {
            warmup_ms: 300,
            measure_ms: 700,
            repeats: 1,
            axis: &[100.0],
            axis2: &[1000.0],
        },
        full: RunProfile {
            warmup_ms: 2000,
            measure_ms: 6000,
            repeats: 1,
            axis: &[300.0],
            axis2: &[3000.0],
        },
        slo: None,
        timing: false,
        notes: "paper: mean improvements 11.2% (Olio), 21.6% (db tier), 19.8% (file tier); \
                I/O tiers improve more than end-to-end.",
        run: run_fig5_fig6,
    },
    Spec {
        name: "fig7",
        title: "Fig. 7 — normalized mean I/O latency vs cluster size",
        systems: HEADLINE,
        figures: &["fig7a", "fig7b"],
        smoke: RunProfile {
            warmup_ms: 500,
            measure_ms: 2500,
            repeats: 1,
            axis: &[1.0, 2.0],
            axis2: NONE,
        },
        full: RunProfile {
            warmup_ms: 1000,
            measure_ms: 3000,
            repeats: 1,
            axis: &[1.0, 2.0, 4.0, 6.0, 8.0],
            axis2: NONE,
        },
        slo: None,
        timing: false,
        notes: "paper shapes: IOrchestra ~0.87-0.90 across sizes (10.1% mpiBLAST, 12.9% \
                YCSB1 average gains).",
        run: run_fig7,
    },
    Spec {
        name: "fig8",
        title: "Fig. 8 — FS write-throughput improvement from the flush function",
        systems: &["Baseline", "IOrchestra (flush-only)"],
        figures: &["fig8"],
        smoke: RunProfile {
            warmup_ms: 500,
            measure_ms: 1500,
            repeats: 1,
            axis: &[2.0, 6.0],
            axis2: &[0.2, 0.4],
        },
        full: RunProfile {
            warmup_ms: 2000,
            measure_ms: 5000,
            repeats: 1,
            axis: &[2.0, 6.0, 10.0, 14.0, 20.0],
            axis2: &[0.10, 0.20, 0.30, 0.40],
        },
        slo: None,
        timing: false,
        notes: "paper shape: improvement grows with VM count and dirty ratio, peaking ~21% \
                at 20 VMs / 40%.",
        run: run_fig8,
    },
    Spec {
        name: "table2",
        title: "Table 2 — app-throughput improvement under dynamic VM arrivals",
        systems: &["Baseline", "IOrchestra"],
        figures: &["table2"],
        smoke: RunProfile {
            warmup_ms: 500,
            measure_ms: 3500,
            repeats: 1,
            axis: &[60.0, 90.0],
            axis2: NONE,
        },
        full: RunProfile {
            warmup_ms: 2000,
            measure_ms: 58000,
            repeats: 1,
            axis: &[4.0, 8.0, 12.0, 16.0, 20.0],
            axis2: NONE,
        },
        slo: None,
        timing: false,
        notes: "paper: 6.6 / 19.1 / 24.5 / 29.8 / 30.6 % — improvement grows with λ. The \
                smoke profile uses compressed spans with proportionally higher λ.",
        run: run_table2,
    },
    Spec {
        name: "fig9",
        title: "Fig. 9 — congestion control with FS / WS / VS",
        systems: &["Baseline", "IOrchestra (congestion-only)"],
        figures: &["fig9"],
        smoke: RunProfile {
            warmup_ms: 300,
            measure_ms: 700,
            repeats: 1,
            axis: &[2.0],
            axis2: NONE,
        },
        full: RunProfile {
            warmup_ms: 2000,
            measure_ms: 5000,
            repeats: 1,
            axis: &[2.0, 6.0, 10.0, 14.0, 20.0],
            axis2: NONE,
        },
        slo: None,
        timing: false,
        notes: "paper shape: FS benefits most (down to ~0.90); WS/VS closer to 1.0; all \
                curves approach 1.0 as the device becomes genuinely congested.",
        run: run_fig9,
    },
    Spec {
        name: "fig10a",
        title: "Fig. 10a — co-scheduling, mixed intensity in one big VM",
        systems: &["SDC", "IOrchestra"],
        figures: &["fig10a"],
        smoke: RunProfile {
            warmup_ms: 300,
            measure_ms: 700,
            repeats: 1,
            axis: &[2.0, 6.0],
            axis2: NONE,
        },
        full: RunProfile {
            warmup_ms: 1000,
            measure_ms: 5000,
            repeats: 1,
            axis: &[2.0, 4.0, 6.0, 8.0],
            axis2: NONE,
        },
        slo: None,
        timing: false,
        notes: "paper shape: 2-14% improvement, largest at moderate intensity (40-60%).",
        run: run_fig10a,
    },
    Spec {
        name: "fig10bc_fig11",
        title: "Figs. 10b/10c/11 — dynamic arrivals: completions, CPU, I/O throughput",
        systems: &["Baseline", "SDC", "IOrchestra"],
        figures: &["fig10b", "fig10c", "fig11"],
        smoke: RunProfile {
            warmup_ms: 500,
            measure_ms: 3500,
            repeats: 1,
            axis: &[60.0, 90.0],
            axis2: NONE,
        },
        full: RunProfile {
            warmup_ms: 2000,
            measure_ms: 118000,
            repeats: 1,
            axis: &[4.0, 8.0, 12.0, 16.0, 20.0],
            axis2: NONE,
        },
        slo: None,
        timing: false,
        notes: "paper shapes: IOrchestra's completed-VM gain grows with λ to ~6.6%; SDC's \
                I/O gain collapses at high λ while IOrchestra's roughly doubles it.",
        run: run_fig10bc_fig11,
    },
    Spec {
        name: "fig12",
        title: "Fig. 12 — YCSB1 tail latency under bursty writes",
        systems: HEADLINE,
        figures: &["fig12_b50", "fig12_b100"],
        smoke: RunProfile {
            warmup_ms: 300,
            measure_ms: 700,
            repeats: 1,
            axis: &[300.0, 600.0],
            axis2: &[50.0],
        },
        full: RunProfile {
            warmup_ms: 2000,
            measure_ms: 8000,
            repeats: 1,
            axis: &[200.0, 500.0, 1000.0, 1500.0, 2000.0, 3000.0],
            axis2: &[50.0, 100.0],
        },
        slo: None,
        timing: false,
        notes: "paper shape: the baseline tail blows past 1 ms at ~800 (50 ms bursts) and \
                ~500 req/s (100 ms); IOrchestra sustains the highest rate under 1 ms.",
        run: run_fig12,
    },
    Spec {
        name: "ablation",
        title: "Ablations of IOrchestra's design choices (DESIGN.md §5)",
        systems: &[
            "baseline",
            "sdc",
            "dif",
            "flush_only",
            "congestion_only",
            "cosched_only",
            "iorchestra",
        ],
        figures: &[
            "ablation_named",
            "ablation_interleave",
            "ablation_weight",
            "ablation_drr",
            "ablation_reference",
        ],
        smoke: RunProfile {
            warmup_ms: 300,
            measure_ms: 700,
            repeats: 1,
            axis: NONE,
            axis2: NONE,
        },
        full: RunProfile {
            warmup_ms: 2000,
            measure_ms: 8000,
            repeats: 1,
            axis: NONE,
            axis2: NONE,
        },
        slo: None,
        timing: false,
        notes: "smoke runs only the named-set sweep; the parameter ablations need the \
                full profile.",
        run: run_ablation,
    },
    Spec {
        name: "telemetry",
        title: "Live telemetry — streaming p50/p99/SLO windows from a bursty run",
        systems: &["IOrchestra"],
        figures: &["telemetry"],
        smoke: RunProfile {
            warmup_ms: 300,
            measure_ms: 700,
            repeats: 1,
            axis: &[600.0],
            axis2: &[100.0],
        },
        full: RunProfile {
            warmup_ms: 2000,
            measure_ms: 8000,
            repeats: 1,
            axis: &[600.0],
            axis2: &[500.0],
        },
        slo: Some(SimDuration::from_millis(1)),
        timing: false,
        notes: "axis = YCSB1 req/s, axis2 = export cadence (ms); the run streams one \
                [telemetry] line per window (see DESIGN.md §12 for the determinism \
                contract: the tap never perturbs the RNG stream or trace identity).",
        run: run_telemetry,
    },
    Spec {
        name: "scale",
        title: "Control-plane scaling — tick cost at 16/128/1024 domains",
        systems: &["IOrchestra"],
        figures: &["scale"],
        smoke: RunProfile {
            warmup_ms: 0,
            measure_ms: 0,
            repeats: 1,
            axis: &[16.0, 128.0, 1024.0],
            axis2: &[16.0, 4096.0, 128.0],
        },
        full: RunProfile {
            warmup_ms: 0,
            measure_ms: 0,
            repeats: 1,
            axis: &[16.0, 128.0, 1024.0],
            axis2: &[32.0, 65536.0, 1024.0],
        },
        slo: None,
        timing: true,
        notes: "axis = live domains, axis2 = [warmup, steady, churn] tick counts; \
                measures wall-clock ns/tick (steady state and 1% tenant churn) and \
                emits BENCH_scale.json with the 4x steady-state scaling gate. \
                Wall-clock: excluded from `run all` and the golden sweeps.",
        run: crate::exp::scale::run_scale,
    },
    Spec {
        name: "cluster",
        title: "Cluster tier — fault convergence vs node count",
        systems: &["IOrchestra"],
        figures: &["cluster"],
        smoke: RunProfile {
            warmup_ms: 0,
            measure_ms: 0,
            repeats: 1,
            axis: &[3.0, 4.0],
            axis2: &[6.0],
        },
        full: RunProfile {
            warmup_ms: 0,
            measure_ms: 0,
            repeats: 1,
            axis: &[3.0, 4.0, 6.0, 8.0],
            axis2: &[8.0],
        },
        slo: None,
        timing: false,
        notes: "axis = node counts, axis2 = [domains per node]; each cell injects a \
                node crash, a lossy partition and a controller crash, measures the \
                time until the steady-state digest is byte-identical to the no-fault \
                run's, and gates on convergence with zero duplicated ownership. \
                Emits BENCH_cluster.json.",
        run: crate::exp::cluster::run_cluster,
    },
];
