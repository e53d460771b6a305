//! Writing your own policy rule.
//!
//! IOrchestra's framework is deliberately open ("it can be easily applied
//! to other issues that require cross-domain collaboration" — paper §1).
//! This example implements a user-defined rule on the policy API the
//! built-in planes use: a *burst tamer* that rate-limits any guest whose
//! I/O rate spikes past a budget and lifts the cap once it calms down.
//! The rule only decides; the [`PolicyEngine`] owns enforcement (here the
//! ring-push rate limiter behind [`Action::RateLimit`]).
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use iorchestra_suite::core::policy::EnforcementPoint;
use iorchestra_suite::core::{Action, IOrchestraConfig, PolicyCtx, PolicyEngine, PolicySet, Rule};
use iorchestra_suite::hypervisor::{Cluster, DomainId, IoPathMode, MachineConfig, VmSpec};
use iorchestra_suite::simcore::{SimDuration, SimTime, Simulation};
use iorchestra_suite::workloads::{recorder, spawn_fileserver, FsParams, VmRef};

/// Cap any guest whose I/O rate bursts past `budget_bps`; lift the cap
/// once it falls back under half the budget.
struct BurstTamer {
    budget_bps: u64,
    cap_bps: u64,
    last_bytes: BTreeMap<DomainId, u64>,
    capped: BTreeSet<DomainId>,
}

impl Rule for BurstTamer {
    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let ticks_per_sec = 1000 / ctx.cfg().tick.as_millis().max(1);
        for dom in ctx.machine().domains() {
            let total = ctx.machine().io_bytes(dom);
            let last = self.last_bytes.insert(dom, total).unwrap_or(total);
            let rate = (total - last) * ticks_per_sec;
            if rate > self.budget_bps && self.capped.insert(dom) {
                out.push(Action::RateLimit {
                    dom,
                    bytes_per_sec: Some(self.cap_bps),
                });
            } else if rate < self.budget_bps / 2 && self.capped.remove(&dom) {
                out.push(Action::RateLimit {
                    dom,
                    bytes_per_sec: None,
                });
            }
        }
    }
}

fn run(custom: bool) -> (f64, u64) {
    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = cl.add_machine(MachineConfig::paper_testbed(9, IoPathMode::Paravirt));
    if custom {
        let set = PolicySet::custom("burst-tamer", IOrchestraConfig::new(9)).rule(
            EnforcementPoint::RingPush,
            BurstTamer {
                budget_bps: 64 << 20, // trip above 64 MiB/s...
                cap_bps: 32 << 20,    // ...cap at 32 MiB/s until calm
                last_bytes: BTreeMap::new(),
                capped: BTreeSet::new(),
            },
        );
        cl.install_control(s, idx, Box::new(PolicyEngine::new(set)));
    }
    let rec = recorder(SimTime::from_secs(1));
    for v in 0..4u64 {
        let (cl, s) = sim.parts_mut();
        let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(6), |g| {
            g.wb.periodic_interval = SimDuration::from_secs(2);
            g.wb.dirty_expire = SimDuration::from_secs(6);
        });
        spawn_fileserver(
            cl,
            s,
            VmRef { machine: idx, dom },
            FsParams {
                threads: 1,
                pool: 2_000,
                file_size: 512 << 10,
                op_cpu: SimDuration::from_millis(1),
                burst: Some((100, SimDuration::from_millis(600))),
                seed: 9 ^ v,
                ..FsParams::default()
            },
            Rc::clone(&rec),
        );
    }
    sim.run_until(SimTime::from_secs(8));
    let now = sim.now();
    let bps = rec.borrow().throughput_bps(now);
    let (_, writes) = sim.world().machine(idx).storage.monitor().byte_counts();
    (bps / 1e6, writes >> 20)
}

fn main() {
    let (plain_bps, plain_writes) = run(false);
    let (tamed_bps, tamed_writes) = run(true);
    println!("4 file-server VMs in request waves, 8 simulated seconds\n");
    println!(
        "{:<24} {:>14} {:>18}",
        "policy", "FS MB/s", "device writes (MB)"
    );
    println!(
        "{:<24} {:>14.1} {:>18}",
        "none (stock kernel)", plain_bps, plain_writes
    );
    println!(
        "{:<24} {:>14.1} {:>18}",
        "burst-tamer rule", tamed_bps, tamed_writes
    );
    println!(
        "\nThe rule is ~30 lines and only *decides*: it watches per-domain I/O \
         rates through the read-only PolicyCtx and emits Action::RateLimit. \
         The engine enforces the cap at the ring-push point with the same \
         mechanism the built-in policy sets use — no control-plane plumbing."
    );
}
