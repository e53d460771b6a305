//! Installing a [`FaultPlan`] across the machine's layers.
//!
//! The plan itself (`iorch_simcore::faults`) is pure data; this module is
//! the side-effectful half that arms it on a concrete [`Machine`]:
//!
//! * device slowdown/stall windows → cloned into the
//!   [`StorageSubsystem`](iorch_storage::StorageSubsystem), which consults
//!   them at dispatch time;
//! * watch-event delay → cloned into the machine, which adds it to the
//!   XenBus delivery latency;
//! * guest misbehaviour (`IgnoreFlushNow`, `IgnoreReleaseRequest`) →
//!   [`Misbehavior`] flags toggled on the guest kernel at the window edges;
//! * store traffic faults (`StoreHammer`, `StoreViolation`) → periodic
//!   store writes scheduled on the simulation clock, issued *as the faulty
//!   domain* so permission checks, write accounting and watch delivery all
//!   see exactly what a real misbehaving guest would produce.
//!
//! Everything is scheduled up front from the plan, so a `(seed, plan)` pair
//! replays bit-for-bit.

use iorch_guestos::Misbehavior;
use iorch_simcore::{FaultKind, FaultPlan, SimTime};

use crate::domain::DomainId;
use crate::machine::{Cluster, Sched};
use crate::xenstore::XenStore;

/// Set one misbehaviour flag on a guest kernel (no-op if the domain is
/// gone).
fn set_flag(
    cl: &mut Cluster,
    idx: usize,
    dom: DomainId,
    on: bool,
    apply: impl Fn(&mut Misbehavior, bool),
) {
    if let Some(kernel) = cl.machines[idx].kernel_mut(dom) {
        let mut m = kernel.misbehavior();
        apply(&mut m, on);
        kernel.set_misbehavior(m);
    }
}

impl Cluster {
    /// Arm `plan` on machine `idx`: storage and watch-delay hooks are
    /// installed immediately, guest misbehaviour toggles and store-traffic
    /// writers are scheduled at their window edges. Install *after* the
    /// involved domains exist; a fault naming a destroyed domain degrades
    /// to a no-op.
    pub fn install_faults(&mut self, s: &mut Sched, idx: usize, plan: FaultPlan) {
        if plan.has_device_faults() {
            self.machines[idx].storage.install_faults(plan.clone());
        }
        if plan.has_watch_faults() || plan.has_bus_faults() {
            self.machines[idx].set_fault_plan(Some(plan.clone()));
        }
        for ev in plan.events() {
            let (from, until) = (ev.window.from, ev.window.until);
            match ev.kind {
                FaultKind::DeviceSlowdown { .. }
                | FaultKind::DeviceStall
                | FaultKind::WatchDelay { .. }
                // Consulted by the machine at delivery time via the
                // installed plan; nothing to schedule.
                | FaultKind::BusUnreliable { .. } => {}
                // Cluster-scope faults: armed by the cluster control tier
                // (`iorchestra::cluster`) on its message bus and node
                // lifecycle, not by a single machine.
                FaultKind::NetPartition { .. }
                | FaultKind::NetUnreliable { .. }
                | FaultKind::NetDelay { .. }
                | FaultKind::NodeCrash { .. }
                | FaultKind::ControllerCrash { .. } => {}
                FaultKind::PlaneCrash { at, recover_after } => {
                    s.schedule_at(at, move |cl: &mut Cluster, s| {
                        Cluster::crash_control(cl, s, idx);
                    });
                    s.schedule_at(at + recover_after, move |cl: &mut Cluster, s| {
                        Cluster::recover_control(cl, s, idx);
                    });
                }
                FaultKind::IgnoreFlushNow { dom } => {
                    let dom = DomainId(dom);
                    s.schedule_at(from, move |cl: &mut Cluster, _s| {
                        set_flag(cl, idx, dom, true, |m, on| m.ignore_flush_now = on);
                    });
                    if until < SimTime::MAX {
                        s.schedule_at(until, move |cl: &mut Cluster, _s| {
                            set_flag(cl, idx, dom, false, |m, on| m.ignore_flush_now = on);
                        });
                    }
                }
                FaultKind::IgnoreReleaseRequest { dom } => {
                    let dom = DomainId(dom);
                    s.schedule_at(from, move |cl: &mut Cluster, _s| {
                        set_flag(cl, idx, dom, true, |m, on| m.ignore_release_request = on);
                    });
                    if until < SimTime::MAX {
                        s.schedule_at(until, move |cl: &mut Cluster, _s| {
                            set_flag(cl, idx, dom, false, |m, on| m.ignore_release_request = on);
                        });
                    }
                }
                FaultKind::StoreHammer { dom, period } => {
                    let dom = DomainId(dom);
                    let path = format!("{}/junk", XenStore::domain_path(dom));
                    s.schedule_at(from, move |_cl: &mut Cluster, s| {
                        let path = path.clone();
                        let mut n: u64 = 0;
                        s.schedule_every(period, move |cl: &mut Cluster, s| {
                            if s.now() >= until || cl.machines[idx].domain(dom).is_none() {
                                return false;
                            }
                            n += 1;
                            let value = n.to_string();
                            cl.cp_action(s, idx, |m, _s| {
                                let _ = m.store.write(dom, &path, value.as_str());
                            });
                            true
                        });
                    });
                }
                FaultKind::StoreViolation {
                    dom,
                    victim,
                    period,
                } => {
                    let dom = DomainId(dom);
                    let victim = DomainId(victim);
                    let path = format!("{}/virt-dev/flush_now", XenStore::domain_path(victim));
                    s.schedule_at(from, move |_cl: &mut Cluster, s| {
                        let path = path.clone();
                        s.schedule_every(period, move |cl: &mut Cluster, s| {
                            if s.now() >= until || cl.machines[idx].domain(dom).is_none() {
                                return false;
                            }
                            // Denied by the store's permission model; the
                            // denial is what the anomaly detector feeds on.
                            cl.cp_action(s, idx, |m, _s| {
                                let _ = m.store.write(dom, &path, "31337");
                            });
                            true
                        });
                    });
                }
            }
        }
    }
}
