//! Control-plane configuration shared by every plane.
//!
//! The control planes the paper compares are expressed as
//! [`PolicySet`](crate::policy::PolicySet)s executed by one
//! [`PolicyEngine`](crate::policy::PolicyEngine) (see the
//! [`policy`](crate::policy) module). This module keeps what is shared by
//! every plane: [`FunctionSet`], [`IOrchestraConfig`], the engine's
//! timing constants and [`PlaneStats`]. The paper's full system is
//! `PolicyEngine::new(PolicySet::iorchestra(cfg))`.

use iorch_simcore::SimDuration;

/// Monitoring/management tick of a collaborative plane.
pub const TICK: SimDuration = SimDuration::from_millis(100);
/// How long a `flush_now` command may stay unacked before the management
/// module gives the slot to the next-dirtiest domain. Three ticks: a
/// healthy guest acks a flush well within one.
pub(crate) const FLUSH_ACK_TIMEOUT: SimDuration = SimDuration::from_millis(300);
/// Base retry backoff after a flush timeout (doubles per consecutive
/// timeout, capped at 64×).
pub(crate) const FLUSH_RETRY_BACKOFF: SimDuration = SimDuration::from_secs(1);
/// How long an issued `release_request` command may stay unaccepted
/// (store value still non-zero) before the per-tick reconciliation sweep
/// re-issues it under a fresh epoch. Keeps a guest alive when the bus
/// drops the grant delivery.
pub(crate) const RELEASE_ACK_TIMEOUT: SimDuration = SimDuration::from_millis(300);

/// Which of IOrchestra's three functions are enabled — §5 evaluates them
/// individually (Figs. 8–11) and together (Figs. 4–7, 12).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FunctionSet {
    /// Cross-domain dirty-page flush control (Algorithm 1).
    pub flush: bool,
    /// Collaborative congestion control (Algorithm 2).
    pub congestion: bool,
    /// Inter-domain I/O co-scheduling on dedicated cores (Algorithm 3).
    pub cosched: bool,
}

impl FunctionSet {
    /// All three functions (the full system).
    pub fn all() -> Self {
        FunctionSet {
            flush: true,
            congestion: true,
            cosched: true,
        }
    }

    /// Only the flush function (Fig. 8 / Table 2 ablation).
    pub fn flush_only() -> Self {
        FunctionSet {
            flush: true,
            congestion: false,
            cosched: false,
        }
    }

    /// Only congestion control (Fig. 9 ablation).
    pub fn congestion_only() -> Self {
        FunctionSet {
            flush: false,
            congestion: true,
            cosched: false,
        }
    }

    /// Only co-scheduling (Figs. 10–11 ablation).
    pub fn cosched_only() -> Self {
        FunctionSet {
            flush: false,
            congestion: false,
            cosched: true,
        }
    }
}

/// IOrchestra tunables.
#[derive(Clone, Copy, Debug)]
pub struct IOrchestraConfig {
    /// Enabled functions.
    pub functions: FunctionSet,
    /// Max random interleave when waking congested VMs (paper: 0–99 ms).
    pub wake_interleave_max_ms: u64,
    /// Co-scheduler: minimum interval between weight pushes (paper: 1 s).
    pub weight_update_interval: SimDuration,
    /// Co-scheduler: immediate push when ratios change more than this
    /// (paper: 50%).
    pub weight_change_threshold: f64,
    /// DRR polling-round length used to scale quanta.
    pub drr_round: SimDuration,
    /// Consecutive flush timeouts after which a domain is quarantined.
    pub flush_max_retries: u32,
    /// RNG seed for the wake interleave.
    pub seed: u64,
}

impl IOrchestraConfig {
    /// Paper defaults with all functions on.
    pub fn new(seed: u64) -> Self {
        IOrchestraConfig {
            functions: FunctionSet::all(),
            wake_interleave_max_ms: 99,
            weight_update_interval: SimDuration::from_secs(1),
            weight_change_threshold: 0.5,
            drr_round: SimDuration::from_millis(1),
            flush_max_retries: 3,
            seed,
        }
    }

    /// Restrict the enabled functions.
    pub fn with_functions(mut self, f: FunctionSet) -> Self {
        self.functions = f;
        self
    }
}

/// Counters exposed for tests and reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlaneStats {
    /// `flush_now` commands issued (Algorithm 1 activations).
    pub flushes_triggered: u64,
    /// Congestion queries answered with a release (false triggers avoided).
    pub releases_granted: u64,
    /// Congestion queries confirmed (host really congested).
    pub congestions_confirmed: u64,
    /// Staggered wakeups issued after host relief.
    pub staggered_wakeups: u64,
    /// Weight pushes to I/O cores.
    pub weight_pushes: u64,
    /// `flush_now` commands that expired unacked.
    pub flush_timeouts: u64,
    /// Domains quarantined (anomalous or persistently unresponsive).
    pub quarantines: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyEngine, PolicySet};
    use iorch_hypervisor::ControlPlane;

    #[test]
    fn function_set_presets() {
        assert!(FunctionSet::all().flush && FunctionSet::all().cosched);
        assert!(FunctionSet::flush_only().flush && !FunctionSet::flush_only().congestion);
        assert!(
            FunctionSet::congestion_only().congestion && !FunctionSet::congestion_only().cosched
        );
        assert!(FunctionSet::cosched_only().cosched && !FunctionSet::cosched_only().flush);
    }

    #[test]
    fn plane_names_survive_the_shim_removal() {
        assert_eq!(PolicyEngine::new(PolicySet::baseline()).name(), "baseline");
        assert_eq!(PolicyEngine::new(PolicySet::sdc()).name(), "sdc");
        assert_eq!(PolicyEngine::new(PolicySet::dif()).name(), "dif");
        assert_eq!(
            PolicyEngine::new(PolicySet::iorchestra(IOrchestraConfig::new(1))).name(),
            "iorchestra"
        );
    }
}
