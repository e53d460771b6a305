//! CPU time accounting.
//!
//! Tracks busy time per core — guest VCPU work, paravirt backend work on
//! shared cores, and dedicated I/O cores (which *spin*, so they count as
//! 100% busy from reservation onward: exactly the effect behind the
//! paper's Fig. 10c utilization comparison).

use iorch_simcore::{SimDuration, SimTime};

use crate::numa::CoreId;

#[derive(Clone, Copy, Debug, Default)]
struct CoreAccount {
    busy: SimDuration,
    spinning_since: Option<SimTime>,
}

/// Per-core busy-time ledger.
#[derive(Clone, Debug)]
pub struct CpuAccounting {
    cores: Vec<CoreAccount>,
    started: SimTime,
}

impl CpuAccounting {
    /// Ledger for `n` cores starting at `start`.
    pub fn new(n: usize, start: SimTime) -> Self {
        CpuAccounting {
            cores: vec![CoreAccount::default(); n],
            started: start,
        }
    }

    /// Record `span` of real work on a core.
    pub fn record_busy(&mut self, core: CoreId, span: SimDuration) {
        self.cores[core.0].busy += span;
    }

    /// Mark a core as a spinning (polling) I/O core from `now` onward.
    pub fn start_spinning(&mut self, core: CoreId, now: SimTime) {
        self.cores[core.0].spinning_since.get_or_insert(now);
    }

    /// Stop spinning (core released).
    pub fn stop_spinning(&mut self, core: CoreId, now: SimTime) {
        if let Some(since) = self.cores[core.0].spinning_since.take() {
            self.cores[core.0].busy += now.saturating_since(since);
        }
    }

    /// Busy time of one core up to `now`.
    pub fn core_busy(&self, core: CoreId, now: SimTime) -> SimDuration {
        let c = &self.cores[core.0];
        let spin = c
            .spinning_since
            .map(|s| now.saturating_since(s))
            .unwrap_or(SimDuration::ZERO);
        c.busy + spin
    }

    /// Machine-wide utilization in `[0, 1]` up to `now`. A spinning I/O
    /// core contributes 100% for its spinning period.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.started).as_secs_f64();
        if elapsed <= 0.0 || self.cores.is_empty() {
            return 0.0;
        }
        let busy: f64 = (0..self.cores.len())
            .map(|i| (self.core_busy(CoreId(i), now).as_secs_f64() / elapsed).min(1.0))
            .sum();
        busy / self.cores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn busy_accumulates() {
        let mut cpu = CpuAccounting::new(2, t(0));
        cpu.record_busy(CoreId(0), SimDuration::from_millis(50));
        cpu.record_busy(CoreId(0), SimDuration::from_millis(25));
        assert_eq!(
            cpu.core_busy(CoreId(0), t(100)),
            SimDuration::from_millis(75)
        );
        assert_eq!(cpu.core_busy(CoreId(1), t(100)), SimDuration::ZERO);
        // (0.75 + 0) / 2 cores
        assert!((cpu.utilization(t(100)) - 0.375).abs() < 1e-9);
    }

    #[test]
    fn spinning_counts_fully() {
        let mut cpu = CpuAccounting::new(2, t(0));
        cpu.start_spinning(CoreId(1), t(0));
        assert!((cpu.utilization(t(100)) - 0.5).abs() < 1e-9);
        cpu.stop_spinning(CoreId(1), t(50));
        // 50ms of spin over 100ms on one of two cores = 0.25.
        assert!((cpu.utilization(t(100)) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn double_start_spin_is_idempotent() {
        let mut cpu = CpuAccounting::new(1, t(0));
        cpu.start_spinning(CoreId(0), t(0));
        cpu.start_spinning(CoreId(0), t(50));
        assert!((cpu.utilization(t(100)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_capped_at_one() {
        let mut cpu = CpuAccounting::new(1, t(0));
        // Record more busy time than wall time (overlapping VCPUs).
        cpu.record_busy(CoreId(0), SimDuration::from_millis(500));
        assert!(cpu.utilization(t(100)) <= 1.0);
    }

    #[test]
    fn zero_elapsed() {
        let cpu = CpuAccounting::new(4, t(5));
        assert_eq!(cpu.utilization(t(5)), 0.0);
    }
}
