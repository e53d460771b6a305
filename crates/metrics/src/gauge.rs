//! Time-weighted gauges for utilization-style metrics.
//!
//! Average utilization (the storage crate's `DeviceMonitor` reports the
//! busy-channel share of a device) is a time-weighted average of a
//! piecewise-constant signal, which is what [`TimeWeightedGauge`]
//! computes online in O(1) memory.

use iorch_simcore::SimTime;

/// Online time-weighted average of a piecewise-constant value.
#[derive(Clone, Copy, Debug)]
pub struct TimeWeightedGauge {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    started: SimTime,
}

impl TimeWeightedGauge {
    /// Gauge starting with `initial` at time `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeightedGauge {
            value: initial,
            last_change: start,
            weighted_sum: 0.0,
            started: start,
        }
    }

    /// Set the value at time `now` (must be >= the previous update time).
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.last_change);
        let span = now.saturating_since(self.last_change).as_secs_f64();
        self.weighted_sum += self.value * span;
        self.value = value;
        self.last_change = now;
    }

    /// Add a delta to the current value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Current instantaneous value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Time-weighted average from the start until `now`.
    pub fn average(&self, now: SimTime) -> f64 {
        let total = now.saturating_since(self.started).as_secs_f64();
        if total <= 0.0 {
            return self.value;
        }
        let pending = now.saturating_since(self.last_change).as_secs_f64();
        (self.weighted_sum + self.value * pending) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn gauge_time_weighted_average() {
        let mut g = TimeWeightedGauge::new(ms(0), 0.0);
        g.set(ms(100), 1.0); // 0 for 100ms
        g.set(ms(300), 0.5); // 1 for 200ms
                             // then 0.5 for 100ms -> (0*0.1 + 1*0.2 + 0.5*0.1) / 0.4 = 0.625
        let avg = g.average(ms(400));
        assert!((avg - 0.625).abs() < 1e-9, "avg={avg}");
        assert_eq!(g.current(), 0.5);
    }

    #[test]
    fn gauge_add_deltas() {
        let mut g = TimeWeightedGauge::new(ms(0), 2.0);
        g.add(ms(50), 3.0);
        assert_eq!(g.current(), 5.0);
        g.add(ms(100), -5.0);
        assert_eq!(g.current(), 0.0);
    }

    #[test]
    fn gauge_average_before_any_update() {
        let g = TimeWeightedGauge::new(ms(10), 7.0);
        assert_eq!(g.average(ms(10)), 7.0);
        assert!((g.average(ms(20)) - 7.0).abs() < 1e-12);
    }
}
