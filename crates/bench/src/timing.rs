//! A small wall-clock timing harness (no external bench framework).
//!
//! Replaces the `criterion` dev-dependency so the whole workspace builds
//! offline. Deliberately minimal: warm up, then run batches of the closure
//! against `std::time::Instant` until a measurement budget is spent, and
//! report mean nanoseconds per iteration. That is enough to (a) print
//! comparable micro-benchmark numbers and (b) compute the seed-vs-now
//! speedup ratios in `BENCH_hotpath.json`, where both sides are measured
//! by this same harness in the same process.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark name.
    pub name: String,
    /// Iterations measured (after warmup).
    pub iters: u64,
    /// Wall-clock time across all measured iterations.
    pub elapsed: Duration,
}

impl Sample {
    /// Mean nanoseconds per iteration.
    pub fn ns_per_iter(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.iters.max(1) as f64
    }

    /// Print a one-line report (criterion-ish format).
    pub fn report(&self) {
        println!(
            "{:<44} {:>12.1} ns/iter  ({} iters in {:.1?})",
            self.name,
            self.ns_per_iter(),
            self.iters,
            self.elapsed
        );
    }
}

/// Timing configuration: how long to warm up and how long to measure.
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    /// Warmup budget (results discarded).
    pub warmup: Duration,
    /// Measurement budget.
    pub measure: Duration,
}

impl Default for Timer {
    fn default() -> Self {
        Timer {
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(800),
        }
    }
}

impl Timer {
    /// Measure `f`, returning the sample. The closure's return value goes
    /// through [`black_box`] so the work is not optimized away.
    pub fn time<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Sample {
        // Warmup, also calibrating a batch size that makes one batch last
        // roughly 1/50th of the measurement budget (so the Instant reads
        // stay off the hot path without starving the loop of samples).
        let mut batch: u64 = 1;
        let warm_start = Instant::now();
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed();
            if warm_start.elapsed() >= self.warmup {
                let target = self.measure / 50;
                if dt < target && batch < u64::MAX / 2 {
                    let scale = (target.as_nanos() as f64 / dt.as_nanos().max(1) as f64).min(128.0);
                    batch = ((batch as f64 * scale) as u64).max(batch + 1);
                }
                break;
            }
            if dt < Duration::from_millis(5) && batch < u64::MAX / 2 {
                batch *= 2;
            }
        }
        // Measurement.
        let mut iters = 0u64;
        let mut elapsed = Duration::ZERO;
        while elapsed < self.measure {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            elapsed += t0.elapsed();
            iters += batch;
        }
        Sample {
            name: name.to_string(),
            iters,
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let t = Timer {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(5),
        };
        let mut acc = 0u64;
        let s = t.time("spin", || {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            acc
        });
        assert!(s.iters > 0);
        assert!(s.ns_per_iter() > 0.0);
        assert!(s.elapsed >= Duration::from_millis(5));
    }
}
