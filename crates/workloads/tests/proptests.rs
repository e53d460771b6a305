//! Randomized tests at the workload layer: recorders and parameter
//! plumbing hold their invariants for arbitrary inputs. Driven by the
//! in-tree generators (`iorch_simcore::gen`) with a fixed seed sweep — no
//! external property-test crate.

use iorch_simcore::{gen, SimDuration, SimTime};
use iorch_workloads::recorder;
use iorch_workloads::ycsb::{BURST_PEAK_FACTOR, BURST_PERIOD};
use iorch_workloads::YcsbParams;

const CASES: usize = 64;

/// Recorder warm-up filtering: only samples at/after `record_after`
/// count, and byte totals equal the sum of counted samples.
#[test]
fn recorder_counts_exactly_post_warmup() {
    gen::for_each_seed(0x70_0001, CASES, |seed, rng| {
        let warmup_ms = rng.below(1000);
        let samples = gen::vec_between(rng, 1, 100, |r| (r.below(2000), 1 + r.below(9_999)));
        let rec = recorder(SimTime::from_millis(warmup_ms));
        let mut expect_ops = 0u64;
        let mut expect_bytes = 0u64;
        for &(t_ms, bytes) in &samples {
            rec.borrow_mut().record(
                SimTime::from_millis(t_ms),
                SimDuration::from_micros(10),
                bytes,
            );
            if t_ms >= warmup_ms {
                expect_ops += 1;
                expect_bytes += bytes;
            }
        }
        let r = rec.borrow();
        assert_eq!(r.ops, expect_ops, "seed {seed}");
        assert_eq!(r.bytes, expect_bytes, "seed {seed}");
        assert_eq!(r.hist.count(), expect_ops, "seed {seed}");
    });
}

/// Throughput is bytes divided by the measured window, never negative
/// or infinite for a positive window.
#[test]
fn throughput_well_formed() {
    gen::for_each_seed(0x70_0002, CASES, |seed, rng| {
        let bytes = 1 + rng.below(999_999_999);
        let window_ms = 1 + rng.below(99_999);
        let rec = recorder(SimTime::ZERO);
        rec.borrow_mut()
            .record(SimTime::from_millis(1), SimDuration::from_micros(5), bytes);
        let now = SimTime::from_millis(window_ms);
        let bps = rec.borrow().throughput_bps(now);
        let expect = bytes as f64 / (window_ms as f64 / 1000.0);
        assert!((bps - expect).abs() / expect < 1e-9, "seed {seed}");
    });
}

/// YCSB burst shaping conserves the configured mean rate over a cycle
/// for any rate and burst length below the period.
#[test]
fn burst_params_conserve_rate() {
    gen::for_each_seed(0x70_0003, CASES, |seed, rng| {
        let rate = gen::f64_in(rng, 10.0, 10_000.0);
        let burst_ms = 1 + rng.below(899);
        let p = YcsbParams::ycsb1(rate, 1).with_burst(SimDuration::from_millis(burst_ms));
        let burst_len = p.burst.unwrap();
        // Integrate the piecewise rate over one cycle.
        let peak = rate * BURST_PEAK_FACTOR;
        let in_burst = peak.min(rate * BURST_PERIOD.as_secs_f64() / burst_len.as_secs_f64())
            * burst_len.as_secs_f64();
        let per_cycle = rate * BURST_PERIOD.as_secs_f64();
        let off = (per_cycle - peak * burst_len.as_secs_f64()).max(0.0);
        let total = in_burst.min(per_cycle) + off;
        assert!(
            (total - per_cycle).abs() / per_cycle < 0.05,
            "cycle integral {total} vs {per_cycle} (seed {seed})"
        );
    });
}
