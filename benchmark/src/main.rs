//! End-to-end host-time benchmark of the IOrchestra simulator.
//!
//! ```text
//! iorch-e2e-bench --workload <webserver|fileserver|colocated|churn>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, one thread. The fixed-size workload runs once on each of
//! [`INPUT_SETS`] input sets derived from `--seed`, in as many such rounds
//! as fit in `--seconds` of host time (at least one). Host times are
//! reported rescaled to a
//! quiet phase of the machine by an interleaved reference (see
//! [`reference`]). With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced repetitions and prints the
//! per-layer metrics. The last stdout line is one JSON object. Any failed
//! output check makes the exit code nonzero.

mod probe;
mod reference;
mod run;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use probe::LAYERS;
use reference::{quiet, Reference};
use run::{fnv, run_once, Rep, SPAN_SLICES};
use workload::{Size, Workload};

/// Input sets a run derives from `--seed`. The host cost of a span
/// depends on its inputs (on `churn` the number of events moves by up to
/// 60% between seeds), so every run averages over the same number of sets.
const INPUT_SETS: u64 = 3;

/// Seed of input set `i` of the run with `--seed seed`, distinct for
/// every (seed, i).
fn input_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(INPUT_SETS).wrapping_add(i)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Host time of one measured span, rescaled to a quiet phase: the span
/// host time of every repetition over the reference time run alongside
/// it, pooled over the repetitions so that all their slices count.
fn quiet_wall<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> f64 {
    let (mut wall, mut slices, mut n) = (Duration::ZERO, Duration::ZERO, 0);
    for r in reps {
        wall += r.wall;
        slices += r.span_slices;
        n += 1;
    }
    quiet(wall, slices, SPAN_SLICES * n) / f64::from(n)
}

/// Digest of a run: the digests of its input sets, in order.
fn run_digest(plain: &[Rep]) -> u64 {
    fnv(plain
        .iter()
        .take(INPUT_SETS as usize)
        .map(|r| r.model.digest()))
}

fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let wall = quiet_wall(reps);
    let ops = reps.iter().map(|r| r.model.ops as f64).sum::<f64>() / reps.len() as f64;
    vec![
        metric("wall_s", wall, "s"),
        metric("ops_per_s", ops / wall, "1/s"),
        metric(
            "setup_s",
            median(reps.iter().map(Rep::quiet_setup).collect()),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Per-layer metrics of the first input set, the one whose seed is
/// `input_seed(seed, 0)`; the self times are medians over its traced
/// repetitions.
fn per_layer(plain: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let first = traced[0].seed;
    let plain: Vec<&Rep> = plain.iter().filter(|r| r.seed == first).collect();
    let traced: Vec<&Rep> = traced.iter().filter(|r| r.seed == first).collect();
    let probes: Vec<_> = traced.iter().filter_map(|r| r.probe.as_ref()).collect();
    let m = &traced[0].model;
    let p = probes[0];
    let self_s = |i: usize| {
        median(
            traced
                .iter()
                .filter_map(|r| Some(secs(r.probe.as_ref()?.self_time[i]) * r.quiet_scale()))
                .collect(),
        )
    };
    let mut out = Vec::new();
    for (i, layer) in LAYERS.iter().enumerate() {
        let frac = median(
            probes
                .iter()
                .map(|p| {
                    let total: Duration = p.self_time.iter().sum();
                    ratio(secs(p.self_time[i]), secs(total))
                })
                .collect(),
        );
        out.push(metric(format!("{layer}.self_s"), self_s(i), "s"));
        out.push(metric(format!("{layer}.self_frac"), frac, "ratio"));
    }
    let g = &m.guest;
    let us = |h: &iorch_metrics::LatencyHistogram, q: f64| h.percentile(q).as_micros_f64();
    let mb = |b: u64| b as f64 / (1u64 << 20) as f64;
    let c = &p.counts;
    let w = &p.waits;
    let plain_wall = quiet_wall(plain.iter().copied());
    let traced_wall = quiet_wall(traced.iter().copied());
    out.extend([
        metric(
            "host.raw_wall_s",
            median(plain.iter().map(|r| secs(r.wall)).collect()),
            "s",
        ),
        metric(
            "host.slowdown",
            median(plain.iter().map(|r| 1.0 / r.quiet_scale()).collect()),
            "ratio",
        ),
        metric("guestos.reads", g.reads as f64, "count"),
        metric("guestos.writes", g.writes as f64, "count"),
        metric(
            "guestos.cache_hit_chunks",
            g.cache_hit_chunks as f64,
            "count",
        ),
        metric(
            "guestos.cache_miss_chunks",
            g.cache_miss_chunks as f64,
            "count",
        ),
        metric(
            "guestos.cache_hit_ratio",
            ratio(
                g.cache_hit_chunks as f64,
                (g.cache_hit_chunks + g.cache_miss_chunks) as f64,
            ),
            "ratio",
        ),
        metric(
            "guestos.throttled_writes",
            g.throttled_writes as f64,
            "count",
        ),
        metric(
            "guestos.congestion_blocked_ops",
            g.congestion_blocked_ops as f64,
            "count",
        ),
        metric("guestos.block.submits", c.submits as f64, "count"),
        metric("guestos.block.merges", c.merges as f64, "count"),
        metric("guestos.block.unplugs", c.unplugs as f64, "count"),
        metric(
            "guestos.block.writeback_pages",
            c.writeback_pages as f64,
            "count",
        ),
        metric("guestos.block.wait_p50_us", us(&w.block, 50.0), "us"),
        metric("guestos.block.drained", p.drained as f64, "count"),
        metric("hypervisor.ring.pushes", c.pushes as f64, "count"),
        metric("hypervisor.ring.completions", c.completions as f64, "count"),
        metric(
            "hypervisor.ring.complete_p50_us",
            us(&w.complete, 50.0),
            "us",
        ),
        metric(
            "hypervisor.iocore.processed",
            m.iocore_processed as f64,
            "count",
        ),
        metric("hypervisor.iocore.visits", c.visits as f64, "count"),
        metric(
            "hypervisor.iocore.useful_visit_ratio",
            ratio(m.iocore_processed as f64, c.visits as f64),
            "ratio",
        ),
        metric("hypervisor.iocore.wait_p50_us", us(&w.iocore, 50.0), "us"),
        metric("storage.submitted", m.storage_submitted as f64, "count"),
        metric("storage.merged", m.storage_merged as f64, "count"),
        metric("storage.read_mb", mb(m.read_bytes), "MB"),
        metric("storage.write_mb", mb(m.write_bytes), "MB"),
        metric("storage.util", m.util, "ratio"),
        metric("storage.service_p50_us", us(&w.service, 50.0), "us"),
        metric("storage.service_p99_us", us(&w.service, 99.0), "us"),
        metric("hypervisor.store.writes", m.store_writes as f64, "count"),
        metric("hypervisor.store.denied", m.store_denied as f64, "count"),
        metric("hypervisor.store.deliveries", c.deliveries as f64, "count"),
        metric(
            "hypervisor.store.nodes_end",
            m.store_nodes_end as f64,
            "count",
        ),
        metric(
            "hypervisor.store.watches_end",
            m.watches_end as f64,
            "count",
        ),
        metric("core.policy.decisions", c.decisions as f64, "count"),
        metric("core.policy.flush_now", c.flush_now as f64, "count"),
        metric(
            "core.policy.quarantined_end",
            m.quarantined_end as f64,
            "count",
        ),
        metric("simcore.events", m.events as f64, "count"),
        metric("simcore.events_per_s", m.events as f64 / plain_wall, "1/s"),
        metric(
            "simcore.pending_max",
            m.pending.iter().copied().max().unwrap_or(0) as f64,
            "count",
        ),
        metric("workloads.ops", m.ops as f64, "count"),
        metric("workloads.sim_p50_us", m.sim_p50_us, "us"),
        metric("workloads.sim_p99_us", m.sim_p99_us, "us"),
        metric(
            "trace.overhead_frac",
            ratio(traced_wall - plain_wall, plain_wall),
            "ratio",
        ),
    ]);
    out
}

/// Every output check over all repetitions of one run. Repetitions of
/// one input set, traced or not, must give the same digest.
fn check(reps: &[&Rep]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut digests = BTreeMap::new();
    for (i, r) in reps.iter().enumerate() {
        let m = &r.model;
        let digest = *digests.entry(r.seed).or_insert(m.digest());
        if m.digest() != digest {
            errors.push(format!(
                "repetition {i} (input seed {}): digest {:016x} differs from {digest:016x}",
                r.seed,
                m.digest()
            ));
        }
        if m.ops == 0 || m.events == 0 || m.attempted == 0 {
            errors.push(format!("repetition {i}: no work measured"));
        }
        if m.failed != 0 {
            errors.push(format!(
                "repetition {i}: {} of {} ops never completed",
                m.failed, m.attempted
            ));
        }
        if let Some(p) = &r.probe {
            // The attribution must account for the whole step loop.
            let attributed = secs(p.self_time.iter().sum());
            let total = secs(r.step_total);
            if (attributed - total).abs() > 0.02 * total {
                errors.push(format!(
                    "repetition {i}: self times add to {attributed} s, step loop took {total} s"
                ));
            }
            for v in &p.violations {
                errors.push(format!("repetition {i}: ledger: {v}"));
            }
            if p.violation_count > p.violations.len() as u64 {
                errors.push(format!(
                    "repetition {i}: ledger: {} violations in all",
                    p.violation_count
                ));
            }
        }
    }
    errors
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reference = Reference::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        let started = Instant::now();
        for i in 0..INPUT_SETS {
            let (w, seed) = (args.workload, input_seed(args.seed, i));
            plain.push(run_once(w, seed, Size::Full, false, &mut reference));
            if args.trace {
                traced.push(run_once(w, seed, Size::Full, true, &mut reference));
            }
        }
        // Stop once another round as long as this one would overrun.
        if Instant::now() + started.elapsed() > deadline {
            break;
        }
    }
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let errors = check(&all);
    let metrics = if args.trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain)
    };
    let attempted = all.iter().map(|r| r.model.attempted).sum();
    let failed = all.iter().map(|r| r.model.failed).sum();

    println!(
        "workload {} seed {} repetitions {} digest {:016x}",
        args.workload.name(),
        args.seed,
        plain.len(),
        run_digest(&plain)
    );
    for (kind, reps) in [("plain", &plain), ("traced", &traced)] {
        for r in reps.iter() {
            println!(
                "{kind} repetition: input seed {}, setup {:.4} s, measured {:.4} s, slowdown {:.3}",
                r.seed,
                secs(r.setup),
                secs(r.wall),
                1.0 / r.quiet_scale()
            );
        }
    }
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{}", json(errors.is_empty(), attempted, failed, &metrics));
    if !errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(w: Workload, seed: u64, traced: bool) -> Rep {
        run_once(w, seed, Size::Smoke, traced, &mut Reference::new())
    }

    #[test]
    fn every_workload_passes_all_checks_traced_and_untraced() {
        for w in Workload::ALL {
            let plain = smoke(w, 42, false);
            let traced = smoke(w, 42, true);
            let errors = check(&[&plain, &traced]);
            assert!(errors.is_empty(), "{}: {errors:?}", w.name());
            let metrics = per_layer(&[plain], &[traced]);
            assert!(metrics.iter().all(|m| m.value.is_finite()));
        }
    }

    #[test]
    fn digest_depends_on_seed_only() {
        let w = Workload::Fileserver;
        let a = smoke(w, 42, false).model.digest();
        assert_eq!(a, smoke(w, 42, false).model.digest());
        assert_ne!(a, smoke(w, 7, false).model.digest());
    }

    #[test]
    fn a_changed_model_output_fails_the_check() {
        let a = smoke(Workload::Webserver, 42, false);
        let mut b = smoke(Workload::Webserver, 42, false);
        b.model.guest.cache_hit_chunks += 1;
        assert_eq!(check(&[&a, &b]).len(), 1);
        b.model = a.model.clone();
        b.model.failed = 1;
        assert!(check(&[&a, &b])
            .iter()
            .any(|e| e.contains("never completed")));
    }
}
