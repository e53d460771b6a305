//! One repetition of a workload: build, warm up, measure, drain, check.

use std::time::{Duration, Instant};

use iorch_hypervisor::DOM0;
use iorch_simcore::SimTime;

use crate::probe::{ProbeReport, Tracer, SIMCORE_PEEK};
use crate::reference::{quiet, Reference, QUIET_SLICE};
use crate::workload::{build, GuestTotals, Size, Workload, World, DRAIN};

/// The measured span is run in this many equal windows; the digest keeps
/// each window's event count and the scheduler's pending count at each
/// boundary.
pub const WINDOWS: usize = 10;

/// Each window is timed in this many equal parts, with a reference slice
/// after each part, so the reference samples the host as often as the
/// span's speed changes (every part lasts ~0.1 s of host time).
const PARTS: usize = 4;

/// Reference slices run beside one measured span.
pub const SPAN_SLICES: u32 = (WINDOWS * PARTS) as u32;

/// Reference slices run just before and just after the set-up, each.
const SETUP_SLICES: u32 = 4;

/// Model state at one instant, read through public accessors only.
#[derive(Clone, Copy, Default)]
struct Snapshot {
    guest: GuestTotals,
    storage_submitted: u64,
    storage_merged: u64,
    read_bytes: u64,
    write_bytes: u64,
    util_integral: f64,
    iocore_processed: u64,
    store_writes: u64,
    store_denied: u64,
}

impl Snapshot {
    fn take(w: &World) -> Snapshot {
        let m = w.sim.world().machine(w.idx);
        let at = w.sim.now();
        let (read_bytes, write_bytes) = m.storage.monitor().byte_counts();
        Snapshot {
            guest: w.guest_totals(),
            storage_submitted: m.storage.submitted_count(),
            storage_merged: m.storage.merged_count(),
            read_bytes,
            write_bytes,
            util_integral: m.storage.monitor().avg_utilization(at) * at.as_secs_f64(),
            iocore_processed: m.iocores.iter().map(|c| c.processed_count()).sum(),
            store_writes: m.store.write_total(),
            store_denied: m.store.denied_total(),
        }
    }
}

/// Simulated results of the measured span, identical for every run of one
/// (workload, seed) whether traced or not.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Model {
    pub events: u64,
    pub window_events: [u64; WINDOWS],
    pub pending: [u64; WINDOWS],
    pub ops: u64,
    pub op_bytes: u64,
    pub sim_p50_us: f64,
    pub sim_p99_us: f64,
    pub sim_p999_us: f64,
    pub guest: GuestTotals,
    pub storage_submitted: u64,
    pub storage_merged: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub util: f64,
    pub iocore_processed: u64,
    pub store_writes: u64,
    pub store_denied: u64,
    pub store_nodes_end: u64,
    pub watches_end: u64,
    pub quarantined_end: u64,
    pub live_domains_end: u64,
    /// Ops started on domains live after the drain (reads, writes, syncs).
    pub attempted: u64,
    /// Of those, ops that never completed.
    pub failed: u64,
}

impl Model {
    /// FNV-1a over every simulated count, quantile and window count.
    pub fn digest(&self) -> u64 {
        let mut words: Vec<u64> = vec![self.events, self.ops, self.op_bytes];
        words.extend(self.window_events);
        words.extend(self.pending);
        words.extend(
            [
                self.sim_p50_us,
                self.sim_p99_us,
                self.sim_p999_us,
                self.util,
            ]
            .map(f64::to_bits),
        );
        words.extend(self.guest.words());
        words.extend([
            self.storage_submitted,
            self.storage_merged,
            self.read_bytes,
            self.write_bytes,
            self.iocore_processed,
            self.store_writes,
            self.store_denied,
            self.store_nodes_end,
            self.watches_end,
            self.quarantined_end,
            self.live_domains_end,
            self.attempted,
            self.failed,
        ]);
        fnv(words)
    }
}

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One repetition's results.
pub struct Rep {
    /// Seed of the repetition's input set.
    pub seed: u64,
    /// Host time to build the world and run the simulated warm-up.
    pub setup: Duration,
    /// Host time of the reference slices run just before and just after
    /// the set-up.
    pub setup_slices: Duration,
    /// Host time of the measured span.
    pub wall: Duration,
    /// Host time of the reference slices run after each part of each
    /// window of the span (not part of `wall`).
    pub span_slices: Duration,
    pub model: Model,
    /// Present for traced repetitions.
    pub probe: Option<ProbeReport>,
    /// Host time of the traced step loop (the sum every self time adds to).
    pub step_total: Duration,
}

impl Rep {
    /// Set-up host time rescaled to a quiet phase.
    pub fn quiet_setup(&self) -> f64 {
        quiet(self.setup, self.setup_slices, 2 * SETUP_SLICES)
    }

    /// Factor that rescales a host time of the span to a quiet phase.
    pub fn quiet_scale(&self) -> f64 {
        (QUIET_SLICE * SPAN_SLICES).as_secs_f64() / self.span_slices.as_secs_f64()
    }
}

/// Run `w` once. A traced repetition steps the simulation event by event
/// under the tap; an untraced one uses `run_until` per part of a window.
/// Slices of `reference` run before and after the set-up and after every
/// part.
pub fn run_once(
    w: Workload,
    seed: u64,
    size: Size,
    traced: bool,
    reference: &mut Reference,
) -> Rep {
    let tracer = traced.then(Tracer::install);
    let (warmup, measure) = w.spans(size);

    let mut setup_slices = reference.slices(SETUP_SLICES);
    let t0 = Instant::now();
    let mut world = build(w, seed, size);
    world.sim.run_until(SimTime::ZERO + warmup);
    let setup = t0.elapsed();
    setup_slices += reference.slices(SETUP_SLICES);

    let start = Snapshot::take(&world);
    let mut model = Model::default();
    let mut step_total = Duration::ZERO;
    let (mut wall, mut span_slices) = (Duration::ZERO, Duration::ZERO);
    if let Some(t) = &tracer {
        t.set_measuring(true);
    }
    let mut events_before = world.sim.scheduler_mut().events_executed();
    let parts = (WINDOWS * PARTS) as u64;
    for k in 0..WINDOWS {
        for j in 1..=PARTS {
            let until = SimTime::ZERO + warmup + measure * (k * PARTS + j) as u64 / parts;
            let t1 = Instant::now();
            match &tracer {
                None => {
                    world.sim.run_until(until);
                }
                Some(t) => step_total += step_until(&mut world, t, until),
            }
            wall += t1.elapsed();
            span_slices += reference.slice();
        }
        let s = world.sim.scheduler_mut();
        let executed = s.events_executed();
        model.window_events[k] = executed - events_before;
        model.pending[k] = s.pending() as u64;
        events_before = executed;
    }
    if let Some(t) = &tracer {
        t.set_measuring(false);
    }
    let end = Snapshot::take(&world);

    let hist = {
        let mut h = iorch_metrics::LatencyHistogram::new();
        for r in &world.recs {
            let r = r.borrow();
            h.merge(&r.hist);
            model.ops += r.ops;
            model.op_bytes += r.bytes;
        }
        h
    };
    let us = |p: f64| hist.percentile(p).as_micros_f64();
    model.sim_p50_us = us(50.0);
    model.sim_p99_us = us(99.0);
    model.sim_p999_us = us(99.9);
    model.events = model.window_events.iter().sum();
    model.guest = end.guest.since(&start.guest);
    model.storage_submitted = end.storage_submitted - start.storage_submitted;
    model.storage_merged = end.storage_merged - start.storage_merged;
    model.read_bytes = end.read_bytes - start.read_bytes;
    model.write_bytes = end.write_bytes - start.write_bytes;
    model.util = (end.util_integral - start.util_integral) / measure.as_secs_f64();
    model.iocore_processed = end.iocore_processed - start.iocore_processed;
    model.store_writes = end.store_writes - start.store_writes;
    model.store_denied = end.store_denied - start.store_denied;
    {
        let m = world.sim.world().machine(world.idx);
        model.store_nodes_end = m.store.dump().len() as u64;
        model.watches_end = m.store.watch_count() as u64;
        model.quarantined_end = m
            .domains()
            .filter(|&d| {
                m.store
                    .read_ref(DOM0, iorchestra::keys::state_quarantined(d))
                    == Ok("1")
            })
            .count() as u64;
    }

    // Untimed drain: generators stop, in-flight work finishes.
    world.stop();
    let horizon = world.sim.now() + DRAIN;
    world.sim.run_until(horizon);
    let m = world.sim.world().machine(world.idx);
    for dom in m.domains() {
        let d = m.domain(dom).expect("listed domain is live");
        let s = d.kernel.stats();
        let started = s.reads + s.writes + s.syncs;
        model.attempted += started;
        model.failed += started.saturating_sub(m.ops_completed(dom));
    }
    model.live_domains_end = m.domain_count() as u64;

    let probe = tracer.map(|t| {
        let destroyed: Vec<u32> = world
            .churn
            .as_ref()
            .map(|c| c.borrow().destroyed.iter().map(|d| d.0).collect())
            .unwrap_or_default();
        t.finish(&destroyed)
    });
    Rep {
        seed,
        setup,
        setup_slices,
        wall,
        span_slices,
        model,
        probe,
        step_total,
    }
}

/// Step event by event up to `boundary` (inclusive), timing each peek at
/// the next event and each step (pop plus callback); returns the host time
/// of the loop.
fn step_until(world: &mut World, t: &Tracer, boundary: SimTime) -> Duration {
    let mut total = Duration::ZERO;
    loop {
        let a = Instant::now();
        let next = world.sim.scheduler_mut().peek_next_time();
        let b = Instant::now();
        t.charge(SIMCORE_PEEK, b - a);
        total += b - a;
        match next {
            Some(at) if at <= boundary => {}
            _ => break,
        }
        t.begin_step(b);
        world.sim.step();
        let c = Instant::now();
        t.end_step(c);
        total += c - b;
    }
    // Leaves the clock at the boundary, exactly as `run_until` does.
    world.sim.run_until(boundary);
    total
}
