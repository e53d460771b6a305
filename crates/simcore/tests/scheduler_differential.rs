//! Differential oracle: the timer-wheel [`iorch_simcore::Scheduler`] must
//! fire the exact same events in the exact same order as the frozen
//! binary-heap engine [`iorch_simcore::event_legacy`].
//!
//! Random op scripts (schedule with nested follow-ups, cancel,
//! self-terminating periodics, horizon runs, final drain) are generated
//! once per seed and interpreted on both engines. The firing logs
//! `(time_ns, id)` are compared byte-for-byte, and so are the clock and
//! the executed-event count after every horizon run and after the final
//! drain: both engines drop a cancelled one-shot without counting it, and
//! a periodic stops only by returning `false`, so every executed event is
//! a logged firing. Cancel return values are not compared: the legacy
//! engine detects a fired token's staleness lazily and may report `true`.
//! Clock alignment between the engines is maintained by the `run_until`
//! contract: both always land exactly on the horizon, so relative delays
//! resolve to identical absolute times.

use std::cell::Cell;

use iorch_simcore::{event_legacy, gen, SimDuration, SimRng, SimTime, Simulation};

type Log = Vec<(u64, u32)>;

/// `(now_ns, events_executed)` after each horizon run and the final drain.
type Clocks = Vec<(u64, u64)>;

#[derive(Clone, Debug)]
enum Op {
    /// `schedule_in(delay)`; the callback optionally schedules a nested
    /// follow-up event (exercises scheduling from inside callbacks, which
    /// lands mid-cascade on the wheel).
    Schedule {
        delay: u64,
        id: u32,
        nested: Option<(u64, u32)>,
    },
    /// Cancel the `pick % len`-th tracked one-shot token (may already have
    /// fired — must be a no-op on the log either way).
    Cancel { pick: usize },
    /// `schedule_every(interval)` self-terminating after `max_ticks`.
    Periodic {
        interval: u64,
        max_ticks: u32,
        id: u32,
    },
    /// Run both engines to `now + delta` (inclusive horizon, clock left
    /// exactly at the horizon on both).
    RunFor { delta: u64 },
}

/// Delays spanning several wheel levels: mostly near-future, occasionally
/// far enough to land in the overflow levels and cascade back down.
fn gen_delay(rng: &mut SimRng) -> u64 {
    if rng.chance(0.04) {
        // Far future: up to ~64^8 ns, beyond the near wheels.
        rng.next_u64() >> rng.range(16, 24)
    } else {
        let level = rng.below(6);
        rng.below(64) << (6 * level)
    }
}

fn gen_script(rng: &mut SimRng, n: usize) -> Vec<Op> {
    let mut next_id = 0u32;
    let mut id = || {
        next_id += 1;
        next_id
    };
    (0..n)
        .map(|_| match rng.below(9) {
            0..=3 => Op::Schedule {
                delay: gen_delay(rng),
                id: id(),
                nested: rng.chance(0.3).then(|| (gen_delay(rng), id())),
            },
            4 | 5 => Op::Cancel {
                pick: rng.below(1 << 16) as usize,
            },
            6 => Op::Periodic {
                interval: rng.range(1, 5_000_000),
                max_ticks: rng.range(1, 12) as u32,
                id: id(),
            },
            _ => Op::RunFor {
                delta: rng.below(20_000_000),
            },
        })
        .collect()
}

fn run_wheel(script: &[Op]) -> (Log, Clocks) {
    let mut sim: Simulation<Log> = Simulation::new(Vec::new());
    let mut tokens = Vec::new();
    let mut clocks = Vec::new();
    for op in script {
        match op.clone() {
            Op::Schedule { delay, id, nested } => {
                let tok = sim.scheduler_mut().schedule_in(
                    SimDuration::from_nanos(delay),
                    move |w: &mut Log, s| {
                        w.push((s.now().as_nanos(), id));
                        if let Some((d2, id2)) = nested {
                            s.schedule_in(SimDuration::from_nanos(d2), move |w: &mut Log, s| {
                                w.push((s.now().as_nanos(), id2));
                            });
                        }
                    },
                );
                tokens.push(Some(tok));
            }
            Op::Cancel { pick } => {
                if !tokens.is_empty() {
                    let i = pick % tokens.len();
                    if let Some(tok) = tokens[i].take() {
                        sim.scheduler_mut().cancel(tok);
                    }
                }
            }
            Op::Periodic {
                interval,
                max_ticks,
                id,
            } => {
                let count = Cell::new(0u32);
                sim.scheduler_mut().schedule_every(
                    SimDuration::from_nanos(interval),
                    move |w: &mut Log, s| {
                        count.set(count.get() + 1);
                        w.push((s.now().as_nanos(), id));
                        count.get() < max_ticks
                    },
                );
            }
            Op::RunFor { delta } => {
                sim.run_for(SimDuration::from_nanos(delta));
                clocks.push(wheel_clock(&mut sim));
            }
        }
    }
    sim.run_to_completion();
    clocks.push(wheel_clock(&mut sim));
    (sim.into_world(), clocks)
}

fn wheel_clock(sim: &mut Simulation<Log>) -> (u64, u64) {
    (sim.now().as_nanos(), sim.scheduler_mut().events_executed())
}

/// Mirror of `Simulation::run_until` for the legacy scheduler: pop while
/// the next event is at or before the horizon, then land on it exactly.
fn legacy_run_until(s: &mut event_legacy::Scheduler<Log>, w: &mut Log, horizon: SimTime) {
    loop {
        match s.peek_next_time() {
            Some(t) if t <= horizon => {
                let (_, cb) = s.pop_next().expect("peek said there is an event");
                cb(w, s);
            }
            _ => break,
        }
    }
    s.advance_to(horizon);
}

fn run_legacy(script: &[Op]) -> (Log, Clocks) {
    let mut s: event_legacy::Scheduler<Log> = event_legacy::Scheduler::new();
    let mut w: Log = Vec::new();
    let mut tokens = Vec::new();
    let mut clocks = Vec::new();
    for op in script {
        match op.clone() {
            Op::Schedule { delay, id, nested } => {
                let tok = s.schedule_in(SimDuration::from_nanos(delay), move |w: &mut Log, s| {
                    w.push((s.now().as_nanos(), id));
                    if let Some((d2, id2)) = nested {
                        s.schedule_in(SimDuration::from_nanos(d2), move |w: &mut Log, s| {
                            w.push((s.now().as_nanos(), id2));
                        });
                    }
                });
                tokens.push(Some(tok));
            }
            Op::Cancel { pick } => {
                if !tokens.is_empty() {
                    let i = pick % tokens.len();
                    if let Some(tok) = tokens[i].take() {
                        s.cancel(tok);
                    }
                }
            }
            Op::Periodic {
                interval,
                max_ticks,
                id,
            } => {
                let count = Cell::new(0u32);
                s.schedule_every(SimDuration::from_nanos(interval), move |w: &mut Log, s| {
                    count.set(count.get() + 1);
                    w.push((s.now().as_nanos(), id));
                    count.get() < max_ticks
                });
            }
            Op::RunFor { delta } => {
                let horizon = s.now() + SimDuration::from_nanos(delta);
                legacy_run_until(&mut s, &mut w, horizon);
                clocks.push((s.now().as_nanos(), s.events_executed()));
            }
        }
    }
    while let Some((_, cb)) = s.pop_next() {
        cb(&mut w, &mut s);
    }
    clocks.push((s.now().as_nanos(), s.events_executed()));
    (w, clocks)
}

#[test]
fn wheel_matches_legacy_firing_order() {
    gen::for_each_seed(0x5CED_D1FF, 48, |seed, rng| {
        let script = gen_script(rng, 250);
        let (wheel, wheel_clocks) = run_wheel(&script);
        let (legacy, legacy_clocks) = run_legacy(&script);
        assert_eq!(
            wheel.len(),
            legacy.len(),
            "seed {seed}: different number of firings"
        );
        for (i, (a, b)) in wheel.iter().zip(legacy.iter()).enumerate() {
            assert_eq!(a, b, "seed {seed}: firing #{i} diverges");
        }
        // Sanity on the shared log: time must be non-decreasing.
        assert!(wheel.windows(2).all(|p| p[0].0 <= p[1].0), "seed {seed}");
        assert_eq!(
            wheel_clocks, legacy_clocks,
            "seed {seed}: clock or executed count diverges"
        );
        assert_eq!(
            wheel_clocks.last().map(|c| c.1),
            Some(wheel.len() as u64),
            "seed {seed}: every executed event is a logged firing"
        );
    });
}

#[test]
fn wheel_matches_legacy_dense_same_instant_storm() {
    // Many events crammed into few distinct instants: maximal pressure on
    // the FIFO tie-break across cascades.
    gen::for_each_seed(0xDE5E_5707, 24, |seed, rng| {
        let instants: Vec<u64> = (0..6).map(|_| rng.below(50_000_000)).collect();
        let mut next_id = 0u32;
        let script: Vec<Op> = (0..400)
            .map(|_| {
                next_id += 1;
                if next_id.is_multiple_of(40) {
                    Op::RunFor {
                        delta: rng.below(10_000_000),
                    }
                } else {
                    Op::Schedule {
                        delay: *rng.pick(&instants),
                        id: next_id,
                        nested: rng.chance(0.2).then(|| {
                            (*rng.pick(&instants), {
                                next_id += 1;
                                next_id
                            })
                        }),
                    }
                }
            })
            .collect();
        assert_eq!(
            run_wheel(&script),
            run_legacy(&script),
            "seed {seed}: storm logs, clocks or executed counts diverge"
        );
    });
}
